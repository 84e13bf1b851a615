//===- vm/Memory.cpp ------------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "vm/Memory.h"

#include <algorithm>

using namespace elfie;
using namespace elfie::vm;

namespace {

/// Last page base covered by [Addr, Addr+Size). A range ending at (or
/// wrapping past) the top of the 64-bit space is clamped to the final
/// page, so the page walk below always terminates.
uint64_t clampedLastPage(uint64_t Addr, uint64_t Size) {
  uint64_t End = Addr + Size - 1;
  if (End < Addr) // wrapped
    End = UINT64_MAX;
  return pageBase(End);
}

alignas(GuestPageSize) const uint8_t ZeroPage[GuestPageSize] = {};

} // namespace

const uint8_t *vm::zeroPage() { return ZeroPage; }

const uint8_t *AddressSpace::readable(const PageMeta &M) {
  if (M.Dirty)
    return M.Dirty.get();
  if (M.Image)
    return M.Image;
  return ZeroPage;
}

uint8_t *AddressSpace::writable(uint64_t PageAddr, PageMeta &M) {
  if (!M.Dirty) {
    M.Dirty = std::make_unique<uint8_t[]>(GuestPageSize);
    if (M.Image) {
      std::memcpy(M.Dirty.get(), M.Image, GuestPageSize);
      M.Image = nullptr; // the private copy supersedes the image bytes
      ++MStats.CowFaults;
    } else {
      std::memset(M.Dirty.get(), 0, GuestPageSize);
    }
    MStats.DirtyBytes += GuestPageSize;
    // The readable pointer just moved to the private copy: anything that
    // cached the image/zero bytes must drop them.
    notifyPageMutation(PageAddr);
  }
  return M.Dirty.get();
}

void AddressSpace::map(uint64_t Addr, uint64_t Size, uint8_t Perm) {
  if (Size == 0)
    return;
  uint64_t First = pageBase(Addr);
  uint64_t Last = clampedLastPage(Addr, Size);
  for (uint64_t P = First;; P += GuestPageSize) {
    // New pages are metadata-only: reads see the shared zero page until an
    // image is attached or the first store allocates a private buffer.
    Pages[P].Perm |= Perm;
    if (P == Last)
      break;
  }
}

void AddressSpace::unmap(uint64_t Addr, uint64_t Size) {
  if (Size == 0)
    return;
  uint64_t First = pageBase(Addr);
  uint64_t Last = clampedLastPage(Addr, Size);
  for (uint64_t P = First;; P += GuestPageSize) {
    auto It = Pages.find(P);
    if (It != Pages.end()) {
      if (It->second.Perm & PermExec)
        notifyCodeChange(P);
      notifyPageMutation(P);
      if (It->second.Dirty)
        MStats.DirtyBytes -= GuestPageSize;
      Pages.erase(It);
    }
    if (P == Last)
      break;
  }
}

void AddressSpace::attachImage(MemImage Img) {
  ++AttachGen;
  for (const MemImage::Run &R : Img.Runs) {
    uint64_t First = pageBase(R.VAddr);
    uint64_t LastByte = R.VAddr + R.Size - 1; // addRun clamps at 2^64-1
    uint64_t Last = pageBase(LastByte);
    for (uint64_t P = First;; P += GuestPageSize) {
      PageMeta &M = Pages[P];
      if (M.AttachGen != AttachGen) {
        M.AttachGen = AttachGen;
        M.PermBeforeAttach = M.Perm;
      }
      // A run covering the whole page replaces the permissions earlier runs
      // of this image gave it.
      bool FullPage = P >= R.VAddr && LastByte - P >= GuestPageSize - 1;
      M.Perm = (FullPage ? M.PermBeforeAttach : M.Perm) | R.Perm;
      if (FullPage && !M.Dirty) {
        M.Image = R.Data + (P - R.VAddr);
      } else {
        // Partially covered edge page (unaligned run) or a page already
        // privately written: merge the covered bytes into a private copy.
        uint8_t *D = writable(P, M);
        uint64_t CopyFirst = std::max(P, R.VAddr);
        uint64_t CopyLast = std::min(LastByte, P + (GuestPageSize - 1));
        std::memcpy(D + (CopyFirst - P), R.Data + (CopyFirst - R.VAddr),
                    CopyLast - CopyFirst + 1);
      }
      if (R.Perm & PermExec)
        notifyCodeChange(P);
      if (P == Last)
        break;
    }
  }
  MStats.ImageExtents += Img.Runs.size();
  // Image pointers changed under any cached host pointers.
  notifyPageMutation(AllPages);
  // PageMeta::Image points into the image's backing (often an mmap the
  // caller drops after this call): keep it alive with the address space.
  for (auto &K : Img.Keepalives)
    Keepalives.push_back(std::move(K));
}

AddressSpace::PageMeta *AddressSpace::touch(uint64_t PageAddr) {
  auto It = Pages.find(PageAddr);
  if (It == Pages.end())
    return nullptr;
  PageMeta *P = &It->second;
  if (!P->AccessedSinceMark) {
    if (Hook)
      Hook(PageAddr, readable(*P));
    P->AccessedSinceMark = true;
  }
  return P;
}

MemFault AddressSpace::read(uint64_t Addr, void *Out, uint64_t Size) {
  uint8_t *Dst = static_cast<uint8_t *>(Out);
  while (Size > 0) {
    uint64_t Base = pageBase(Addr);
    PageMeta *P = touch(Base);
    if (!P)
      return MemFault::Unmapped;
    if (!(P->Perm & PermRead))
      return MemFault::NoPermission;
    uint64_t Off = Addr - Base;
    uint64_t Chunk = std::min<uint64_t>(Size, GuestPageSize - Off);
    std::memcpy(Dst, readable(*P) + Off, Chunk);
    Dst += Chunk;
    Addr += Chunk;
    Size -= Chunk;
  }
  return MemFault::None;
}

MemFault AddressSpace::write(uint64_t Addr, const void *Data, uint64_t Size) {
  const uint8_t *Src = static_cast<const uint8_t *>(Data);
  while (Size > 0) {
    uint64_t Base = pageBase(Addr);
    PageMeta *P = touch(Base);
    if (!P)
      return MemFault::Unmapped;
    if (!(P->Perm & PermWrite))
      return MemFault::NoPermission;
    if (P->Perm & PermExec)
      notifyCodeChange(Base);
    uint64_t Off = Addr - Base;
    uint64_t Chunk = std::min<uint64_t>(Size, GuestPageSize - Off);
    std::memcpy(writable(Base, *P) + Off, Src, Chunk);
    Src += Chunk;
    Addr += Chunk;
    Size -= Chunk;
  }
  return MemFault::None;
}

MemFault AddressSpace::fetch(uint64_t Addr, void *Out, uint64_t Size) {
  uint8_t *Dst = static_cast<uint8_t *>(Out);
  while (Size > 0) {
    uint64_t Base = pageBase(Addr);
    PageMeta *P = touch(Base);
    if (!P)
      return MemFault::Unmapped;
    if (!(P->Perm & PermExec))
      return MemFault::NoPermission;
    uint64_t Off = Addr - Base;
    uint64_t Chunk = std::min<uint64_t>(Size, GuestPageSize - Off);
    std::memcpy(Dst, readable(*P) + Off, Chunk);
    Dst += Chunk;
    Addr += Chunk;
    Size -= Chunk;
  }
  return MemFault::None;
}

MemFault AddressSpace::poke(uint64_t Addr, const void *Data, uint64_t Size) {
  const uint8_t *Src = static_cast<const uint8_t *>(Data);
  while (Size > 0) {
    uint64_t Base = pageBase(Addr);
    auto It = Pages.find(Base);
    if (It == Pages.end())
      return MemFault::Unmapped;
    if (It->second.Perm & PermExec)
      notifyCodeChange(Base);
    uint64_t Off = Addr - Base;
    uint64_t Chunk = std::min<uint64_t>(Size, GuestPageSize - Off);
    std::memcpy(writable(Base, It->second) + Off, Src, Chunk);
    Src += Chunk;
    Addr += Chunk;
    Size -= Chunk;
  }
  return MemFault::None;
}

MemFault AddressSpace::peek(uint64_t Addr, void *Out, uint64_t Size) const {
  uint8_t *Dst = static_cast<uint8_t *>(Out);
  while (Size > 0) {
    uint64_t Base = pageBase(Addr);
    auto It = Pages.find(Base);
    if (It == Pages.end())
      return MemFault::Unmapped;
    uint64_t Off = Addr - Base;
    uint64_t Chunk = std::min<uint64_t>(Size, GuestPageSize - Off);
    std::memcpy(Dst, readable(It->second) + Off, Chunk);
    Dst += Chunk;
    Addr += Chunk;
    Size -= Chunk;
  }
  return MemFault::None;
}

Expected<std::string> AddressSpace::readCString(uint64_t Addr,
                                                uint64_t MaxLen) {
  std::string Out;
  for (uint64_t I = 0; I < MaxLen; ++I) {
    char C;
    if (read(Addr + I, &C, 1) != MemFault::None)
      return makeError("unmapped memory while reading string at %#llx",
                       static_cast<unsigned long long>(Addr + I));
    if (C == '\0')
      return Out;
    Out.push_back(C);
  }
  return makeError("unterminated guest string at %#llx",
                   static_cast<unsigned long long>(Addr));
}

void AddressSpace::clearAccessTracking() {
  for (auto &[Addr, P] : Pages)
    P.AccessedSinceMark = false;
  // Cached decoded code must be dropped: lazy page capture relies on the
  // first post-reset *fetch* of each code page firing the first-touch hook,
  // which cached blocks would otherwise skip. Cached host pointers (the
  // JIT TLB) bypass touch() the same way, so they drop too.
  notifyCodeChange(AllPages);
  notifyPageMutation(AllPages);
}

void AddressSpace::forEachPage(
    const std::function<void(uint64_t, uint8_t, const uint8_t *)> &Fn) const {
  for (const auto &[Addr, P] : Pages)
    Fn(Addr, P.Perm, readable(P));
}
