//===- analyze/cfg/CodeSource.cpp -----------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analyze/cfg/CodeSource.h"

#include "elf/ELFTypes.h"

#include <cstring>

using namespace elfie;
using namespace elfie::analyze;
using namespace elfie::analyze::cfg;

//===----------------------------------------------------------------------===//
// ElfCodeSource
//===----------------------------------------------------------------------===//

static uint8_t sectionPerm(const elf::ELFReader::SectionView &S) {
  uint8_t P = vm::PermRead;
  if (S.Flags & elf::SHF_WRITE)
    P |= vm::PermWrite;
  if (S.Flags & elf::SHF_EXECINSTR)
    P |= vm::PermExec;
  return P;
}

uint8_t ElfCodeSource::perm(uint64_t Addr) const {
  const auto *S = R.sectionContaining(Addr);
  return S ? sectionPerm(*S) : vm::PermNone;
}

bool ElfCodeSource::read(uint64_t Addr, void *Out, uint64_t Size) const {
  // Reads never span sections: adjacent ALLOC sections are separate
  // mappings, and an access straddling them is suspect anyway.
  const auto *S = R.sectionContaining(Addr);
  if (!S || Size > S->Size - (Addr - S->Addr))
    return false;
  uint64_t Off = Addr - S->Addr;
  uint8_t *O = static_cast<uint8_t *>(Out);
  // NOBITS (and any file-truncated tail) reads as zeros, matching what the
  // loader would map.
  uint64_t FromFile =
      Off < S->Data.size() ? std::min<uint64_t>(Size, S->Data.size() - Off)
                           : 0;
  if (FromFile)
    std::memcpy(O, S->Data.data() + Off, FromFile);
  if (FromFile < Size)
    std::memset(O + FromFile, 0, Size - FromFile);
  return true;
}

bool ElfCodeSource::hasWritableExec() const {
  for (const auto &S : R.sections())
    if ((S.Flags & elf::SHF_ALLOC) && (S.Flags & elf::SHF_WRITE) &&
        (S.Flags & elf::SHF_EXECINSTR))
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// PinballCodeSource
//===----------------------------------------------------------------------===//

uint8_t PinballCodeSource::perm(uint64_t Addr) const {
  int P = Mem.pagePerm(Addr);
  return P < 0 ? uint8_t(vm::PermNone) : uint8_t(P);
}

bool PinballCodeSource::read(uint64_t Addr, void *Out, uint64_t Size) const {
  if (Size && Addr + (Size - 1) < Addr)
    return false; // a wrapped range is never contiguously mapped
  return Mem.peek(Addr, Out, Size) == vm::MemFault::None;
}

bool PinballCodeSource::hasWritableExec() const {
  bool Found = false;
  Mem.forEachPage([&](uint64_t, uint8_t Perm, const uint8_t *) {
    if ((Perm & vm::PermWrite) && (Perm & vm::PermExec))
      Found = true;
  });
  return Found;
}

//===----------------------------------------------------------------------===//
// SpanCodeSource
//===----------------------------------------------------------------------===//

uint8_t SpanCodeSource::perm(uint64_t Addr) const {
  return Addr >= Base && Addr - Base < Bytes.size() ? Perm : vm::PermNone;
}

bool SpanCodeSource::read(uint64_t Addr, void *Out, uint64_t Size) const {
  if (Addr < Base)
    return false;
  uint64_t Off = Addr - Base;
  if (Off > Bytes.size() || Size > Bytes.size() - Off)
    return false;
  std::memcpy(Out, Bytes.data() + Off, Size);
  return true;
}
