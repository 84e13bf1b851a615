//===- vm/JitCache.cpp ----------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "vm/JitCache.h"

#include <cstring>

using namespace elfie;
using namespace elfie::vm;

namespace {
/// What the code buffer holds just before each block's entry.
struct BlockHeader {
  uint64_t StartPC;
  uint32_t NumInsts;
  uint32_t EndsInControlFlow;
};
static_assert(sizeof(BlockHeader) == 16, "keeps block entries 16-aligned");
} // namespace

JitCache::JitCache(const x86::JitLayout &Layout, size_t BufferBytes)
    : Layout(Layout) {
  if (!Buf.init(BufferBytes))
    return;
  x86::Encoder E;
  x86::emitJitTrampoline(E, Layout);
  if (Buf.append(E.code().data(), E.code().size()) == SIZE_MAX) {
    // A buffer too small for the trampoline is unusable; fail closed.
    Buf.endWrite();
    return;
  }
  CodeStart = Buf.used();
  Buf.endWrite();
  Ok = true;
}

void JitCache::compile(const DecodedBlock &B) {
  if (!ready())
    return;
  uint64_t PC = B.StartPC;
  if (ByPC.count(PC) || Uncompilable.count(PC))
    return;
  x86::JitBlockCode Code;
  if (!x86::emitJitBlock(PC, B.Insts.data(), B.Insts.size(), Layout, Code)) {
    Uncompilable.insert(PC);
    return;
  }

  // Fold any deferred un-patching into the same W^X flip.
  maintenance();

  CompiledBlock CB;
  CB.StartPC = PC;
  CB.NumInsts = Code.NumInsts;
  CB.EndsInControlFlow = isa::isControlFlow(B.Insts[Code.NumInsts - 1].Op);
  // The block log's view of the block goes in front of its code.
  BlockHeader H{PC, CB.NumInsts, CB.EndsInControlFlow};
  std::vector<uint8_t> Bytes(sizeof(H));
  std::memcpy(Bytes.data(), &H, sizeof(H));
  Bytes.insert(Bytes.end(), Code.Code.begin(), Code.Code.end());

  Buf.beginWrite();
  size_t Off = Buf.append(Bytes.data(), Bytes.size());
  if (Off == SIZE_MAX) {
    // Exhausted: flush everything (counts a Flush) and retry once. Safe —
    // compilation only ever runs from interpreter context, never from
    // inside the buffer.
    invalidateAll();
    Off = Buf.append(Bytes.data(), Bytes.size());
    if (Off == SIZE_MAX) {
      Buf.endWrite();
      return; // single block larger than the whole buffer
    }
  }
  Off += sizeof(H);
  CB.Entry = Off;
  // The id the block logs on entry.
  Buf.patch32(Off + Code.LogIdOff, static_cast<uint32_t>(Off));

  // Resolve this block's chain exits: self-loops and already-compiled
  // targets are patched now, the rest wait in PendingSites.
  for (const x86::JitChainExit &X : Code.Exits) {
    size_t Site = Off + X.JmpOff; // globalize the block-relative offset
    size_t TargetEntry;
    if (X.TargetPC == PC)
      TargetEntry = Off;
    else if (const CompiledBlock *T = find(X.TargetPC))
      TargetEntry = T->Entry;
    else {
      PendingSites[X.TargetPC].push_back(Site);
      continue;
    }
    Buf.patchJmp(Site, TargetEntry);
    PatchedSites[X.TargetPC].push_back(Site);
  }

  // Patch every site that was waiting for this PC.
  auto PIt = PendingSites.find(PC);
  if (PIt != PendingSites.end()) {
    for (size_t Site : PIt->second) {
      Buf.patchJmp(Site, Off);
      PatchedSites[PC].push_back(Site);
    }
    PendingSites.erase(PIt);
  }
  Buf.endWrite();

  PageIndex[pageBase(PC)].push_back(PC);
  ByPC.emplace(PC, CB);
  ++Stats.Blocks;
}

void JitCache::invalidatePage(uint64_t PageAddr) {
  if (!ready())
    return;
  // The rewrite may have made previously uncompilable PCs compilable.
  for (auto It = Uncompilable.begin(); It != Uncompilable.end();) {
    if (pageBase(*It) == PageAddr)
      It = Uncompilable.erase(It);
    else
      ++It;
  }
  auto It = PageIndex.find(PageAddr);
  if (It == PageIndex.end())
    return;
  for (uint64_t PC : It->second) {
    auto BIt = ByPC.find(PC);
    if (BIt == ByPC.end())
      continue;
    // Chain exits patched into the dying block must stop jumping there.
    // The buffer may be live on the host stack right now (a store inside
    // compiled code fired the hook), so queue the rewrite; the emitted
    // Pending check stops execution before any stale chain can be taken.
    auto SIt = PatchedSites.find(PC);
    if (SIt != PatchedSites.end()) {
      for (size_t Site : SIt->second)
        UnpatchQueue.emplace_back(Site, PC);
      PatchedSites.erase(SIt);
    }
    // PendingSites entries targeting PC stay: they bind by guest PC and
    // will chain to whatever compiles there next.
    ByPC.erase(BIt);
    ++Stats.Invalidations;
  }
  PageIndex.erase(It);
}

void JitCache::invalidateAll() {
  if (!ready())
    return;
  if (ByPC.empty() && Uncompilable.empty() && PendingSites.empty() &&
      UnpatchQueue.empty())
    return;
  Stats.Invalidations += ByPC.size();
  ++Stats.Flushes;
  ByPC.clear();
  PageIndex.clear();
  PendingSites.clear();
  PatchedSites.clear();
  Uncompilable.clear();
  UnpatchQueue.clear();
  // Bookkeeping only — no byte changes needed (dropped code is simply
  // never entered again), so this is safe outside a write window and even
  // while the buffer sits on the host call stack.
  Buf.resetTo(CodeStart);
}

void JitCache::maintenance() {
  if (!ready() || UnpatchQueue.empty())
    return;
  Buf.beginWrite();
  for (const auto &Entry : UnpatchQueue) {
    // rel32 = 0: fall through to the chain exit's return stub. The site
    // may itself sit in dead code (its own block was invalidated too) —
    // the write is harmless, and re-pending a dead site only wastes the
    // 4-byte patch a future compile performs on it.
    Buf.patchJmp(Entry.first, Entry.first + 5);
    PendingSites[Entry.second].push_back(Entry.first);
  }
  UnpatchQueue.clear();
  Buf.endWrite();
}

JitCache::CompiledBlock JitCache::logged(uint32_t Id) const {
  BlockHeader H;
  std::memcpy(&H, Buf.data() + Id - sizeof(H), sizeof(H));
  CompiledBlock B;
  B.StartPC = H.StartPC;
  B.Entry = Id;
  B.NumInsts = H.NumInsts;
  B.EndsInControlFlow = H.EndsInControlFlow != 0;
  return B;
}

uint32_t JitCache::run(JitExecContext &Ctx, const CompiledBlock &B) const {
  using TrampolineFn = uint64_t (*)(void *, const void *);
  auto Fn = reinterpret_cast<TrampolineFn>(
      reinterpret_cast<uintptr_t>(Buf.data()));
  return static_cast<uint32_t>(Fn(&Ctx, Buf.data() + B.Entry));
}
