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

static_assert(sizeof(JitCache::CompiledBlock) == 16,
              "keeps block entries 16-aligned");

JitCache::JitCache(DecodeCache &DC, const x86::JitLayout &Layout,
                   size_t BufferBytes)
    : DC(DC), Layout(Layout) {
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
  if (B.JitEntry || B.JitRefused)
    return;
  uint64_t PC = B.StartPC;
  x86::JitBlockCode Code;
  if (!x86::emitJitBlock(PC, B.Insts.data(), B.Insts.size(), Layout, Code)) {
    B.JitRefused = true;
    ++NumRefused;
    return;
  }

  // Fold any deferred un-patching into the same W^X flip.
  maintenance();

  // The block log's view of the block goes in front of its code.
  CompiledBlock H{PC, Code.NumInsts,
                  isa::isControlFlow(B.Insts[Code.NumInsts - 1].Op)};
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
    DC.forgetCompiled();
    Off = Buf.append(Bytes.data(), Bytes.size());
    if (Off == SIZE_MAX) {
      Buf.endWrite();
      return; // single block larger than the whole buffer
    }
  }
  Off += sizeof(H);
  // The id the block logs on entry.
  Buf.patch32(Off + Code.LogIdOff, static_cast<uint32_t>(Off));

  // Resolve this block's chain exits: self-loops and already-compiled
  // targets are patched now, the rest wait in PendingSites.
  for (const x86::JitChainExit &X : Code.Exits) {
    size_t Site = Off + X.JmpOff; // globalize the block-relative offset
    size_t TargetEntry = Off;
    if (X.TargetPC != PC) {
      const DecodedBlock *T = DC.find(X.TargetPC);
      if (!T || !T->JitEntry) {
        PendingSites[X.TargetPC].push_back(Site);
        continue;
      }
      TargetEntry = T->JitEntry;
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

  B.JitEntry = static_cast<uint32_t>(Off);
  B.JitInsts = Code.NumInsts;
  ++NumCompiled;
  ++Stats.Blocks;
}

void JitCache::drop(const DecodedBlock &B) {
  if (B.JitRefused)
    --NumRefused;
  if (!B.JitEntry)
    return;
  // Chain exits patched into the dying block must stop jumping there.
  // The buffer may be live on the host stack right now (a store inside
  // compiled code fired the hook), so queue the rewrite; the emitted
  // Pending check stops execution before any stale chain can be taken.
  auto SIt = PatchedSites.find(B.StartPC);
  if (SIt != PatchedSites.end()) {
    for (size_t Site : SIt->second)
      UnpatchQueue.emplace_back(Site, B.StartPC);
    PatchedSites.erase(SIt);
  }
  // PendingSites entries targeting the PC stay: they bind by guest PC and
  // will chain to whatever compiles there next.
  --NumCompiled;
  ++Stats.Invalidations;
}

void JitCache::invalidateAll() {
  if (!NumCompiled && !NumRefused && PendingSites.empty() &&
      UnpatchQueue.empty())
    return;
  Stats.Invalidations += NumCompiled;
  ++Stats.Flushes;
  NumCompiled = NumRefused = 0;
  PendingSites.clear();
  PatchedSites.clear();
  UnpatchQueue.clear();
  // Bookkeeping only — no byte changes needed (dropped code is simply
  // never entered again), so this is safe outside a write window and even
  // while the buffer sits on the host call stack.
  Buf.resetTo(CodeStart);
}

void JitCache::maintenance() {
  if (UnpatchQueue.empty())
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
  CompiledBlock B;
  std::memcpy(&B, Buf.data() + Id - sizeof(B), sizeof(B));
  return B;
}

uint32_t JitCache::run(JitExecContext &Ctx, uint32_t Entry) const {
  using TrampolineFn = uint64_t (*)(void *, const void *);
  auto Fn = reinterpret_cast<TrampolineFn>(
      reinterpret_cast<uintptr_t>(Buf.data()));
  return static_cast<uint32_t>(Fn(&Ctx, Buf.data() + Entry));
}
