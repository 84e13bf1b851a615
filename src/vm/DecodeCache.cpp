//===- vm/DecodeCache.cpp -------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "vm/DecodeCache.h"

#include "vm/JitCache.h"
#include "vm/Memory.h"

#include <algorithm>

using namespace elfie;
using namespace elfie::vm;

const DecodedBlock *DecodeCache::insert(std::unique_ptr<DecodedBlock> B) {
  ++Stats.Misses;
  uint64_t PC = B->StartPC;
  if (Blocks.size() >= MaxBlocks && !Blocks.count(PC)) {
    // Bounded residency: long campaigns touch unbounded code (JITed guests,
    // region sweeps); dropping everything is cheap next to re-decoding.
    flush();
    ++Stats.CapFlushes;
  }
  DecodedBlock *Raw = B.get();
  auto It = Blocks.find(PC);
  if (It != Blocks.end()) {
    // Rebuild of a PC whose stale block was not yet invalidated: keep the
    // fresh decode. The old block dies here, so any per-thread cursor still
    // holding it must fail its generation check — bump it, and drop the
    // slot entry that points at the dying block.
    size_t Slot = slotOf(PC);
    if (Slots[Slot] == It->second.get())
      Slots[Slot] = nullptr;
    retire(std::move(It->second));
    It->second = std::move(B);
    ++Generation;
  } else {
    Blocks.emplace(PC, std::move(B));
    PageIndex[pageBase(PC)].push_back(PC);
  }
  Slots[slotOf(PC)] = Raw;
  return Raw;
}

void DecodeCache::invalidatePage(uint64_t PageAddr) {
  auto It = PageIndex.find(PageAddr);
  if (It == PageIndex.end())
    return;
  for (uint64_t PC : It->second) {
    auto BIt = Blocks.find(PC);
    if (BIt == Blocks.end())
      continue;
    size_t Slot = slotOf(PC);
    if (Slots[Slot] == BIt->second.get())
      Slots[Slot] = nullptr;
    retire(std::move(BIt->second));
    Blocks.erase(BIt);
    ++Stats.Invalidations;
  }
  PageIndex.erase(It);
  ++Generation;
}

void DecodeCache::flush() {
  // Even when empty here: the JIT may still hold chain sites.
  if (Jit)
    Jit->invalidateAll();
  if (Blocks.empty())
    return;
  Stats.Invalidations += Blocks.size();
  ++Stats.Flushes;
  if (Parking)
    for (auto &Entry : Blocks)
      Parked.push_back(std::move(Entry.second));
  Blocks.clear();
  PageIndex.clear();
  std::fill(Slots.begin(), Slots.end(), nullptr);
  ++Generation;
}

void DecodeCache::forgetCompiled() {
  for (auto &Entry : Blocks) {
    Entry.second->JitEntry = 0;
    Entry.second->JitInsts = 0;
    Entry.second->JitRefused = false;
  }
}

void DecodeCache::retire(std::unique_ptr<DecodedBlock> B) {
  if (Jit)
    Jit->drop(*B);
  if (Parking)
    Parked.push_back(std::move(B));
}
