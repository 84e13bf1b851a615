//===- sim/Cache.cpp ------------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/Cache.h"

using namespace elfie;
using namespace elfie::sim;

const char *Cache::geometryError(uint64_t SizeBytes, uint32_t Assoc,
                                 uint32_t LineSize) {
  if (Assoc == 0 || LineSize == 0)
    return "ways and line size must be nonzero";
  uint64_t Lines = SizeBytes / LineSize;
  if (Lines < Assoc)
    return "cache smaller than one set";
  uint64_t Sets = Lines / Assoc;
  if ((Sets & (Sets - 1)) != 0 || Sets > UINT32_MAX)
    return "set count must be a power of two";
  return nullptr;
}

Cache::Cache(uint64_t SizeBytes, uint32_t Assoc, uint32_t LineSize)
    : LineSize(LineSize), Assoc(Assoc) {
  if (const char *Why = geometryError(SizeBytes, Assoc, LineSize))
    reportFatalError("cache of %llu bytes, %u ways, %u-byte lines: %s",
                     static_cast<unsigned long long>(SizeBytes), Assoc,
                     LineSize, Why);
  NumSets = static_cast<uint32_t>(SizeBytes / LineSize / Assoc);
  Ways.resize(static_cast<size_t>(NumSets) * Assoc);
}

bool Cache::access(uint64_t Addr, bool IsWrite, uint64_t *EvictedLine) {
  uint64_t Line = lineAddr(Addr);
  uint32_t Set = static_cast<uint32_t>(Line & (NumSets - 1));
  Way *Base = &Ways[static_cast<size_t>(Set) * Assoc];
  ++Clock;
  for (uint32_t W = 0; W < Assoc; ++W) {
    if (Base[W].Valid && Base[W].Tag == Line) {
      Base[W].LRUStamp = Clock;
      ++Hits;
      return true;
    }
  }
  ++Misses;
  // Fill: pick an invalid way, else LRU victim.
  uint32_t Victim = 0;
  uint64_t Oldest = UINT64_MAX;
  for (uint32_t W = 0; W < Assoc; ++W) {
    if (!Base[W].Valid) {
      Victim = W;
      Oldest = 0;
      break;
    }
    if (Base[W].LRUStamp < Oldest) {
      Oldest = Base[W].LRUStamp;
      Victim = W;
    }
  }
  if (Base[Victim].Valid) {
    ++Evictions;
    if (EvictedLine)
      *EvictedLine = Base[Victim].Tag * LineSize;
  }
  Base[Victim].Valid = true;
  Base[Victim].Tag = Line;
  Base[Victim].LRUStamp = Clock;
  return false;
}

bool Cache::contains(uint64_t Addr) const {
  uint64_t Line = lineAddr(Addr);
  uint32_t Set = static_cast<uint32_t>(Line & (NumSets - 1));
  const Way *Base = &Ways[static_cast<size_t>(Set) * Assoc];
  for (uint32_t W = 0; W < Assoc; ++W)
    if (Base[W].Valid && Base[W].Tag == Line)
      return true;
  return false;
}

void Cache::invalidate(uint64_t Addr) {
  uint64_t Line = lineAddr(Addr);
  uint32_t Set = static_cast<uint32_t>(Line & (NumSets - 1));
  Way *Base = &Ways[static_cast<size_t>(Set) * Assoc];
  for (uint32_t W = 0; W < Assoc; ++W)
    if (Base[W].Valid && Base[W].Tag == Line)
      Base[W].Valid = false;
}

void Cache::saveState(StateWriter &W) const {
  W.writeU32(LineSize);
  W.writeU32(Assoc);
  W.writeU32(NumSets);
  W.writeU64(Clock);
  W.writeU64(Hits);
  W.writeU64(Misses);
  W.writeU64(Evictions);
  for (const Way &Wy : Ways) {
    W.writeU64(Wy.Tag);
    W.writeBool(Wy.Valid);
    W.writeU64(Wy.LRUStamp);
  }
}

Error Cache::loadState(StateReader &R) {
  uint32_t SavedLine = R.readU32();
  uint32_t SavedAssoc = R.readU32();
  uint32_t SavedSets = R.readU32();
  if (R.hadError() || SavedLine != LineSize || SavedAssoc != Assoc ||
      SavedSets != NumSets)
    return makeCodedError("EFAULT.SIMSTATE.COMPONENT",
                          "cache geometry mismatch: checkpoint has "
                          "%u sets x %u ways (%u-byte lines), this cache "
                          "has %u x %u (%u)",
                          SavedSets, SavedAssoc, SavedLine, NumSets, Assoc,
                          LineSize);
  Clock = R.readU64();
  Hits = R.readU64();
  Misses = R.readU64();
  Evictions = R.readU64();
  for (Way &Wy : Ways) {
    Wy.Tag = R.readU64();
    Wy.Valid = R.readBool();
    Wy.LRUStamp = R.readU64();
  }
  return Error::success();
}

TLB::TLB(uint32_t Entries, uint32_t Assoc, uint64_t PageSize)
    : PageSize(PageSize),
      Impl(static_cast<uint64_t>(Entries) * CacheLineSize, Assoc) {}

bool TLB::access(uint64_t Addr) {
  // Map page numbers onto the cache's line space.
  return Impl.access((Addr / PageSize) * CacheLineSize, false);
}

void TLB::saveState(StateWriter &W) const {
  W.writeU64(PageSize);
  Impl.saveState(W);
}

Error TLB::loadState(StateReader &R) {
  uint64_t SavedPage = R.readU64();
  if (R.hadError() || SavedPage != PageSize)
    return makeCodedError("EFAULT.SIMSTATE.COMPONENT",
                          "tlb page size mismatch: checkpoint has %llu, "
                          "this tlb has %llu",
                          static_cast<unsigned long long>(SavedPage),
                          static_cast<unsigned long long>(PageSize));
  return Impl.loadState(R);
}
