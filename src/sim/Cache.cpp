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
  Valid.resize(NumSets);
  Tags.resize(static_cast<size_t>(NumSets) * Assoc);
}

bool Cache::access(uint64_t Addr, bool IsWrite) {
  uint64_t Line = Addr / LineSize;
  uint32_t Set = static_cast<uint32_t>(Line & (NumSets - 1));
  uint64_t *Base = &Tags[static_cast<size_t>(Set) * Assoc];
  uint32_t &N = Valid[Set];
  uint32_t W = 0;
  while (W < N && Base[W] != Line)
    ++W;
  bool Hit = W < N;
  if (!Hit) {
    // The first empty slot, or the least recent line of a full set.
    if (N < Assoc)
      ++N;
    W = N - 1;
  }
  // The more recent lines move one back and this one goes to the front.
  for (; W > 0; --W)
    Base[W] = Base[W - 1];
  Base[0] = Line;
  return Hit;
}

bool Cache::contains(uint64_t Addr) const {
  uint64_t Line = Addr / LineSize;
  uint32_t Set = static_cast<uint32_t>(Line & (NumSets - 1));
  const uint64_t *Base = &Tags[static_cast<size_t>(Set) * Assoc];
  for (uint32_t W = 0; W < Valid[Set]; ++W)
    if (Base[W] == Line)
      return true;
  return false;
}

void Cache::invalidate(uint64_t Addr) {
  uint64_t Line = Addr / LineSize;
  uint32_t Set = static_cast<uint32_t>(Line & (NumSets - 1));
  uint64_t *Base = &Tags[static_cast<size_t>(Set) * Assoc];
  uint32_t &N = Valid[Set];
  for (uint32_t W = 0; W < N; ++W) {
    if (Base[W] != Line)
      continue;
    // The less recent lines move one forward to close the gap.
    for (; W + 1 < N; ++W)
      Base[W] = Base[W + 1];
    Base[--N] = 0;
    return;
  }
}

void Cache::saveState(StateWriter &W) const {
  W.writeU32(LineSize);
  W.writeU32(Assoc);
  W.writeU32(NumSets);
  W.writeBytes(Valid.data(), Valid.size() * sizeof(uint32_t));
  W.writeBytes(Tags.data(), Tags.size() * sizeof(uint64_t));
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
  R.readBytes(Valid.data(), Valid.size() * sizeof(uint32_t));
  for (uint32_t S = 0; S < NumSets; ++S)
    if (Valid[S] > Assoc)
      return makeCodedError("EFAULT.SIMSTATE.COMPONENT",
                            "cache set %u holds %u lines, more than its %u "
                            "ways",
                            S, Valid[S], Assoc);
  R.readBytes(Tags.data(), Tags.size() * sizeof(uint64_t));
  return Error::success();
}
