//===- sim/Cache.h - set-associative cache model ----------------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic set-associative, LRU, write-allocate cache model used for
/// every level of the esim hierarchy (L1I/L1D/L2 private, L3 shared) and
/// for the TLBs, which are caches whose lines are pages. Timing is handled
/// by the TimingModel; this class only answers hit/miss and tracks
/// contents. Each set keeps its valid tags in recency order plus a valid
/// count, and those two arrays are what a warmup-checkpoint sidecar holds
/// (DESIGN.md §16).
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SIM_CACHE_H
#define ELFIE_SIM_CACHE_H

#include "sim/SimComponent.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace elfie {
namespace sim {

constexpr uint32_t CacheLineSize = 64;

/// A TLB is Cache(Entries * TLBPageSize, TLBAssoc, TLBPageSize): its sets
/// hold page numbers.
constexpr uint32_t TLBPageSize = 4096;
constexpr uint32_t TLBAssoc = 4;

/// Set-associative LRU cache. Tags only (no data).
class Cache {
public:
  /// \p SizeBytes and \p Assoc must give a power-of-two set count
  /// (geometryError); anything else aborts.
  Cache(uint64_t SizeBytes, uint32_t Assoc, uint32_t LineSize = CacheLineSize);

  /// Null when the geometry builds a cache: nonzero ways and line size, at
  /// least one set, and a power-of-two set count (access() picks the set
  /// by masking, so any other count would alias sets). Otherwise what is
  /// wrong with it.
  static const char *geometryError(uint64_t SizeBytes, uint32_t Assoc,
                                   uint32_t LineSize = CacheLineSize);

  /// Looks up \p Addr and makes its line the most recent of its set; on a
  /// miss, fills the line, evicting the least recent one of a full set
  /// (returns false).
  bool access(uint64_t Addr, bool IsWrite);

  /// True when the line holding \p Addr is present (no LRU update).
  bool contains(uint64_t Addr) const;

  /// Invalidates the line holding \p Addr if present.
  void invalidate(uint64_t Addr);

  /// The "l3" payload version in the sidecar's component table (the
  /// private caches and TLBs ride on CoreState::StateVersion).
  static constexpr uint32_t StateVersion = 2;
  void saveState(StateWriter &W) const;
  Error loadState(StateReader &R);

private:
  uint32_t LineSize;
  uint32_t Assoc;
  uint32_t NumSets;
  /// Per set, how many of its ways hold a line.
  std::vector<uint32_t> Valid;
  /// NumSets * Assoc line addresses. Set S holds its lines in
  /// Tags[S * Assoc, + Valid[S]), most recent first; its other slots are 0.
  std::vector<uint64_t> Tags;
};

} // namespace sim
} // namespace elfie

#endif // ELFIE_SIM_CACHE_H
