//===- sim/Cache.h - set-associative cache model ----------------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic set-associative, LRU, write-allocate cache model used for
/// every level of the esim hierarchy (L1I/L1D/L2 private, L3 shared), plus
/// a small TLB built on the same structure. Timing is handled by the
/// TimingModel; these classes only answer hit/miss and track contents.
/// The tag/LRU arrays and hit/miss counters of both serialize into
/// warmup-checkpoint sidecars (DESIGN.md §16).
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SIM_CACHE_H
#define ELFIE_SIM_CACHE_H

#include "sim/SimComponent.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace elfie {
namespace sim {

constexpr uint32_t CacheLineSize = 64;

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

  /// Looks up \p Addr; on miss, fills the line (returns false). \p Evicted
  /// receives the victim line address when an eviction happened.
  bool access(uint64_t Addr, bool IsWrite, uint64_t *EvictedLine = nullptr);

  /// True when the line holding \p Addr is present (no LRU update).
  bool contains(uint64_t Addr) const;

  /// Invalidates the line holding \p Addr if present.
  void invalidate(uint64_t Addr);

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t evictions() const { return Evictions; }
  uint32_t lineSize() const { return LineSize; }
  uint32_t assoc() const { return Assoc; }
  uint32_t numSets() const { return NumSets; }

  /// The "l3" payload version in the sidecar's component table (the
  /// private caches ride on CoreState::StateVersion).
  static constexpr uint32_t StateVersion = 1;
  void saveState(StateWriter &W) const;
  Error loadState(StateReader &R);

private:
  struct Way {
    uint64_t Tag = 0;
    bool Valid = false;
    uint64_t LRUStamp = 0;
  };
  uint64_t lineAddr(uint64_t Addr) const { return Addr / LineSize; }

  uint32_t LineSize;
  uint32_t Assoc;
  uint32_t NumSets;
  std::vector<Way> Ways; // NumSets * Assoc
  uint64_t Clock = 0;
  uint64_t Hits = 0, Misses = 0, Evictions = 0;
};

/// A TLB is a cache of page translations: same structure, page granularity.
class TLB {
public:
  TLB(uint32_t Entries, uint32_t Assoc = 4, uint64_t PageSize = 4096);

  /// Cache::geometryError of the cache a TLB of \p Entries builds.
  static const char *geometryError(uint32_t Entries, uint32_t Assoc = 4) {
    return Cache::geometryError(uint64_t(Entries) * CacheLineSize, Assoc);
  }

  /// True on hit; fills on miss.
  bool access(uint64_t Addr);

  uint64_t hits() const { return Impl.hits(); }
  uint64_t misses() const { return Impl.misses(); }

  void saveState(StateWriter &W) const;
  Error loadState(StateReader &R);

private:
  uint64_t PageSize;
  Cache Impl;
};

} // namespace sim
} // namespace elfie

#endif // ELFIE_SIM_CACHE_H
