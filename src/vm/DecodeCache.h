//===- vm/DecodeCache.h - Decoded basic-block cache -------------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A decoded basic-block cache for the EVM interpreter. Every replay-based
/// flow (constrained replay, injection-less replay, SYSSTATE reconstruction,
/// the timing simulators) retires instructions through VM::stepOne, which
/// without this cache performs a page-table lookup plus a full isa::decode
/// for every retired instruction. The cache decodes straight-line runs once
/// into flat DecodedBlocks — terminated at control transfers, syscalls,
/// markers, and page boundaries — and the interpreter dispatches from the
/// cached form.
///
/// It is the one record of which guest blocks exist (DESIGN.md §12, "One
/// block map"): a block also carries the JIT's compiled entry for it.
///
/// Lookup is two-level: a direct-mapped slot array indexed by start PC
/// absorbs the common case in O(1), backed by a hash map holding every
/// block (so conflict evictions never lose decode work).
///
/// Invalidation is precise and page-granular: the VM wires
/// AddressSpace::setCodeInvalidateHook to invalidatePage()/flush(), so any
/// write or poke to an executable page, any unmap, and any
/// clearAccessTracking() (the logger re-arms lazy page capture; cached
/// blocks must not skip the fetch that triggers first-touch) drops the
/// affected blocks, and with them their compiled code. A generation
/// counter lets per-thread block cursors validate cheaply without
/// dangling-pointer risk.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_VM_DECODECACHE_H
#define ELFIE_VM_DECODECACHE_H

#include "isa/ISA.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace elfie {
namespace vm {

class JitCache;

/// Decode-cache counters, exposed through RunResult/ReplayResult and the
/// tools' -vm:stats switch (ereplay/esim).
struct DecodeCacheStats {
  /// Instructions dispatched from a cached block.
  uint64_t Hits = 0;
  /// Block builds (a lookup that found nothing and decoded a new block).
  uint64_t Misses = 0;
  /// Blocks dropped by precise (page-granular) invalidation.
  uint64_t Invalidations = 0;
  /// Full-cache flushes (unmap of exec pages en masse, access-tracking
  /// resets).
  uint64_t Flushes = 0;
  /// Full flushes forced by the block-count cap (long campaigns would
  /// otherwise grow Blocks/PageIndex without bound).
  uint64_t CapFlushes = 0;
};

/// A run of instructions decoded once, executed many times. Blocks never
/// cross a guest page boundary, so invalidation of one page maps to a
/// well-defined set of blocks.
struct DecodedBlock {
  uint64_t StartPC = 0;
  std::vector<isa::Inst> Insts;
  /// Entries through lookup() — the JIT's promotion counter. Mutable so the
  /// read path can count on the const block the cache hands out.
  mutable uint32_t HitCount = 0;
  /// Set by JitCache::compile, mutable for the same reason: the compiled
  /// prefix's entry (buffer offset, 0: none) and length, or the mark that
  /// its first instruction needs the interpreter.
  mutable uint32_t JitEntry = 0;
  mutable uint32_t JitInsts = 0;
  mutable bool JitRefused = false;

  uint64_t pcAt(size_t Idx) const { return StartPC + Idx * isa::InstSize; }
};

/// The cache: direct-mapped front, hash-map backing, page index for
/// invalidation.
class DecodeCache {
public:
  /// Direct-mapped slot count (power of two).
  static constexpr size_t NumSlots = 4096;
  /// Blocks are capped at this many instructions.
  static constexpr size_t MaxBlockInsts = 256;
  /// Default bound on resident blocks before a cap flush.
  static constexpr size_t DefaultMaxBlocks = 1 << 16;

  explicit DecodeCache(size_t MaxBlocks = DefaultMaxBlocks)
      : MaxBlocks(MaxBlocks ? MaxBlocks : DefaultMaxBlocks) {
    Slots.assign(NumSlots, nullptr);
  }

  /// The block starting exactly at \p PC, or null, without counting a hit
  /// (the JIT dispatcher and chain resolution find compiled entries here).
  const DecodedBlock *find(uint64_t PC) {
    DecodedBlock *&Slot = Slots[slotOf(PC)];
    if (Slot && Slot->StartPC == PC)
      return Slot;
    auto It = Blocks.find(PC);
    return It == Blocks.end() ? nullptr : (Slot = It->second.get());
  }

  /// find(), counting a hit (and bumping the block's promotion counter)
  /// when found.
  const DecodedBlock *lookup(uint64_t PC) {
    const DecodedBlock *B = find(PC);
    if (B) {
      ++Stats.Hits;
      ++B->HitCount;
    }
    return B;
  }

  /// Inserts a freshly built block and counts the miss that caused it.
  /// Returns the cache-owned block.
  const DecodedBlock *insert(std::unique_ptr<DecodedBlock> B);

  /// Counts a dispatch served by a per-thread cursor (no lookup needed).
  void noteCursorHit() { ++Stats.Hits; }

  /// Drops every block living on the page at \p PageAddr (page-aligned).
  void invalidatePage(uint64_t PageAddr);

  /// Drops everything, and flushes the attached JIT.
  void flush();

  /// Hands every block that dies from now on to \p J, which drops its
  /// compiled code; \p J must outlive every later invalidation.
  void attachJit(JitCache *J) { Jit = J; }

  /// Clears every resident block's compiled entry and mark (the JIT reset
  /// its code buffer).
  void forgetCompiled();

  /// While a compiled dispatch is in flight, erased blocks are parked, not
  /// freed: lookups and cursors miss them, but they stay readable until
  /// releaseParked().
  void parkFrees() { Parking = true; }
  void releaseParked() {
    Parking = false;
    Parked.clear();
  }

  /// Monotonic counter bumped by every invalidation; cursors holding block
  /// pointers compare generations before dereferencing.
  uint64_t generation() const { return Generation; }

  const DecodeCacheStats &stats() const { return Stats; }
  size_t blockCount() const { return Blocks.size(); }

private:
  static size_t slotOf(uint64_t PC) {
    return (PC / isa::InstSize) & (NumSlots - 1);
  }
  /// Drops a block leaving the map: its compiled code, then the block.
  void retire(std::unique_ptr<DecodedBlock> B);

  std::vector<DecodedBlock *> Slots;
  std::unordered_map<uint64_t, std::unique_ptr<DecodedBlock>> Blocks;
  /// Page base -> start PCs of blocks on that page.
  std::unordered_map<uint64_t, std::vector<uint64_t>> PageIndex;
  size_t MaxBlocks;
  uint64_t Generation = 0;
  DecodeCacheStats Stats;
  JitCache *Jit = nullptr;
  bool Parking = false;
  std::vector<std::unique_ptr<DecodedBlock>> Parked;
};

} // namespace vm
} // namespace elfie

#endif // ELFIE_VM_DECODECACHE_H
