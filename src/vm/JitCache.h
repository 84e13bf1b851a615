//===- vm/JitCache.h - compiled-block cache for the EVM JIT -----*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The EVM side of the template JIT (on by default, DESIGN.md §12): owns
/// the W^X executable buffer, compiles decoded blocks into it, and chains
/// blocks into superblocks by patching their chain exits. It keeps no map
/// of blocks of its own: a block's compiled entry lives on its
/// DecodedBlock, and chain targets resolve through the DecodeCache. The
/// cache hands every dying block to drop() and every flush to
/// invalidateAll(), so self-modifying code, page injection, unmaps,
/// access-tracking resets and cap flushes drop compiled code together
/// with the decoded block it was translated from.
///
/// Un-patching chain exits rewrites the buffer, which needs a W^X flip; a
/// store executed *inside* compiled code can trigger invalidation while the
/// host call stack still returns into the buffer, so unpatch work is queued
/// and drained at the next dispatcher safe point (maintenance()). The
/// emitted post-store Pending check guarantees no stale block runs in
/// between.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_VM_JITCACHE_H
#define ELFIE_VM_JITCACHE_H

#include "vm/DecodeCache.h"
#include "vm/Memory.h"
#include "x86/JITEmitter.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace elfie {
namespace vm {

/// JIT counters, exposed through RunResult/ReplayResult/SimResult and the
/// tools' -vm:stats switch.
struct JitStats {
  /// Blocks compiled (cumulative over flushes).
  uint64_t Blocks = 0;
  /// Instructions retired inside compiled code.
  uint64_t Hits = 0;
  /// Whole-cache flushes (access-tracking resets, image attaches, decode
  /// cache cap flushes, buffer exhaustion).
  uint64_t Flushes = 0;
  /// Exits that handed an instruction back to the interpreter (syscalls,
  /// markers, halt, pause, atomics, faulting accesses, invalidations).
  uint64_t Bailouts = 0;
  /// Compiled blocks dropped, one at a time or by a flush.
  uint64_t Invalidations = 0;
  /// Entries through the dispatch trampoline.
  uint64_t Dispatches = 0;
};

/// The per-dispatch execution context compiled code addresses through
/// %r15. Standard layout: the VM derives the JitLayout offsets from
/// offsetof() on this struct.
struct JitExecContext {
  int64_t Countdown = 0;  ///< instructions this dispatch may still retire
  uint64_t NextPC = 0;    ///< guest PC to resume at (set by every exit)
  uint64_t MemOk = 1;     ///< cleared by a faulting memory helper
  uint64_t Pending = 0;   ///< set when a store invalidated compiled code
  void *Cookie = nullptr; ///< the VM, passed to the helpers
  x86::JitLoadFn LoadFn = nullptr;
  x86::JitStoreFn StoreFn = nullptr;
  void *Thread = nullptr; ///< ThreadState of the dispatched thread
  /// The block log: every block that passes its entry check stores its
  /// block id (JitCache::logged) here and advances the cursor by
  /// LogStride bytes (0: the log is not read and one slot is reused).
  uint32_t *LogPos = nullptr;
  uint64_t LogStride = 0;
};

/// The executable buffer and the chain bookkeeping over it.
class JitCache {
public:
  /// A compiled block as the block log names it; the code buffer holds
  /// this record just before each block's entry.
  struct CompiledBlock {
    uint64_t StartPC;
    uint32_t NumInsts; ///< compiled prefix length (max retired/entry)
    /// The prefix's last instruction is control flow (isa::isControlFlow).
    uint32_t EndsInControlFlow;
  };

  /// Compiles blocks of \p DC, which must hand it its dying blocks
  /// (DecodeCache::attachJit).
  JitCache(DecodeCache &DC, const x86::JitLayout &Layout, size_t BufferBytes);

  /// False when the executable buffer could not be set up (JIT disabled).
  bool ready() const { return Ok; }

  /// The block a block-log entry names. A block's id is its entry's
  /// buffer offset, and its StartPC, NumInsts and EndsInControlFlow sit
  /// in the buffer just before the entry, so an id logged since the last
  /// flush resolves also after the block was invalidated (invalidation
  /// frees no buffer space; only a flush reuses it).
  CompiledBlock logged(uint32_t Id) const;

  /// Compiles \p B (a block of the attached DecodeCache) unless it has an
  /// entry or a mark already, and records either on it. Chains existing
  /// blocks whose exits target it, and its exits to existing blocks.
  /// Flushes everything on buffer exhaustion.
  void compile(const DecodedBlock &B);

  /// \p B is leaving the DecodeCache: queues un-patching of the chain
  /// exits that jump into its compiled code.
  void drop(const DecodedBlock &B);

  /// Drops all compiled code and resets the buffer (the DecodeCache
  /// flushes, or the buffer is exhausted).
  void invalidateAll();

  /// Drains deferred un-patching. Must run before any dispatch that
  /// follows an invalidation; cheap no-op otherwise.
  void maintenance();

  /// Runs the compiled code entered at buffer offset \p Entry through the
  /// trampoline. Caller fills/reads \p Ctx and is responsible for
  /// maintenance() beforehand. Returns the JitExitKind.
  uint32_t run(JitExecContext &Ctx, uint32_t Entry) const;

  JitStats Stats;

private:
  DecodeCache &DC;
  x86::JitLayout Layout;
  x86::ExecBuffer Buf;
  bool Ok = false;      ///< buffer mapped and trampoline emitted
  size_t CodeStart = 0; ///< first byte after the trampoline
  /// Resident blocks with a compiled entry, and with a refusal mark.
  size_t NumCompiled = 0, NumRefused = 0;
  /// Target guest PC -> chain-exit jmp sites (buffer offsets) waiting for
  /// that PC to compile. Sites survive invalidation of the *target* (they
  /// chain by guest PC, so they bind to whatever compiles there next).
  std::unordered_map<uint64_t, std::vector<size_t>> PendingSites;
  /// Target guest PC -> sites currently patched to its entry (what must be
  /// un-patched when the target dies).
  std::unordered_map<uint64_t, std::vector<size_t>> PatchedSites;
  /// Deferred un-patch work: (site, target PC to re-pend).
  std::vector<std::pair<size_t, uint64_t>> UnpatchQueue;
};

} // namespace vm
} // namespace elfie

#endif // ELFIE_VM_JITCACHE_H
