//===- vm/JitCache.h - compiled-block cache for the EVM JIT -----*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The EVM side of the template JIT (on by default, DESIGN.md §12): owns
/// the W^X executable buffer, maps guest block-start PCs to compiled code,
/// chains blocks into superblocks by patching their chain exits, and
/// mirrors the DecodeCache's invalidation contract — the
/// VM wires the same AddressSpace code-invalidate hook into both, so
/// self-modifying code, page injection, unmaps, and access-tracking resets
/// drop compiled code exactly where they drop decoded blocks.
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
#include <unordered_set>
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
  /// Whole-cache flushes (access-tracking resets, image attaches, buffer
  /// exhaustion).
  uint64_t Flushes = 0;
  /// Exits that handed an instruction back to the interpreter (syscalls,
  /// markers, halt, pause, atomics, faulting accesses, invalidations).
  uint64_t Bailouts = 0;
  /// Blocks dropped by page-granular invalidation.
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

/// Compiled-block cache + executable buffer.
class JitCache {
public:
  struct CompiledBlock {
    uint64_t StartPC = 0;
    size_t Entry = 0;      ///< buffer offset of the block's entry check
    uint32_t NumInsts = 0; ///< compiled prefix length (max retired/entry)
    /// The prefix's last instruction is control flow (isa::isControlFlow).
    bool EndsInControlFlow = false;
  };

  JitCache(const x86::JitLayout &Layout, size_t BufferBytes);

  /// False when the executable buffer could not be set up (JIT disabled).
  bool ready() const { return Ok; }

  /// The compiled block entered at exactly \p PC, or null.
  const CompiledBlock *find(uint64_t PC) const {
    auto It = ByPC.find(PC);
    return It == ByPC.end() ? nullptr : &It->second;
  }

  /// The block a block-log entry names. A block's id is its entry's
  /// buffer offset, and its StartPC, NumInsts and EndsInControlFlow sit
  /// in the buffer just before the entry, so an id logged since the last
  /// flush resolves also after the block was invalidated (invalidation
  /// frees no buffer space; only a flush reuses it).
  CompiledBlock logged(uint32_t Id) const;

  /// Compiles \p B unless already compiled or known uncompilable. Chains
  /// existing blocks whose exits target it, and its exits to existing
  /// blocks. Flushes everything on buffer exhaustion.
  void compile(const DecodedBlock &B);

  /// Drops every block on the page; queues un-patching of chain exits in
  /// still-live blocks that jump into the dropped ones.
  void invalidatePage(uint64_t PageAddr);

  /// Drops everything and resets the buffer.
  void invalidateAll();

  /// Drains deferred un-patching. Must run before any dispatch that
  /// follows an invalidation; cheap no-op otherwise.
  void maintenance();

  /// Runs \p B through the trampoline. Caller fills/reads \p Ctx and is
  /// responsible for maintenance() beforehand. Returns the JitExitKind.
  uint32_t run(JitExecContext &Ctx, const CompiledBlock &B) const;

  JitStats Stats;

private:
  x86::JitLayout Layout;
  x86::ExecBuffer Buf;
  bool Ok = false;      ///< buffer mapped and trampoline emitted
  size_t CodeStart = 0; ///< first byte after the trampoline
  // unordered_map: node stability keeps find() results valid across
  // unrelated compiles.
  std::unordered_map<uint64_t, CompiledBlock> ByPC;
  /// Page base -> start PCs of compiled blocks on that page.
  std::unordered_map<uint64_t, std::vector<uint64_t>> PageIndex;
  /// Target guest PC -> chain-exit jmp sites (buffer offsets) waiting for
  /// that PC to compile. Sites survive invalidation of the *target* (they
  /// chain by guest PC, so they bind to whatever compiles there next).
  std::unordered_map<uint64_t, std::vector<size_t>> PendingSites;
  /// Target guest PC -> sites currently patched to its entry (what must be
  /// un-patched when the target dies).
  std::unordered_map<uint64_t, std::vector<size_t>> PatchedSites;
  /// Blocks whose first instruction needs the interpreter; cleared per
  /// page on invalidation (the rewrite may have made them compilable).
  std::unordered_set<uint64_t> Uncompilable;
  /// Deferred un-patch work: (site, target PC to re-pend).
  std::vector<std::pair<size_t, uint64_t>> UnpatchQueue;
};

} // namespace vm
} // namespace elfie

#endif // ELFIE_VM_JITCACHE_H
