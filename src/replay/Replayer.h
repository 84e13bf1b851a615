//===- replay/Replayer.h - Constrained pinball replay -----------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replayer re-executes a pinball region (paper §I, §II-A):
///
///  * **Constrained replay** (default): thread order follows race.log
///    exactly; system-call results and memory side effects are injected
///    from sel.log instead of re-executing; pages arrive from the initial
///    image plus lazy injection records. The result is bit-exact repetition
///    of the logged region.
///
///  * **-replay:injection 0**: no side-effect injection, no thread-order
///    enforcement — system calls re-execute natively and the scheduler runs
///    free. This mimics an ELFie's execution while still running under the
///    EVM, and is the debugging aid the paper requested from the PinPlay
///    team (§II-A).
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_REPLAY_REPLAYER_H
#define ELFIE_REPLAY_REPLAYER_H

#include "pinball/Pinball.h"
#include "vm/VM.h"

#include <functional>
#include <memory>

namespace elfie {
namespace replay {

/// Replay switches.
struct ReplayOptions {
  /// -replay:injection. When false, syscalls re-execute natively and the
  /// recorded schedule is ignored.
  bool Injection = true;
  /// VM configuration used for injection=0 replay (scheduler etc.). The
  /// FsRoot matters there because file syscalls re-execute.
  vm::VMConfig Config;
  /// Observer attached during replay (e.g. a timing model front-end).
  vm::Observer *Obs = nullptr;
  /// Stop after this many instructions even if the region says more
  /// (0 = use the region length from the pinball).
  uint64_t MaxInstructions = 0;
};

/// Structured description of where constrained replay stopped matching the
/// log. Carried in ReplayResult so tools and tests can report (and exit on)
/// divergence without parsing a message string.
struct DivergenceInfo {
  enum class Kind {
    None,
    SyscallBeyondLog, ///< replay executed more syscalls than sel.log holds
    SyscallMismatch,  ///< logged (tid, nr) differs from the replayed pair
    UnknownThread,    ///< race.log schedules a tid the VM never spawned
    ExitedThread,     ///< race.log schedules a thread that already exited
    ReplayFault,      ///< the replayed code faulted inside the VM
  };
  Kind K = Kind::None;
  /// Index of the sel.log record at the mismatch (syscall kinds only).
  size_t RecordIndex = 0;
  /// Expected = what the log recorded; Observed = what replay executed.
  /// For the thread kinds only the tids are meaningful.
  uint32_t ExpectedTid = 0;
  uint32_t ObservedTid = 0;
  uint64_t ExpectedNr = 0;
  uint64_t ObservedNr = 0;

  bool diverged() const { return K != Kind::None; }
};

/// What happened during replay.
struct ReplayResult {
  vm::StopReason Reason = vm::StopReason::AllExited;
  vm::Fault FaultInfo;
  /// Instructions retired during the replayed region.
  uint64_t Retired = 0;
  /// Per-thread retired counts, indexed by tid.
  std::map<uint32_t, uint64_t> RetiredPerThread;
  /// Final architectural state of every thread (differential testing).
  std::map<uint32_t, vm::ThreadState> FinalThreads;
  /// Guest stdout produced during replay (injection=0 re-executes writes;
  /// constrained replay skips them, so this stays empty there).
  std::string Stdout;
  /// True when every sel.log record was consumed in order (constrained
  /// replay only); false indicates divergence.
  bool SyscallLogFullyConsumed = true;
  /// Divergence diagnostics (empty when replay matched the log).
  std::string Divergence;
  /// Structured counterpart of Divergence: record index, expected vs.
  /// observed (tid, nr), and the divergence kind.
  DivergenceInfo Diverge;
  /// Decoded-block cache counters from the replay VM (hits, misses,
  /// invalidations). All zero when the cache is disabled.
  vm::DecodeCacheStats VMStats;
  /// Memory-substrate counters from the replay VM: attached image extents,
  /// copy-on-write faults, and private (dirty) bytes. With the zero-copy
  /// pinball substrate, DirtyBytes stays well below the image size for
  /// read-mostly regions.
  vm::MemStats MemStats;
  /// JIT counters from the replay VM (all zero unless the config enabled
  /// `-jit`): blocks compiled, instructions retired natively, flushes,
  /// bailouts.
  vm::JitStats JitStats;
};

/// A replay of a pinball region that advances in caller-sized steps, so a
/// client can change observers between stretches of the region (esim's
/// warm-up and detailed phases). start() primes the VM; each run() replays
/// up to N more instructions exactly where the last one stopped; result()
/// reports on everything replayed so far. The replay borrows \p PB's pages,
/// so PB must outlive it.
class Replay {
public:
  Replay(const pinball::Pinball &PB, const ReplayOptions &Opts);
  // The VM's syscall interceptor and stdout sink point back at this object.
  Replay(const Replay &) = delete;
  Replay &operator=(const Replay &) = delete;

  /// Builds the VM: pages mapped (constrained replay maps the initial image
  /// and injects the rest lazily; free replay maps every page up front),
  /// threads spawned with their recorded registers, brk restored. Errors
  /// when the pinball's tids are not dense from 0 (the EVM hands out
  /// sequential tids, so sparse tids cannot be reproduced by spawning).
  Error start();

  /// Replays up to \p N more instructions with \p Obs attached (null:
  /// none). Returns BudgetReached when N instructions retired or the
  /// region's budget is spent; Stopped when \p Obs requested a stop or
  /// constrained replay diverged from the log; otherwise how the region
  /// ended (AllExited, Halted, Faulted). Once the region has ended or
  /// diverged, further calls return the same reason at once.
  vm::StopReason run(uint64_t N, vm::Observer *Obs);

  ReplayResult result() const;
  vm::VM &vm() { return *M; }
  /// Why constrained replay stopped matching the log; empty while it
  /// matches.
  const std::string &divergence() const { return Divergence; }

private:
  vm::StopReason runConstrained(uint64_t Target);
  bool injectSyscall(uint32_t Tid, uint64_t Nr, int64_t &Result);

  const pinball::Pinball &PB;
  ReplayOptions Opts;
  std::unique_ptr<vm::VM> M;
  uint64_t Budget = 0;
  vm::StopReason Reason = vm::StopReason::BudgetReached;
  bool Ended = false;
  std::string Stdout;
  std::string Divergence;
  DivergenceInfo Diverge;
  /// Constrained replay's cursors: the next sel.log record, the race.log
  /// slice and how much of it has run, and the next lazy page (Pending is
  /// ordered by first-use icount).
  size_t SyscallCursor = 0;
  size_t SliceIdx = 0;
  uint64_t SliceDone = 0;
  std::vector<const pinball::InjectRecord *> Pending;
  size_t InjectCursor = 0;
};

/// Replays \p PB according to \p Opts: a Replay started and run once.
Expected<ReplayResult> replayPinball(const pinball::Pinball &PB,
                                     const ReplayOptions &Opts = {});

} // namespace replay
} // namespace elfie

#endif // ELFIE_REPLAY_REPLAYER_H
