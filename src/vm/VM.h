//===- vm/VM.h - The EVM functional simulator -------------------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// EVM: a deterministic, multi-threaded functional simulator for EG64 guest
/// programs. It plays the role Pin plays in the paper's tool-chain: it runs
/// unmodified guest binaries, exposes instrumentation hooks (retired
/// blocks, with their memory accesses on request; system calls, markers,
/// thread events), and gives external controllers — the PinPlay-style
/// logger, the constrained replayer, and the timing simulators — precise
/// execution control (per-thread single stepping, instruction budgets, a
/// (PC, count) stop condition, syscall interception).
///
/// Determinism: threads are interleaved by a round-robin scheduler with a
/// fixed instruction quantum (optionally jittered by a seed to model
/// run-to-run variation of multi-threaded programs, cf. paper §I). Atomics
/// and fences are sequentially consistent because execution is a global
/// interleaving of single steps. run(), runThread() and stepThread() are
/// policies over one dispatch slice (DESIGN.md §12), so budgets, quanta and
/// single steps land on the same instruction whichever executor retires
/// it.
///
/// Both executors find a guest block in one map, the DecodeCache: compiled
/// code is recorded on the decoded block it was translated from.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_VM_VM_H
#define ELFIE_VM_VM_H

#include "isa/ISA.h"
#include "support/Error.h"
#include "support/RNG.h"
#include "vm/DecodeCache.h"
#include "vm/JitCache.h"
#include "vm/Memory.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace elfie {
namespace elf {
class ELFReader;
}
namespace vm {

/// Architectural state of one guest thread.
struct ThreadState {
  uint32_t Tid = 0;
  uint64_t GPR[isa::NumGPRs] = {};
  double FPR[isa::NumFPRs] = {};
  uint64_t PC = 0;
  bool Exited = false;
  int64_t ExitCode = 0;
  /// Instructions retired by this thread since creation.
  uint64_t Retired = 0;

  /// Decode-cache cursor (interpreter bookkeeping, not architectural
  /// state): the cached block the thread last dispatched from, valid only
  /// while CurGen matches the cache generation. spawnThread() resets it.
  const DecodedBlock *CurBlock = nullptr;
  uint32_t CurIdx = 0;
  uint64_t CurGen = 0;
};

/// Why VM::run returned.
enum class StopReason {
  AllExited,     ///< every thread exited (or exit_group)
  Halted,        ///< a halt instruction executed
  Faulted,       ///< unmapped access / bad opcode / misaligned target
  BudgetReached, ///< the instruction budget was consumed
  Stopped,       ///< requestStop() was called, or the stopAt() condition met
};

/// Details of a guest fault (the EVM analogue of an ELFie's "ungraceful
/// exit", paper §II-C1).
struct Fault {
  uint32_t Tid = 0;
  uint64_t PC = 0;
  uint64_t Addr = 0;
  std::string Message;
};

/// Result of a run.
struct RunResult {
  StopReason Reason = StopReason::AllExited;
  Fault FaultInfo;
  int64_t ExitCode = 0;
  /// Cumulative decode-cache counters at the time run() returned.
  DecodeCacheStats CacheStats;
  /// Memory-substrate counters (image extents, COW faults, dirty bytes).
  MemStats MemoryStats;
  /// JIT counters (all zero when the JIT is off or inert).
  JitStats Jit;
};

/// The `-vm:stats` report of ereplay and esim: one line each for the
/// decode cache, memory and the JIT, every line led by \p Prefix.
std::string renderVMStats(const std::string &Prefix,
                          const DecodeCacheStats &Cache, const MemStats &Mem,
                          const JitStats &Jit);

/// One memory access of a retired load, store or atomic.
struct MemoryAccess {
  uint64_t Addr = 0;
  uint32_t Size = 0;
  bool IsWrite = false;
};

/// Instrumentation interface (the Pin "analysis routine" analogue).
/// Callbacks fire synchronously from the interpreter loop and from the JIT
/// dispatcher. Execution is seen as blocks or as events only: system
/// calls, markers and thread events fire for every observer (those
/// instructions bail to the interpreter), and the JIT stays on whatever
/// is attached.
class Observer {
public:
  /// How an observer sees execution; every observer states it.
  enum class Granularity {
    /// onBlock for every straight-line run of retired instructions; the
    /// JIT chains blocks, and each compiled block is reported from the
    /// dispatch's block log after the chain returns. Such an observer
    /// must not call VM::requestStop.
    Block,
    /// Events, plus onRetiredBlock for every retired block with its
    /// memory accesses, which the JIT's load/store helpers record while
    /// such an observer is attached. Enough to replay execution in
    /// retirement order at JIT speed (esim's functional warming and
    /// detailed simulation).
    BlockAccesses,
    /// Only the events.
    Events,
  };
  virtual ~Observer();
  virtual Granularity granularity() const = 0;
  /// Block observers only: \p NumInsts instructions at \p EntryPC,
  /// EntryPC + 8, ... retire on \p Tid with no control transfer between
  /// them; \p EndsInControlFlow says the last one is a control-flow
  /// instruction (isa::isControlFlow). The interpreter reports each
  /// instruction it retires as a one-instruction block, after the
  /// instruction's events, so a faulting instruction is not reported;
  /// compiled dispatch reports each block of a chain, in order, after the
  /// whole chain ran. Calls follow global retirement order across
  /// threads, and a run may stop short of the block's end (budget,
  /// quantum, faulting access).
  virtual void onBlock(uint32_t Tid, uint64_t EntryPC, uint64_t NumInsts,
                       bool EndsInControlFlow) {}
  /// BlockAccesses observers only, after a block retired: \p Insts, the
  /// instructions at EntryPC, EntryPC + 8, ..., retired on \p T, which
  /// holds the post-block state (T.PC is the next PC). Only the last can
  /// be control flow. \p Accesses are the memory accesses of the loads,
  /// stores and atomics among \p Insts, one each, in order. A compiled
  /// dispatch reports its block; the interpreter reports each instruction
  /// it retires as a one-instruction block, after the instruction's
  /// events (a syscall's onSyscall, a marker's onMarker). Calls follow
  /// global retirement order across threads.
  virtual void onRetiredBlock(const ThreadState &T, uint64_t EntryPC,
                              std::span<const isa::Inst> Insts,
                              std::span<const MemoryAccess> Accesses) {}
  /// After a system call completed (or was injected). Args are the values
  /// of r1..r6 at entry; \p Result the value placed in r1.
  virtual void onSyscall(uint32_t Tid, uint64_t Nr, const uint64_t *Args,
                         int64_t Result) {}
  /// A marker instruction retired.
  virtual void onMarker(uint32_t Tid, isa::MarkerKind Kind, int32_t Tag) {}
  virtual void onThreadCreate(uint32_t ParentTid, uint32_t ChildTid) {}
  virtual void onThreadExit(uint32_t Tid, int64_t Code) {}
};

/// EVM configuration.
struct VMConfig {
  uint64_t StackTop = isa::DefaultStackTop;
  uint64_t StackSize = 1 << 20;
  /// Scheduler quantum in instructions.
  uint64_t Quantum = 100;
  /// Nonzero: jitter each quantum in [Quantum/2, 3*Quantum/2] from this
  /// seed, modelling run-to-run thread-interleaving variation.
  uint64_t ScheduleSeed = 0;
  /// Dispatch from the decoded-block cache (default). Disable to force
  /// fetch + decode on every step (the pre-cache interpreter, kept for
  /// differential testing and the overhead benchmarks).
  bool EnableDecodeCache = true;
  /// Bound on resident decoded blocks before the cache takes a full flush
  /// (0 = DecodeCache::DefaultMaxBlocks).
  size_t DecodeCacheMaxBlocks = 0;
  /// Translate hot blocks to host x86-64 and dispatch them natively (the
  /// default; `ereplay -jit` sets it explicitly). Requires
  /// EnableDecodeCache, whose blocks carry the compiled code (a cap flush
  /// flushes it too); silently inert on non-x86-64 hosts and while a
  /// stopAt() condition is armed.
  bool EnableJit = true;
  /// Decode-cache entries crossing this hit count get compiled.
  uint32_t JitThreshold = 32;
  /// Directory guest open() paths resolve against.
  std::string FsRoot = ".";
  /// Sinks for guest stdout/stderr; when unset, bytes go to host stdout /
  /// stderr.
  std::function<void(const char *, size_t)> StdoutSink;
  std::function<void(const char *, size_t)> StderrSink;
};

/// The functional simulator.
class VM {
public:
  explicit VM(VMConfig Config = VMConfig());
  ~VM();

  // The address space holds a callback into this object (decode-cache
  // invalidation), so the VM must not be copied or moved.
  VM(const VM &) = delete;
  VM &operator=(const VM &) = delete;

  /// Maps the PT_LOAD segments of a guest executable and records its entry
  /// point. Rejects non-EG64 machines.
  Error loadELF(const elf::ELFReader &Reader);

  /// Convenience: open + parse + load.
  Error loadELFFile(const std::string &Path);

  /// Creates the main thread (tid 0): maps the stack, pushes argc/argv
  /// Linux-style (argc at sp, argv pointers above), sets pc to the entry.
  Error setupMainThread(const std::vector<std::string> &Args = {});

  /// Creates a thread from explicit architectural state (used by the
  /// replayer and by tests). Returns the tid.
  uint32_t spawnThread(const ThreadState &Initial);

  /// Round-robin scheduler: runs until all threads exit, a fault, a halt, a
  /// stop request, or until \p MaxInstructions have retired (across all
  /// threads). Every call re-picks the next thread with a fresh quantum.
  RunResult run(uint64_t MaxInstructions = UINT64_MAX);

  /// Runs \p Tid alone for up to \p MaxInstructions retired instructions
  /// (the caller owns the interleaving — the scheduler quantum does not
  /// apply). Executed reports the instructions actually retired;
  /// BudgetReached means "ran fine, more to run", also when the thread
  /// exited while others live on. With \p EndAtClone, a clone also ends
  /// the run (BudgetReached, the clone retired), so the caller sees every
  /// change of the live-thread set. With EnableJit this is the replayer's
  /// native-dispatch fast path.
  struct ThreadRunResult {
    StopReason Reason = StopReason::BudgetReached;
    uint64_t Executed = 0;
  };
  ThreadRunResult runThread(uint32_t Tid, uint64_t MaxInstructions,
                            bool EndAtClone = false);

  /// runThread(Tid, 1).Reason: exactly one instruction on \p Tid.
  StopReason stepThread(uint32_t Tid) { return runThread(Tid, 1).Reason; }

  /// Observer management (one active observer; null to detach). The
  /// observer's granularity() is read here, once; a BlockAccesses observer
  /// switches the JIT to its recording load/store helpers until the next
  /// call.
  void setObserver(Observer *O);

  /// From an observer callback: makes run() or runThread() return Stopped
  /// after the current instruction (or compiled block). Not from a Block
  /// observer: its onBlock calls arrive after a whole chain ran.
  void requestStop() { StopRequested = true; }

  /// Arms the (PC, count) stop condition: run() or runThread() returns
  /// Stopped right after the \p Count-th retirement of the instruction at
  /// \p PC, counted across threads and calls from here on. While it is
  /// armed every instruction is interpreted. \p Count == 0 disarms it.
  void stopAt(uint64_t PC, uint64_t Count) {
    StopPC = PC;
    StopCount = Count;
    StopHits = 0;
  }

  /// Syscall interception (replay injection). Return true to skip native
  /// emulation; the interceptor is responsible for memory side effects and
  /// must set \p Result (placed in r1).
  using SyscallInterceptor = std::function<bool(
      uint32_t Tid, uint64_t Nr, const uint64_t *Args, int64_t &Result)>;
  void setSyscallInterceptor(SyscallInterceptor I) {
    Interceptor = std::move(I);
  }

  AddressSpace &mem() { return Mem; }
  const AddressSpace &mem() const { return Mem; }

  ThreadState *thread(uint32_t Tid);
  const ThreadState *thread(uint32_t Tid) const;

  /// All thread ids ever created, in creation order.
  std::vector<uint32_t> threadIds() const;
  /// Tids that have not exited.
  std::vector<uint32_t> liveThreadIds() const;
  unsigned liveThreadCount() const;

  /// Total instructions retired across all threads.
  uint64_t globalRetired() const { return GlobalRetired; }

  uint64_t entry() const { return Entry; }
  const VMConfig &config() const { return Config; }

  /// Current program break (guest heap top).
  uint64_t brkTop() const { return BrkTop; }

  /// Restores the program break without mapping pages (checkpoint restore;
  /// the pages come from the checkpoint image).
  void restoreBrk(uint64_t Top) { BrkTop = Top; }

  /// The most recent fault (valid after a Faulted stop).
  const Fault &lastFault() const { return LastFault; }

  /// Guest-visible virtual time in nanoseconds (what clock_gettime sees).
  uint64_t virtualTimeNs() const;

  /// Decode-cache counters (also reported through RunResult::CacheStats).
  const DecodeCacheStats &decodeCacheStats() const { return DC.stats(); }
  const DecodeCache &decodeCache() const { return DC; }

  /// JIT counters (also reported through RunResult::Jit). All zero when
  /// the JIT is disabled or unavailable on this host.
  JitStats jitStats() const;

private:
  /// Outcome of one interpreted instruction. A thread exit is Ok: the
  /// slice sees it as a change of LiveCount.
  enum class StepStatus { Ok, Halted, Faulted };
  StepStatus stepOne(ThreadState &T);
  /// A run of one thread: BudgetReached unless it ended on a halt, a fault
  /// or a stop request; Executed counts the retired instructions;
  /// QuantumEnded says a pause or yield gave the quantum away.
  struct Slice {
    StopReason Reason = StopReason::BudgetReached;
    uint64_t Executed = 0;
    bool QuantumEnded = false;
  };
  /// The one execution loop: the only caller of jitDispatch and stepOne.
  /// Runs \p T until \p Quota instructions retired, a halt, a fault, a stop
  /// request, a clone or exit (LiveCount changed), or a pause or yield.
  Slice runSlice(ThreadState &T, uint64_t Quota);
  /// JIT plumbing (all defined in VM.cpp; JitRuntime bundles the code
  /// cache, the execution context, and the software TLBs).
  struct JitRuntime;
  /// True when compiled dispatch may run right now (JIT configured, host
  /// supported, and no stopAt() condition armed).
  bool jitActive() const { return Jit && StopCount == 0; }
  /// One native dispatch of the compiled code on the decoded block at T.PC
  /// (and the blocks chained after it), bounded by \p Quota retired
  /// instructions. Returns false when no compiled block starts there or
  /// the quota is too small for its entry check; true when compiled code
  /// ran, with \p Exec set to the instructions retired. A BlockAccesses
  /// observer caps the quota at the block's length and receives one
  /// onRetiredBlock per dispatch, read from the (maybe parked) block. A
  /// Block observer caps it at the block log's capacity less one and
  /// receives the chain's blocks from the log (deliverBlockLog).
  /// After a true return with Exec == 0 the caller must interpret at least
  /// one step before re-dispatching (memory-retry exits make no progress).
  bool jitDispatch(ThreadState &T, uint64_t Quota, uint64_t &Exec);
  /// Replays the block log of the dispatch that just retired \p Exec
  /// instructions on \p Tid into onBlock: every entry but the last is a
  /// whole block, the last gets the remainder.
  void deliverBlockLog(uint32_t Tid, uint64_t Exec);
  static uint64_t jitLoad(void *Cookie, uint64_t Addr, uint64_t Kind);
  static void jitStore(void *Cookie, uint64_t Addr, uint64_t Value,
                       uint64_t Size);
  /// jitLoad / jitStore that first append the access to the dispatch's
  /// record (the helpers while a BlockAccesses observer is attached).
  static uint64_t jitLoadRecording(void *Cookie, uint64_t Addr,
                                   uint64_t Kind);
  static void jitStoreRecording(void *Cookie, uint64_t Addr, uint64_t Value,
                                uint64_t Size);
  /// Executes one already-decoded instruction at T.PC and reports it, once
  /// retired, to a Block or BlockAccesses observer as a one-instruction
  /// block. Takes the instruction by value: executing a store into the
  /// current code page invalidates the block that owns the cached copy.
  StepStatus execDecoded(ThreadState &T, isa::Inst I);
  /// Cursor / direct-mapped lookup for the instruction at T.PC; null on a
  /// cache miss.
  const isa::Inst *cachedInst(ThreadState &T);
  /// Decodes a fresh block starting at T.PC, inserts it, and points the
  /// thread cursor at it. Null (with \p Status set) when the first fetch
  /// or decode faults.
  const isa::Inst *buildAndEnterBlock(ThreadState &T, StepStatus &Status);
  StepStatus doSyscall(ThreadState &T);
  StepStatus fault(ThreadState &T, uint64_t Addr, const char *Fmt, ...)
      __attribute__((format(printf, 4, 5)));
  void exitThread(ThreadState &T, int64_t Code);
  uint32_t pickNextThread();

  // Host file descriptor table.
  struct FDEntry {
    int HostFd = -1;
    std::string GuestPath;
    bool IsStd = false;
  };
  int64_t sysOpen(ThreadState &T, uint64_t PathAddr, uint64_t Flags,
                  uint64_t Mode);
  int64_t sysRead(ThreadState &T, uint64_t Fd, uint64_t Buf, uint64_t Len);
  int64_t sysWrite(ThreadState &T, uint64_t Fd, uint64_t Buf, uint64_t Len);
  int64_t sysClose(uint64_t Fd);
  int64_t sysLseek(uint64_t Fd, int64_t Off, uint64_t Whence);
  int64_t sysBrk(uint64_t Addr);
  int64_t sysMmapAnon(uint64_t Addr, uint64_t Len);
  int64_t sysMunmap(uint64_t Addr, uint64_t Len);

  VMConfig Config;
  AddressSpace Mem;
  DecodeCache DC;
  std::unique_ptr<JitRuntime> Jit; ///< null unless EnableJit on x86-64
  uint64_t Entry = 0;

  std::map<uint32_t, ThreadState> Threads;
  std::vector<uint32_t> CreationOrder;
  uint32_t NextTid = 0;
  unsigned LiveCount = 0;

  // Scheduler state.
  size_t RRIndex = 0;          // index into CreationOrder
  uint64_t QuantumLeft = 0;
  RNG SchedRNG;
  /// Set by pause and yield; ends the current slice.
  bool QuantumEnd = false;

  uint64_t GlobalRetired = 0;
  uint64_t BrkTop = 0;
  uint64_t MmapCursor = 0x20000000ull;
  bool GroupExited = false;
  int64_t GroupExitCode = 0;
  bool StopRequested = false;
  /// The stopAt() condition; armed while StopCount != 0.
  uint64_t StopPC = 0, StopCount = 0, StopHits = 0;
  Fault LastFault;

  Observer *Obs = nullptr;
  /// Obs->granularity(), or Events while no observer is attached.
  Observer::Granularity ObsGran = Observer::Granularity::Events;
  SyscallInterceptor Interceptor;

  std::map<int, FDEntry> FDs;
  int NextFd = 3;
};

} // namespace vm
} // namespace elfie

#endif // ELFIE_VM_VM_H
