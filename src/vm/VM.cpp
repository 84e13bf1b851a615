//===- vm/VM.cpp - EVM interpreter loop ------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "elf/ELFReader.h"
#include "isa/BlockDecode.h"
#include "isa/Semantics.h"
#include "support/Format.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstddef>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

using namespace elfie;
using namespace elfie::vm;
using isa::Inst;
using isa::Opcode;
namespace sem = isa::sem;

Observer::~Observer() = default;

/// The JIT runtime: compiled-code cache, the execution context emitted code
/// addresses through %r15, and software TLBs for the memory helpers. One
/// per VM, created only when Config.EnableJit on an x86-64 host.
struct VM::JitRuntime {
  static constexpr size_t TlbEntries = 64;
  JitCache JC;
  JitExecContext Ctx;
  /// True while the host call stack is inside the code buffer; the
  /// code-invalidate hook then sets Ctx.Pending so the emitted post-store
  /// check stops the current block before any stale code can run.
  bool InJit = false;
  // TLB slots: page base + host pointer, valid while the pointer is
  // non-null. Filled only after a slow-path access to the page succeeded
  // (so access tracking / first-touch has fired) and flushed by the
  // address-space page-mutation hook.
  uint64_t RTag[TlbEntries] = {};
  const uint8_t *RPtr[TlbEntries] = {};
  uint64_t WTag[TlbEntries] = {};
  uint8_t *WPtr[TlbEntries] = {};

  JitRuntime(const x86::JitLayout &L, size_t BufferBytes)
      : JC(L, BufferBytes) {}

  static unsigned slot(uint64_t Addr) {
    return (Addr >> 12) & (TlbEntries - 1);
  }
  void flushTlbPage(uint64_t PageAddr) {
    unsigned S = slot(PageAddr);
    if (RTag[S] == PageAddr)
      RPtr[S] = nullptr;
    if (WTag[S] == PageAddr)
      WPtr[S] = nullptr;
  }
  void flushTlbAll() {
    std::memset(RPtr, 0, sizeof(RPtr));
    std::memset(WPtr, 0, sizeof(WPtr));
  }
};

#if defined(__x86_64__)
/// Size of the JIT's executable code buffer.
static constexpr size_t JitBufferBytes = 16u << 20;

static x86::JitLayout jitLayout() {
  x86::JitLayout L;
  L.CountdownOff = offsetof(JitExecContext, Countdown);
  L.NextPCOff = offsetof(JitExecContext, NextPC);
  L.MemOkOff = offsetof(JitExecContext, MemOk);
  L.PendingOff = offsetof(JitExecContext, Pending);
  L.CookieOff = offsetof(JitExecContext, Cookie);
  L.LoadFnOff = offsetof(JitExecContext, LoadFn);
  L.StoreFnOff = offsetof(JitExecContext, StoreFn);
  L.ThreadOff = offsetof(JitExecContext, Thread);
  L.GprOff = offsetof(ThreadState, GPR);
  L.FprOff = offsetof(ThreadState, FPR);
  return L;
}
#endif

VM::VM(VMConfig Config)
    : Config(std::move(Config)), DC(this->Config.DecodeCacheMaxBlocks) {
  BrkTop = isa::HeapBase;
  SchedRNG.reseed(this->Config.ScheduleSeed ? this->Config.ScheduleSeed
                                            : 0x5eed);
  // Keep the decoded-block cache — and the JIT's compiled blocks, which
  // share the invalidation contract — coherent with the address space:
  // stores and pokes into executable pages (self-modifying code, replay
  // page injection), unmaps, and access-tracking resets all invalidate.
  Mem.setCodeInvalidateHook([this](uint64_t PageAddr) {
    if (PageAddr == AddressSpace::AllPages)
      DC.flush();
    else
      DC.invalidatePage(PageAddr);
    if (Jit) {
      if (PageAddr == AddressSpace::AllPages)
        Jit->JC.invalidateAll();
      else
        Jit->JC.invalidatePage(PageAddr);
      if (Jit->InJit)
        Jit->Ctx.Pending = 1;
    }
  });
  // The JIT's TLBs cache per-page host pointers; drop them whenever a
  // page's backing store may move (COW materialization, unmap, attach) or
  // tracking re-arms.
  Mem.setPageMutationHook([this](uint64_t PageAddr) {
    if (!Jit)
      return;
    if (PageAddr == AddressSpace::AllPages)
      Jit->flushTlbAll();
    else
      Jit->flushTlbPage(PageAddr);
  });
#if defined(__x86_64__)
  if (this->Config.EnableJit && this->Config.EnableDecodeCache) {
    auto J = std::make_unique<JitRuntime>(jitLayout(), JitBufferBytes);
    if (J->JC.ready()) {
      J->Ctx.Cookie = this;
      J->Ctx.LoadFn = &VM::jitLoad;
      J->Ctx.StoreFn = &VM::jitStore;
      Jit = std::move(J);
    }
  }
#endif
}

VM::~VM() {
  for (auto &[Fd, E] : FDs)
    if (!E.IsStd && E.HostFd >= 0)
      ::close(E.HostFd);
}

Error VM::loadELF(const elf::ELFReader &Reader) {
  if (Reader.machine() != elf::EM_EG64)
    return makeError("not an EG64 guest binary (machine %u)",
                     Reader.machine());
  if (Reader.fileType() != elf::ET_EXEC)
    return makeError("guest binary is not an executable");
  // Segments are attached as borrowed extents over the reader's bytes
  // (typically an mmap of the ELFie): no per-segment copies. map() covers
  // the zero-filled memsz tail beyond the file bytes.
  MemImage Img;
  for (const auto &Seg : Reader.segments()) {
    if (Seg.Type != elf::PT_LOAD)
      continue;
    uint8_t Perm = 0;
    if (Seg.Flags & elf::PF_R)
      Perm |= PermRead;
    if (Seg.Flags & elf::PF_W)
      Perm |= PermWrite;
    if (Seg.Flags & elf::PF_X)
      Perm |= PermExec;
    Mem.map(Seg.VAddr, Seg.MemSize, Perm);
    // Clamp to memsz so a malformed segment with excess file bytes cannot
    // smuggle pages past the mapped range (the old poke() faulted there).
    uint64_t InMem = std::min<uint64_t>(Seg.Data.size(), Seg.MemSize);
    if (InMem > 0)
      Img.addRun(Seg.VAddr, Perm, Seg.Data.data(), InMem);
  }
  Img.retain(Reader.backing());
  Mem.attachImage(std::move(Img));
  Entry = Reader.entry();
  return Error::success();
}

Error VM::loadELFFile(const std::string &Path) {
  auto Reader = elf::ELFReader::open(Path);
  if (!Reader)
    return Reader.takeError();
  return loadELF(*Reader);
}

Error VM::setupMainThread(const std::vector<std::string> &Args) {
  uint64_t StackBase = Config.StackTop - Config.StackSize;
  Mem.map(StackBase, Config.StackSize, PermRW);

  // Strings live at the top of the stack; argv array and argc below them,
  // Linux-style (argc at sp, argv[i] at sp + 8 + 8*i).
  uint64_t Cursor = Config.StackTop;
  std::vector<uint64_t> ArgPtrs;
  for (const std::string &A : Args) {
    Cursor -= A.size() + 1;
    if (Mem.write(Cursor, A.c_str(), A.size() + 1) != MemFault::None)
      return makeError("argv strings overflow the stack");
    ArgPtrs.push_back(Cursor);
  }
  Cursor &= ~uint64_t(15);
  // argc + argv[] + NULL terminator.
  uint64_t Needed = 8 + 8 * (ArgPtrs.size() + 1);
  Cursor -= Needed;
  Cursor &= ~uint64_t(15);
  uint64_t SP = Cursor;
  Mem.writeU64(SP, ArgPtrs.size());
  for (size_t I = 0; I < ArgPtrs.size(); ++I)
    Mem.writeU64(SP + 8 + 8 * I, ArgPtrs[I]);
  Mem.writeU64(SP + 8 + 8 * ArgPtrs.size(), 0);

  ThreadState T;
  T.PC = Entry;
  T.GPR[isa::RegSP] = SP;
  spawnThread(T);
  return Error::success();
}

uint32_t VM::spawnThread(const ThreadState &Initial) {
  ThreadState T = Initial;
  T.Tid = NextTid++;
  T.Exited = false;
  T.GPR[isa::RegZero] = 0;
  T.CurBlock = nullptr; // cursors from another VM's cache are meaningless
  T.CurIdx = 0;
  T.CurGen = 0;
  Threads.emplace(T.Tid, T);
  CreationOrder.push_back(T.Tid);
  ++LiveCount;
  return T.Tid;
}

ThreadState *VM::thread(uint32_t Tid) {
  auto It = Threads.find(Tid);
  return It == Threads.end() ? nullptr : &It->second;
}

const ThreadState *VM::thread(uint32_t Tid) const {
  auto It = Threads.find(Tid);
  return It == Threads.end() ? nullptr : &It->second;
}

std::vector<uint32_t> VM::threadIds() const { return CreationOrder; }

std::vector<uint32_t> VM::liveThreadIds() const {
  std::vector<uint32_t> Out;
  for (uint32_t Tid : CreationOrder)
    if (!Threads.at(Tid).Exited)
      Out.push_back(Tid);
  return Out;
}

unsigned VM::liveThreadCount() const { return LiveCount; }

std::string vm::renderVMStats(const std::string &Prefix,
                              const DecodeCacheStats &Cache,
                              const MemStats &Mem, const JitStats &Jit) {
  using ULL = unsigned long long;
  const char *P = Prefix.c_str();
  return formatString(
      "%sdecode cache: %llu hits, %llu misses, %llu invalidations\n"
      "%smemory: %llu image extents, %llu cow faults, %llu dirty bytes\n"
      "%sjit: %llu blocks, %llu hits, %llu flushes, %llu bailouts\n",
      P, ULL(Cache.Hits), ULL(Cache.Misses), ULL(Cache.Invalidations), P,
      ULL(Mem.ImageExtents), ULL(Mem.CowFaults), ULL(Mem.DirtyBytes), P,
      ULL(Jit.Blocks), ULL(Jit.Hits), ULL(Jit.Flushes), ULL(Jit.Bailouts));
}

/// The guest clock starts at 1 s and advances 1 ns per retired
/// instruction, so every executor reads the same time at the same count.
static constexpr uint64_t VirtualClockBaseNs = 1000000000ull;

uint64_t VM::virtualTimeNs() const {
  return VirtualClockBaseNs + GlobalRetired;
}

void VM::exitThread(ThreadState &T, int64_t Code) {
  T.Exited = true;
  T.ExitCode = Code;
  if (LiveCount > 0)
    --LiveCount;
  if (Obs)
    Obs->onThreadExit(T.Tid, Code);
}

VM::StepStatus VM::fault(ThreadState &T, uint64_t Addr, const char *Fmt,
                         ...) {
  va_list Args;
  va_start(Args, Fmt);
  char Buf[256];
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  LastFault.Tid = T.Tid;
  LastFault.PC = T.PC;
  LastFault.Addr = Addr;
  LastFault.Message = Buf;
  return StepStatus::Faulted;
}

uint32_t VM::pickNextThread() {
  // Round-robin over live threads starting after RRIndex (run() calls this
  // only while LiveCount > 0).
  size_t N = CreationOrder.size();
  for (size_t Step = 1; Step <= N; ++Step) {
    size_t Idx = (RRIndex + Step) % N;
    uint32_t Tid = CreationOrder[Idx];
    if (!Threads.at(Tid).Exited) {
      RRIndex = Idx;
      uint64_t Q = Config.Quantum;
      if (Config.ScheduleSeed)
        Q = Q / 2 + SchedRNG.nextBelow(Q) + 1;
      QuantumLeft = std::max<uint64_t>(Q, 1);
      return Tid;
    }
  }
  elfieUnreachable("no live thread to schedule");
}

VM::Slice VM::runSlice(ThreadState &T, uint64_t Quota) {
  Slice S;
  const bool JitOn = jitActive();
  const unsigned Live = LiveCount;
  QuantumEnd = false;
  while (S.Executed < Quota) {
    // Native dispatch only from a block boundary; mid-block (the cursor
    // fast path would hit) the interpreter finishes the block.
    uint64_t Exec = 0;
    if (JitOn &&
        !(T.CurBlock && T.CurGen == DC.generation() &&
          T.CurIdx + 1 < T.CurBlock->Insts.size() &&
          T.PC == T.CurBlock->pcAt(T.CurIdx + 1)) &&
        jitDispatch(T, Quota - S.Executed, Exec)) {
      S.Executed += Exec;
      if (StopRequested) {
        S.Reason = StopReason::Stopped;
        break;
      }
      if (Exec > 0)
        continue;
      // Exec == 0 (a memory-retry on the first instruction): interpret one
      // step so the canonical fault fires.
    }
    StepStatus Status = stepOne(T);
    if (Status == StepStatus::Faulted) {
      S.Reason = StopReason::Faulted;
      break;
    }
    ++S.Executed;
    if (Status == StepStatus::Halted) {
      S.Reason = StopReason::Halted;
      break;
    }
    if (StopRequested) {
      S.Reason = StopReason::Stopped;
      break;
    }
    if (LiveCount != Live || QuantumEnd)
      break;
  }
  S.QuantumEnded = QuantumEnd;
  return S;
}

RunResult VM::run(uint64_t MaxInstructions) {
  RunResult R;
  R.Reason = StopReason::BudgetReached;
  StopRequested = false;
  uint64_t Budget = MaxInstructions;
  // The current thread is looked up only on reschedule (std::map nodes are
  // stable across clone-driven insertions).
  ThreadState *Cur = nullptr;
  while (Budget > 0) {
    if (GroupExited || LiveCount == 0) {
      R.Reason = StopReason::AllExited;
      break;
    }
    if (!Cur || Cur->Exited || QuantumLeft == 0)
      Cur = &Threads.at(pickNextThread());
    // A single unseeded thread may ignore quantum boundaries (they are
    // unobservable and draw no schedule randomness); otherwise the slice
    // ends at the quantum so the interleaving — and the seeded RNG draw
    // sequence — is the same whichever executor retires the instructions.
    uint64_t Quota = (LiveCount == 1 && !Config.ScheduleSeed)
                         ? Budget
                         : std::min(Budget, QuantumLeft);
    Slice S = runSlice(*Cur, Quota);
    Budget -= S.Executed;
    if (S.Executed <= QuantumLeft) {
      QuantumLeft -= S.Executed;
    } else {
      // A lone thread ran past quantum boundaries: leave the phase a
      // re-pick at each boundary would have left (the same thread with a
      // fresh quantum), so the interleaving after a later clone matches.
      uint64_t Q = std::max<uint64_t>(Config.Quantum, 1);
      uint64_t Over = (S.Executed - QuantumLeft) % Q;
      QuantumLeft = Over ? Q - Over : 0;
    }
    if (S.QuantumEnded)
      QuantumLeft = 0;
    if (S.Reason != StopReason::BudgetReached) {
      R.Reason = S.Reason;
      break;
    }
  }
  if (R.Reason == StopReason::AllExited || R.Reason == StopReason::Halted)
    R.ExitCode = GroupExitCode;
  if (R.Reason == StopReason::Faulted)
    R.FaultInfo = LastFault;
  R.CacheStats = DC.stats();
  R.MemoryStats = Mem.memStats();
  R.Jit = jitStats();
  return R;
}

VM::ThreadRunResult VM::runThread(uint32_t Tid, uint64_t MaxInstructions) {
  auto It = Threads.find(Tid);
  assert(It != Threads.end() && "running unknown thread");
  ThreadState &T = It->second;
  StopRequested = false;
  ThreadRunResult R;
  while (R.Executed < MaxInstructions && !T.Exited) {
    Slice S = runSlice(T, MaxInstructions - R.Executed);
    R.Executed += S.Executed;
    // A thread exit ends the batch and outranks a stop request.
    if (S.Reason != StopReason::BudgetReached && !T.Exited) {
      R.Reason = S.Reason;
      return R;
    }
  }
  if (T.Exited && (GroupExited || LiveCount == 0))
    R.Reason = StopReason::AllExited;
  return R;
}

// ---------------------------------------------------------------------------
// JIT dispatch (DESIGN.md §12)
// ---------------------------------------------------------------------------

bool VM::jitActive() const {
  return Jit != nullptr && ObsGran != Observer::Granularity::Instruction;
}

JitStats VM::jitStats() const { return Jit ? Jit->JC.Stats : JitStats(); }

bool VM::jitDispatch(ThreadState &T, uint64_t Quota, uint64_t &Exec) {
  Exec = 0;
  JitRuntime &J = *Jit;
  const JitCache::CompiledBlock *CB = J.JC.find(T.PC);
  if (!CB)
    return false;
  if (Quota > uint64_t(INT64_MAX))
    Quota = INT64_MAX; // the emitted entry check compares signed
  if (Quota < CB->NumInsts)
    return false; // entry check would fail; interpret the quantum tail
  // A block observer sees one compiled block per dispatch: with the quota
  // at the block's length the next chained entry check exits. Copy what
  // the report needs now — a store inside the block may free the entry.
  const bool ReportBlock = ObsGran == Observer::Granularity::Block;
  const uint64_t StartPC = CB->StartPC;
  const uint32_t NumInsts = CB->NumInsts;
  const bool EndsInControlFlow = CB->EndsInControlFlow;
  if (ReportBlock)
    Quota = NumInsts;
  // Drain deferred chain un-patching before entering the buffer — after
  // this, every patched chain exit targets live code.
  J.JC.maintenance();
  J.Ctx.Countdown = static_cast<int64_t>(Quota);
  J.Ctx.NextPC = T.PC;
  J.Ctx.MemOk = 1;
  J.Ctx.Pending = 0;
  J.Ctx.Thread = &T;
  J.InJit = true;
  uint32_t Kind = J.JC.run(J.Ctx, *CB);
  J.InJit = false;
  Exec = Quota - static_cast<uint64_t>(J.Ctx.Countdown);
  T.PC = J.Ctx.NextPC;
  T.Retired += Exec;
  GlobalRetired += Exec;
  // Compiled code never writes GPR slot 0 and jumped arbitrarily, so the
  // decode-cache cursor is stale.
  T.CurBlock = nullptr;
  J.JC.Stats.Hits += Exec;
  ++J.JC.Stats.Dispatches;
  if (Kind == x86::JitExitBail || Kind == x86::JitExitMemRetry ||
      Kind == x86::JitExitInvalidate)
    ++J.JC.Stats.Bailouts;
  if (ReportBlock && Exec > 0)
    Obs->onBlock(T.Tid, StartPC, Exec,
                 Exec == NumInsts && EndsInControlFlow);
  return true;
}

uint64_t VM::jitLoad(void *Cookie, uint64_t Addr, uint64_t Kind) {
  VM *V = static_cast<VM *>(Cookie);
  JitRuntime &J = *V->Jit;
  static const uint32_t Sizes[7] = {1, 2, 4, 8, 1, 2, 4};
  uint32_t Size = Sizes[Kind];
  uint64_t Off = Addr & GuestPageMask;
  uint64_t Raw = 0;
  if (Off + Size <= GuestPageSize) {
    unsigned S = JitRuntime::slot(Addr);
    uint64_t Page = Addr - Off;
    const uint8_t *P = J.RPtr[S];
    if (P && J.RTag[S] == Page) {
      std::memcpy(&Raw, P + Off, Size);
    } else {
      if (V->Mem.read(Addr, &Raw, Size) != MemFault::None) {
        J.Ctx.MemOk = 0;
        return 0;
      }
      if (const uint8_t *NP = V->Mem.jitReadablePage(Page)) {
        J.RTag[S] = Page;
        J.RPtr[S] = NP;
      }
    }
  } else if (V->Mem.read(Addr, &Raw, Size) != MemFault::None) {
    J.Ctx.MemOk = 0;
    return 0;
  }
  switch (Kind) {
  case x86::JitLoadS8:
    return static_cast<uint64_t>(static_cast<int64_t>(static_cast<int8_t>(Raw)));
  case x86::JitLoadS16:
    return static_cast<uint64_t>(
        static_cast<int64_t>(static_cast<int16_t>(Raw)));
  case x86::JitLoadS32:
    return static_cast<uint64_t>(
        static_cast<int64_t>(static_cast<int32_t>(Raw)));
  default:
    return Raw;
  }
}

void VM::jitStore(void *Cookie, uint64_t Addr, uint64_t Value, uint64_t Size) {
  VM *V = static_cast<VM *>(Cookie);
  JitRuntime &J = *V->Jit;
  uint64_t Off = Addr & GuestPageMask;
  if (Off + Size <= GuestPageSize) {
    unsigned S = JitRuntime::slot(Addr);
    uint64_t Page = Addr - Off;
    uint8_t *P = J.WPtr[S];
    if (P && J.WTag[S] == Page) {
      // TLB write hit: the page is known dirty (materialized), writable,
      // and non-executable, so no tracking or invalidation can fire.
      std::memcpy(P + Off, &Value, Size);
      return;
    }
    if (V->Mem.write(Addr, &Value, Size) != MemFault::None) {
      J.Ctx.MemOk = 0;
      return;
    }
    if (uint8_t *NP = V->Mem.jitWritablePage(Page)) {
      J.WTag[S] = Page;
      J.WPtr[S] = NP;
    }
    return;
  }
  if (V->Mem.write(Addr, &Value, Size) != MemFault::None)
    J.Ctx.MemOk = 0;
}

const Inst *VM::cachedInst(ThreadState &T) {
  // Cursor fast path: the thread is still walking the block it dispatched
  // from last step. Generation must match before the pointer is touched —
  // invalidation frees blocks.
  if (T.CurBlock && T.CurGen == DC.generation()) {
    uint32_t Next = T.CurIdx + 1;
    if (Next < T.CurBlock->Insts.size() && T.PC == T.CurBlock->pcAt(Next)) {
      T.CurIdx = Next;
      DC.noteCursorHit();
      return &T.CurBlock->Insts[Next];
    }
  }
  const DecodedBlock *B = DC.lookup(T.PC);
  if (!B)
    return nullptr;
  // JIT promotion: a block entered often enough gets compiled (compile()
  // dedups, so re-crossing the threshold after a flush re-promotes).
  if (Jit && B->HitCount >= Config.JitThreshold && jitActive())
    Jit->JC.compile(*B);
  T.CurBlock = B;
  T.CurIdx = 0;
  T.CurGen = DC.generation();
  return &B->Insts[0];
}

const Inst *VM::buildAndEnterBlock(ThreadState &T, StepStatus &Status) {
  uint64_t PC = T.PC;
  auto NB = std::make_unique<DecodedBlock>();
  NB->StartPC = PC;
  NB->Insts.reserve(16);
  // Blocks never cross a page boundary, so page-granular invalidation is
  // exact (the shared walker enforces that rule). The fetches here also
  // drive access tracking / first-touch capture, exactly like pre-cache
  // per-instruction fetches did (blocks live on one page, so the page is
  // touched at block entry either way).
  uint64_t BadPC = 0;
  MemFault LastMF = MemFault::None;
  isa::BlockEnd End = isa::decodeStraightLine(
      [&](uint64_t P, uint8_t *Raw) {
        LastMF = Mem.fetch(P, Raw, isa::InstSize);
        return LastMF == MemFault::None;
      },
      PC, GuestPageSize, DecodeCache::MaxBlockInsts, NB->Insts, BadPC);
  if (NB->Insts.empty()) {
    // The very first instruction failed; fault now. (A bad word after a
    // valid prefix is left uncached and faults when actually reached.)
    if (End == isa::BlockEnd::FetchFault)
      Status = fault(T, BadPC, "instruction fetch from %s page at %#llx",
                     LastMF == MemFault::Unmapped ? "unmapped"
                                                  : "non-executable",
                     static_cast<unsigned long long>(BadPC));
    else
      Status = fault(T, BadPC, "invalid instruction encoding at %#llx",
                     static_cast<unsigned long long>(BadPC));
    return nullptr;
  }
  const DecodedBlock *B = DC.insert(std::move(NB));
  T.CurBlock = B;
  T.CurIdx = 0;
  T.CurGen = DC.generation();
  return &B->Insts[0];
}

VM::StepStatus VM::stepOne(ThreadState &T) {
  // Cached dispatch covers every 8-aligned PC below the top guest page;
  // anything else (misaligned entry points, code in the last page) falls
  // back to per-step fetch + decode.
  if (Config.EnableDecodeCache && (T.PC & (isa::InstSize - 1)) == 0 &&
      pageBase(T.PC) != pageBase(UINT64_MAX)) {
    const Inst *IP = cachedInst(T);
    if (!IP) {
      StepStatus Status = StepStatus::Ok;
      IP = buildAndEnterBlock(T, Status);
      if (!IP)
        return Status;
    }
    return execDecoded(T, *IP);
  }
  uint64_t PC = T.PC;
  uint8_t Raw[8];
  MemFault MF = Mem.fetch(PC, Raw, 8);
  if (MF != MemFault::None)
    return fault(T, PC, "instruction fetch from %s page at %#llx",
                 MF == MemFault::Unmapped ? "unmapped" : "non-executable",
                 static_cast<unsigned long long>(PC));
  Inst I;
  if (!isa::decode(Raw, I))
    return fault(T, PC, "invalid instruction encoding at %#llx",
                 static_cast<unsigned long long>(PC));
  return execDecoded(T, I);
}

VM::StepStatus VM::execDecoded(ThreadState &T, const Inst I) {
  uint64_t PC = T.PC;
  if (Obs) {
    if (ObsGran == Observer::Granularity::Block)
      Obs->onBlock(T.Tid, PC, 1, isa::isControlFlow(I.Op));
    else
      Obs->onInstruction(T, PC, I);
  }

  uint64_t *R = T.GPR;
  double *F = T.FPR;
  uint64_t NextPC = PC + isa::InstSize;
  auto Retire = [&](uint64_t To) {
    T.GPR[isa::RegZero] = 0;
    T.PC = To;
    ++T.Retired;
    ++GlobalRetired;
  };
  auto MemAccess = [&](uint64_t Addr, uint32_t Size, bool IsWrite) {
    if (Obs)
      Obs->onMemoryAccess(T.Tid, Addr, Size, IsWrite);
  };
  auto Transfer = [&](uint64_t To, bool Taken) {
    if (Obs)
      Obs->onControlTransfer(T.Tid, PC, To, Taken);
  };

  switch (I.Op) {
  case Opcode::Nop:
  case Opcode::Fence:
    Retire(NextPC);
    return StepStatus::Ok;
  case Opcode::Pause:
    // Spin hint: retire and end the quantum so other threads can make
    // progress through the lock/barrier this thread is spinning on.
    Retire(NextPC);
    QuantumEnd = true;
    return StepStatus::Ok;
  case Opcode::Halt:
    Retire(NextPC);
    Transfer(NextPC, false);
    return StepStatus::Halted;
  case Opcode::Marker:
    if (Obs)
      Obs->onMarker(T.Tid, static_cast<isa::MarkerKind>(I.Rd), I.Imm);
    Retire(NextPC);
    return StepStatus::Ok;
  case Opcode::Syscall:
    return doSyscall(T);

  // ---- Integer ALU ----
  case Opcode::Add: R[I.Rd] = R[I.Rs1] + R[I.Rs2]; break;
  case Opcode::Sub: R[I.Rd] = R[I.Rs1] - R[I.Rs2]; break;
  case Opcode::Mul: R[I.Rd] = R[I.Rs1] * R[I.Rs2]; break;
  case Opcode::Mulh: R[I.Rd] = sem::mulh(R[I.Rs1], R[I.Rs2]); break;
  case Opcode::Div: R[I.Rd] = sem::div(R[I.Rs1], R[I.Rs2]); break;
  case Opcode::Divu: R[I.Rd] = sem::divu(R[I.Rs1], R[I.Rs2]); break;
  case Opcode::Rem: R[I.Rd] = sem::rem(R[I.Rs1], R[I.Rs2]); break;
  case Opcode::Remu: R[I.Rd] = sem::remu(R[I.Rs1], R[I.Rs2]); break;
  case Opcode::And: R[I.Rd] = R[I.Rs1] & R[I.Rs2]; break;
  case Opcode::Or: R[I.Rd] = R[I.Rs1] | R[I.Rs2]; break;
  case Opcode::Xor: R[I.Rd] = R[I.Rs1] ^ R[I.Rs2]; break;
  case Opcode::Shl: R[I.Rd] = sem::shl(R[I.Rs1], R[I.Rs2]); break;
  case Opcode::Shr: R[I.Rd] = sem::shr(R[I.Rs1], R[I.Rs2]); break;
  case Opcode::Sar: R[I.Rd] = sem::sar(R[I.Rs1], R[I.Rs2]); break;
  case Opcode::Slt: R[I.Rd] = sem::slt(R[I.Rs1], R[I.Rs2]); break;
  case Opcode::Sltu: R[I.Rd] = sem::sltu(R[I.Rs1], R[I.Rs2]); break;
  case Opcode::Seq: R[I.Rd] = R[I.Rs1] == R[I.Rs2]; break;
  case Opcode::Mov: R[I.Rd] = R[I.Rs1]; break;

  case Opcode::Addi: R[I.Rd] = R[I.Rs1] + sem::sext(I.Imm); break;
  case Opcode::Muli: R[I.Rd] = R[I.Rs1] * sem::sext(I.Imm); break;
  case Opcode::Andi: R[I.Rd] = R[I.Rs1] & sem::sext(I.Imm); break;
  case Opcode::Ori: R[I.Rd] = R[I.Rs1] | sem::sext(I.Imm); break;
  case Opcode::Xori: R[I.Rd] = R[I.Rs1] ^ sem::sext(I.Imm); break;
  case Opcode::Shli: R[I.Rd] = sem::shl(R[I.Rs1], sem::sext(I.Imm)); break;
  case Opcode::Shri: R[I.Rd] = sem::shr(R[I.Rs1], sem::sext(I.Imm)); break;
  case Opcode::Sari: R[I.Rd] = sem::sar(R[I.Rs1], sem::sext(I.Imm)); break;
  case Opcode::Slti: R[I.Rd] = sem::slt(R[I.Rs1], sem::sext(I.Imm)); break;
  case Opcode::Sltui: R[I.Rd] = sem::sltu(R[I.Rs1], sem::sext(I.Imm)); break;
  case Opcode::Ldi: R[I.Rd] = sem::sext(I.Imm); break;
  case Opcode::Ldih: R[I.Rd] = sem::ldih(R[I.Rd], I.Imm); break;

  // ---- Loads/stores ----
  case Opcode::Ld1:
  case Opcode::Ld2:
  case Opcode::Ld4:
  case Opcode::Ld8:
  case Opcode::Ld1s:
  case Opcode::Ld2s:
  case Opcode::Ld4s: {
    uint32_t Size = I.Op == Opcode::Ld1 || I.Op == Opcode::Ld1s   ? 1
                    : I.Op == Opcode::Ld2 || I.Op == Opcode::Ld2s ? 2
                    : I.Op == Opcode::Ld4 || I.Op == Opcode::Ld4s ? 4
                                                                  : 8;
    uint64_t Addr = R[I.Rs1] + static_cast<int64_t>(I.Imm);
    MemAccess(Addr, Size, false);
    uint64_t V = 0;
    MemFault RF = Mem.read(Addr, &V, Size);
    if (RF != MemFault::None)
      return fault(T, Addr, "load from %s address %#llx",
                   RF == MemFault::Unmapped ? "unmapped" : "unreadable",
                   static_cast<unsigned long long>(Addr));
    if (I.Op == Opcode::Ld1s)
      V = static_cast<uint64_t>(static_cast<int64_t>(static_cast<int8_t>(V)));
    else if (I.Op == Opcode::Ld2s)
      V = static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int16_t>(V)));
    else if (I.Op == Opcode::Ld4s)
      V = static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int32_t>(V)));
    R[I.Rd] = V;
    break;
  }
  case Opcode::St1:
  case Opcode::St2:
  case Opcode::St4:
  case Opcode::St8: {
    uint32_t Size = I.Op == Opcode::St1   ? 1
                    : I.Op == Opcode::St2 ? 2
                    : I.Op == Opcode::St4 ? 4
                                          : 8;
    uint64_t Addr = R[I.Rs1] + static_cast<int64_t>(I.Imm);
    MemAccess(Addr, Size, true);
    uint64_t V = R[I.Rd];
    MemFault WF = Mem.write(Addr, &V, Size);
    if (WF != MemFault::None)
      return fault(T, Addr, "store to %s address %#llx",
                   WF == MemFault::Unmapped ? "unmapped" : "read-only",
                   static_cast<unsigned long long>(Addr));
    break;
  }

  // ---- Control flow ----
  case Opcode::Beq:
  case Opcode::Bne:
  case Opcode::Blt:
  case Opcode::Bge:
  case Opcode::Bltu:
  case Opcode::Bgeu: {
    bool Taken = false;
    switch (I.Op) {
    case Opcode::Beq: Taken = R[I.Rs1] == R[I.Rs2]; break;
    case Opcode::Bne: Taken = R[I.Rs1] != R[I.Rs2]; break;
    case Opcode::Blt: Taken = sem::slt(R[I.Rs1], R[I.Rs2]); break;
    case Opcode::Bge: Taken = !sem::slt(R[I.Rs1], R[I.Rs2]); break;
    case Opcode::Bltu: Taken = sem::sltu(R[I.Rs1], R[I.Rs2]); break;
    case Opcode::Bgeu: Taken = !sem::sltu(R[I.Rs1], R[I.Rs2]); break;
    default: break;
    }
    uint64_t To = Taken ? PC + static_cast<int64_t>(I.Imm) : NextPC;
    Transfer(To, Taken);
    Retire(To);
    return StepStatus::Ok;
  }
  case Opcode::Jmp: {
    uint64_t To = PC + static_cast<int64_t>(I.Imm);
    Transfer(To, true);
    Retire(To);
    return StepStatus::Ok;
  }
  case Opcode::Jal: {
    uint64_t To = PC + static_cast<int64_t>(I.Imm);
    R[I.Rd] = NextPC;
    Transfer(To, true);
    Retire(To);
    return StepStatus::Ok;
  }
  case Opcode::Jalr: {
    uint64_t To = R[I.Rs1] + static_cast<int64_t>(I.Imm);
    if (To & 7)
      return fault(T, To, "jalr to misaligned address %#llx",
                   static_cast<unsigned long long>(To));
    R[I.Rd] = NextPC;
    Transfer(To, true);
    Retire(To);
    return StepStatus::Ok;
  }

  // ---- Atomics ----
  case Opcode::AmoAdd:
  case Opcode::AmoSwap:
  case Opcode::Cas: {
    uint64_t Addr = R[I.Rs1];
    MemAccess(Addr, 8, true);
    uint64_t Old = 0;
    MemFault RF = Mem.read(Addr, &Old, 8);
    if (RF != MemFault::None)
      return fault(T, Addr, "atomic access to %s address %#llx",
                   RF == MemFault::Unmapped ? "unmapped" : "unreadable",
                   static_cast<unsigned long long>(Addr));
    uint64_t New = Old;
    if (I.Op == Opcode::AmoAdd)
      New = Old + R[I.Rs2];
    else if (I.Op == Opcode::AmoSwap)
      New = R[I.Rs2];
    else if (Old == R[I.Rd]) // Cas: Rd carries the expected value
      New = R[I.Rs2];
    if (New != Old || I.Op != Opcode::Cas) {
      MemFault WF = Mem.write(Addr, &New, 8);
      if (WF != MemFault::None)
        return fault(T, Addr, "atomic write to %s address %#llx",
                     WF == MemFault::Unmapped ? "unmapped" : "read-only",
                     static_cast<unsigned long long>(Addr));
    }
    R[I.Rd] = Old;
    break;
  }

  // ---- Floating point ----
  case Opcode::Fadd: F[I.Rd] = F[I.Rs1] + F[I.Rs2]; break;
  case Opcode::Fsub: F[I.Rd] = F[I.Rs1] - F[I.Rs2]; break;
  case Opcode::Fmul: F[I.Rd] = F[I.Rs1] * F[I.Rs2]; break;
  case Opcode::Fdiv: F[I.Rd] = F[I.Rs1] / F[I.Rs2]; break;
  // fmin/fmax follow SSE minsd/maxsd semantics — the second source is
  // returned when the operands are unordered (NaN) or equal — so the
  // native translation matches the interpreter bit-for-bit.
  case Opcode::Fmin:
    F[I.Rd] = F[I.Rs1] < F[I.Rs2] ? F[I.Rs1] : F[I.Rs2];
    break;
  case Opcode::Fmax:
    F[I.Rd] = F[I.Rs1] > F[I.Rs2] ? F[I.Rs1] : F[I.Rs2];
    break;
  case Opcode::Fsqrt: F[I.Rd] = std::sqrt(F[I.Rs1]); break;
  case Opcode::Fneg: F[I.Rd] = -F[I.Rs1]; break;
  case Opcode::Fabs: F[I.Rd] = std::fabs(F[I.Rs1]); break;
  case Opcode::Fmov: F[I.Rd] = F[I.Rs1]; break;
  case Opcode::Feq: R[I.Rd] = F[I.Rs1] == F[I.Rs2]; break;
  case Opcode::Flt: R[I.Rd] = F[I.Rs1] < F[I.Rs2]; break;
  case Opcode::Fle: R[I.Rd] = F[I.Rs1] <= F[I.Rs2]; break;
  case Opcode::Fld: {
    uint64_t Addr = R[I.Rs1] + static_cast<int64_t>(I.Imm);
    MemAccess(Addr, 8, false);
    uint64_t Bits = 0;
    MemFault RF = Mem.read(Addr, &Bits, 8);
    if (RF != MemFault::None)
      return fault(T, Addr, "fld from %s address %#llx",
                   RF == MemFault::Unmapped ? "unmapped" : "unreadable",
                   static_cast<unsigned long long>(Addr));
    std::memcpy(&F[I.Rd], &Bits, 8);
    break;
  }
  case Opcode::Fst: {
    uint64_t Addr = R[I.Rs1] + static_cast<int64_t>(I.Imm);
    MemAccess(Addr, 8, true);
    uint64_t Bits;
    std::memcpy(&Bits, &F[I.Rd], 8);
    MemFault WF = Mem.write(Addr, &Bits, 8);
    if (WF != MemFault::None)
      return fault(T, Addr, "fst to %s address %#llx",
                   WF == MemFault::Unmapped ? "unmapped" : "read-only",
                   static_cast<unsigned long long>(Addr));
    break;
  }
  case Opcode::Fcvtid:
    F[I.Rd] = static_cast<double>(static_cast<int64_t>(R[I.Rs1]));
    break;
  case Opcode::Fcvtdi: {
    double V = F[I.Rs1];
    int64_t Out;
    // Saturating conversion with a defined NaN result so the native
    // translation (cvttsd2si semantics) matches exactly.
    if (std::isnan(V))
      Out = INT64_MIN;
    else if (V >= 9223372036854775808.0)
      Out = INT64_MIN; // matches x86 cvttsd2si overflow (0x8000...)
    else if (V <= -9223372036854775808.0)
      Out = INT64_MIN;
    else
      Out = static_cast<int64_t>(V);
    R[I.Rd] = static_cast<uint64_t>(Out);
    break;
  }
  case Opcode::FmvToF:
    std::memcpy(&F[I.Rd], &R[I.Rs1], 8);
    break;
  case Opcode::FmvToI:
    std::memcpy(&R[I.Rd], &F[I.Rs1], 8);
    break;
  }

  Retire(NextPC);
  return StepStatus::Ok;
}

// ---------------------------------------------------------------------------
// System calls
// ---------------------------------------------------------------------------

static std::string resolveGuestPath(const std::string &Root,
                                    const std::string &GuestPath) {
  if (GuestPath.empty())
    return Root;
  if (GuestPath[0] == '/')
    return Root + GuestPath;
  return Root + "/" + GuestPath;
}

int64_t VM::sysOpen(ThreadState &T, uint64_t PathAddr, uint64_t Flags,
                    uint64_t Mode) {
  auto Path = Mem.readCString(PathAddr);
  if (!Path)
    return -EFAULT;
  std::string HostPath = resolveGuestPath(Config.FsRoot, *Path);
  // Guest flag values were chosen to match Linux; pass through.
  int HostFd = ::open(HostPath.c_str(), static_cast<int>(Flags),
                      static_cast<mode_t>(Mode));
  if (HostFd < 0)
    return -errno;
  int GuestFd = NextFd++;
  FDs[GuestFd] = {HostFd, *Path, false};
  return GuestFd;
}

int64_t VM::sysRead(ThreadState &T, uint64_t Fd, uint64_t Buf, uint64_t Len) {
  if (Fd == 0)
    return 0; // stdin is always at EOF in the EVM
  auto It = FDs.find(static_cast<int>(Fd));
  if (It == FDs.end())
    return -EBADF;
  std::vector<uint8_t> Tmp(std::min<uint64_t>(Len, 1 << 20));
  ssize_t N = ::read(It->second.HostFd, Tmp.data(), Tmp.size());
  if (N < 0)
    return -errno;
  if (N > 0 && Mem.write(Buf, Tmp.data(), static_cast<uint64_t>(N)) !=
                   MemFault::None)
    return -EFAULT;
  return N;
}

int64_t VM::sysWrite(ThreadState &T, uint64_t Fd, uint64_t Buf,
                     uint64_t Len) {
  std::vector<char> Tmp(Len);
  if (Len && Mem.read(Buf, Tmp.data(), Len) != MemFault::None)
    return -EFAULT;
  if (Fd == 1 || Fd == 2) {
    auto &Sink = Fd == 1 ? Config.StdoutSink : Config.StderrSink;
    if (Sink)
      Sink(Tmp.data(), Len);
    else
      std::fwrite(Tmp.data(), 1, Len, Fd == 1 ? stdout : stderr);
    return static_cast<int64_t>(Len);
  }
  auto It = FDs.find(static_cast<int>(Fd));
  if (It == FDs.end())
    return -EBADF;
  ssize_t N = ::write(It->second.HostFd, Tmp.data(), Len);
  return N < 0 ? -errno : N;
}

int64_t VM::sysClose(uint64_t Fd) {
  auto It = FDs.find(static_cast<int>(Fd));
  if (It == FDs.end())
    return Fd <= 2 ? 0 : -EBADF;
  ::close(It->second.HostFd);
  FDs.erase(It);
  return 0;
}

int64_t VM::sysLseek(uint64_t Fd, int64_t Off, uint64_t Whence) {
  auto It = FDs.find(static_cast<int>(Fd));
  if (It == FDs.end())
    return -EBADF;
  off_t Res = ::lseek(It->second.HostFd, Off, static_cast<int>(Whence));
  return Res < 0 ? -errno : Res;
}

int64_t VM::sysBrk(uint64_t Addr) {
  // Guest brk is grow-only (shrinks are refused, Linux-style failure
  // semantics): this keeps the semantics implementable in a native ELFie,
  // where heap growth maps fresh zero pages above the captured image.
  if (Addr <= BrkTop || Addr < isa::HeapBase ||
      Addr > isa::HeapBase + (1ull << 32))
    return static_cast<int64_t>(BrkTop);
  Mem.map(BrkTop, Addr - BrkTop, PermRW);
  BrkTop = Addr;
  return static_cast<int64_t>(BrkTop);
}

int64_t VM::sysMmapAnon(uint64_t Addr, uint64_t Len) {
  if (Len == 0)
    return -EINVAL;
  if (Addr == 0) {
    Addr = elf::alignUp(MmapCursor, GuestPageSize);
    MmapCursor = Addr + elf::alignUp(Len, GuestPageSize);
  }
  Mem.map(Addr, Len, PermRW);
  return static_cast<int64_t>(Addr);
}

int64_t VM::sysMunmap(uint64_t Addr, uint64_t Len) {
  Mem.unmap(Addr, Len);
  return 0;
}

VM::StepStatus VM::doSyscall(ThreadState &T) {
  uint64_t PC = T.PC;
  uint64_t Nr = T.GPR[isa::SysNrReg];
  uint64_t Args[6];
  for (unsigned I = 0; I < 6; ++I)
    Args[I] = T.GPR[isa::SysArgReg0 + I];

  auto Finish = [&](int64_t Result) {
    T.GPR[isa::SysRetReg] = static_cast<uint64_t>(Result);
    T.GPR[isa::RegZero] = 0;
    if (Obs)
      Obs->onSyscall(T.Tid, Nr, Args, Result);
    T.PC = PC + isa::InstSize;
    ++T.Retired;
    ++GlobalRetired;
  };

  // Replay injection path: the interceptor handles everything except
  // thread-lifecycle syscalls, which must execute for real so replayed
  // threads actually exist/exit.
  bool Lifecycle = Nr == static_cast<uint64_t>(isa::Sys::Exit) ||
                   Nr == static_cast<uint64_t>(isa::Sys::ExitGroup) ||
                   Nr == static_cast<uint64_t>(isa::Sys::Clone);
  if (Interceptor && !Lifecycle) {
    int64_t Result = 0;
    if (Interceptor(T.Tid, Nr, Args, Result)) {
      Finish(Result);
      return StepStatus::Ok;
    }
  }

  switch (static_cast<isa::Sys>(Nr)) {
  case isa::Sys::Exit: {
    if (Obs)
      Obs->onSyscall(T.Tid, Nr, Args, 0);
    ++T.Retired;
    ++GlobalRetired;
    T.PC = PC + isa::InstSize;
    exitThread(T, static_cast<int64_t>(Args[0]));
    if (liveThreadCount() == 0)
      GroupExitCode = static_cast<int64_t>(Args[0]);
    return StepStatus::Ok;
  }
  case isa::Sys::ExitGroup: {
    if (Obs)
      Obs->onSyscall(T.Tid, Nr, Args, 0);
    ++T.Retired;
    ++GlobalRetired;
    T.PC = PC + isa::InstSize;
    GroupExited = true;
    GroupExitCode = static_cast<int64_t>(Args[0]);
    exitThread(T, GroupExitCode);
    return StepStatus::Ok;
  }
  case isa::Sys::Write:
    Finish(sysWrite(T, Args[0], Args[1], Args[2]));
    return StepStatus::Ok;
  case isa::Sys::Read:
    Finish(sysRead(T, Args[0], Args[1], Args[2]));
    return StepStatus::Ok;
  case isa::Sys::Open:
    Finish(sysOpen(T, Args[0], Args[1], Args[2]));
    return StepStatus::Ok;
  case isa::Sys::Close:
    Finish(sysClose(Args[0]));
    return StepStatus::Ok;
  case isa::Sys::Lseek:
    Finish(sysLseek(Args[0], static_cast<int64_t>(Args[1]), Args[2]));
    return StepStatus::Ok;
  case isa::Sys::Brk:
    Finish(sysBrk(Args[0]));
    return StepStatus::Ok;
  case isa::Sys::ClockGetTimeNs:
    Finish(static_cast<int64_t>(virtualTimeNs()));
    return StepStatus::Ok;
  case isa::Sys::Clone: {
    ThreadState Child;
    Child.PC = Args[0];
    Child.GPR[isa::RegSP] = Args[1];
    Child.GPR[1] = Args[2];
    uint32_t ChildTid = spawnThread(Child);
    if (Obs)
      Obs->onThreadCreate(T.Tid, ChildTid);
    Finish(ChildTid);
    return StepStatus::Ok;
  }
  case isa::Sys::GetTid:
    Finish(T.Tid);
    return StepStatus::Ok;
  case isa::Sys::Yield:
    QuantumEnd = true;
    Finish(0);
    return StepStatus::Ok;
  case isa::Sys::MmapAnon:
    Finish(sysMmapAnon(Args[0], Args[1]));
    return StepStatus::Ok;
  case isa::Sys::Munmap:
    Finish(sysMunmap(Args[0], Args[1]));
    return StepStatus::Ok;
  }
  return fault(T, PC, "unknown system call %llu at %#llx",
               static_cast<unsigned long long>(Nr),
               static_cast<unsigned long long>(PC));
}
