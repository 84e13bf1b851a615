//===- replay/Replayer.cpp ------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "replay/Replayer.h"

#include "support/Format.h"

#include <algorithm>
#include <cstring>

using namespace elfie;
using namespace elfie::replay;
using pinball::Pinball;

Replay::Replay(const Pinball &PB, const ReplayOptions &Opts)
    : PB(PB), Opts(Opts) {}

Error Replay::start() {
  vm::VMConfig Config = Opts.Config;
  Config.StdoutSink = [this, UserSink = Config.StdoutSink](const char *P,
                                                           size_t N) {
    Stdout.append(P, N);
    if (UserSink)
      UserSink(P, N);
  };
  M = std::make_unique<vm::VM>(Config);
  // Zero-copy page load: the pinball's (typically mmap-backed) image pages
  // attach as borrowed extents; the VM only allocates private copies for
  // pages the replayed code actually writes. Free replay (ELFie-mimicking)
  // takes every page up front.
  M->mem().attachImage(PB.buildMemImage(/*IncludeInjects=*/!Opts.Injection));

  // Restore the heap break so brk() growth behaves as in the logging run.
  if (PB.Meta.BrkAtStart)
    M->restoreBrk(PB.Meta.BrkAtStart);

  // Threads, in tid order so the VM hands out matching tids.
  std::vector<pinball::ThreadRegs> Sorted = PB.Threads;
  std::sort(Sorted.begin(), Sorted.end(),
            [](const auto &A, const auto &B) { return A.Tid < B.Tid; });
  for (const pinball::ThreadRegs &T : Sorted) {
    vm::ThreadState S;
    std::memcpy(S.GPR, T.GPR, sizeof(S.GPR));
    std::memcpy(S.FPR, T.FPR, sizeof(S.FPR));
    S.PC = T.PC;
    uint32_t Got = M->spawnThread(S);
    if (Got != T.Tid)
      return makeError("pinball thread ids are not dense from 0: found tid "
                       "%u where %u was expected; re-log the region or "
                       "renumber the t*.reg files",
                       T.Tid, Got);
  }
  Budget = Opts.MaxInstructions ? Opts.MaxInstructions : PB.Meta.RegionLength;
  if (!Opts.Injection)
    return Error::success(); // free scheduler, native syscalls

  // Syscall injection from sel.log, consumed strictly in order.
  M->setSyscallInterceptor([this](uint32_t Tid, uint64_t Nr, const uint64_t *,
                                  int64_t &Result) {
    return injectSyscall(Tid, Nr, Result);
  });
  // Lazy page injection, ordered by first-use icount.
  for (const pinball::InjectRecord &I : PB.Injects)
    Pending.push_back(&I);
  std::sort(Pending.begin(), Pending.end(),
            [](const auto *A, const auto *B) {
              return A->FirstUseIcount < B->FirstUseIcount;
            });
  return Error::success();
}

bool Replay::injectSyscall(uint32_t Tid, uint64_t Nr, int64_t &Result) {
  if (SyscallCursor >= PB.Syscalls.size()) {
    Divergence = formatString(
        "thread %u executed syscall %llu beyond the end of sel.log", Tid,
        static_cast<unsigned long long>(Nr));
    Diverge.K = DivergenceInfo::Kind::SyscallBeyondLog;
    Diverge.RecordIndex = SyscallCursor;
    Diverge.ObservedTid = Tid;
    Diverge.ObservedNr = Nr;
    M->requestStop();
    return true;
  }
  const pinball::SyscallRecord &Rec = PB.Syscalls[SyscallCursor];
  if (Rec.Tid != Tid || Rec.Nr != Nr) {
    Divergence = formatString(
        "syscall divergence at record %zu: log has (tid %u, nr %llu), "
        "replay executed (tid %u, nr %llu)",
        SyscallCursor, Rec.Tid, static_cast<unsigned long long>(Rec.Nr), Tid,
        static_cast<unsigned long long>(Nr));
    Diverge.K = DivergenceInfo::Kind::SyscallMismatch;
    Diverge.RecordIndex = SyscallCursor;
    Diverge.ExpectedTid = Rec.Tid;
    Diverge.ExpectedNr = Rec.Nr;
    Diverge.ObservedTid = Tid;
    Diverge.ObservedNr = Nr;
    M->requestStop();
    return true;
  }
  ++SyscallCursor;
  // Inject memory side effects, then the register result.
  for (const auto &W : Rec.MemWrites)
    M->mem().poke(W.Addr, W.Bytes.data(), W.Bytes.size());
  Result = Rec.Result;
  return true;
}

vm::StopReason Replay::run(uint64_t N, vm::Observer *Obs) {
  if (Ended)
    return Reason;
  M->setObserver(Obs);
  uint64_t Left = std::min(N, Budget - M->globalRetired());
  Reason = Opts.Injection ? runConstrained(M->globalRetired() + Left)
                          : M->run(Left).Reason;
  M->setObserver(nullptr);
  Ended = Reason != vm::StopReason::BudgetReached &&
          (Reason != vm::StopReason::Stopped || !Divergence.empty());
  return Reason;
}

vm::StopReason Replay::runConstrained(uint64_t Target) {
  // Drive the recorded schedule. Each slice runs as few runThread batches
  // as the pending injections allow: a batch never crosses the next
  // injection record's first-use icount, so pages still land exactly
  // before the instruction that first needs them, while compiled (JIT)
  // dispatch stays eligible inside a batch. runThread has no quantum, so
  // where a run() call splits a slice does not matter.
  while (M->globalRetired() < Target && SliceIdx < PB.Schedule.size()) {
    const pinball::ScheduleSlice &Slice = PB.Schedule[SliceIdx];
    if (SliceDone == Slice.NumInsts) {
      ++SliceIdx;
      SliceDone = 0;
      continue;
    }
    uint64_t Executed = M->globalRetired();
    while (InjectCursor < Pending.size() &&
           Pending[InjectCursor]->FirstUseIcount <= Executed) {
      const pinball::PageRecord &P = Pending[InjectCursor]->Page;
      M->mem().map(P.Addr, vm::GuestPageSize, P.Perm);
      M->mem().poke(P.Addr, P.Bytes.data(), P.Bytes.size());
      ++InjectCursor;
    }
    const vm::ThreadState *T = M->thread(Slice.Tid);
    if (!T || T->Exited) {
      Divergence =
          T ? formatString(
                  "schedule expects thread %u to run, but it has exited",
                  Slice.Tid)
            : formatString("schedule names unknown thread %u", Slice.Tid);
      Diverge.K = T ? DivergenceInfo::Kind::ExitedThread
                    : DivergenceInfo::Kind::UnknownThread;
      Diverge.ExpectedTid = Slice.Tid;
      return vm::StopReason::Stopped;
    }
    uint64_t Batch = std::min(Slice.NumInsts - SliceDone, Target - Executed);
    if (InjectCursor < Pending.size())
      Batch =
          std::min(Batch, Pending[InjectCursor]->FirstUseIcount - Executed);
    vm::VM::ThreadRunResult TR = M->runThread(Slice.Tid, Batch);
    SliceDone += TR.Executed;
    if (TR.Reason == vm::StopReason::Faulted) {
      Divergence = "replay faulted: " + M->lastFault().Message;
      Diverge.K = DivergenceInfo::Kind::ReplayFault;
      Diverge.ObservedTid = Slice.Tid;
    }
    // BudgetReached: the batch ran fine (a thread that exited mid-batch is
    // caught by the Exited check on the next pass). Stopped: the observer
    // asked, or the syscall interceptor found a divergence.
    if (TR.Reason != vm::StopReason::BudgetReached)
      return TR.Reason;
  }
  return vm::StopReason::BudgetReached;
}

ReplayResult Replay::result() const {
  ReplayResult Result;
  Result.Reason = Reason;
  if (Reason == vm::StopReason::Faulted)
    Result.FaultInfo = M->lastFault();
  Result.Retired = M->globalRetired();
  for (uint32_t Tid : M->threadIds()) {
    Result.RetiredPerThread[Tid] = M->thread(Tid)->Retired;
    Result.FinalThreads[Tid] = *M->thread(Tid);
  }
  Result.Stdout = Stdout;
  Result.SyscallLogFullyConsumed =
      !Opts.Injection ||
      (Divergence.empty() && SyscallCursor == PB.Syscalls.size());
  Result.Divergence = Divergence;
  Result.Diverge = Diverge;
  Result.VMStats = M->decodeCacheStats();
  Result.MemStats = M->mem().memStats();
  Result.JitStats = M->jitStats();
  return Result;
}

Expected<ReplayResult> replay::replayPinball(const Pinball &PB,
                                             const ReplayOptions &Opts) {
  Replay R(PB, Opts);
  if (Error E = R.start())
    return E;
  R.run(UINT64_MAX, Opts.Obs);
  return R.result();
}
