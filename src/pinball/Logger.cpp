//===- pinball/Logger.cpp -------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "pinball/Logger.h"

#include "elf/ELFReader.h"

#include <algorithm>
#include <cstring>

using namespace elfie;
using namespace elfie::pinball;

RegionLogger::RegionLogger(vm::VM &M, LoggerOptions Opts)
    : M(M), Opts(Opts) {}

RegionLogger::~RegionLogger() {
  if (Active)
    M.mem().setFirstTouchHook(nullptr);
}

void RegionLogger::beginRegion() {
  assert(!Active && "beginRegion called twice");
  Active = true;
  RegionStartRetired = M.globalRetired();
  PB.Meta.RegionStart = RegionStartRetired;
  PB.Meta.WholeImage = Opts.WholeImage;
  PB.Meta.PagesEarly = Opts.PagesEarly;
  PB.Meta.StackBase = M.config().StackTop - M.config().StackSize;
  PB.Meta.StackTop = M.config().StackTop;
  PB.Meta.BrkAtStart = M.brkTop();

  // Per-thread architectural snapshot (.reg files).
  for (uint32_t Tid : M.liveThreadIds()) {
    const vm::ThreadState *T = M.thread(Tid);
    ThreadRegs R;
    R.Tid = Tid;
    std::memcpy(R.GPR, T->GPR, sizeof(R.GPR));
    std::memcpy(R.FPR, T->FPR, sizeof(R.FPR));
    R.PC = T->PC;
    PB.Threads.push_back(R);
    RetiredAtStart[Tid] = T->Retired;
  }

  // -log:whole_image: capture every mapped page now.
  if (Opts.WholeImage) {
    M.mem().forEachPage([&](uint64_t Addr, uint8_t Perm,
                            const uint8_t *Bytes) {
      PageRecord Rec;
      Rec.Addr = Addr;
      Rec.Perm = Perm;
      Rec.Bytes.capturePage(Bytes);
      PB.Image.push_back(std::move(Rec));
      CapturedPages.insert(Addr);
    });
  }

  // Arm lazy capture: the first access to each page records its pre-access
  // contents (== contents at region start).
  M.mem().clearAccessTracking();
  M.mem().setFirstTouchHook(
      [this](uint64_t Addr, const uint8_t *Bytes) {
        capturePage(Addr, Bytes);
      });
}

void RegionLogger::capturePage(uint64_t Addr, const uint8_t *Bytes) {
  if (CapturedPages.count(Addr))
    return;
  CapturedPages.insert(Addr);
  int Perm = M.mem().pagePerm(Addr);
  InjectRecord Rec;
  Rec.FirstUseIcount = M.globalRetired() - RegionStartRetired;
  Rec.Page.Addr = Addr;
  Rec.Page.Perm = Perm < 0 ? vm::PermRW : static_cast<uint8_t>(Perm);
  Rec.Page.Bytes.capturePage(Bytes);
  PB.Injects.push_back(std::move(Rec));
}

void RegionLogger::onBlock(uint32_t Tid, uint64_t, uint64_t NumInsts,
                           bool) {
  if (!Active)
    return;
  if (Tid == LastTid && !PB.Schedule.empty()) {
    PB.Schedule.back().NumInsts += NumInsts;
  } else {
    PB.Schedule.push_back({Tid, NumInsts});
    LastTid = Tid;
  }
}

void RegionLogger::onSyscall(uint32_t Tid, uint64_t Nr, const uint64_t *Args,
                             int64_t Result) {
  if (!Active)
    return;
  SyscallRecord S;
  S.Tid = Tid;
  S.Nr = Nr;
  std::memcpy(S.Args, Args, sizeof(S.Args));
  S.Result = Result;
  // Side-effect capture: read() is the only guest syscall that writes guest
  // memory; record the bytes it produced so replay can inject them.
  if (Nr == static_cast<uint64_t>(isa::Sys::Read) && Result > 0) {
    SyscallRecord::MemWrite W;
    W.Addr = Args[1];
    W.Bytes.resize(static_cast<size_t>(Result));
    if (M.mem().peek(W.Addr, W.Bytes.data(), W.Bytes.size()) ==
        vm::MemFault::None)
      S.MemWrites.push_back(std::move(W));
  }
  PB.Syscalls.push_back(std::move(S));
}

Pinball RegionLogger::endRegion() {
  assert(Active && "endRegion without beginRegion");
  Active = false;
  M.mem().setFirstTouchHook(nullptr);

  PB.Meta.RegionLength = M.globalRetired() - RegionStartRetired;
  PB.Meta.BrkAtEnd = M.brkTop();

  // Per-thread graceful-exit budgets.
  for (ThreadRegs &T : PB.Threads) {
    const vm::ThreadState *S = M.thread(T.Tid);
    uint64_t Before = RetiredAtStart.count(T.Tid) ? RetiredAtStart[T.Tid] : 0;
    T.RegionIcount = (S ? S->Retired : Before) - Before;
  }

  // -log:pages_early: fold lazily-captured pages into the initial image.
  if (Opts.PagesEarly) {
    for (InjectRecord &I : PB.Injects)
      PB.Image.push_back(std::move(I.Page));
    PB.Injects.clear();
  }
  return std::move(PB);
}

void RegionLogger::recordOutput(const char *Data, size_t Len) {
  if (Active)
    PB.OutputLog.append(Data, Len);
}

CaptureRequest pinball::fatRequest(const std::string &ProgramPath,
                                  uint64_t RegionStart,
                                  uint64_t RegionLength) {
  CaptureRequest R;
  R.ProgramPath = ProgramPath;
  R.RegionStart = RegionStart;
  R.RegionLength = RegionLength;
  R.Opts = LoggerOptions::fat();
  return R;
}

Expected<std::vector<Pinball>>
pinball::captureRegions(const CaptureRequest &Request,
                        const std::vector<RegionBounds> &Regions) {
  // Checked up front: a region that starts before the previous one ends
  // would otherwise be captured from the wrong instruction.
  uint64_t PrevEnd = 0;
  for (size_t I = 0; I < Regions.size(); ++I) {
    const RegionBounds &R = Regions[I];
    if (I > 0 && R.Start < PrevEnd)
      return makeCodedError(
          "EFAULT.CAPTURE.ORDER",
          "region %zu starts at %llu, before region %zu ends at %llu "
          "(regions must be sorted and must not overlap)",
          I, static_cast<unsigned long long>(R.Start), I - 1,
          static_cast<unsigned long long>(PrevEnd));
    PrevEnd = R.Start + std::min(R.Length, UINT64_MAX - R.Start);
  }

  // Chain the stdout sink so region output lands in the active region's
  // output.log while still reaching the caller's sink.
  RegionLogger *Active = nullptr;
  auto UserSink = Request.Config.StdoutSink;
  vm::VMConfig Wired = Request.Config;
  Wired.StdoutSink = [&Active, UserSink](const char *P, size_t N) {
    if (Active)
      Active->recordOutput(P, N);
    if (UserSink)
      UserSink(P, N);
  };
  vm::VM Machine(Wired);
  if (Error E = Machine.loadELFFile(Request.ProgramPath))
    return E;
  if (Error E = Machine.setupMainThread(Request.Args))
    return E;

  std::vector<Pinball> Out;
  for (const RegionBounds &R : Regions) {
    // Fast-forward to the region start (uninstrumented, like Pin before
    // the logger attaches).
    if (R.Start > Machine.globalRetired()) {
      vm::RunResult FF = Machine.run(R.Start - Machine.globalRetired());
      if (FF.Reason == vm::StopReason::Faulted)
        return makeError("program faulted before region start: %s",
                         FF.FaultInfo.Message.c_str());
      if (FF.Reason != vm::StopReason::BudgetReached)
        return makeError("program ended at %llu instructions, before the "
                         "region start at %llu",
                         static_cast<unsigned long long>(
                             Machine.globalRetired()),
                         static_cast<unsigned long long>(R.Start));
    }
    RegionLogger L(Machine, Request.Opts);
    Active = &L;
    L.beginRegion();
    Machine.setObserver(&L);
    vm::RunResult RR = Machine.run(R.Length);
    Machine.setObserver(nullptr);
    Active = nullptr;
    if (RR.Reason == vm::StopReason::Faulted)
      return makeError("program faulted inside the logging region: %s",
                       RR.FaultInfo.Message.c_str());
    Out.push_back(L.endRegion());
    Out.back().Meta.ProgramName = Request.ProgramName;
  }
  return Out;
}

Expected<Pinball> pinball::captureRegion(const CaptureRequest &Request) {
  auto PBs = captureRegions(Request,
                            {{Request.RegionStart, Request.RegionLength}});
  if (!PBs)
    return PBs.takeError();
  return std::move(PBs->front());
}
