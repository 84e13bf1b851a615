//===- tests/replay/JitDifferentialTest.cpp - JIT lockstep differential ---===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// The JIT acceptance suite (`ctest -L jit`): two VMs — one interpreting,
/// one JIT-dispatching — are driven in lockstep over every example guest
/// pipeline in odd-sized budget chunks, and after every chunk the *entire*
/// architectural state is compared: per-thread PC, GPRs, FPR bit patterns,
/// retired counts, plus periodic whole-address-space digests. A chunk
/// boundary is an arbitrary instruction boundary, so this proves the
/// compiled blocks' exit paths account retirement exactly — not just that
/// final results agree.
///
/// The replay-level half captures pinballs and replays them constrained
/// and injection-less with the JIT on and off, pinning the batched
/// runThread() schedule-slice path against the reference.
///
//===----------------------------------------------------------------------===//

#include "replay/Replayer.h"

#include "../common/TestHelpers.h"
#include "pinball/Logger.h"

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

using namespace elfie;
using namespace elfie::replay;
using pinball::LoggerOptions;
using test::capture;
using test::computeProgram;
using test::makeVM;
using test::multiThreadProgram;

namespace {

std::string tempDir(const std::string &Name) {
  std::string D = testing::TempDir() + "/elfie_jitdiff_" + Name;
  removeTree(D);
  createDirectories(D);
  return D;
}

/// FNV-1a over every mapped page (address, permissions, contents): equal
/// digests mean the two guests' address spaces are byte-identical.
uint64_t memDigest(vm::VM &M) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](const void *P, size_t N) {
    const uint8_t *B = static_cast<const uint8_t *>(P);
    for (size_t I = 0; I < N; ++I) {
      H ^= B[I];
      H *= 1099511628211ull;
    }
  };
  M.mem().forEachPage(
      [&](uint64_t Addr, uint8_t Perm, const uint8_t *Bytes) {
        Mix(&Addr, sizeof(Addr));
        Mix(&Perm, sizeof(Perm));
        Mix(Bytes, vm::GuestPageSize);
      });
  return H;
}

void compareThreads(vm::VM &MI, vm::VM &MJ, uint64_t Round) {
  std::vector<uint32_t> IdsI = MI.threadIds();
  ASSERT_EQ(IdsI, MJ.threadIds()) << "round " << Round;
  for (uint32_t Tid : IdsI) {
    const vm::ThreadState *TI = MI.thread(Tid);
    const vm::ThreadState *TJ = MJ.thread(Tid);
    ASSERT_NE(TI, nullptr);
    ASSERT_NE(TJ, nullptr);
    ASSERT_EQ(TI->PC, TJ->PC) << "tid " << Tid << " round " << Round;
    ASSERT_EQ(TI->Retired, TJ->Retired) << "tid " << Tid;
    ASSERT_EQ(TI->Exited, TJ->Exited) << "tid " << Tid;
    for (unsigned K = 0; K < isa::NumGPRs; ++K)
      ASSERT_EQ(TI->GPR[K], TJ->GPR[K])
          << "GPR " << K << " tid " << Tid << " round " << Round;
    for (unsigned K = 0; K < isa::NumFPRs; ++K) {
      uint64_t BI, BJ; // bit compare: NaN payloads must match too
      std::memcpy(&BI, &TI->FPR[K], 8);
      std::memcpy(&BJ, &TJ->FPR[K], 8);
      ASSERT_EQ(BI, BJ) << "FPR " << K << " tid " << Tid;
    }
  }
}

/// Drives an interpreter VM and a JIT VM over \p Src in \p Chunk-sized
/// budget slices, comparing full state at every boundary.
void lockstep(const std::string &Src, vm::VMConfig Base, uint64_t Chunk,
              std::vector<std::string> Args = {}) {
  vm::VMConfig CI = Base, CJ = Base;
  CI.EnableJit = false;
  CJ.EnableJit = true;
  CJ.JitThreshold = 4; // promote early so the chunks actually hit the JIT
  auto OutI = std::make_shared<std::string>();
  auto OutJ = std::make_shared<std::string>();
  auto MI = makeVM(Src, OutI, CI, Args);
  auto MJ = makeVM(Src, OutJ, CJ, Args);
  ASSERT_TRUE(MI);
  ASSERT_TRUE(MJ);

  uint64_t Round = 0;
  while (true) {
    vm::RunResult RI = MI->run(Chunk);
    vm::RunResult RJ = MJ->run(Chunk);
    ASSERT_EQ(RI.Reason, RJ.Reason) << "round " << Round;
    ASSERT_EQ(MI->globalRetired(), MJ->globalRetired())
        << "round " << Round;
    compareThreads(*MI, *MJ, Round);
    if (Round % 8 == 0) {
      ASSERT_EQ(memDigest(*MI), memDigest(*MJ)) << "round " << Round;
    }
    if (RI.Reason != vm::StopReason::BudgetReached) {
      EXPECT_EQ(RI.ExitCode, RJ.ExitCode);
      break;
    }
    ASSERT_LT(++Round, 1000000u) << "lockstep failed to converge";
  }
  EXPECT_EQ(*OutI, *OutJ);
  EXPECT_EQ(memDigest(*MI), memDigest(*MJ));
#if defined(__x86_64__)
  EXPECT_GT(MJ->jitStats().Hits, 0u)
      << "the JIT VM never dispatched compiled code — the differential "
         "silently degenerated to interpreter vs interpreter";
#endif
}

TEST(JitDifferential, ComputeProgramLockstep) {
  lockstep(computeProgram(), vm::VMConfig(), 997);
}

TEST(JitDifferential, ComputeProgramLockstepTinyChunks) {
  // Chunks far below block size force constant countdown exits and
  // mid-block interpreter handoffs.
  lockstep(computeProgram(), vm::VMConfig(), 37);
}

TEST(JitDifferential, MultiThreadedLockstep) {
  lockstep(multiThreadProgram(4, 2, 300), vm::VMConfig(), 1009);
}

TEST(JitDifferential, MultiThreadedSeededScheduleLockstep) {
  // The jittered quantum draws from the scheduler RNG; JIT dispatch must
  // consume quanta exactly like interpretation or the draw sequence (and
  // with it every subsequent interleaving) skews.
  vm::VMConfig Base;
  Base.ScheduleSeed = 0xC0FFEE;
  lockstep(multiThreadProgram(4, 2, 300), Base, 1009);
}

TEST(JitDifferential, ClockProgramLockstep) {
  // The virtual clock reads 1 s + 1 ns per retired instruction: any drift in
  // retirement accounting changes the guest-visible clock values.
  lockstep(test::clockProgram(), vm::VMConfig(), 499);
}

TEST(JitDifferential, FileReaderLockstep) {
  std::string Dir = tempDir("file");
  std::string Data(256, '\0');
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] = static_cast<char>(7 * I);
  writeFileText(Dir + "/data.bin", Data);
  vm::VMConfig Base;
  Base.FsRoot = Dir;
  lockstep(test::fileReaderProgram(), Base, 611);
  removeTree(Dir);
}

/// A single-threaded prefix of 2 * Prefix + 1 instructions (not a multiple
/// of the default 100-instruction quantum), then three clones, then four
/// threads doing racy (non-atomic) read-modify-writes of one shared word:
/// the final total and every thread's retired count depend on the exact
/// interleaving after the clones.
std::string prefixThenCloneProgram(int Prefix) {
  return R"(
  .equ NTHREADS, 4
  .equ WORK, 700
_start:
  ldi  r9, )" + std::to_string(Prefix) + R"(
prefix:
  addi r9, r9, -1
  bnez r9, prefix
  ldi  r9, 1
spawn:
  ldi  r7, 9               # clone(entry=worker, stack, arg=index)
  la   r1, worker
  la   r2, stacks
  muli r3, r9, 8192
  add  r2, r2, r3
  mov  r3, r9
  syscall
  addi r9, r9, 1
  slti r4, r9, NTHREADS
  bnez r4, spawn
  jal  lr, work
waitend:
  la   r2, finished
  ld8  r3, 0(r2)
  pause
  slti r4, r3, NTHREADS
  bnez r4, waitend
  la   r2, shared
  ld8  r1, 0(r2)
  ldi  r7, 1               # exit_group(shared)
  syscall

worker:
  jal  lr, work
  ldi  r7, 0
  ldi  r1, 0
  syscall

work:
  ldi  r12, WORK
racy:
  la   r2, shared
  ld8  r3, 0(r2)
  add  r3, r3, r12
  st8  r3, 0(r2)
  addi r12, r12, -1
  bnez r12, racy
  la   r2, finished
  ldi  r3, 1
  amoadd r4, (r2), r3
  ret

  .data
  .align 8
shared:   .quad 0
finished: .quad 0
  .bss
  .align 8
stacks:   .space 40960
)";
}

TEST(JitDifferential, LoneThreadPrefixKeepsQuantumPhase) {
  // A lone thread may dispatch past quantum boundaries; afterwards the
  // scheduler must hold the quantum phase interpretation would hold, or
  // the first clone hands the main thread a different slice and the two
  // executors interleave differently from there on. One run() to exit.
  for (int Prefix : {1234, 2017}) {
    vm::VMConfig CI, CJ;
    CI.EnableJit = false;
    CJ.EnableJit = true;
    CJ.JitThreshold = 4;
    std::string Src = prefixThenCloneProgram(Prefix);
    auto MI = makeVM(Src, nullptr, CI);
    auto MJ = makeVM(Src, nullptr, CJ);
    ASSERT_TRUE(MI);
    ASSERT_TRUE(MJ);
    vm::RunResult RI = MI->run();
    vm::RunResult RJ = MJ->run();
    ASSERT_EQ(RI.Reason, vm::StopReason::AllExited);
    ASSERT_EQ(RJ.Reason, vm::StopReason::AllExited);
    EXPECT_EQ(RI.ExitCode, RJ.ExitCode) << "prefix " << Prefix;
    EXPECT_EQ(MI->globalRetired(), MJ->globalRetired()) << "prefix " << Prefix;
    ASSERT_EQ(MI->threadIds().size(), 4u);
    compareThreads(*MI, *MJ, Prefix);
    EXPECT_EQ(memDigest(*MI), memDigest(*MJ)) << "prefix " << Prefix;
#if defined(__x86_64__)
    EXPECT_GT(RJ.Jit.Hits, uint64_t(Prefix)) << "the prefix did not JIT";
#endif
  }
}

// -------------------------------------------------------------------------
// Replay-level differential: same pinball, JIT on vs off.
// -------------------------------------------------------------------------

void expectSameReplay(const ReplayResult &A, const ReplayResult &B) {
  EXPECT_EQ(A.Reason, B.Reason);
  EXPECT_EQ(A.Retired, B.Retired);
  EXPECT_EQ(A.Stdout, B.Stdout);
  EXPECT_EQ(A.Divergence, B.Divergence);
  ASSERT_EQ(A.RetiredPerThread.size(), B.RetiredPerThread.size());
  for (const auto &[Tid, N] : A.RetiredPerThread) {
    ASSERT_TRUE(B.RetiredPerThread.count(Tid));
    EXPECT_EQ(N, B.RetiredPerThread.at(Tid)) << "tid " << Tid;
  }
  ASSERT_EQ(A.FinalThreads.size(), B.FinalThreads.size());
  for (const auto &[Tid, TA] : A.FinalThreads) {
    ASSERT_TRUE(B.FinalThreads.count(Tid));
    const vm::ThreadState &TB = B.FinalThreads.at(Tid);
    EXPECT_EQ(TA.PC, TB.PC) << "tid " << Tid;
    for (unsigned K = 0; K < isa::NumGPRs; ++K)
      EXPECT_EQ(TA.GPR[K], TB.GPR[K]) << "GPR " << K << " tid " << Tid;
    for (unsigned K = 0; K < isa::NumFPRs; ++K) {
      uint64_t BI, BJ;
      std::memcpy(&BI, &TA.FPR[K], 8);
      std::memcpy(&BJ, &TB.FPR[K], 8);
      EXPECT_EQ(BI, BJ) << "FPR " << K << " tid " << Tid;
    }
  }
}

void replayDifferential(const pinball::Pinball &PB, bool Injection,
                        bool ExpectClean) {
  ReplayOptions OI;
  OI.Injection = Injection;
  OI.Config.EnableJit = false;
  ReplayOptions OJ = OI;
  OJ.Config.EnableJit = true;
  OJ.Config.JitThreshold = 4;
  auto RI = replayPinball(PB, OI);
  auto RJ = replayPinball(PB, OJ);
  ASSERT_TRUE(RI.hasValue()) << RI.message();
  ASSERT_TRUE(RJ.hasValue()) << RJ.message();
  if (ExpectClean) {
    EXPECT_TRUE(RI->Divergence.empty()) << RI->Divergence;
    EXPECT_TRUE(RJ->Divergence.empty()) << RJ->Divergence;
  }
  expectSameReplay(*RI, *RJ);
#if defined(__x86_64__)
  EXPECT_GT(RJ->JitStats.Hits, 0u);
  EXPECT_EQ(RI->JitStats.Hits, 0u);
#endif
}

TEST(JitDifferential, ConstrainedReplayCompute) {
  std::string Dir = tempDir("rp_compute");
  auto PB = capture(Dir, computeProgram(), 3000, 25000, LoggerOptions());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  replayDifferential(*PB, /*Injection=*/true, /*ExpectClean=*/true);
  removeTree(Dir);
}

TEST(JitDifferential, InjectionlessReplayCompute) {
  std::string Dir = tempDir("rp_compute_free");
  auto PB = capture(Dir, computeProgram(), 3000, 25000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  replayDifferential(*PB, /*Injection=*/false, /*ExpectClean=*/false);
  removeTree(Dir);
}

TEST(JitDifferential, ConstrainedReplayClock) {
  // Non-repeatable syscalls: the recorded clock values are injected, and
  // the injected results must land identically under compiled dispatch
  // (the syscall bails; the interceptor still fires).
  std::string Dir = tempDir("rp_clock");
  auto PB = capture(Dir, test::clockProgram(), 4000, 8000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_GT(PB->Syscalls.size(), 0u);
  replayDifferential(*PB, /*Injection=*/true, /*ExpectClean=*/true);
  removeTree(Dir);
}

TEST(JitDifferential, ConstrainedReplayMultiThreaded) {
  // The batched runThread() path under recorded schedule slices: the JIT
  // must respect every slice boundary and lazy page-injection point.
  std::string Dir = tempDir("rp_mt");
  auto PB = capture(Dir, multiThreadProgram(4, 3, 800), 2000, 30000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_GT(PB->Schedule.size(), 1u);
  replayDifferential(*PB, /*Injection=*/true, /*ExpectClean=*/true);
  removeTree(Dir);
}

} // namespace
