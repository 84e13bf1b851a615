//===- tests/sim/SimTest.cpp - timing model & front-ends ------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/Frontend.h"

#include "../common/TestHelpers.h"
#include "core/Pinball2Elf.h"
#include "sim/BranchPredictor.h"
#include "sim/Cache.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace elfie;
using namespace elfie::sim;

namespace {

std::string tempDir(const std::string &Name) {
  std::string D = testing::TempDir() + "/elfie_sim_" + Name;
  removeTree(D);
  createDirectories(D);
  return D;
}

// ---- Cache unit tests ----

TEST(Cache, HitAfterFill) {
  Cache C(1024, 2);
  EXPECT_FALSE(C.access(0x100, false));
  EXPECT_TRUE(C.access(0x100, false));
  EXPECT_TRUE(C.access(0x13f, false)) << "same 64B line";
  EXPECT_FALSE(C.access(0x140, false)) << "next line";
  EXPECT_EQ(C.hits(), 2u);
  EXPECT_EQ(C.misses(), 2u);
}

TEST(Cache, LRUEviction) {
  // 2-way, 2 sets (256 B): lines mapping to set 0 are multiples of 128.
  Cache C(256, 2);
  C.access(0, false);
  C.access(128, false);
  C.access(0, false);   // refresh line 0
  C.access(256, false); // evicts 128 (LRU)
  EXPECT_TRUE(C.contains(0));
  EXPECT_FALSE(C.contains(128));
  EXPECT_TRUE(C.contains(256));
  EXPECT_EQ(C.evictions(), 1u);
}

TEST(Cache, WorkingSetBiggerThanCacheThrashes) {
  Cache C(4096, 4);
  // Two passes over 16 KiB: everything misses both times.
  for (int Pass = 0; Pass < 2; ++Pass)
    for (uint64_t A = 0; A < 16384; A += 64)
      C.access(A, false);
  EXPECT_EQ(C.hits(), 0u);
  // Two passes over 2 KiB: second pass all hits.
  Cache C2(4096, 4);
  for (int Pass = 0; Pass < 2; ++Pass)
    for (uint64_t A = 0; A < 2048; A += 64)
      C2.access(A, false);
  EXPECT_EQ(C2.hits(), 32u);
}

TEST(Cache, InvalidateRemovesLine) {
  Cache C(1024, 2);
  C.access(0x200, true);
  EXPECT_TRUE(C.contains(0x200));
  C.invalidate(0x200);
  EXPECT_FALSE(C.contains(0x200));
}

TEST(TLBTest, PageGranularity) {
  TLB T(16);
  EXPECT_FALSE(T.access(0x1000));
  EXPECT_TRUE(T.access(0x1fff)) << "same page";
  EXPECT_FALSE(T.access(0x2000)) << "next page";
}

// ---- Branch predictor unit tests ----

TEST(GShare, LearnsLoopBranch) {
  GSharePredictor P(10);
  // Taken 100x, then one not-taken exit.
  unsigned Wrong = 0;
  for (int I = 0; I < 100; ++I)
    if (!P.predictAndUpdate(0x1000, true))
      ++Wrong;
  EXPECT_LT(Wrong, 5u);
  EXPECT_FALSE(P.predictAndUpdate(0x1000, false)) << "exit mispredicts";
}

TEST(GShare, RandomBranchMispredictsOften) {
  GSharePredictor P(10);
  RNG R(5);
  unsigned Wrong = 0;
  for (int I = 0; I < 2000; ++I)
    if (!P.predictAndUpdate(0x2000, (R.next() & 1) != 0))
      ++Wrong;
  EXPECT_GT(Wrong, 600u) << "random directions are unpredictable";
}

TEST(BTBTest, StableTargetPredicts) {
  BTB B(8);
  EXPECT_FALSE(B.predictAndUpdate(0x100, 0x500)); // cold
  EXPECT_TRUE(B.predictAndUpdate(0x100, 0x500));
  EXPECT_FALSE(B.predictAndUpdate(0x100, 0x600)) << "target changed";
}

// ---- Timing model behaviour ----

Expected<SimResult> simulateSource(const std::string &Src,
                                   const MachineConfig &M,
                                   RunControls Controls = {}) {
  auto Image = easm::assembleToELF(Src, "sim.s");
  if (!Image)
    return Image.takeError();
  return simulateBinaryImage(*Image, M, Controls);
}

TEST(TimingModel, CacheFriendlyBeatsPointerChasing) {
  using workloads::InputSet;
  auto Friendly = workloads::buildWorkload("x264_like", InputSet::Test);
  auto Hostile = workloads::buildWorkload("mcf_like", InputSet::Test);
  ASSERT_TRUE(Friendly.hasValue());
  ASSERT_TRUE(Hostile.hasValue());
  RunControls Controls;
  Controls.MaxInstructions = 400000;
  auto A = simulateBinaryImage(*Friendly, makeNehalemLike(), Controls);
  auto B = simulateBinaryImage(*Hostile, makeNehalemLike(), Controls);
  ASSERT_TRUE(A.hasValue()) << A.message();
  ASSERT_TRUE(B.hasValue()) << B.message();
  EXPECT_GT(A->Stats.ipc(), B->Stats.ipc() * 1.5)
      << "pointer chasing must pay for its cache misses";
}

TEST(TimingModel, HaswellBeatsNehalemOnMemoryBound) {
  using workloads::InputSet;
  auto Prog = workloads::buildWorkload("mcf_like", InputSet::Test);
  ASSERT_TRUE(Prog.hasValue());
  RunControls Controls;
  Controls.MaxInstructions = 400000;
  auto N = simulateBinaryImage(*Prog, makeNehalemLike(), Controls);
  auto H = simulateBinaryImage(*Prog, makeHaswellLike(), Controls);
  ASSERT_TRUE(N.hasValue());
  ASSERT_TRUE(H.hasValue());
  EXPECT_GT(H->Stats.ipc(), N->Stats.ipc())
      << "bigger ROB/L3 must help (Table V direction)";
}

TEST(TimingModel, BranchHeavyCodePaysForMispredicts) {
  // Data-dependent unpredictable branches vs a plain counted loop.
  std::string Unpredictable = R"(
_start:
  ldi r9, 50000
  ldi r3, 12345
loop:
  muli r3, r3, 1103515245
  addi r3, r3, 12345
  shri r4, r3, 16
  andi r4, r4, 1
  beqz r4, skip
  addi r5, r5, 1
skip:
  addi r9, r9, -1
  bnez r9, loop
  halt
)";
  std::string Predictable = R"(
_start:
  ldi r9, 50000
loop:
  addi r5, r5, 3
  muli r6, r5, 17
  shri r6, r6, 2
  addi r9, r9, -1
  bnez r9, loop
  halt
)";
  auto A = simulateSource(Unpredictable, makeNehalemLike());
  auto B = simulateSource(Predictable, makeNehalemLike());
  ASSERT_TRUE(A.hasValue()) << A.message();
  ASSERT_TRUE(B.hasValue()) << B.message();
  double MissRateA =
      static_cast<double>(A->Stats.Cores[0].BranchMispredicts) /
      A->Stats.Cores[0].Branches;
  double MissRateB =
      static_cast<double>(B->Stats.Cores[0].BranchMispredicts) /
      B->Stats.Cores[0].Branches;
  EXPECT_GT(MissRateA, 0.2);
  EXPECT_LT(MissRateB, 0.05);
  EXPECT_LT(B->Stats.cpi(), A->Stats.cpi());
}

TEST(TimingModel, FootprintTracksDistinctPages) {
  std::string Src = R"(
_start:
  la  r1, buf
  ldi r2, 0
loop:
  shli r3, r2, 12
  add  r3, r3, r1
  ld8  r4, 0(r3)
  addi r2, r2, 1
  slti r5, r2, 10
  bnez r5, loop
  halt
  .bss
  .align 8
buf: .space 40960
)";
  auto R = simulateSource(Src, makeNehalemLike());
  ASSERT_TRUE(R.hasValue()) << R.message();
  // 10 pages touched (plus a couple of prefetch pages at most).
  EXPECT_GE(R->Stats.UserDataPages.size(), 10u);
  EXPECT_LE(R->Stats.UserDataPages.size(), 14u);
}

TEST(FullSystem, KernelAddsInstructionsAndFootprint) {
  // A syscall-heavy region: full-system mode must add ring-0 work,
  // slow the run down, and enlarge the footprint (Table IV shape).
  std::string Src = R"(
_start:
  ldi r9, 400
loop:
  ldi r7, 8
  syscall
  ldi r2, 0
inner:
  addi r2, r2, 1
  slti r3, r2, 200
  bnez r3, inner
  addi r9, r9, -1
  bnez r9, loop
  halt
)";
  auto User = simulateSource(Src, makeSkylakeLike(false));
  auto Full = simulateSource(Src, makeSkylakeLike(true));
  ASSERT_TRUE(User.hasValue()) << User.message();
  ASSERT_TRUE(Full.hasValue()) << Full.message();
  EXPECT_EQ(User->Stats.totalRing0Instructions(), 0u);
  EXPECT_GT(Full->Stats.totalRing0Instructions(), 0u);
  EXPECT_EQ(Full->Stats.totalInstructions(),
            User->Stats.totalInstructions())
      << "ring-3 instruction count must be unchanged (Table IV)";
  EXPECT_GT(Full->Stats.totalCycles(), User->Stats.totalCycles());
  EXPECT_GT(Full->Stats.dataFootprintBytes(),
            User->Stats.dataFootprintBytes());
}

// ---- Front-ends ----

TEST(Frontend, ElfieAutoDetection) {
  std::string Dir = tempDir("elfie");
  auto PB = test::capture(Dir, test::computeProgram(), 5000, 8000,
                          pinball::LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  core::Pinball2ElfOptions Opts;
  Opts.TargetKind = core::Pinball2ElfOptions::Target::Guest;
  auto Image = core::pinballToElf(*PB, Opts);
  ASSERT_TRUE(Image.hasValue()) << Image.message();

  auto R = simulateBinaryImage(*Image, makeNehalemLike());
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_TRUE(R->WasElfie);
  EXPECT_TRUE(R->MarkerSeen);
  // Budget from elfie_region_length: exactly the region is simulated.
  EXPECT_EQ(R->RoiRetired, 8000u);
  removeTree(Dir);
}

TEST(Frontend, JitDoesNotPerturbSimulation) {
  // VMConfig::EnableJit (esim runs with the library default, on): the JIT
  // may only run the pre-ROI fast-forward (the detailed phase needs
  // per-instruction callbacks, so the VM gates compiled dispatch off under
  // the timing observer). Every simulated statistic must be identical with
  // the JIT on and off, and the SimResult must surface the JIT counters
  // either way.
  std::string Dir = tempDir("jitsim");
  auto PB = test::capture(Dir, test::computeProgram(), 5000, 8000,
                          pinball::LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  core::Pinball2ElfOptions Opts;
  Opts.TargetKind = core::Pinball2ElfOptions::Target::Guest;
  auto Image = core::pinballToElf(*PB, Opts);
  ASSERT_TRUE(Image.hasValue()) << Image.message();

  vm::VMConfig JitCfg;
  JitCfg.EnableJit = true;
  JitCfg.JitThreshold = 1;
  auto RJit = simulateBinaryImage(*Image, makeNehalemLike(), {}, JitCfg);
  vm::VMConfig IntCfg;
  IntCfg.EnableJit = false;
  auto RInt = simulateBinaryImage(*Image, makeNehalemLike(), {}, IntCfg);
  ASSERT_TRUE(RJit.hasValue()) << RJit.message();
  ASSERT_TRUE(RInt.hasValue()) << RInt.message();
  EXPECT_EQ(RJit->RoiRetired, RInt->RoiRetired);
  EXPECT_EQ(RJit->MarkerSeen, RInt->MarkerSeen);
  EXPECT_EQ(RJit->Stats.totalInstructions(), RInt->Stats.totalInstructions());
  EXPECT_EQ(RJit->Stats.totalCycles(), RInt->Stats.totalCycles());
  EXPECT_EQ(RJit->Stats.dataFootprintBytes(),
            RInt->Stats.dataFootprintBytes());
  // The detailed phase never retires inside compiled code.
  EXPECT_EQ(RInt->JitStats.Hits, 0u);
  EXPECT_LE(RJit->JitStats.Hits + RJit->RoiRetired,
            RJit->RoiRetired + 200u)
      << "JIT hits must come only from the short pre-ROI startup stub";
  removeTree(Dir);
}

TEST(Frontend, ElfieSimulationSkipsStartupCode) {
  std::string Dir = tempDir("skip");
  auto PB = test::capture(Dir, test::computeProgram(), 5000, 5000,
                          pinball::LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue());
  core::Pinball2ElfOptions Opts;
  Opts.TargetKind = core::Pinball2ElfOptions::Target::Guest;
  auto Image = core::pinballToElf(*PB, Opts);
  ASSERT_TRUE(Image.hasValue());
  auto R = simulateBinaryImage(*Image, makeNehalemLike());
  ASSERT_TRUE(R.hasValue());
  // Detailed instructions == region length; the ~100 startup instructions
  // (register restores) are excluded by the marker gating (§III-C).
  EXPECT_EQ(R->Stats.totalInstructions(), 5000u);
  removeTree(Dir);
}

TEST(Frontend, PinballConstrainedVsUnconstrainedMT) {
  std::string Dir = tempDir("pbmt");
  auto PB = test::capture(Dir, test::multiThreadProgram(8, 4, 2000), 40000,
                          24000, pinball::LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();

  auto Constrained =
      simulatePinball(*PB, makeGainestown8(), /*Constrained=*/true);
  ASSERT_TRUE(Constrained.hasValue()) << Constrained.message();
  EXPECT_EQ(Constrained->RoiRetired, 24000u)
      << "constrained replay simulates exactly the recorded region";

  auto Free =
      simulatePinball(*PB, makeGainestown8(), /*Constrained=*/false);
  ASSERT_TRUE(Free.hasValue()) << Free.message();
  EXPECT_EQ(Free->RoiRetired, 24000u);
  // Both spread work over 8 cores.
  unsigned ActiveC = 0, ActiveF = 0;
  for (const auto &C : Constrained->Stats.Cores)
    if (C.Instructions)
      ++ActiveC;
  for (const auto &C : Free->Stats.Cores)
    if (C.Instructions)
      ++ActiveF;
  EXPECT_EQ(ActiveC, 8u);
  EXPECT_EQ(ActiveF, 8u);
  removeTree(Dir);
}

TEST(Frontend, StopPCCondition) {
  std::string Src = R"(
_start:
  ldi r9, 1000
loop:
  addi r9, r9, -1
  bnez r9, loop
  halt
)";
  RunControls Controls;
  Controls.StopPC = isa::TextBase + 16; // the addi inside the loop
  Controls.StopPCCount = 10;
  auto R = simulateSource(Src, makeNehalemLike(), Controls);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->Reason, vm::StopReason::Stopped);
  EXPECT_LT(R->RoiRetired, 100u);
}

TEST(Frontend, RegularProgramIsNotElfie) {
  auto Image = easm::assembleToELF("_start:\n  halt\n", "p.s");
  ASSERT_TRUE(Image.hasValue());
  auto R = simulateBinaryImage(*Image, makeNehalemLike());
  ASSERT_TRUE(R.hasValue());
  EXPECT_FALSE(R->WasElfie);
}

} // namespace
