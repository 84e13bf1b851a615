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
#include "support/Sha256.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstring>

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
  EXPECT_TRUE(C.contains(0x100));
  EXPECT_TRUE(C.contains(0x140));
}

TEST(Cache, LRUEviction) {
  // 2-way, 2 sets (256 B): lines mapping to set 0 are multiples of 128.
  Cache C(256, 2);
  EXPECT_FALSE(C.access(0, false));
  EXPECT_FALSE(C.access(128, false));
  EXPECT_TRUE(C.access(0, false)); // refresh line 0
  EXPECT_FALSE(C.access(256, false)); // evicts 128 (LRU)
  EXPECT_TRUE(C.contains(0));
  EXPECT_FALSE(C.contains(128)) << "the least recent line is the victim";
  EXPECT_TRUE(C.contains(256));
}

TEST(Cache, WorkingSetBiggerThanCacheThrashes) {
  auto Hits = [](Cache &C, uint64_t Bytes) {
    unsigned N = 0;
    for (int Pass = 0; Pass < 2; ++Pass)
      for (uint64_t A = 0; A < Bytes; A += 64)
        N += C.access(A, false);
    return N;
  };
  // Two passes over 16 KiB: everything misses both times.
  Cache C(4096, 4);
  EXPECT_EQ(Hits(C, 16384), 0u);
  // Two passes over 2 KiB: second pass all hits.
  Cache C2(4096, 4);
  EXPECT_EQ(Hits(C2, 2048), 32u);
}

TEST(Cache, InvalidateRemovesLine) {
  Cache C(1024, 2);
  C.access(0x200, true);
  EXPECT_TRUE(C.contains(0x200));
  C.invalidate(0x200);
  EXPECT_FALSE(C.contains(0x200));
}

TEST(Cache, InvalidateKeepsTheOtherLinesInRecencyOrder) {
  // 4-way, 1 set: every line maps to it.
  Cache C(256, 4);
  for (uint64_t L : {0, 1, 2, 3})
    C.access(L * 64, false);
  C.invalidate(1 * 64); // from the middle
  EXPECT_FALSE(C.contains(1 * 64));
  EXPECT_FALSE(C.access(4 * 64, false)) << "fills the freed way";
  EXPECT_TRUE(C.contains(0));
  EXPECT_FALSE(C.access(5 * 64, false));
  EXPECT_FALSE(C.contains(0)) << "line 0 is still the least recent";
  for (uint64_t L : {2, 3, 4, 5})
    EXPECT_TRUE(C.contains(L * 64)) << "line " << L;
}

TEST(TLBTest, PageGranularity) {
  Cache T(16 * TLBPageSize, TLBAssoc, TLBPageSize);
  EXPECT_FALSE(T.access(0x1000, false));
  EXPECT_TRUE(T.access(0x1fff, false)) << "same page";
  EXPECT_FALSE(T.access(0x2000, false)) << "next page";
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

/// The first 16 hex digits of the SHA-256 of \p R's SimStats bytes, as
/// SimGoldenTest records them.
std::string statsDigest(const SimResult &R) {
  BinaryWriter W;
  StateWriter SW(W);
  R.Stats.save(SW);
  return Sha256::digest(W.bytes().data(), W.size()).hex().substr(0, 16);
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

// ---- Machine configs ----

TEST(MachineConfig, BuiltInConfigsPassTheGeometryCheck) {
  for (const char *Name :
       {"gainestown8", "nehalem", "haswell", "skylake", "skylake-fs"}) {
    MachineConfig M;
    ASSERT_TRUE(configByName(Name, M)) << Name;
    Error E = checkMachineConfig(M);
    EXPECT_FALSE(E.isError()) << Name << ": " << E.message();
  }
}

TEST(MachineConfig, UnbuildableGeometryIsRefused) {
  // 192 KiB of 8-way 64-byte lines is 384 sets: masking would alias them.
  MachineConfig M = makeNehalemLike();
  M.Core.L2.SizeBytes = 192 * 1024;
  Error E = checkMachineConfig(M);
  ASSERT_TRUE(E.isError());
  EXPECT_EQ(E.code(), "EFAULT.CONFIG.GEOMETRY");
  EXPECT_NE(E.message().find("l2 of 196608 bytes, 8 ways: set count must be "
                             "a power of two"),
            std::string::npos)
      << E.message();

  // The simulator refuses the machine before it runs anything.
  auto Image = easm::assembleToELF("_start:\n  halt\n", "p.s");
  ASSERT_TRUE(Image.hasValue()) << Image.message();
  auto R = simulateBinaryImage(*Image, M);
  ASSERT_FALSE(R.hasValue());
  EXPECT_EQ(R.takeError().code(), "EFAULT.CONFIG.GEOMETRY");

  MachineConfig Tiny = makeNehalemLike();
  Tiny.L3.SizeBytes = 512; // 8 lines for 16 ways
  E = checkMachineConfig(Tiny);
  ASSERT_TRUE(E.isError());
  EXPECT_NE(E.message().find("l3 of 512 bytes, 16 ways: cache smaller than "
                             "one set"),
            std::string::npos)
      << E.message();

  MachineConfig OddTlb = makeNehalemLike();
  OddTlb.Core.DTLBEntries = 48; // 12 sets of 4 ways
  E = checkMachineConfig(OddTlb);
  ASSERT_TRUE(E.isError());
  EXPECT_NE(E.message().find("dtlb of 48 entries"), std::string::npos)
      << E.message();
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
  // VMConfig::EnableJit (esim runs with the library default, on): with no
  // warm-up the JIT runs the pre-ROI fast-forward and the detailed phase,
  // whose feed replays each compiled block into the timing model. Every
  // simulated statistic must be identical with the JIT on and off, and the
  // SimResult must surface the JIT counters either way.
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
  EXPECT_EQ(RInt->JitStats.Hits, 0u);
#if defined(__x86_64__)
  // The pre-ROI startup stub retires at most 200 instructions, so at least
  // 90 % of the ROI ran compiled.
  EXPECT_GT(RJit->JitStats.Hits, RJit->RoiRetired * 9 / 10 + 200u)
      << "the detailed phase must run compiled";
#endif
  removeTree(Dir);
}

/// One thread counting to 500,000: `ldi` at TextBase, then the loop block
/// (addi, slti, bnez) at TextBase + 8.
const char *const CountingLoop = R"(
_start:
  ldi  r1, 0
loop:
  addi r1, r1, 1
  slti r2, r1, 500000
  bnez r2, loop
  ldi  r7, 1
  ldi  r1, 0
  syscall
)";

TEST(Frontend, MultiCoreWarmupRunsCompiled) {
  // A one-thread loop on the 8-core machine. The warm-up charges no
  // cycles, so the thread the engine picks stays picked and runs as one
  // batch, compiled; only the detailed phase steps per instruction.
  auto Image = easm::assembleToELF(CountingLoop, "loop.s");
  ASSERT_TRUE(Image.hasValue()) << Image.message();
  RunControls Controls;
  Controls.WarmupInstructions = 900000;
  Controls.MaxInstructions = 1000;
  auto R = simulateBinaryImage(*Image, makeGainestown8(), Controls);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->WarmupRetired, 900000u);
  EXPECT_EQ(R->RoiRetired, 1000u);
#if defined(__x86_64__)
  EXPECT_GT(R->JitStats.Hits, 800000u);
#endif
}

TEST(Frontend, DetailedPhaseRunsCompiled) {
  // No warm-up and no fast-forward: every compiled instruction is a ROI
  // instruction.
  RunControls Controls;
  Controls.MaxInstructions = 200000;
  auto R = simulateSource(CountingLoop, makeNehalemLike(), Controls);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->Reason, vm::StopReason::Stopped);
  EXPECT_EQ(R->RoiRetired, 200000u);
#if defined(__x86_64__)
  EXPECT_GE(R->JitStats.Hits, R->RoiRetired * 9 / 10);
#endif
}

TEST(Frontend, RoiBudgetEndsMidBlock) {
  // 1 + 3 * 33,333 + 1: the budget ends after the loop block's addi. The
  // compiled block does not fit the rest of the quota, so the tail is
  // interpreted, and the run ends as a stop request would end it.
  for (uint64_t Budget : {uint64_t(100001), uint64_t(0)}) {
    SCOPED_TRACE(Budget);
    RunControls Controls;
    Controls.MaxInstructions = Budget;
    auto R = simulateSource(CountingLoop, makeNehalemLike(), Controls);
    ASSERT_TRUE(R.hasValue()) << R.message();
    EXPECT_EQ(R->Reason, vm::StopReason::Stopped);
    EXPECT_EQ(R->RoiRetired, Budget);
    EXPECT_EQ(R->Stats.totalInstructions(), Budget);
#if defined(__x86_64__)
    if (Budget) {
      EXPECT_GT(R->JitStats.Hits, Budget / 2);
    }
#endif
  }
}

TEST(Frontend, StopPCRunsTheRoiInterpreted) {
  // The (PC, count) condition needs every instruction, so the ROI
  // interprets: stopping at the 100,000th addi retires the ldi, 99,999
  // iterations and the addi, none of them compiled.
  RunControls Controls;
  Controls.StopPC = isa::TextBase + 8;
  Controls.StopPCCount = 100000;
  auto R = simulateSource(CountingLoop, makeNehalemLike(), Controls);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->Reason, vm::StopReason::Stopped);
  EXPECT_EQ(R->RoiRetired, 1u + 3u * 99999u + 1u);
  EXPECT_EQ(R->JitStats.Hits, 0u);
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

const char *const StopPCLoop = R"(
_start:
  ldi r9, 1000
loop:
  addi r9, r9, -1
  bnez r9, loop
  halt
)";

/// Stops at the tenth execution of the addi inside StopPCLoop (the ldi
/// is at TextBase, the addi at +8, the bnez at +16).
RunControls stopAtTenthAddi() {
  RunControls Controls;
  Controls.StopPC = isa::TextBase + 8;
  Controls.StopPCCount = 10;
  return Controls;
}

TEST(Frontend, StopPCCondition) {
  auto R = simulateSource(StopPCLoop, makeNehalemLike(), stopAtTenthAddi());
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->Reason, vm::StopReason::Stopped);
  // The ldi, nine addi-bnez pairs, and the tenth addi.
  EXPECT_EQ(R->RoiRetired, 20u);
  EXPECT_EQ(statsDigest(*R), "8a0c951c2b2e44b4");
}

TEST(Frontend, StopPCConditionOnEightCores) {
  // Eight threads on eight cores: the detailed phase picks a thread
  // before every instruction, and the count is global. Stop at the
  // 20,000th entry into the shared work loop.
  std::string Src = test::multiThreadProgram(8, 4, 2000);
  auto Image = easm::assembleToELF(Src, "sim.s");
  ASSERT_TRUE(Image.hasValue()) << Image.message();
  auto Reader = elf::ELFReader::parseView(*Image);
  ASSERT_TRUE(Reader.hasValue()) << Reader.message();
  const auto *Work = Reader->findSymbol("work");
  ASSERT_NE(Work, nullptr);
  RunControls Controls;
  Controls.StopPC = Work->Value;
  Controls.StopPCCount = 20000;
  auto R = simulateBinaryImage(*Image, makeGainestown8(), Controls);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->Reason, vm::StopReason::Stopped);
  EXPECT_EQ(R->RoiRetired, 556625u);
  EXPECT_EQ(statsDigest(*R), "2cf15ebeb19a892d");
  EXPECT_EQ(R->JitStats.Hits, 0u);
}

TEST(Frontend, StopPCConditionOnPinballs) {
  std::string Dir = tempDir("stoppc_pb");
  auto PB = test::capture(Dir, StopPCLoop, 1, 1900,
                          pinball::LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  for (bool Constrained : {true, false}) {
    SCOPED_TRACE(Constrained ? "constrained" : "free");
    auto R = simulatePinball(*PB, makeNehalemLike(), Constrained,
                             stopAtTenthAddi());
    ASSERT_TRUE(R.hasValue()) << R.message();
    EXPECT_EQ(R->Reason, vm::StopReason::Stopped);
    // The region starts after the ldi: nine addi-bnez pairs and the tenth
    // addi.
    EXPECT_EQ(R->RoiRetired, 19u);
    EXPECT_EQ(statsDigest(*R), "93d075e648d8943f");
  }
  removeTree(Dir);
}

TEST(Frontend, ConstrainedDivergenceIsAnError) {
  std::string Dir = tempDir("diverge");
  auto PB = test::capture(Dir, test::clockProgram(), 2000, 8000,
                          pinball::LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_FALSE(PB->Syscalls.empty());
  PB->Syscalls[0].Nr ^= 1; // the log no longer matches the replayed call
  auto R = simulatePinball(*PB, makeNehalemLike(), /*Constrained=*/true);
  ASSERT_FALSE(R.hasValue()) << "diverged replay returned statistics";
  EXPECT_NE(R.message().find("DIVERGENCE: "), std::string::npos)
      << R.message();
  removeTree(Dir);
}

TEST(Frontend, RegularProgramIsNotElfie) {
  auto Image = easm::assembleToELF("_start:\n  halt\n", "p.s");
  ASSERT_TRUE(Image.hasValue());
  auto R = simulateBinaryImage(*Image, makeNehalemLike());
  ASSERT_TRUE(R.hasValue());
  EXPECT_FALSE(R->WasElfie);
}


// ---- The warm feed: a compiled warm-up trains what an interpreted one does ----

/// Sets PF_W on the executable PT_LOAD segments of an ELF64 image, so the
/// program can store into its own code.
void makeTextWritable(std::vector<uint8_t> &Image) {
  uint64_t PhOff;
  uint16_t PhEntSize, PhNum;
  std::memcpy(&PhOff, &Image[0x20], 8);
  std::memcpy(&PhEntSize, &Image[0x36], 2);
  std::memcpy(&PhNum, &Image[0x38], 2);
  for (uint16_t I = 0; I < PhNum; ++I) {
    uint8_t *Ph = &Image[PhOff + I * PhEntSize];
    uint32_t Type, Flags;
    std::memcpy(&Type, Ph, 4);
    std::memcpy(&Flags, Ph + 4, 4);
    if (Type == 1 /*PT_LOAD*/ && (Flags & 1 /*PF_X*/)) {
      Flags |= 2; // PF_W
      std::memcpy(Ph + 4, &Flags, 4);
    }
  }
}

std::vector<uint8_t> statsBytes(const SimStats &S) {
  BinaryWriter W;
  StateWriter SW(W);
  S.save(SW);
  return W.bytes();
}

/// Checkpoints \p Image after each warm-up length in [From, To) with the
/// JIT off and on (promoting a block on its first re-entry), then runs
/// \p Max detailed instructions: the sidecar bytes and the SimStats must
/// not depend on the executor that ran the warm-up. A third, compiled save
/// with no detailed instruction shows the warm-up itself ran compiled.
void expectCompiledWarmupMatches(const std::vector<uint8_t> &Image,
                                 const MachineConfig &Machine, uint64_t From,
                                 uint64_t To, uint64_t Max,
                                 const std::string &Name) {
  std::string Dir = tempDir(Name);
  std::string StatePath = Dir + "/state.esimstate";
  struct Leg {
    std::vector<uint8_t> Sidecar, Stats;
    uint64_t RoiRetired = 0, Hits = 0;
  };
  for (uint64_t W = From; W < To; ++W) {
    auto Save = [&](bool Jit, uint64_t Budget) {
      vm::VMConfig VC;
      VC.EnableJit = Jit;
      VC.JitThreshold = 1;
      RunControls Ctl;
      Ctl.WarmupInstructions = W;
      Ctl.MaxInstructions = Budget;
      Ctl.SaveStatePath = StatePath;
      removeFile(StatePath);
      auto R = simulateBinaryImage(Image, Machine, Ctl, VC);
      EXPECT_TRUE(R.hasValue()) << R.message();
      Leg Out;
      if (!R)
        return Out;
      EXPECT_TRUE(R->StateSaved) << "warm-up " << W;
      EXPECT_EQ(R->WarmupRetired, W);
      auto Bytes = readFileBytes(StatePath);
      EXPECT_TRUE(Bytes.hasValue()) << Bytes.message();
      if (Bytes)
        Out.Sidecar = std::move(*Bytes);
      Out.Stats = statsBytes(R->Stats);
      Out.RoiRetired = R->RoiRetired;
      Out.Hits = R->JitStats.Hits;
      return Out;
    };
    Leg Interpreted = Save(false, Max);
    Leg Compiled = Save(true, Max);
    EXPECT_EQ(Compiled.Sidecar, Interpreted.Sidecar)
        << Name << ": sidecar differs after a " << W << "-instruction warm-up";
    EXPECT_EQ(Compiled.Stats, Interpreted.Stats)
        << Name << ": SimStats differ after a " << W
        << "-instruction warm-up";
    Leg WarmupOnly = Save(true, 0);
    EXPECT_EQ(WarmupOnly.RoiRetired, 0u) << "warm-up " << W;
#if defined(__x86_64__)
    EXPECT_GT(WarmupOnly.Hits, W / 3) << "warm-up " << W;
#endif
  }
  removeTree(Dir);
}

/// A machine whose caches hold a few lines each, so the i-side and the
/// d-side evict each other in the shared L2 and L3: warm events that
/// arrive out of retirement order leave other lines resident.
MachineConfig tinyCacheMachine() {
  MachineConfig M = makeNehalemLike();
  M.Name = "tiny-caches";
  M.Core.L1I.SizeBytes = M.Core.L1D.SizeBytes = 128;
  M.Core.L1I.Assoc = M.Core.L1D.Assoc = 2;
  M.Core.L2.SizeBytes = 256;
  M.Core.L2.Assoc = 4;
  M.L3.SizeBytes = 512;
  M.L3.Assoc = 4;
  return M;
}

// A taken and a not-taken branch to the fall-through, a call through jalr,
// and a load and a store that straddle a page boundary. The loop head and
// the call target are loads on another code line than the jump to them,
// so one instruction both fetches a new line and accesses data. The
// warm-up lengths cover a whole loop iteration, so the boundary lands at
// every position of every block, mid-block included.
TEST(WarmFeed, BranchesToFallThroughJalrAndStraddlingAccesses) {
  auto Image = easm::assembleToELF(R"(
_start:
  la   r1, buf
  ldi  r9, 400
  ldi  r2, 0
loop:
  ld8  r4, 4092(r1)      # straddles buf's first page boundary
  andi r3, r2, 1
  beqz r3, even          # to +8: taken on even passes
even:
  bnez r3, odd           # to +8: taken on odd passes
odd:
  add  r5, r5, r4
  st8  r5, 4090(r1)      # so does this store
  shli r8, r2, 7
  add  r8, r8, r1
  la   r6, work
  jalr lr, r6, 0
  addi r2, r2, 1
  blt  r2, r9, loop
  ldi  r7, 1
  ldi  r1, 0
  syscall
work:
  ld8  r10, 0(r8)
  st8  r2, 64(r8)
  ret
  .data
buf:
  .space 65536
)",
                                   "branchy.s");
  ASSERT_TRUE(Image.hasValue()) << Image.message();
  expectCompiledWarmupMatches(*Image, makeNehalemLike(), 3000, 3019, 1500,
                              "warm_branchy");
  expectCompiledWarmupMatches(*Image, tinyCacheMachine(), 3000, 3019, 1500,
                              "warm_branchy_tiny");
}

// Stores into code pages inside compiled blocks: every pass stores into a
// code page no block lives on, and one pass stores into the loop's own
// page, dropping the block that is running.
TEST(WarmFeed, StoresIntoCodePages) {
  auto Image = easm::assembleToELF(R"(
_start:
  la   r10, buf
  la   r12, patch
  la   r13, self
  sub  r13, r13, r10     # self - buf
  ldi  r11, 150
  ldi  r9, 300
loop:
  ld8  r4, 0(r10)
  addi r4, r4, 1
  st8  r4, 0(r10)
  ld8  r5, 0(r12)
  st8  r5, 0(r12)        # into a code page no block lives on
  addi r6, r6, 1
  seq  r3, r9, r11
  mul  r3, r3, r13
  add  r3, r3, r10       # buf, or on pass 150 a code word on this page
  ld8  r8, 0(r3)
  st8  r8, 0(r3)
  addi r9, r9, -1
  bnez r9, loop
  ldi  r7, 1
  ldi  r1, 0
  syscall
self:
  nop
  .align 4096
patch:
  nop
  .data
buf:
  .space 64
)",
                                   "smc.s");
  ASSERT_TRUE(Image.hasValue()) << Image.message();
  makeTextWritable(*Image);
  expectCompiledWarmupMatches(*Image, makeNehalemLike(), 2900, 2915, 800,
                              "warm_smc");
  expectCompiledWarmupMatches(*Image, tinyCacheMachine(), 2900, 2915, 800,
                              "warm_smc_tiny");
}

// Several threads interleaved on one core: the warm feed sees their
// blocks in global retirement order.
TEST(WarmFeed, MultiThreadedProgramOnOneCore) {
  auto Image =
      easm::assembleToELF(test::multiThreadProgram(4, 2, 300), "mt.s");
  ASSERT_TRUE(Image.hasValue()) << Image.message();
  expectCompiledWarmupMatches(*Image, makeNehalemLike(), 2000, 2004, 3000,
                              "warm_mt");
  expectCompiledWarmupMatches(*Image, tinyCacheMachine(), 2000, 2004, 3000,
                              "warm_mt_tiny");
}

} // namespace
