//===- tests/simpoint/BBVIdentityTest.cpp - BBVs at JIT speed -------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// The BBV collector is a block-granularity observer, so profiling runs
/// with the JIT on. These tests (`ctest -L jit`) pin that the slices it
/// produces are bit-identical whichever executor retired the instructions:
/// golden SHA-256 digests recorded with the per-instruction collector of
/// the interpreter, JIT-vs-interpreter identity over the whole workload
/// registry, and unit cases for runs that straddle a slice boundary, a
/// budget stop in the middle of a compiled block, and the final partial
/// slice.
///
//===----------------------------------------------------------------------===//

#include "simpoint/BBV.h"

#include "../common/TestHelpers.h"
#include "elf/ELFReader.h"
#include "simpoint/PinPoints.h"
#include "support/Sha256.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace elfie;
using namespace elfie::simpoint;
using workloads::InputSet;

namespace {

/// Slice index, dimension count, and the raw bits of every projected
/// coordinate, little-endian: equal bytes mean bitwise-equal slices.
std::string serialize(const std::vector<SliceVector> &Slices) {
  std::string Out;
  auto Put = [&Out](uint64_t V) {
    Out.append(reinterpret_cast<const char *>(&V), 8);
  };
  for (const SliceVector &S : Slices) {
    Put(S.SliceIndex);
    Put(S.Projected.size());
    for (double X : S.Projected) {
      uint64_t Bits;
      std::memcpy(&Bits, &X, 8);
      Put(Bits);
    }
  }
  return Out;
}

std::string digest(const std::vector<SliceVector> &Slices) {
  std::string Bytes = serialize(Slices);
  return sha256Hex(Bytes.data(), Bytes.size());
}

struct Profile {
  std::vector<SliceVector> Slices;
  uint64_t Retired = 0;
  vm::JitStats Jit;
};

/// Runs \p Image (argv = {\p Name}) under a BBV collector to exit or
/// \p Budget retired instructions.
Profile profile(const std::vector<uint8_t> &Image, const std::string &Name,
                vm::VMConfig Config, uint64_t SliceSize,
                uint64_t Budget = UINT64_MAX) {
  Profile P;
  auto Reader = elf::ELFReader::parse(Image);
  EXPECT_TRUE(Reader.hasValue()) << Reader.message();
  if (!Reader)
    return P;
  Config.StdoutSink = [](const char *, size_t) {};
  vm::VM M(Config);
  EXPECT_FALSE(M.loadELF(*Reader).isError());
  EXPECT_FALSE(M.setupMainThread({Name}).isError());
  BBVCollector C(SliceSize, 16, 42);
  M.setObserver(&C);
  vm::RunResult R = M.run(Budget);
  EXPECT_NE(R.Reason, vm::StopReason::Faulted) << R.FaultInfo.Message;
  C.finish();
  P.Slices = C.slices();
  P.Retired = M.globalRetired();
  P.Jit = R.Jit;
  return P;
}

Profile profileWorkload(const std::string &Name, vm::VMConfig Config,
                        uint64_t SliceSize) {
  auto Image = workloads::buildWorkload(Name, InputSet::Test);
  EXPECT_TRUE(Image.hasValue()) << Image.message();
  return Image ? profile(*Image, Name, Config, SliceSize) : Profile();
}

vm::VMConfig interpreter() {
  vm::VMConfig C;
  C.EnableJit = false;
  return C;
}

vm::VMConfig eagerJit() {
  vm::VMConfig C;
  C.EnableJit = true;
  C.JitThreshold = 4; // promote early so most blocks retire compiled
  return C;
}

void expectJitRan(const Profile &P) {
#if defined(__x86_64__)
  EXPECT_GT(P.Jit.Hits, 0u)
      << "the JIT never dispatched: the comparison degenerated to "
         "interpreter vs interpreter";
#endif
}

// ---- Golden digests -----------------------------------------------------

// Recorded with the per-instruction collector under the interpreter
// (slice 10000, 16 dims, seed 42, test input, argv = {name}); the default
// configuration now profiles with the JIT and must reproduce them.
TEST(BBVGolden, SingleThreadedGccLike) {
  Profile P = profileWorkload("gcc_like", vm::VMConfig(), 10000);
  EXPECT_EQ(P.Slices.size(), 1120u);
  EXPECT_EQ(digest(P.Slices), "180f44ad3fa37ca79b8edd336f1e20eaafb55653bf534d2c355754a1a928201d");
  expectJitRan(P);
}

TEST(BBVGolden, MultiThreadedNabS) {
  Profile P = profileWorkload("nab_s_like", vm::VMConfig(), 10000);
  EXPECT_EQ(P.Slices.size(), 154u);
  EXPECT_EQ(digest(P.Slices), "6d6ac0f28018514ca1ab85a92f271594d743d65a30835d0a9564598981ad3577");
  expectJitRan(P);
}

// ---- JIT vs interpreter over the registry -------------------------------

class BBVIdentity : public testing::TestWithParam<std::string> {};

TEST_P(BBVIdentity, JitMatchesInterpreter) {
  Profile I = profileWorkload(GetParam(), interpreter(), 10000);
  Profile J = profileWorkload(GetParam(), eagerJit(), 10000);
  ASSERT_FALSE(I.Slices.empty());
  EXPECT_EQ(I.Retired, J.Retired);
  EXPECT_EQ(I.Slices.size(), J.Slices.size());
  EXPECT_TRUE(serialize(I.Slices) == serialize(J.Slices))
      << "slices differ: " << digest(I.Slices) << " vs " << digest(J.Slices);
  EXPECT_EQ(I.Jit.Hits, 0u);
  expectJitRan(J);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, BBVIdentity, [] {
  std::vector<std::string> Names;
  for (const workloads::WorkloadInfo &W : workloads::registry())
    Names.push_back(W.Name);
  return testing::ValuesIn(Names);
}());

// ---- Unit cases ---------------------------------------------------------

/// One set-up instruction, then a loop whose body is one 41-instruction
/// straight-line block (40 addis and the back-edge), run 2000 times, then
/// exit.
std::string longBlockProgram() {
  std::string S = "_start:\n  ldi r9, 2000\nloop:\n";
  for (int K = 0; K < 39; ++K)
    S += "  addi r" + std::to_string(10 + K % 5) + ", r" +
         std::to_string(10 + K % 5) + ", " + std::to_string(K + 1) + "\n";
  S += "  addi r9, r9, -1\n  bnez r9, loop\n"
       "  ldi r7, 1\n  ldi r1, 0\n  syscall\n";
  return S;
}

std::vector<uint8_t> assemble(const std::string &Src) {
  auto Image = easm::assembleToELF(Src, "long.s");
  EXPECT_TRUE(Image.hasValue()) << Image.message();
  return Image ? *Image : std::vector<uint8_t>();
}

TEST(BBVBlocks, RunStraddlingSliceBoundarySplitsLikeSingleSteps) {
  // Collector level: one 30-instruction run ending in control flow must
  // account exactly like the same 30 instructions one at a time.
  BBVCollector Whole(10, 8, 1), Steps(10, 8, 1);
  for (int Rep = 0; Rep < 3; ++Rep) {
    Whole.onBlock(0, 0x10000, 30, true);
    Whole.onBlock(0, 0x20000, 5, false);
    for (uint64_t K = 0; K < 30; ++K)
      Steps.onBlock(0, 0x10000 + K * isa::InstSize, 1, K == 29);
    for (uint64_t K = 0; K < 5; ++K)
      Steps.onBlock(0, 0x20000 + K * isa::InstSize, 1, false);
  }
  Whole.finish();
  Steps.finish();
  // 105 instructions: ten full slices and a kept half slice.
  ASSERT_EQ(Whole.slices().size(), 11u);
  EXPECT_EQ(serialize(Whole.slices()), serialize(Steps.slices()));
}

TEST(BBVBlocks, CompiledBlockStraddlingSliceBoundary) {
  // VM level: 41-instruction compiled blocks against a 97-instruction
  // slice, so most slice boundaries fall inside a compiled block.
  std::vector<uint8_t> Image = assemble(longBlockProgram());
  Profile I = profile(Image, "long", interpreter(), 97);
  Profile J = profile(Image, "long", eagerJit(), 97);
  ASSERT_GT(I.Slices.size(), 800u);
  EXPECT_EQ(I.Retired, J.Retired);
  EXPECT_EQ(serialize(I.Slices), serialize(J.Slices));
  expectJitRan(J);
}

TEST(BBVBlocks, BudgetStopMidBlock) {
  // A budget that ends 17 instructions into a compiled block: the tail is
  // interpreted one step at a time, and the open block still accounts.
  std::vector<uint8_t> Image = assemble(longBlockProgram());
  uint64_t Budget = 1 + 1000 * 41 + 17;
  Profile I = profile(Image, "long", interpreter(), 500, Budget);
  Profile J = profile(Image, "long", eagerJit(), 500, Budget);
  EXPECT_EQ(I.Retired, Budget);
  EXPECT_EQ(J.Retired, Budget);
  EXPECT_EQ(serialize(I.Slices), serialize(J.Slices));
  expectJitRan(J);

  // Through profileAndSelect's MaxInstructions: the same selection.
  std::string Dir = testing::TempDir() + "/elfie_bbv_budget";
  removeTree(Dir);
  createDirectories(Dir);
  std::string Path = Dir + "/long.elf";
  ASSERT_FALSE(writeFile(Path, Image.data(), Image.size()).isError());
  PinPointsOptions Opts;
  Opts.SliceSize = 500;
  Opts.WarmupLength = 1000;
  Opts.MaxK = 5;
  auto SI = profileAndSelect(Path, {}, interpreter(), Opts, Budget);
  auto SJ = profileAndSelect(Path, {}, eagerJit(), Opts, Budget);
  ASSERT_TRUE(SI.hasValue()) << SI.message();
  ASSERT_TRUE(SJ.hasValue()) << SJ.message();
  EXPECT_EQ(SI->TotalSlices, SJ->TotalSlices);
  EXPECT_EQ(SI->K, SJ->K);
  EXPECT_EQ(SI->Assignment, SJ->Assignment);
  EXPECT_EQ(formatRegions(*SI), formatRegions(*SJ));
  removeTree(Dir);
}

TEST(BBVBlocks, FinishKeepsPartialSliceOfAtLeastATenth) {
  // Two full slices of 10-instruction blocks, then a run of \p Tail
  // instructions that never reaches a control transfer: it is still open
  // when finish() runs.
  auto SlicesAfter = [](uint64_t Tail) {
    BBVCollector C(100, 4, 1);
    for (int K = 0; K < 20; ++K)
      C.onBlock(0, 0x10000, 10, true);
    C.onBlock(0, 0x20000, Tail, false);
    C.finish();
    return C.slices();
  };
  EXPECT_EQ(SlicesAfter(9).size(), 2u); // 9 < 100/10: dropped
  std::vector<SliceVector> Kept = SlicesAfter(10);
  ASSERT_EQ(Kept.size(), 3u); // exactly a tenth: kept
  EXPECT_EQ(Kept[2].SliceIndex, 2u);
  double Norm = 0;
  for (double X : Kept[2].Projected)
    Norm += X > 0 ? X : -X;
  EXPECT_DOUBLE_EQ(Norm, 1.0) << "the open block was not accounted";
}

} // namespace
