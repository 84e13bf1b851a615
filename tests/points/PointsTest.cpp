//===- tests/points/PointsTest.cpp - region-set validation ----------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// The validation loop of src/points on xz_like's `test` input (about 1.9 M
/// instructions, four 20 K regions with 40 K warm-ups): the sim-based
/// result to the bit, the native path's deterministic outputs (retired
/// counts, coverage, the alternate fallback), and one-pass capture against
/// separate captures of the same bounds.
///
//===----------------------------------------------------------------------===//

#include "points/Points.h"

#include "pinball/Logger.h"
#include "support/FileIO.h"
#include "vm/VM.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace elfie;

namespace {

struct Fixture {
  std::string Dir;
  std::string Prog;
  simpoint::PinPointsResult Sel;
};

Fixture setUp(const std::string &Name) {
  Fixture F;
  F.Dir = testing::TempDir() + "/elfie_points_" + Name;
  removeTree(F.Dir);
  EXPECT_FALSE(createDirectories(F.Dir).isError());
  F.Prog = F.Dir + "/xz_like.elf";
  EXPECT_FALSE(workloads::buildWorkloadFile("xz_like",
                                            workloads::InputSet::Test, F.Prog)
                   .isError());
  simpoint::PinPointsOptions Opts;
  Opts.SliceSize = 20000;
  Opts.WarmupLength = 40000;
  Opts.MaxK = 4;
  auto Sel = simpoint::profileAndSelect(F.Prog, {}, vm::VMConfig(), Opts);
  EXPECT_TRUE(Sel.hasValue()) << Sel.message();
  if (Sel)
    F.Sel = *Sel;
  return F;
}

/// Every file of a saved pinball, by name.
std::map<std::string, std::vector<uint8_t>>
savedFiles(const pinball::Pinball &PB, const std::string &Dir) {
  std::map<std::string, std::vector<uint8_t>> Out;
  EXPECT_FALSE(PB.save(Dir).isError());
  auto Names = listDirectory(Dir);
  EXPECT_TRUE(Names.hasValue()) << Names.message();
  for (const std::string &Name : Names ? *Names : std::vector<std::string>())
    Out[Name] = *readFileBytes(Dir + "/" + Name);
  return Out;
}

TEST(Points, SimulationResultIsPinned) {
  Fixture F = setUp("sim");
  ASSERT_EQ(F.Sel.Regions.size(), 4u);
  auto Set = points::captureRegionSet(F.Prog, F.Sel);
  ASSERT_TRUE(Set.hasValue()) << Set.message();
  points::ValidationResult V =
      points::validate(*Set, points::Method::Simulation);
  ASSERT_TRUE(V.OK) << V.Error;
  // Recorded before the validation loop moved into src/points: the
  // library must reproduce the bench harness's sim-based result exactly.
  EXPECT_EQ(V.TrueCPI, 0x1.9064a1c6c72a5p-2);
  EXPECT_EQ(V.PredictedCPI, 0x1.16a9f46c66608p-1);
  EXPECT_EQ(V.ErrorPct, -0x1.398fab6805bcep+5);
  EXPECT_EQ(V.CoveragePct, 100.0);
  ASSERT_EQ(V.Regions.size(), 4u);
  for (size_t I = 0; I < 4; ++I) {
    EXPECT_TRUE(V.Regions[I].OK) << I;
    EXPECT_FALSE(V.Regions[I].Alternate) << I;
  }
  removeTree(F.Dir);
}

TEST(Points, NativeRetiredCountsAndCoverage) {
  Fixture F = setUp("native");
  auto Set = points::captureRegionSet(F.Prog, F.Sel);
  ASSERT_TRUE(Set.hasValue()) << Set.message();
  points::ValidationResult V =
      points::validate(*Set, points::Method::NativeElfie, F.Dir);
  ASSERT_TRUE(V.OK) << V.Error;
  EXPECT_EQ(V.CoveragePct, 100.0);
  EXPECT_GT(V.TrueCPI, 0.0);
  ASSERT_EQ(V.Regions.size(), F.Sel.Regions.size());
  for (size_t I = 0; I < V.Regions.size(); ++I) {
    // Warm-up subtraction leaves exactly the region: the software
    // retired-instruction counters are deterministic.
    EXPECT_TRUE(V.Regions[I].OK) << I;
    EXPECT_FALSE(V.Regions[I].Alternate) << I;
    EXPECT_EQ(V.Regions[I].Instructions, F.Sel.Regions[I].Length) << I;
    EXPECT_GT(V.Regions[I].CPI, 0.0) << I;
  }
  removeTree(F.Dir);
}

/// The program's last slice is cut short at exit; as the representative
/// of a region (built as simpoint::selectRegions builds one: Length =
/// SliceSize), it is measured past its captured warm-up only, so exactly
/// the instructions the slice really has are counted. (The simulation
/// method checks it deterministically; the native method shares the
/// warm-up computation but also depends on measured cycles.)
TEST(Points, PartialLastSliceMeasuresOnlyItsOwnInstructions) {
  Fixture F = setUp("lastslice");
  vm::VMConfig C;
  C.StdoutSink = [](const char *, size_t) {};
  vm::VM M(C);
  ASSERT_FALSE(M.loadELFFile(F.Prog).isError());
  ASSERT_FALSE(M.setupMainThread({"xz_like"}).isError());
  ASSERT_EQ(M.run().Reason, vm::StopReason::AllExited);
  const uint64_t Total = M.globalRetired();
  const uint64_t Slice = F.Sel.SliceSize;
  ASSERT_EQ(F.Sel.TotalSlices, (Total + Slice - 1) / Slice);
  ASSERT_NE(Total % Slice, 0u) << "the last slice must be partial";

  simpoint::PinPointsResult Sel = F.Sel;
  simpoint::Region Last;
  Last.SliceIndex = Sel.TotalSlices - 1;
  Last.StartIcount = Last.SliceIndex * Slice;
  Last.Length = Slice;
  Last.WarmupStart = Last.StartIcount - 40000;
  Last.Weight = 1.0;
  Sel.Regions = {Last};
  auto Set = points::captureRegionSet(F.Prog, Sel);
  ASSERT_TRUE(Set.hasValue()) << Set.message();
  points::ValidationResult V =
      points::validate(*Set, points::Method::Simulation);
  ASSERT_TRUE(V.OK) << V.Error;
  ASSERT_EQ(V.Regions.size(), 1u);
  EXPECT_TRUE(V.Regions[0].OK);
  EXPECT_EQ(V.Regions[0].Instructions, Total % Slice);
  removeTree(F.Dir);
}

/// Drops every non-stack data page, so the region's ELFie faults on its
/// first data access.
void breakElfie(pinball::Pinball &PB) {
  std::erase_if(PB.Image, [&](const pinball::PageRecord &P) {
    return !(P.Perm & vm::PermExec) &&
           (P.Addr < PB.Meta.StackBase || P.Addr >= PB.Meta.StackTop);
  });
}

TEST(Points, NativeFallsBackToAlternateWhenRegionElfieFails) {
  Fixture F = setUp("alternate");
  auto Set = points::captureRegionSet(F.Prog, F.Sel);
  ASSERT_TRUE(Set.hasValue()) << Set.message();
  ASSERT_EQ(Set->Pinballs.size(), 4u);
  // Region 1 fails and has an alternate; region 2 fails and has none.
  ASSERT_FALSE(Set->Selection.Regions[1].AlternateSlices.empty());
  breakElfie(Set->Pinballs[1]);
  breakElfie(Set->Pinballs[2]);
  Set->Selection.Regions[2].AlternateSlices.clear();

  points::ValidationResult V =
      points::validate(*Set, points::Method::NativeElfie, F.Dir);
  ASSERT_TRUE(V.OK) << V.Error;
  ASSERT_EQ(V.Regions.size(), 4u);
  EXPECT_TRUE(V.Regions[1].OK);
  EXPECT_TRUE(V.Regions[1].Alternate);
  EXPECT_EQ(V.Regions[1].Instructions, F.Sel.Regions[1].Length);
  EXPECT_FALSE(V.Regions[2].OK);
  for (size_t I : {0u, 3u}) {
    EXPECT_TRUE(V.Regions[I].OK) << I;
    EXPECT_FALSE(V.Regions[I].Alternate) << I;
  }
  const auto &R = F.Sel.Regions;
  EXPECT_DOUBLE_EQ(V.CoveragePct,
                   100.0 * (R[0].Weight + R[1].Weight + R[3].Weight));
  removeTree(F.Dir);
}

TEST(Points, OnePassCaptureEqualsSeparateCaptures) {
  Fixture F = setUp("onepass");
  pinball::CaptureRequest Req = pinball::fatRequest(F.Prog);
  // Adjacent, spaced, and running past program exit.
  const std::vector<pinball::RegionBounds> Bounds = {
      {20000, 20000}, {40000, 10000}, {700000, 30000}, {1900000, 100000}};
  auto OnePass = pinball::captureRegions(Req, Bounds);
  ASSERT_TRUE(OnePass.hasValue()) << OnePass.message();
  ASSERT_EQ(OnePass->size(), Bounds.size());
  EXPECT_LT((*OnePass)[3].Meta.RegionLength, 100000u) << "truncated at exit";
  for (size_t I = 0; I < Bounds.size(); ++I) {
    Req.RegionStart = Bounds[I].Start;
    Req.RegionLength = Bounds[I].Length;
    auto Separate = pinball::captureRegion(Req);
    ASSERT_TRUE(Separate.hasValue()) << Separate.message();
    std::string Stem = F.Dir + "/r" + std::to_string(I);
    EXPECT_EQ(savedFiles((*OnePass)[I], Stem + ".onepass"),
              savedFiles(*Separate, Stem + ".separate"))
        << "region " << I;
  }
  removeTree(F.Dir);
}

TEST(Points, CaptureRegionsRejectsOverlapAndReversedRegions) {
  Fixture F = setUp("order");
  pinball::CaptureRequest Req = pinball::fatRequest(F.Prog);
  auto Overlap = pinball::captureRegions(Req, {{1000, 500}, {1200, 100}});
  ASSERT_FALSE(Overlap.hasValue());
  EXPECT_EQ(Overlap.error().code(), "EFAULT.CAPTURE.ORDER")
      << Overlap.message();
  auto Reversed = pinball::captureRegions(Req, {{5000, 100}, {1000, 100}});
  ASSERT_FALSE(Reversed.hasValue());
  EXPECT_EQ(Reversed.error().code(), "EFAULT.CAPTURE.ORDER")
      << Reversed.message();
  removeTree(F.Dir);
}

} // namespace
