//===- points/Points.cpp --------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "points/Points.h"

#include "core/Pinball2Elf.h"
#include "pinball/Logger.h"
#include "sim/Frontend.h"
#include "support/Format.h"
#include "support/Subprocess.h"

#include <algorithm>

using namespace elfie;
using namespace elfie::points;
using pinball::Pinball;

namespace {

/// Native runs per ELFie; the minimum-cycles run is kept.
constexpr unsigned NativeTrials = 7;
constexpr uint64_t NativeTimeoutMs = 60000;

/// Cycles and retired instructions over one measured slice.
struct Sample {
  double Cycles = 0;
  uint64_t Instructions = 0;
};

/// Emits \p PB as a perfle ELFie at \p Path, its per-thread budgets scaled
/// to \p Budget in total (0 = the recorded budgets), and runs it
/// NativeTrials times. Retired counts are identical across runs (software
/// counters), so the least-disturbed, minimum-cycles run is the best
/// estimate of the region's cost.
Expected<Sample> runElfie(const Pinball &PB, uint64_t Budget,
                          const std::string &Path) {
  Pinball Copy = PB;
  if (Budget) {
    // Scale each thread's budget proportionally (exact for 1 thread).
    uint64_t Total = 0;
    for (const auto &T : PB.Threads)
      Total += T.RegionIcount;
    for (auto &T : Copy.Threads)
      T.RegionIcount = Total ? static_cast<uint64_t>(
                                   static_cast<double>(T.RegionIcount) *
                                   Budget / Total)
                             : 0;
  }
  core::Pinball2ElfOptions Opts;
  Opts.Perfle = true;
  if (Error E = core::pinballToElfFile(Copy, Opts, Path))
    return E;

  SpawnSpec Spec;
  Spec.Argv = {Path};
  Spec.StdoutPath = "/dev/null";
  Expected<Sample> Best = makeError("no run of %s", Path.c_str());
  for (unsigned T = 0; T < NativeTrials; ++T) {
    auto R = runCommand(Spec, NativeTimeoutMs);
    Sample S;
    if (R && R->Wait.Exited && R->Wait.ExitCode == 0)
      for (const core::PerfleLine &L : core::parsePerfle(R->Stderr)) {
        S.Instructions += L.Retired;
        S.Cycles += static_cast<double>(L.Cycles);
      }
    if (S.Instructions > 0 && (!Best || S.Cycles < Best->Cycles))
      Best = S;
    else if (!Best)
      Best = makeError("%s failed: %s", Path.c_str(),
                       R ? R->Stderr.c_str() : R.message().c_str());
  }
  return Best;
}

/// The slice of \p PB past its first \p WarmupLen instructions, measured
/// by \p How. NativeElfie writes `<Stem>.full.elfie` and, with a warm-up,
/// `<Stem>.warm.elfie`, and subtracts the second run from the first.
Expected<Sample> measure(Method How, const Pinball &PB, uint64_t WarmupLen,
                         const std::string &Stem) {
  if (How == Method::Simulation) {
    sim::RunControls Controls;
    Controls.WarmupInstructions =
        (WarmupLen > 0 && WarmupLen < PB.Meta.RegionLength) ? WarmupLen : 0;
    auto R = sim::simulatePinball(PB, validationMachine(),
                                  /*Constrained=*/true, Controls);
    if (!R)
      return R.takeError();
    if (R->Stats.totalInstructions() == 0 || R->Stats.totalCycles() <= 0)
      return makeError("%s: the simulation measured nothing", Stem.c_str());
    return Sample{R->Stats.totalCycles(), R->Stats.totalInstructions()};
  }
  auto Full = runElfie(PB, 0, Stem + ".full.elfie");
  if (!Full || WarmupLen == 0)
    return Full;
  auto Warm = runElfie(PB, WarmupLen, Stem + ".warm.elfie");
  if (!Warm)
    return Warm;
  if (Full->Instructions <= Warm->Instructions ||
      Full->Cycles <= Warm->Cycles)
    return makeError("%s: the warm-up run is not shorter than the full run",
                     Stem.c_str());
  return Sample{Full->Cycles - Warm->Cycles,
                Full->Instructions - Warm->Instructions};
}

/// The whole program's CPI: a detailed simulation of the binary, or a
/// native ELFie captured from instruction 0.
Expected<double> wholeCPI(const RegionSet &Set, Method How,
                          const std::string &WorkDir) {
  if (How == Method::Simulation) {
    auto Whole = sim::simulateBinaryFile(Set.ProgramPath, validationMachine());
    if (!Whole)
      return Whole.takeError();
    return Whole->Stats.cpi();
  }
  auto PB = pinball::captureRegion(
      pinball::fatRequest(Set.ProgramPath, 0, UINT64_MAX / 2));
  if (!PB)
    return PB.takeError();
  auto S = measure(How, *PB, 0, WorkDir + "/whole");
  if (!S)
    return makeError("whole-program ELFie failed: %s", S.message().c_str());
  return S->Cycles / static_cast<double>(S->Instructions);
}

} // namespace

sim::MachineConfig points::validationMachine() {
  sim::MachineConfig M = sim::makeNehalemLike();
  M.Core.L2.SizeBytes = 64 * 1024;
  M.L3.SizeBytes = 1024 * 1024;
  M.MemLatencyCycles = 150;
  return M;
}

Expected<RegionSet>
points::captureRegionSet(const std::string &ProgramPath,
                         const simpoint::PinPointsResult &Selection) {
  std::vector<pinball::RegionBounds> Bounds;
  uint64_t PrevEnd = 0;
  for (const simpoint::Region &R : Selection.Regions) {
    uint64_t W = std::max(R.WarmupStart, PrevEnd);
    uint64_t E = R.StartIcount + R.Length;
    if (W >= E)
      W = R.StartIcount; // fully clamped: no warm-up
    Bounds.push_back({W, E - W});
    PrevEnd = E;
  }
  auto Pinballs =
      pinball::captureRegions(pinball::fatRequest(ProgramPath), Bounds);
  if (!Pinballs)
    return Pinballs.takeError();
  return RegionSet{ProgramPath, Selection, Pinballs.takeValue()};
}

ValidationResult points::validate(const RegionSet &Set, Method How,
                                  const std::string &WorkDirArg) {
  const std::string WorkDir = WorkDirArg.empty() ? "." : WorkDirArg;
  const simpoint::PinPointsResult &Sel = Set.Selection;
  ValidationResult Out;
  if (Set.Pinballs.size() != Sel.Regions.size()) {
    Out.Error = formatString("region set has %zu pinballs for %zu regions",
                             Set.Pinballs.size(), Sel.Regions.size());
    return Out;
  }
  auto True = wholeCPI(Set, How, WorkDir);
  if (!True) {
    Out.Error = True.message();
    return Out;
  }
  Out.TrueCPI = *True;

  double WeightedCPI = 0, Covered = 0;
  for (size_t I = 0; I < Sel.Regions.size(); ++I) {
    const simpoint::Region &R = Sel.Regions[I];
    const Pinball &PB = Set.Pinballs[I];
    // The warm-up is the captured prefix before the slice. (The region's
    // Length is the slice size even when the program's last slice is
    // shorter, so it cannot be subtracted from the captured length.)
    uint64_t Warmup = R.StartIcount > PB.Meta.RegionStart
                          ? R.StartIcount - PB.Meta.RegionStart
                          : 0;
    RegionMeasurement M;
    std::string Stem = formatString("%s/r%zu", WorkDir.c_str(), I);
    auto S = measure(How, PB, Warmup, Stem);
    if (!S && !R.AlternateSlices.empty()) {
      // Alternate representative: the next-closest slice of the same
      // cluster, captured and measured without a warm-up.
      M.Alternate = true;
      auto Alt = pinball::captureRegion(pinball::fatRequest(
          Set.ProgramPath, R.AlternateSlices[0] * Sel.SliceSize, R.Length));
      S = Alt ? measure(How, *Alt, 0, Stem + "_alt")
              : Expected<Sample>(Alt.takeError());
    }
    if (S) {
      M.OK = true;
      M.CPI = S->Cycles / static_cast<double>(S->Instructions);
      M.Instructions = S->Instructions;
      WeightedCPI += R.Weight * M.CPI;
      Covered += R.Weight;
    }
    Out.Regions.push_back(M);
  }
  if (Covered <= 0) {
    Out.Error = "no region measured successfully";
    return Out;
  }
  Out.PredictedCPI = WeightedCPI / Covered;
  Out.ErrorPct = 100.0 * (Out.TrueCPI - Out.PredictedCPI) / Out.TrueCPI;
  Out.CoveragePct = 100.0 * Covered;
  Out.OK = true;
  return Out;
}
