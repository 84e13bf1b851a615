//===- points/Points.h - region-set validation ------------------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's validation loop (§IV-A, Fig. 9/10, Table II): capture the
/// regions of a SimPoint selection in one pass, measure each region's CPI,
/// and compare the weighted region CPI with the whole program's CPI. A
/// CPI is measured one of two ways, and that is the only difference
/// between them:
///
///  * Simulation (the traditional approach): esim on validationMachine(),
///    the whole program from its ELF and each region from its pinball,
///    with the warm-up prefix functionally warmed.
///  * NativeElfie (the paper's approach): perfle ELFies run natively; a
///    region's CPI is its full run minus a run cut at the warm-up length,
///    each the minimum-cycles run of several.
///
/// A region whose measurement fails falls back to its cluster's first
/// alternate representative, captured without a warm-up (paper §I-B);
/// coverage is the weight of the regions measured either way.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_POINTS_POINTS_H
#define ELFIE_POINTS_POINTS_H

#include "pinball/Pinball.h"
#include "sim/Config.h"
#include "simpoint/PinPoints.h"

#include <string>
#include <vector>

namespace elfie {
namespace points {

/// Machine config for the validation studies: a Nehalem-like core with the
/// cache hierarchy scaled down to match the 1/1000 instruction-count
/// scaling of regions and warm-ups (DESIGN.md §2). Otherwise a 200 K
/// warm-up cannot warm a full-size L3 the way the paper's 800 M warm-up
/// warms a real one, and every region simulates unrealistically cold.
sim::MachineConfig validationMachine();

/// A SimPoint selection captured in one pass: Pinballs[I] is a fat pinball
/// of Selection.Regions[I] with its warm-up prefix, the prefix clamped so
/// it does not reach back into region I-1.
struct RegionSet {
  std::string ProgramPath;
  simpoint::PinPointsResult Selection;
  std::vector<pinball::Pinball> Pinballs;
};

/// Captures every region of \p Selection from one run of \p ProgramPath.
Expected<RegionSet>
captureRegionSet(const std::string &ProgramPath,
                 const simpoint::PinPointsResult &Selection);

/// How validate measures a CPI (see the file comment).
enum class Method { Simulation, NativeElfie };

/// One region's measurement.
struct RegionMeasurement {
  bool OK = false;
  /// The region's own measurement failed and its cluster's alternate
  /// representative was measured instead (OK says whether that worked).
  bool Alternate = false;
  double CPI = 0;
  /// Instructions retired over the measured slice (warm-up excluded).
  uint64_t Instructions = 0;
};

struct ValidationResult {
  bool OK = false;
  double TrueCPI = 0;
  double PredictedCPI = 0;
  /// (true - predicted) / true, in percent (paper's error definition).
  double ErrorPct = 0;
  /// Sum of the weights of the measured regions, in percent.
  double CoveragePct = 0;
  /// One entry per selected region.
  std::vector<RegionMeasurement> Regions;
  std::string Error;
};

/// Validates \p Set by \p How. NativeElfie writes its ELFies into
/// \p WorkDir (the current directory when empty); Simulation writes
/// nothing.
ValidationResult validate(const RegionSet &Set, Method How,
                          const std::string &WorkDir = "");

} // namespace points
} // namespace elfie

#endif // ELFIE_POINTS_POINTS_H
