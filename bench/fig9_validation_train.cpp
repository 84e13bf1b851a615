//===- bench/fig9_validation_train.cpp - Fig. 9 reproduction --------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Regenerates paper Fig. 9: PinPoints prediction errors for the int suite
/// on train inputs, computed two ways — the traditional simulation-based
/// validation and two instances of ELFie-based validation (native runs).
/// Paper findings reproduced in shape: errors are mostly small, gcc is the
/// outlier ("notoriously hard to represent"), and the ELFie-based errors
/// follow similar trends to the simulation-based ones while the whole
/// process is drastically faster (native hardware instead of simulation).
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include <chrono>

using namespace elfie;
using namespace elfie::bench;

int main() {
  printHeader("Fig. 9: prediction errors, simulation-based vs ELFie-based "
              "(int suite, train)");
  printPaperNote("errors do not match exactly between the approaches but "
                 "follow similar trends; gcc shows high error; "
                 "ELFie-based validation finished in 1 hour vs weeks of "
                 "simulation");

  std::string Dir = workDir("fig9");
  simpoint::PinPointsOptions Opts;
  Opts.SliceSize = 200000; // paper: 200 M, scaled 1/1000
  Opts.WarmupLength = 800000;
  Opts.MaxK = 10; // paper: 50 for thousands of slices; scaled to our ~30-300

  std::printf("%-18s %10s %12s %12s %12s\n", "benchmark", "K",
              "sim-err%", "elfie-err%", "elfie2-err%");

  double SimTime = 0, ElfieTime = 0;
  for (const auto &W : workloads::suite(workloads::Suite::IntRate)) {
    std::string Prog =
        buildWorkload(Dir, W.Name, workloads::InputSet::Train);
    auto Sel =
        simpoint::profileAndSelect(Prog, {}, vm::VMConfig(), Opts);
    if (!Sel) {
      std::printf("%-18s  selection failed: %s\n", W.Name.c_str(),
                  Sel.message().c_str());
      continue;
    }

    auto Set = points::captureRegionSet(Prog, *Sel);
    if (!Set) {
      std::printf("%-18s  capture failed: %s\n", W.Name.c_str(),
                  Set.message().c_str());
      continue;
    }
    auto T0 = std::chrono::steady_clock::now();
    auto Sim = points::validate(*Set, points::Method::Simulation);
    auto T1 = std::chrono::steady_clock::now();
    auto E1 = points::validate(*Set, points::Method::NativeElfie, Dir);
    auto E2 = points::validate(*Set, points::Method::NativeElfie, Dir);
    auto T2 = std::chrono::steady_clock::now();
    SimTime += std::chrono::duration<double>(T1 - T0).count();
    ElfieTime += std::chrono::duration<double>(T2 - T1).count() / 2;

    auto Cell = [](const points::ValidationResult &V) {
      return V.OK ? formatString("%11.2f%%", V.ErrorPct)
                  : std::string("      failed");
    };
    std::printf("%-18s %10u %s %s %s\n", W.Name.c_str(), Sel->K,
                Cell(Sim).c_str(), Cell(E1).c_str(), Cell(E2).c_str());
  }

  std::printf("\nValidation turnaround: simulation-based %.1f s, "
              "ELFie-based %.1f s per instance "
              "(paper: weeks vs under one hour).\n",
              SimTime, ElfieTime);
  removeTree(Dir);
  return 0;
}
