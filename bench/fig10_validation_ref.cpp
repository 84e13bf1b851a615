//===- bench/fig10_validation_ref.cpp - Fig. 10 reproduction --------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Regenerates paper Fig. 10: ELFie-based prediction errors for ref-input
/// runs of the int and fp suites. The whole point of the ELFie approach is
/// that the long ref runs are validated with *native* runs instead of
/// whole-program simulation, and alternate representatives raise coverage
/// to 90%+ in most cases while keeping accuracy high.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

using namespace elfie;
using namespace elfie::bench;

int main() {
  printHeader("Fig. 10: ELFie-based prediction errors (int + fp, ref)");
  printPaperNote("ELFie-based validation of really long-running programs; "
                 "alternate region selection raises coverage to 90%+ in "
                 "most cases while maintaining high accuracy");

  std::string Dir = workDir("fig10");
  simpoint::PinPointsOptions Opts;
  Opts.SliceSize = 200000;
  Opts.WarmupLength = 800000;
  Opts.MaxK = 10; // paper: 50 for thousands of slices; scaled to our ~30-300
  Opts.MaxAlternates = 2;

  std::printf("%-18s %6s %8s %12s %12s\n", "benchmark", "suite", "K",
              "elfie-err%", "coverage%");

  double WorstAbs = 0, SumAbs = 0;
  unsigned N = 0;
  auto RunSuite = [&](workloads::Suite S, const char *Label) {
    for (const auto &W : workloads::suite(S)) {
      if (W.MultiThreaded)
        continue;
      std::string Prog =
          buildWorkload(Dir, W.Name, workloads::InputSet::Ref);
      auto Sel = simpoint::profileAndSelect(Prog, {}, vm::VMConfig(), Opts);
      if (!Sel) {
        std::printf("%-18s %6s  selection failed\n", W.Name.c_str(), Label);
        continue;
      }
      auto Set = points::captureRegionSet(Prog, *Sel);
      if (!Set) {
        std::printf("%-18s %6s  capture failed: %s\n", W.Name.c_str(), Label,
                    Set.message().c_str());
        continue;
      }
      auto V = points::validate(*Set, points::Method::NativeElfie, Dir);
      if (!V.OK) {
        std::printf("%-18s %6s  failed: %s\n", W.Name.c_str(), Label,
                    V.Error.c_str());
        continue;
      }
      std::printf("%-18s %6s %8u %11.2f%% %11.1f%%\n", W.Name.c_str(),
                  Label, Sel->K, V.ErrorPct, V.CoveragePct);
      WorstAbs = std::max(WorstAbs, std::abs(V.ErrorPct));
      SumAbs += std::abs(V.ErrorPct);
      ++N;
    }
  };
  RunSuite(workloads::Suite::IntRate, "int");
  RunSuite(workloads::Suite::FpRate, "fp");

  if (N)
    std::printf("\nmean |error| %.2f%%, worst |error| %.2f%% across %u "
                "benchmarks\n",
                SumAbs / N, WorstAbs, N);
  removeTree(Dir);
  return 0;
}
