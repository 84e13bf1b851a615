//===- examples/region_validation.cpp - §IV-A as an example ---------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Validating simulation region selection with ELFies (paper §IV-A): the
/// scenario the paper's introduction motivates. For one benchmark:
///
///   1. profile it and select representative regions (PinPoints),
///   2. compute the whole-program CPI the traditional way — detailed
///      simulation of the entire run,
///   3. compute it the ELFie way — native runs of a whole-program ELFie
///      and of one ELFie per selected region, weighted by region weights,
///   4. compare errors and turnaround times.
///
/// Build & run:   ./build/examples/region_validation [workload]
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchSupport.h"

#include <chrono>
#include <cstdio>

using namespace elfie;
using namespace elfie::bench;

int main(int Argc, char **Argv) {
  std::string Name = Argc > 1 ? Argv[1] : "mcf_like";
  if (!workloads::find(Name)) {
    std::fprintf(stderr, "unknown workload '%s' (try eworkload -list)\n",
                 Name.c_str());
    return 1;
  }

  std::string Dir = "/tmp/elfie_example_validation";
  removeTree(Dir);
  exitOnError(createDirectories(Dir));
  std::string Prog = buildWorkload(Dir, Name, workloads::InputSet::Train);

  // 1. PinPoints region selection.
  std::printf("[1] profiling %s and selecting regions "
              "(slice 200k, warmup 800k)...\n",
              Name.c_str());
  simpoint::PinPointsOptions Opts;
  Opts.SliceSize = 200000;
  Opts.WarmupLength = 800000;
  Opts.MaxK = 10;
  auto SelOrErr = simpoint::profileAndSelect(Prog, {}, vm::VMConfig(), Opts);
  simpoint::PinPointsResult Sel = exitOnError(std::move(SelOrErr));
  std::printf("    -> %llu slices, %u phases, %zu regions:\n",
              static_cast<unsigned long long>(Sel.TotalSlices), Sel.K,
              Sel.Regions.size());
  for (const auto &R : Sel.Regions)
    std::printf("       cluster %u: slice %llu (start %llu), weight "
                "%.3f, %zu alternates\n",
                R.Cluster, static_cast<unsigned long long>(R.SliceIndex),
                static_cast<unsigned long long>(R.StartIcount), R.Weight,
                R.AlternateSlices.size());

  // 2. Traditional validation: whole-program detailed simulation.
  std::printf("[2] traditional approach: whole-program detailed "
              "simulation...\n");
  auto Set = exitOnError(points::captureRegionSet(Prog, Sel));
  auto T0 = std::chrono::steady_clock::now();
  auto Sim = points::validate(Set, points::Method::Simulation);
  auto T1 = std::chrono::steady_clock::now();
  if (Sim.OK)
    std::printf("    -> true CPI %.3f, predicted %.3f, error %.2f%% "
                "(%.1f s)\n",
                Sim.TrueCPI, Sim.PredictedCPI, Sim.ErrorPct,
                std::chrono::duration<double>(T1 - T0).count());
  else
    std::printf("    -> failed: %s\n", Sim.Error.c_str());

  // 3. ELFie-based validation: real hardware instead of a simulator.
  std::printf("[3] ELFie approach: native whole-program + per-region "
              "ELFie runs...\n");
  auto T2 = std::chrono::steady_clock::now();
  auto Elfie = points::validate(Set, points::Method::NativeElfie, Dir);
  auto T3 = std::chrono::steady_clock::now();
  if (Elfie.OK)
    std::printf("    -> true CPI %.3f, predicted %.3f, error %.2f%%, "
                "coverage %.1f%% (%.1f s)\n",
                Elfie.TrueCPI, Elfie.PredictedCPI, Elfie.ErrorPct,
                Elfie.CoveragePct,
                std::chrono::duration<double>(T3 - T2).count());
  else
    std::printf("    -> failed: %s\n", Elfie.Error.c_str());

  // 4. Summary.
  std::printf("\nBoth validations agree on the benchmark's "
              "representability; the ELFie numbers come from native "
              "execution, so the same methodology scales to ref-length "
              "runs that are impractical to simulate (paper §IV-A2).\n");
  return Sim.OK && Elfie.OK ? 0 : 1;
}
