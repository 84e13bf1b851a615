//===- bench/table2_gcc_warmup.cpp - Table II reproduction ----------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Regenerates paper Table II: tuning the PinPoints warm-up length for gcc
/// (the hard-to-represent benchmark). The paper increased the warm-up from
/// 800 M to 1.2 B instructions and the prediction error dropped. Scaled
/// 1/1000 here: 800 K -> 1.2 M.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include <algorithm>
#include <chrono>
#include <vector>

using namespace elfie;
using namespace elfie::bench;

static double secsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       T0)
      .count();
}

int main() {
  printHeader("Table II: gcc warm-up tuning (simulation-based prediction "
              "error)");
  printPaperNote("increasing the warm-up region from 800M to 1.2B "
                 "instructions brought down gcc's prediction error");

  std::string Dir = workDir("table2");
  std::string Prog =
      buildWorkload(Dir, "gcc_like", workloads::InputSet::Train);

  std::printf("%-12s %-14s %-10s %-10s\n", "warmup", "K(regions)",
              "sim-err%", "elfie-err%");
  for (uint64_t Warmup : {uint64_t(800000), uint64_t(1200000)}) {
    simpoint::PinPointsOptions Opts;
    Opts.SliceSize = 200000;
    Opts.WarmupLength = Warmup;
    Opts.MaxK = 10; // paper: 50 for thousands of slices; scaled to our ~30-300
    auto Sel = simpoint::profileAndSelect(Prog, {}, vm::VMConfig(), Opts);
    if (!Sel) {
      std::printf("selection failed: %s\n", Sel.message().c_str());
      return 1;
    }
    auto Set = exitOnError(points::captureRegionSet(Prog, *Sel));
    auto Sim = points::validate(Set, points::Method::Simulation);
    auto Elfie = points::validate(Set, points::Method::NativeElfie, Dir);
    std::printf("%-12llu %-14u %9.2f%% %9.2f%%\n",
                static_cast<unsigned long long>(Warmup), Sel->K,
                Sim.OK ? Sim.ErrorPct : -999.0,
                Elfie.OK ? Elfie.ErrorPct : -999.0);
  }
  std::printf("\nShape check: the longer warm-up should reduce (or keep "
              "small) the absolute simulation-based error.\n");

  // Checkpointed re-simulation: pay the 1.2M-instruction warm-up once
  // (esim -warmup-save semantics), then resume detailed 10K slices from
  // the sidecar. The resume skips functional warming — the pre-boundary
  // instructions replay at JIT speed with no model events — and must
  // reproduce the cold run's stats bit-for-bit.
  std::printf("\nCheckpointed re-simulation (warmup 1.2M, detailed 10K, "
              "median of 3 runs each):\n");
  std::printf("%-10s %-12s %-10s %-10s\n", "cold(s)", "resumed(s)",
              "speedup", "ipc-err%");
  sim::MachineConfig M = points::validationMachine();
  vm::VMConfig VMC;
  VMC.EnableJit = true;
  std::string Sidecar = Dir + "/gcc.esimstate";
  sim::RunControls Cold;
  Cold.WarmupInstructions = 1200000;
  Cold.MaxInstructions = 10000;
  Cold.SaveStatePath = Sidecar;
  sim::RunControls Resume;
  Resume.MaxInstructions = 10000;
  Resume.LoadStatePath = Sidecar;
  std::vector<double> ColdSecs, ResumeSecs;
  double ColdCPI = 0, ResumedCPI = 0;
  for (int I = 0; I < 3; ++I) {
    auto C0 = std::chrono::steady_clock::now();
    auto ColdR = sim::simulateBinaryFile(Prog, M, Cold, VMC);
    ColdSecs.push_back(secsSince(C0));
    if (!ColdR) {
      std::printf("cold checkpointed run failed: %s\n",
                  ColdR.message().c_str());
      return 1;
    }
    ColdCPI = ColdR->Stats.cpi();
  }
  for (int I = 0; I < 3; ++I) {
    auto R0 = std::chrono::steady_clock::now();
    auto Res = sim::simulateBinaryFile(Prog, M, Resume, VMC);
    ResumeSecs.push_back(secsSince(R0));
    if (!Res) {
      std::printf("resume %d failed: %s\n", I + 1, Res.message().c_str());
      return 1;
    }
    ResumedCPI = Res->Stats.cpi();
  }
  std::sort(ColdSecs.begin(), ColdSecs.end());
  std::sort(ResumeSecs.begin(), ResumeSecs.end());
  double ColdMedian = ColdSecs[ColdSecs.size() / 2];
  double Median = ResumeSecs[ResumeSecs.size() / 2];
  double IpcErrPct = 100.0 * (ColdCPI - ResumedCPI) / ColdCPI;
  std::printf("%-10.3f %-12.3f %8.1fx %9.2f%%\n", ColdMedian, Median,
              Median > 0 ? ColdMedian / Median : 0.0, IpcErrPct);
  std::printf("Shape check: resumed re-simulation should be >=10x faster "
              "than re-warming, with exactly zero IPC error.\n");

  removeTree(Dir);
  return 0;
}
