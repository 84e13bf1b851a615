//===- bench/table5_gem5_ipc.cpp - Table V reproduction -------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Regenerates paper Table V: binary-driven (gem5-SE-style) simulation of
/// ELFies for the whole single-threaded suite under two processor
/// configurations — Nehalem-like and Haswell-like — to study the impact
/// of scaling critical resources (ROB, queues, predictors, L3). Per the
/// paper: 1 B-instruction slices (scaled: 1 M), SimPoint's single most
/// representative region per benchmark, IPC as reported by the simulator.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

using namespace elfie;
using namespace elfie::bench;

int main() {
  printHeader("Table V: IPC under Nehalem-like vs Haswell-like configs "
              "(binary-driven ELFie simulation)");
  printPaperNote("19 SPEC CPU2006 applications, 1 B slices, most "
                 "representative region; larger critical resources raise "
                 "IPC");

  std::string Dir = workDir("table5");
  simpoint::PinPointsOptions Opts;
  Opts.SliceSize = 1000000; // paper's 1 B, scaled 1/1000
  Opts.MaxK = 10;

  std::printf("%-18s %12s %12s %10s %10s %8s\n", "benchmark",
              "total-slices", "rep-slice", "IPC-nhm", "IPC-hsw", "gain");

  unsigned Better = 0, Total = 0;
  for (const auto &W : workloads::registry()) {
    if (W.MultiThreaded)
      continue; // gem5-SE style study uses single-threaded binaries
    std::string Prog =
        buildWorkload(Dir, W.Name, workloads::InputSet::Train);
    auto Sel = simpoint::profileAndSelect(Prog, {}, vm::VMConfig(), Opts);
    if (!Sel || Sel->Regions.empty()) {
      std::printf("%-18s  selection failed\n", W.Name.c_str());
      continue;
    }
    const simpoint::Region *Top = &Sel->Regions[0];
    for (const auto &R : Sel->Regions)
      if (R.Weight > Top->Weight)
        Top = &R;

    auto PB = pinball::captureRegion(
        pinball::fatRequest(Prog, Top->StartIcount, Top->Length));
    if (!PB) {
      std::printf("%-18s  capture failed\n", W.Name.c_str());
      continue;
    }
    core::Pinball2ElfOptions EOpts;
    EOpts.TargetKind = core::Pinball2ElfOptions::Target::Guest;
    auto Elfie = core::pinballToElf(*PB, EOpts);
    if (!Elfie) {
      std::printf("%-18s  emit failed\n", W.Name.c_str());
      continue;
    }
    auto Nhm = sim::simulateBinaryImage(*Elfie, sim::makeNehalemLike());
    auto Hsw = sim::simulateBinaryImage(*Elfie, sim::makeHaswellLike());
    if (!Nhm || !Hsw) {
      std::printf("%-18s  simulation failed\n", W.Name.c_str());
      continue;
    }
    double IN = Nhm->Stats.ipc(), IH = Hsw->Stats.ipc();
    std::printf("%-18s %12llu %12llu %10.3f %10.3f %+7.1f%%\n",
                W.Name.c_str(),
                static_cast<unsigned long long>(Sel->TotalSlices),
                static_cast<unsigned long long>(Top->SliceIndex), IN, IH,
                100.0 * (IH - IN) / IN);
    ++Total;
    if (IH >= IN)
      ++Better;
  }
  std::printf("\nShape check: the Haswell-like config matches or beats "
              "the Nehalem-like one on %u/%u benchmarks.\n", Better,
              Total);
  removeTree(Dir);
  return 0;
}
