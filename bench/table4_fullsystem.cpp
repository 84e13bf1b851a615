//===- bench/table4_fullsystem.cpp - Table IV reproduction ----------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Regenerates paper Table IV: application-level vs. full-system
/// simulation of an identical ELFie (a single-region SimPoint of the
/// x264-like workload) on the Skylake-like model. The paper measured an
/// extra 1.6% ring-0 instructions causing +5.2% simulated runtime and a
/// 45.4% larger data footprint — the disproportionate effect of a few OS
/// instructions on TLBs, caches, and the prefetcher. Full-system mode
/// here attaches the synthetic kernel (DESIGN.md §2).
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

using namespace elfie;
using namespace elfie::bench;

int main() {
  printHeader("Table IV: application-level vs full-system simulation "
              "(x264-like single region, skylake)");
  printPaperNote("+1.6% ring-0 instructions -> +5.2% runtime, +45.4% data "
                 "footprint");

  std::string Dir = workDir("table4");
  std::string Prog =
      buildWorkload(Dir, "x264_like", workloads::InputSet::Train);

  // Single-region SimPoint: the top-weight representative with a large
  // slice (paper used a 10 B-instruction single region; scaled here).
  simpoint::PinPointsOptions Opts;
  Opts.SliceSize = 1000000;
  Opts.MaxK = 10;
  auto Sel = simpoint::profileAndSelect(Prog, {}, vm::VMConfig(), Opts);
  if (!Sel || Sel->Regions.empty()) {
    std::printf("selection failed\n");
    return 1;
  }
  const simpoint::Region *Top = &Sel->Regions[0];
  for (const auto &R : Sel->Regions)
    if (R.Weight > Top->Weight)
      Top = &R;

  auto PB = pinball::captureRegion(
      pinball::fatRequest(Prog, Top->StartIcount, Top->Length));
  if (!PB) {
    std::printf("capture failed: %s\n", PB.message().c_str());
    return 1;
  }
  core::Pinball2ElfOptions EOpts;
  EOpts.TargetKind = core::Pinball2ElfOptions::Target::Guest;
  auto Elfie = core::pinballToElf(*PB, EOpts);
  if (!Elfie) {
    std::printf("elfie emit failed: %s\n", Elfie.message().c_str());
    return 1;
  }

  // The same ELFie, two simulators: SDE-like user-level and Simics-like
  // full-system.
  auto User = sim::simulateBinaryImage(*Elfie, sim::makeSkylakeLike(false));
  auto Full = sim::simulateBinaryImage(*Elfie, sim::makeSkylakeLike(true));
  if (!User || !Full) {
    std::printf("simulation failed\n");
    return 1;
  }

  uint64_t Ring3U = User->Stats.totalInstructions();
  uint64_t Ring3F = Full->Stats.totalInstructions();
  uint64_t Ring0F = Full->Stats.totalRing0Instructions();
  double RunU = User->Stats.runtimeSeconds();
  double RunF = Full->Stats.runtimeSeconds();
  double FootU = User->Stats.dataFootprintBytes() / 1024.0;
  double FootF = Full->Stats.dataFootprintBytes() / 1024.0;

  std::printf("%-34s %16s %16s\n", "", "user-level", "full-system");
  std::printf("%-34s %16llu %16llu\n", "instructions (ring3)",
              static_cast<unsigned long long>(Ring3U),
              static_cast<unsigned long long>(Ring3F));
  std::printf("%-34s %16s %16llu\n", "instructions (ring0)", "0",
              static_cast<unsigned long long>(Ring0F));
  std::printf("%-34s %15.2f%% %15.2f%%\n", "extra kernel instructions",
              0.0, 100.0 * Ring0F / Ring3F);
  std::printf("%-34s %16.4f %16.4f\n", "simulated runtime (ms)",
              RunU * 1e3, RunF * 1e3);
  std::printf("%-34s %16s %15.2f%%\n", "runtime increase", "-",
              100.0 * (RunF - RunU) / RunU);
  std::printf("%-34s %16.1f %16.1f\n", "data footprint (KiB)", FootU,
              FootF);
  std::printf("%-34s %16s %15.2f%%\n", "footprint increase", "-",
              100.0 * (FootF - FootU) / FootU);
  std::printf("\nShape check: ring3 counts equal; a small ring0 fraction "
              "causes a larger runtime increase and a much larger "
              "footprint increase (paper: 1.6%% / 5.2%% / 45.4%%).\n");
  removeTree(Dir);
  return 0;
}
