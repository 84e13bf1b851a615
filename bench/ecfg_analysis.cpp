//===- bench/ecfg_analysis.cpp - static analysis vs replay cost -----------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Times ecfg's whole-region static analysis (CFG recovery + dataflow
/// passes, DESIGN.md §13) against a full replay of the same pinball, per
/// workload. The point of static checkpoint triage is that it is orders of
/// magnitude cheaper than executing the region; this harness regenerates
/// that claim as a table:
///
///   workload      insts  blocks  analyze_ms  replay_ms  speedup
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchSupport.h"
#include "analyze/cfg/CodePasses.h"
#include "replay/Replayer.h"

#include <chrono>
#include <cstdio>

using namespace elfie;
using namespace elfie::bench;
using namespace elfie::analyze;

namespace {

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

void runOne(const char *Name, workloads::InputSet Input, uint64_t Start,
            uint64_t End) {
  std::string Dir = workDir(std::string("ecfg_") + Name);
  std::string Prog = buildWorkload(Dir, Name, Input);
  pinball::Pinball PB = exitOnError(
      pinball::captureRegion(pinball::fatRequest(Prog, Start, End - Start)));

  auto T0 = std::chrono::steady_clock::now();
  cfg::PinballCodeSource CS(PB);
  std::vector<uint64_t> Seeds;
  for (const pinball::ThreadRegs &T : PB.Threads)
    Seeds.push_back(T.PC);
  cfg::AnalyzeOptions Opts;
  Opts.CompleteImage = PB.isFat();
  cfg::Provisioning Prov = cfg::provisioningFromPinball(PB);
  cfg::CodeAnalysis A = cfg::analyzeCode(CS, Seeds, Opts, &Prov);
  double AnalyzeMs = msSince(T0);

  T0 = std::chrono::steady_clock::now();
  auto R = exitOnError(replay::replayPinball(PB));
  double ReplayMs = msSince(T0);

  std::printf("%-12s %8llu %7llu %11.2f %10.2f %8.1fx%s\n", Name,
              static_cast<unsigned long long>(A.Report.Insts),
              static_cast<unsigned long long>(A.Report.Blocks), AnalyzeMs,
              ReplayMs, AnalyzeMs > 0 ? ReplayMs / AnalyzeMs : 0.0,
              R.Divergence.empty() ? "" : "  [replay DIVERGED]");
  removeTree(Dir);
}

} // namespace

int main() {
  std::printf("ecfg static analysis vs region replay (test inputs)\n");
  std::printf("%-12s %8s %7s %11s %10s %8s\n", "workload", "insts",
              "blocks", "analyze_ms", "replay_ms", "speedup");
  runOne("xz_like", workloads::InputSet::Test, 100000, 600000);
  runOne("mcf_like", workloads::InputSet::Test, 100000, 600000);
  runOne("lbm_like", workloads::InputSet::Test, 100000, 600000);
  return 0;
}
