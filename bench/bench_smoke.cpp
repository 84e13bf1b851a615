//===- bench/bench_smoke.cpp - fast bench-pipeline smoke test -------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// A seconds-scale ctest (label `bench`) that drives one example pipeline —
/// capture -> save -> mmap load -> constrained replay -> ELFie emission —
/// under the memory-substrate counters, and fails on any regression the
/// full benchmarks would only catch after minutes:
///
///   * the loaded pinball's image attaches as extents (ImageExtents > 0)
///   * replay dirties less than the whole image (the zero-copy win)
///   * emission from the mmap-backed pinball is byte-identical to emission
///     from the freshly captured one
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchSupport.h"
#include "core/Pinball2Elf.h"
#include "replay/Replayer.h"

#include <cstdio>

using namespace elfie;
using namespace elfie::bench;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  std::printf("  [%s] %s\n", Ok ? "ok" : "FAIL", What);
  if (!Ok)
    ++Failures;
}

} // namespace

int main() {
  std::string Dir = workDir("smoke");
  std::string Prog =
      buildWorkload(Dir, "xz_like", workloads::InputSet::Test);

  std::printf("bench_smoke: capture\n");
  pinball::Pinball Captured = exitOnError(
      pinball::captureRegion(pinball::fatRequest(Prog, 100000, 100000)));

  std::printf("bench_smoke: save + mmap load\n");
  std::string PbDir = Dir + "/pb";
  exitOnError(Captured.save(PbDir));
  auto Loaded = exitOnError(pinball::Pinball::load(PbDir));
  uint64_t ImageBytes = Loaded.imageBytes();
  check(ImageBytes > 0, "loaded pinball has an image");

  std::printf("bench_smoke: constrained replay under counters\n");
  auto R = exitOnError(replay::replayPinball(Loaded));
  check(R.Divergence.empty(), "replay matches the log");
  check(R.MemStats.ImageExtents > 0,
        "image pages attached as extents (zero-copy load)");
  check(R.MemStats.DirtyBytes < ImageBytes,
        "replay dirtied less than the whole image");
  std::printf("    %llu extents, %llu cow faults, %llu / %llu bytes "
              "dirty\n",
              static_cast<unsigned long long>(R.MemStats.ImageExtents),
              static_cast<unsigned long long>(R.MemStats.CowFaults),
              static_cast<unsigned long long>(R.MemStats.DirtyBytes),
              static_cast<unsigned long long>(ImageBytes));

  std::printf("bench_smoke: emission byte-identity\n");
  core::Pinball2ElfOptions Opts;
  Opts.TargetKind = core::Pinball2ElfOptions::Target::Guest;
  auto FromCapture = exitOnError(core::pinballToElf(Captured, Opts));
  auto FromLoad = exitOnError(core::pinballToElf(Loaded, Opts));
  check(FromCapture == FromLoad,
        "ELFie from mmap-backed pinball is byte-identical");

  removeTree(Dir);
  std::printf("bench_smoke: %s\n", Failures ? "FAILED" : "passed");
  return Failures ? 1 : 0;
}
