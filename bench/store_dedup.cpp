//===- bench/store_dedup.cpp - cross-region dedup + verify cost -----------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// The artifact-store report (DESIGN.md §15): captures several regions of
/// one workload, emits each as an ELFie, ingests them into one estore
/// pool, and prints
///
///   * pool bytes vs the artifacts stored naively (one full copy each) —
///     the cross-region dedup win the ELF-aware chunking is built for,
///   * the cost of integrity: verified reassembly (every distinct chunk
///     re-hashed plus the whole-artifact digest check) vs a plain file
///     read.
///
/// Runs as a labelled ctest (`ctest -L "bench|store"`) and fails if dedup
/// or byte-identity regress, so the storage claim stays a tested claim.
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchSupport.h"
#include "core/Pinball2Elf.h"
#include "store/Artifact.h"

#include <chrono>
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

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       T0)
      .count();
}

} // namespace

int main() {
  std::string Dir = workDir("store_dedup");
  std::string Prog =
      buildWorkload(Dir, "xz_like", workloads::InputSet::Test);

  // Several disjoint regions of one execution: the deployment shape the
  // store targets (N checkpoints of one workload sharing code/data pages).
  std::printf("store_dedup: capture + emit 4 regions\n");
  auto Segs = exitOnError(pinball::captureRegions(
      pinball::fatRequest(Prog), {{100000, 100000},
                                  {300000, 100000},
                                  {500000, 100000},
                                  {700000, 100000}}));

  auto Pool = exitOnError(store::ChunkStore::open(Dir + "/pool"));
  uint64_t NaiveBytes = 0;
  std::vector<std::vector<uint8_t>> Images;
  for (size_t I = 0; I < Segs.size(); ++I) {
    core::Pinball2ElfOptions Opts;
    auto Image = exitOnError(core::pinballToElf(Segs[I], Opts));
    NaiveBytes += Image.size();
    std::string Name = formatString("region%zu.elfie", I);
    exitOnError(store::putArtifact(Pool, Name, Image));
    Images.push_back(std::move(Image));
  }

  auto Stats = exitOnError(Pool.stats());
  double Ratio = Stats.ChunkBytes
                     ? static_cast<double>(Stats.ArtifactBytes) /
                           static_cast<double>(Stats.ChunkBytes)
                 : 0.0;
  std::printf("store_dedup: %zu artifacts, naive %llu bytes, pool %llu "
              "bytes (dedup %.2fx, saved %.1f%%)\n",
              Images.size(),
              static_cast<unsigned long long>(NaiveBytes),
              static_cast<unsigned long long>(Stats.ChunkBytes), Ratio,
              NaiveBytes
                  ? 100.0 * (1.0 - static_cast<double>(Stats.ChunkBytes) /
                                       static_cast<double>(NaiveBytes))
                  : 0.0);
  check(Stats.ArtifactBytes == NaiveBytes, "pool accounts every byte");
  check(Stats.ChunkBytes < NaiveBytes,
        "cross-region dedup: pool smaller than naive storage");

  // Verified-load cost: reassemble each artifact (a digest per distinct
  // chunk, then the root over the chunk list) vs a plain read of the
  // materialized file.
  for (size_t I = 0; I < Images.size(); ++I)
    exitOnError(store::materializeArtifact(
        Pool, formatString("region%zu.elfie", I),
        Dir + formatString("/region%zu.out", I)));

  constexpr int Reps = 20;
  auto T0 = std::chrono::steady_clock::now();
  uint64_t VerifiedBytes = 0;
  for (int R = 0; R < Reps; ++R)
    for (size_t I = 0; I < Images.size(); ++I) {
      auto L = exitOnError(store::loadArtifact(
          Pool, formatString("region%zu.elfie", I)));
      VerifiedBytes += L.size();
      if (R == 0)
        check(L == Images[I],
              formatString("region%zu verified load is byte-identical", I)
                  .c_str());
    }
  double VerifySecs = secondsSince(T0);

  T0 = std::chrono::steady_clock::now();
  uint64_t PlainBytes = 0;
  for (int R = 0; R < Reps; ++R)
    for (size_t I = 0; I < Images.size(); ++I) {
      auto B = exitOnError(
          readFileBytes(Dir + formatString("/region%zu.out", I)));
      PlainBytes += B.size();
    }
  double PlainSecs = secondsSince(T0);

  std::printf("store_dedup: verified load %.1f MB/s, plain read %.1f MB/s "
              "(verify overhead %.1fx)\n",
              VerifiedBytes / VerifySecs / 1e6,
              PlainBytes / PlainSecs / 1e6,
              PlainSecs > 0 ? VerifySecs / PlainSecs : 0.0);
  check(VerifiedBytes == PlainBytes, "both paths read the same bytes");

  removeTree(Dir);
  if (Failures) {
    std::printf("store_dedup: %d FAILURE(S)\n", Failures);
    return 1;
  }
  std::printf("store_dedup: all checks passed\n");
  return 0;
}
