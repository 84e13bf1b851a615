//===- bench/table1_overhead.cpp - Table I reproduction -------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Regenerates paper Table I: the pinball/ELFie feature matrix plus the
/// run-time overhead row. The paper reports pinball replay overhead of
/// ~15x (single-threaded) and ~40x (multi-threaded) over a native run,
/// while ELFies run natively with no overhead beyond startup. Here the
/// replayer interprets EG64 while the ELFie executes translated x86-64,
/// so the absolute ratio is larger; the reproduced *shape* is: replay pays
/// a large multiple, MT replay pays more than ST replay, and the ELFie
/// pays only startup.
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchSupport.h"
#include "replay/Replayer.h"
#include "support/Subprocess.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace elfie;
using namespace elfie::bench;

namespace {

struct State {
  std::string Dir;
  pinball::Pinball ST, MT;
  std::string STElfie, MTElfie;
};
State *G = nullptr;

void setup() {
  G = new State();
  G->Dir = workDir("table1");
  // Single-threaded region from xz_like.
  std::string ST =
      buildWorkload(G->Dir, "xz_like", workloads::InputSet::Test);
  G->ST = exitOnError(
      pinball::captureRegion(pinball::fatRequest(ST, 100000, 400000)),
      "setup failed");
  // Multi-threaded region from lbm_s_like (8 threads, parallel phase).
  std::string MT =
      buildWorkload(G->Dir, "lbm_s_like", workloads::InputSet::Test);
  G->MT = exitOnError(
      pinball::captureRegion(pinball::fatRequest(MT, 400000, 500000)),
      "setup failed");

  core::Pinball2ElfOptions Opts;
  G->STElfie = G->Dir + "/st.elfie";
  G->MTElfie = G->Dir + "/mt.elfie";
  exitOnError(core::pinballToElfFile(G->ST, Opts, G->STElfie));
  exitOnError(core::pinballToElfFile(G->MT, Opts, G->MTElfie));
}

/// Replay options for the interpreted replayer the overhead rows measure
/// (the VM JITs by default).
replay::ReplayOptions interpreted() {
  replay::ReplayOptions Opts;
  Opts.Config.EnableJit = false;
  return Opts;
}

void runElfie(const std::string &Path) {
  SpawnSpec Spec;
  Spec.Argv = {Path};
  Spec.StdoutPath = "/dev/null";
  benchmark::DoNotOptimize(runCommand(Spec, 60000).hasValue());
}

void BM_NativeElfie_ST(benchmark::State &S) {
  for (auto _ : S)
    runElfie(G->STElfie);
}
BENCHMARK(BM_NativeElfie_ST)->Unit(benchmark::kMillisecond);

void BM_ConstrainedReplay_ST(benchmark::State &S) {
  for (auto _ : S) {
    auto R = replay::replayPinball(G->ST, interpreted());
    benchmark::DoNotOptimize(R.hasValue());
  }
}
BENCHMARK(BM_ConstrainedReplay_ST)->Unit(benchmark::kMillisecond);

void BM_InjectionlessReplay_ST(benchmark::State &S) {
  replay::ReplayOptions Opts = interpreted();
  Opts.Injection = false;
  for (auto _ : S) {
    auto R = replay::replayPinball(G->ST, Opts);
    benchmark::DoNotOptimize(R.hasValue());
  }
}
BENCHMARK(BM_InjectionlessReplay_ST)->Unit(benchmark::kMillisecond);

void BM_NativeElfie_MT(benchmark::State &S) {
  for (auto _ : S)
    runElfie(G->MTElfie);
}
BENCHMARK(BM_NativeElfie_MT)->Unit(benchmark::kMillisecond);

void BM_ConstrainedReplay_MT(benchmark::State &S) {
  for (auto _ : S) {
    auto R = replay::replayPinball(G->MT, interpreted());
    benchmark::DoNotOptimize(R.hasValue());
  }
}
BENCHMARK(BM_ConstrainedReplay_MT)->Unit(benchmark::kMillisecond);

void BM_ConstrainedReplay_ST_NoDecodeCache(benchmark::State &S) {
  replay::ReplayOptions Opts = interpreted();
  Opts.Config.EnableDecodeCache = false;
  for (auto _ : S) {
    auto R = replay::replayPinball(G->ST, Opts);
    benchmark::DoNotOptimize(R.hasValue());
  }
}
BENCHMARK(BM_ConstrainedReplay_ST_NoDecodeCache)
    ->Unit(benchmark::kMillisecond);

double timeOf(const std::function<void()> &Fn, unsigned Reps = 5) {
  // Warm once, then take the minimum of Reps.
  Fn();
  double Best = 1e18;
  for (unsigned I = 0; I < Reps; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    Fn();
    auto T1 = std::chrono::steady_clock::now();
    Best = std::min(Best,
                    std::chrono::duration<double>(T1 - T0).count());
  }
  return Best;
}

void printDecodeCacheComparison();
void printJitComparison();

void printMatrixAndOverhead() {
  printHeader("Table I: pinball vs. ELFie differences");
  printPaperNote("overhead over a native run: pinball replay ~15x (ST), "
                 "~40x (MT); ELFie: none except start-up code");

  std::printf("%-40s %-28s %s\n", "", "pinballs", "ELFies");
  auto Row = [](const char *A, const char *B, const char *C) {
    std::printf("%-40s %-28s %s\n", A, B, C);
  };
  Row("Allow constrained replay", "Yes", "No");
  Row("Work across OSes", "Yes", "No (Linux ELF)");
  Row("Handle all system calls", "Yes", "Most (stateless ones)");
  Row("Allow symbolic debugging", "Yes", "No (elfie_* symbols only)");
  Row("Run natively", "No", "Yes");
  Row("Exit gracefully", "Yes", "Yes (instruction countdown)");
  Row("Run with simulators", "Yes (modified)", "Yes (unmodified)");

  double NativeST = timeOf([] { runElfie(G->STElfie); });
  double ReplayST =
      timeOf([] { (void)replay::replayPinball(G->ST, interpreted()); }, 3);
  double NativeMT = timeOf([] { runElfie(G->MTElfie); });
  double ReplayMT =
      timeOf([] { (void)replay::replayPinball(G->MT, interpreted()); }, 3);

  std::printf("\nMeasured run times (region re-execution):\n");
  std::printf("  ST: native ELFie %.2f ms, constrained replay %.2f ms -> "
              "overhead %.1fx\n",
              NativeST * 1e3, ReplayST * 1e3, ReplayST / NativeST);
  std::printf("  MT: native ELFie %.2f ms, constrained replay %.2f ms -> "
              "overhead %.1fx\n",
              NativeMT * 1e3, ReplayMT * 1e3, ReplayMT / NativeMT);
  std::printf("\nShape check: replay overhead is a large multiple in both "
              "cases%s (paper: 15x ST / 40x MT).\n",
              ReplayMT / NativeMT > ReplayST / NativeST
                  ? ", and MT replay pays more than ST"
                  : "");

  printDecodeCacheComparison();
  printJitComparison();
}

/// Decoded-block cache before/after: single-threaded constrained replay
/// with the cache off vs. on. Checks the speedup claim and that the two
/// configurations retire the identical instruction stream.
void printDecodeCacheComparison() {
  printHeader("Replay VM decoded-block cache: before/after");

  replay::ReplayOptions Off = interpreted();
  Off.Config.EnableDecodeCache = false;
  replay::ReplayOptions On = interpreted();
  On.Config.EnableDecodeCache = true;

  auto ROff = replay::replayPinball(G->ST, Off);
  auto ROn = replay::replayPinball(G->ST, On);
  if (!ROff || !ROn) {
    std::fprintf(stderr, "decode-cache comparison replay failed\n");
    return;
  }
  bool Identical = ROff->Retired == ROn->Retired &&
                   ROff->RetiredPerThread == ROn->RetiredPerThread &&
                   ROff->Stdout == ROn->Stdout &&
                   ROff->Reason == ROn->Reason;

  double TOff =
      timeOf([&] { (void)replay::replayPinball(G->ST, Off); }, 5);
  double TOn =
      timeOf([&] { (void)replay::replayPinball(G->ST, On); }, 5);
  double InstOff = ROff->Retired / TOff / 1e6;
  double InstOn = ROn->Retired / TOn / 1e6;

  std::printf("  cache off: %.2f ms  (%.1f Minst/s)\n", TOff * 1e3,
              InstOff);
  std::printf("  cache on:  %.2f ms  (%.1f Minst/s)  hits %llu  misses "
              "%llu  invalidations %llu\n",
              TOn * 1e3, InstOn,
              static_cast<unsigned long long>(ROn->VMStats.Hits),
              static_cast<unsigned long long>(ROn->VMStats.Misses),
              static_cast<unsigned long long>(ROn->VMStats.Invalidations));
  std::printf("  speedup: %.2fx (target >= 1.5x), behavior %s (retired "
              "%llu vs %llu)\n",
              TOff / TOn, Identical ? "IDENTICAL" : "DIVERGED!",
              static_cast<unsigned long long>(ROff->Retired),
              static_cast<unsigned long long>(ROn->Retired));
}

/// Template-JIT before/after on the hot-loop region: single-threaded
/// constrained replay with interpreter + decode cache vs. compiled
/// dispatch (`ereplay -jit`). Checks the >= 2x throughput target and that
/// both configurations retire the identical instruction stream.
void printJitComparison() {
  printHeader("Replay VM template JIT: interpreter+cache vs. -jit");

  replay::ReplayOptions Interp = interpreted(); // decode cache on
  replay::ReplayOptions Jit;
  Jit.Config.EnableJit = true;

  auto RInterp = replay::replayPinball(G->ST, Interp);
  auto RJit = replay::replayPinball(G->ST, Jit);
  if (!RInterp || !RJit) {
    std::fprintf(stderr, "jit comparison replay failed\n");
    return;
  }
  bool Identical = RInterp->Retired == RJit->Retired &&
                   RInterp->RetiredPerThread == RJit->RetiredPerThread &&
                   RInterp->Stdout == RJit->Stdout &&
                   RInterp->Reason == RJit->Reason &&
                   RInterp->Divergence == RJit->Divergence;

  double TInterp =
      timeOf([&] { (void)replay::replayPinball(G->ST, Interp); }, 5);
  double TJit =
      timeOf([&] { (void)replay::replayPinball(G->ST, Jit); }, 5);
  double InstInterp = RInterp->Retired / TInterp / 1e6;
  double InstJit = RJit->Retired / TJit / 1e6;

  std::printf("  interp+cache: %.2f ms  (%.1f Minst/s)\n", TInterp * 1e3,
              InstInterp);
  std::printf("  -jit:         %.2f ms  (%.1f Minst/s)  blocks %llu  "
              "hits %llu  bailouts %llu  flushes %llu\n",
              TJit * 1e3, InstJit,
              static_cast<unsigned long long>(RJit->JitStats.Blocks),
              static_cast<unsigned long long>(RJit->JitStats.Hits),
              static_cast<unsigned long long>(RJit->JitStats.Bailouts),
              static_cast<unsigned long long>(RJit->JitStats.Flushes));
  std::printf("  speedup: %.2fx (target >= 2x), behavior %s (retired "
              "%llu vs %llu)\n",
              TInterp / TJit, Identical ? "IDENTICAL" : "DIVERGED!",
              static_cast<unsigned long long>(RInterp->Retired),
              static_cast<unsigned long long>(RJit->Retired));
}

void BM_JitReplay_ST(benchmark::State &S) {
  replay::ReplayOptions Opts;
  Opts.Config.EnableJit = true;
  for (auto _ : S) {
    auto R = replay::replayPinball(G->ST, Opts);
    benchmark::DoNotOptimize(R.hasValue());
  }
}
BENCHMARK(BM_JitReplay_ST)->Unit(benchmark::kMillisecond);

/// Peak-RSS probe: VmRSS from /proc/self/status, in bytes.
uint64_t currentRssBytes() {
  FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  uint64_t Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmRSS: %llu kB",
                    reinterpret_cast<unsigned long long *>(&Kb)) == 1)
      break;
  std::fclose(F);
  return Kb * 1024;
}

/// What the pre-substrate loader did to each page: a private heap copy.
void privateCopy(const pinball::PageRecord &P) {
  pinball::PageBytes &B = const_cast<pinball::PageRecord &>(P).Bytes;
  B.assign(B.begin(), B.end());
}

/// Memory-substrate before/after: pinball load time and resident-set cost
/// with the old copying loader (simulated by forcing every page private)
/// vs. the zero-copy mmap substrate, plus the replay COW counters that
/// show how little of the image a replay actually dirties.
void printMemorySubstrateComparison() {
  printHeader("Memory substrate: copying loader vs. mmap zero-copy");

  std::string PbDir = G->Dir + "/subst.pb";
  exitOnError(G->ST.save(PbDir));
  uint64_t ImageBytes = G->ST.imageBytes();

  auto LoadZeroCopy = [&] {
    auto PB = pinball::Pinball::load(PbDir);
    benchmark::DoNotOptimize(PB.hasValue());
  };
  auto LoadCopying = [&] {
    auto PB = pinball::Pinball::load(PbDir);
    if (PB)
      for (const pinball::PageRecord *P : PB->allPages())
        privateCopy(*P);
  };

  // RSS deltas while holding one loaded pinball. Each variant runs in a
  // freshly forked child so retained malloc arenas and page-cache state
  // from one variant cannot mask the other's footprint. Zero-copy's delta
  // is the resident file-backed mapping (evictable, shared); copying adds
  // a second, private heap copy of every page on top of it.
  auto RssDeltaInChild = [&](bool Copy) -> uint64_t {
    int Pipe[2];
    if (pipe(Pipe) != 0)
      return 0;
    pid_t Pid = fork();
    if (Pid == 0) {
      close(Pipe[0]);
      // malloc_trim before each reading returns freed parse-phase arena
      // pages to the OS, so the deltas compare LIVE bytes, not transient
      // scratch that both variants allocate identically.
      malloc_trim(0);
      uint64_t R0 = currentRssBytes();
      auto PB = pinball::Pinball::load(PbDir);
      if (PB && Copy)
        for (const pinball::PageRecord *P : PB->allPages())
          privateCopy(*P);
      malloc_trim(0);
      uint64_t D = currentRssBytes() - std::min(currentRssBytes(), R0);
      ssize_t W = write(Pipe[1], &D, sizeof(D));
      _exit(W == sizeof(D) ? 0 : 1);
    }
    close(Pipe[1]);
    uint64_t D = 0;
    if (read(Pipe[0], &D, sizeof(D)) != sizeof(D))
      D = 0;
    close(Pipe[0]);
    int Status = 0;
    waitpid(Pid, &Status, 0);
    return D;
  };
  uint64_t RZero = RssDeltaInChild(false);
  uint64_t RCopy = RssDeltaInChild(true);
  size_t NumPages = 0;
  {
    auto PB = pinball::Pinball::load(PbDir);
    if (PB)
      NumPages = PB->allPages().size();
  }

  double TZero = timeOf(LoadZeroCopy, 5);
  double TCopy = timeOf(LoadCopying, 5);

  std::printf("  image: %llu bytes in %zu pages\n",
              static_cast<unsigned long long>(ImageBytes), NumPages);
  std::printf("  load (zero-copy): %.2f ms, RSS delta ~%llu KiB "
              "(file-backed, evictable)\n",
              TZero * 1e3, static_cast<unsigned long long>(RZero / 1024));
  std::printf("  load (copying):   %.2f ms, RSS delta ~%llu KiB "
              "(+ a private heap copy of every page)\n",
              TCopy * 1e3, static_cast<unsigned long long>(RCopy / 1024));
  std::printf("  load speedup: %.2fx; peak-RSS saved by not copying: "
              "~%llu KiB (image is %llu KiB)\n",
              TCopy / TZero,
              static_cast<unsigned long long>(
                  (RCopy - std::min(RCopy, RZero)) / 1024),
              static_cast<unsigned long long>(ImageBytes / 1024));

  // Replay over the mmap-backed pinball: only written pages go private.
  auto PB = pinball::Pinball::load(PbDir);
  if (PB) {
    auto R = replay::replayPinball(*PB);
    if (R)
      std::printf("  constrained replay: %llu image extents, %llu cow "
                  "faults, %llu dirty bytes (%.1f%% of image)\n",
                  static_cast<unsigned long long>(R->MemStats.ImageExtents),
                  static_cast<unsigned long long>(R->MemStats.CowFaults),
                  static_cast<unsigned long long>(R->MemStats.DirtyBytes),
                  ImageBytes ? 100.0 * R->MemStats.DirtyBytes / ImageBytes
                             : 0.0);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  setup();
  printMatrixAndOverhead();
  printMemorySubstrateComparison();
  benchmark::Initialize(&Argc, Argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
