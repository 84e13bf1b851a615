//===- examples/mt_simulation.cpp - §IV-B as an example -------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Multi-threaded simulation with ELFies (paper §IV-B): capture an
/// 8-thread region from an OpenMP-style workload, then simulate it on the
/// Gainestown-like 8-core model in the two ways the paper compares:
///
///   * as a **pinball** — constrained replay, thread order pre-determined,
///     instruction counts match the recording exactly, but the enforced
///     order can introduce artificial stalls;
///   * as an **ELFie** — totally unrestricted, threads progress at
///     timing-driven speeds, spin loops really spin, so the results are
///     more realistic (and the retired count is higher).
///
/// Build & run:   ./build/examples/mt_simulation [workload]
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchSupport.h"

#include <cstdio>

using namespace elfie;
using namespace elfie::bench;

int main(int Argc, char **Argv) {
  std::string Name = Argc > 1 ? Argv[1] : "lbm_s_like";
  const workloads::WorkloadInfo *Info = workloads::find(Name);
  if (!Info) {
    std::fprintf(stderr, "unknown workload '%s'\n", Name.c_str());
    return 1;
  }

  std::string Dir = "/tmp/elfie_example_mt";
  removeTree(Dir);
  exitOnError(createDirectories(Dir));
  std::string Prog = buildWorkload(Dir, Name, workloads::InputSet::Train);

  std::printf("[1] capturing an %s region of %s as a fat pinball...\n",
              Info->MultiThreaded ? "8-thread" : "single-thread",
              Name.c_str());
  auto Seg =
      pinball::captureRegion(pinball::fatRequest(Prog, 1200000, 1200000));
  if (!Seg) {
    std::fprintf(stderr, "capture failed: %s\n", Seg.message().c_str());
    return 1;
  }
  const pinball::Pinball &PB = *Seg;
  std::printf("    -> %zu threads; per-thread budgets:", PB.Threads.size());
  for (const auto &T : PB.Threads)
    std::printf(" %llu", static_cast<unsigned long long>(T.RegionIcount));
  std::printf("\n");

  sim::MachineConfig Machine = sim::makeGainestown8();

  std::printf("[2] constrained pinball simulation (recorded thread "
              "order, injected syscalls)...\n");
  auto PBRes = sim::simulatePinball(PB, Machine, /*Constrained=*/true);
  exitOnError(PBRes ? Error::success() : makeError("%s",
                                                   PBRes.message().c_str()));
  std::printf("    -> retired %llu, cycles %.0f, IPC %.2f\n",
              static_cast<unsigned long long>(PBRes->RoiRetired),
              PBRes->Stats.totalCycles(), PBRes->Stats.ipc());

  std::printf("[3] pinball2elf -> guest ELFie; unconstrained "
              "execution-driven simulation...\n");
  core::Pinball2ElfOptions Opts;
  Opts.TargetKind = core::Pinball2ElfOptions::Target::Guest;
  auto Elfie = core::pinballToElf(PB, Opts);
  exitOnError(Elfie ? Error::success()
                    : makeError("%s", Elfie.message().c_str()));
  std::string ElfiePath = Dir + "/region.guest.elfie";
  exitOnError(writeFile(ElfiePath, Elfie->data(), Elfie->size()));
  std::printf("    -> %s (consumable by esim/evm with zero modification)\n",
              ElfiePath.c_str());

  sim::RunControls Controls; // budget auto-detected from the ELFie symbols
  auto ElfieRes = sim::simulateBinaryImage(*Elfie, Machine, Controls);
  exitOnError(ElfieRes ? Error::success()
                       : makeError("%s", ElfieRes.message().c_str()));
  std::printf("    -> retired %llu, cycles %.0f, IPC %.2f "
              "(ELFie auto-detected: %s)\n",
              static_cast<unsigned long long>(ElfieRes->RoiRetired),
              ElfieRes->Stats.totalCycles(), ElfieRes->Stats.ipc(),
              ElfieRes->WasElfie ? "yes" : "no");

  std::printf("\nConstrained vs unconstrained: the pinball simulation "
              "replays exactly %llu recorded instructions; the ELFie "
              "simulation lets the %zu threads run free, so waiting "
              "happens in real spin loops and the mix of instructions "
              "differs (paper Fig. 11).\n",
              static_cast<unsigned long long>(PB.Meta.RegionLength),
              PB.Threads.size());
  return 0;
}
