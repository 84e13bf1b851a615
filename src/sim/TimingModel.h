//===- sim/TimingModel.h - interval-style OoO timing model ------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// esim's core timing model in the spirit of Sniper's interval simulation
/// ([2], [3]): base dispatch cost per instruction plus serial penalties for
/// branch mispredictions and memory-hierarchy misses, where the
/// out-of-order window (ROB/width) hides part of each miss latency.
/// Per-core private L1I/L1D/L2, shared L3 with write-invalidate
/// coherence, TLBs with page-walk costs, and a next-line L2 prefetcher.
///
/// Full-system mode (Table IV) injects a synthetic kernel: every system
/// call and a periodic timer interrupt run ring-0 handler instructions
/// that flow through the same caches/TLBs and touch kernel data, so OS
/// interference on user-level IPC, footprint, and prefetcher behaviour is
/// modelled rather than ignored.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SIM_TIMINGMODEL_H
#define ELFIE_SIM_TIMINGMODEL_H

#include "sim/BranchPredictor.h"
#include "sim/Cache.h"
#include "sim/Config.h"
#include "sim/SimComponent.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

namespace elfie {
namespace sim {

/// Per-core statistics.
struct CoreStats {
  uint64_t Instructions = 0;      ///< ring-3 retired
  uint64_t Ring0Instructions = 0; ///< synthetic-kernel retired
  double Cycles = 0;
  double Ring0Cycles = 0;
  uint64_t Branches = 0;
  uint64_t BranchMispredicts = 0;
  uint64_t L1DAccesses = 0, L1DMisses = 0;
  uint64_t L2Misses = 0, L3Misses = 0;
  uint64_t DTLBMisses = 0, ITLBMisses = 0;
  uint64_t Prefetches = 0;
  uint64_t CoherenceInvalidations = 0;
  uint64_t Syscalls = 0;

  double ipc() const {
    return Cycles > 0 ? static_cast<double>(Instructions + Ring0Instructions) /
                            Cycles
                      : 0;
  }
  double cpi() const {
    uint64_t N = Instructions + Ring0Instructions;
    return N ? Cycles / static_cast<double>(N) : 0;
  }
};

/// Whole-machine statistics.
struct SimStats {
  std::vector<CoreStats> Cores;
  /// Distinct 4 KiB data pages touched (demand + prefetch).
  std::set<uint64_t> UserDataPages;
  std::set<uint64_t> KernelDataPages;
  double FreqGHz = 1.0;

  /// Adds \p Page to the kernel or user page set. A repeat of the page
  /// added last to that set costs a compare, not a tree walk.
  void addDataPage(uint64_t Page, bool Kernel) {
    uint64_t &Last = Kernel ? LastKernelPage : LastUserPage;
    if (Page == Last)
      return;
    (Kernel ? KernelDataPages : UserDataPages).insert(Page);
    Last = Page;
  }

  uint64_t totalInstructions() const;
  uint64_t totalRing0Instructions() const;
  /// Machine cycles = the maximum over cores (cores run concurrently).
  double totalCycles() const;
  double ipc() const;
  double cpi() const;
  double runtimeSeconds() const {
    return totalCycles() / (FreqGHz * 1e9);
  }
  uint64_t dataFootprintBytes() const {
    return (UserDataPages.size() + KernelDataPages.size()) * 4096;
  }
  /// Formats a human-readable summary.
  std::string summary() const;

  /// Sidecar serialization (the "stats" component of an .esimstate file).
  /// The container frames and versions them like every other payload.
  void save(StateWriter &W) const;
  Error load(StateReader &R);

private:
  /// addDataPage's memo of the page it added last to each set, which is
  /// in that set while the sets only grow; UINT64_MAX is no page (a page
  /// number is at most 2^52 - 1). load() resets it with the sets.
  uint64_t LastUserPage = UINT64_MAX;
  uint64_t LastKernelPage = UINT64_MAX;
};

/// One core's complete microarchitectural state: predictors, private
/// caches, TLBs, and the fetch/kernel bookkeeping the timing model keeps
/// per core. Exposed at namespace scope (rather than hidden inside
/// TimingModel) so checkpoint code and tests can save and load it without
/// friend hacks.
struct CoreState {
  unsigned Index = 0;
  GSharePredictor BP;
  BTB Btb;
  Cache L1I, L1D, L2;
  Cache Dtlb, Itlb;
  /// Borrowed from SimStats (not serialized; re-wired on construction).
  CoreStats *Stats = nullptr;
  uint64_t LastFetchLine = UINT64_MAX;
  /// Ring-3 instructions since the last timer interrupt.
  uint64_t SinceTimer = 0;
  /// Rotating base for the synthetic kernel handler's data walks.
  uint64_t KernelCursor = 0;
  bool InKernel = false;

  explicit CoreState(const CoreConfig &C)
      : BP(C.BPBits), Btb(C.BTBBits), L1I(C.L1I.SizeBytes, C.L1I.Assoc),
        L1D(C.L1D.SizeBytes, C.L1D.Assoc), L2(C.L2.SizeBytes, C.L2.Assoc),
        Dtlb(uint64_t(C.DTLBEntries) * TLBPageSize, TLBAssoc, TLBPageSize),
        Itlb(uint64_t(C.ITLBEntries) * TLBPageSize, TLBAssoc, TLBPageSize) {}

  /// The "core<i>" payload version in the sidecar's component table. It
  /// covers the nested predictor, BTB, cache and TLB layouts too.
  static constexpr uint32_t StateVersion = 2;
  void saveState(StateWriter &W) const;
  Error loadState(StateReader &R);
};

/// The timing model. Event-driven from a functional front-end: call
/// instruction()/memoryAccess()/controlTransfer()/syscall() in retirement
/// order per core.
///
/// The same entry points serve both phases of a simulation. A measuring
/// model (the default) charges cycles, SimStats counters and footprint
/// pages and runs the synthetic kernel. A warming model (setWarming)
/// makes the very same structure updates (fills, LRU movement, prefetches,
/// coherence invalidations, predictor training) but charges nothing,
/// advances no timer and runs no kernel handler, so a warm-up leaves the
/// machine hot without perturbing the measured ROI. The phase is not
/// serialized: a checkpoint is taken where warming ends.
class TimingModel {
public:
  explicit TimingModel(const MachineConfig &Config);
  ~TimingModel();

  void instruction(unsigned Core, uint64_t PC);
  void memoryAccess(unsigned Core, uint64_t Addr, uint32_t Size,
                    bool IsWrite);
  void controlTransfer(unsigned Core, uint64_t FromPC, uint64_t ToPC,
                       bool Taken, bool IsIndirect);
  void syscall(unsigned Core, uint64_t Nr);

  void setWarming(bool W) { Warming = W; }

  const MachineConfig &config() const { return Config; }
  SimStats &stats() { return Stats; }
  const SimStats &stats() const { return Stats; }

  /// Checkpoint enumeration: the per-core states plus the shared L3.
  unsigned numCores() const { return Config.NumCores; }
  CoreState &core(unsigned I) { return *Cores[I]; }
  const CoreState &core(unsigned I) const { return *Cores[I]; }
  Cache &l3() { return *L3; }
  const Cache &l3() const { return *L3; }

private:
  /// The hierarchy lookups both phases share, instantiated once per phase
  /// so that warming does none of the charging work: with \p Measure they
  /// count SimStats misses and footprint pages. Each updates all levels
  /// and returns the miss latency beyond L1, which only a measuring
  /// caller charges. \p Kernel routes footprint accounting.
  template <bool Measure>
  unsigned dataAccess(CoreState &C, uint64_t Addr, bool IsWrite,
                      bool Kernel);
  template <bool Measure> unsigned fetchAccess(CoreState &C, uint64_t PC);
  void runKernelHandler(CoreState &C, unsigned NumInsts, uint64_t Seed);
  void chargeStall(CoreState &C, unsigned Latency, bool IsStore);

  MachineConfig Config;
  SimStats Stats;
  std::vector<std::unique_ptr<CoreState>> Cores;
  std::unique_ptr<Cache> L3;
  /// The phase: the front-end warms the model around the warm-up run.
  bool Warming = false;
};

} // namespace sim
} // namespace elfie

#endif // ELFIE_SIM_TIMINGMODEL_H
