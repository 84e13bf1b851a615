//===- sim/Frontend.h - execution-driven & pinball front-ends ---*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// esim front-ends:
///
///  * **Binary-driven** (gem5-SE / CoreSim style, §III-C): loads any guest
///    ELF executable — a regular program or a guest-target ELFie — and
///    feeds retired instructions to the TimingModel. ELFies are detected
///    by their `elfie_on_start` symbol: the front-end then starts the
///    detailed model at the ROI marker and takes the region budget from
///    the `elfie_region_length` symbol, with **no modification to the
///    simulator's interface** (the paper's headline ELFie property).
///
///  * **Pinball-driven** (Sniper+PinPlay style, §IV-B): constrained replay
///    of a pinball with the timing model attached; `Constrained = false`
///    gives the unconstrained (injection-less) comparison run.
///
/// Both run the same phases (DESIGN.md §16.4) as successive runs of one
/// functional engine: fast-forward to the ELFie's ROI marker, warm-up (or,
/// resuming, a functional skip), the checkpoint boundary, then the ROI.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SIM_FRONTEND_H
#define ELFIE_SIM_FRONTEND_H

#include "pinball/Pinball.h"
#include "sim/TimingModel.h"
#include "support/Error.h"
#include "vm/VM.h"

#include <span>
#include <string>
#include <vector>

namespace elfie {
namespace sim {

/// Simulation run controls.
struct RunControls {
  /// ROI budget in retired ring-3 instructions (global across cores).
  /// For ELFie inputs the auto-budget is elfie_region_length minus the
  /// warming length.
  uint64_t MaxInstructions = UINT64_MAX;
  /// Optional (PC, count) stop condition: end when the instruction at
  /// StopPC has executed StopPCCount times globally (paper §IV-B). It is
  /// armed in the VM (VM::stopAt) for the detailed phase only.
  uint64_t StopPC = 0;
  uint64_t StopPCCount = 0;
  /// Functional-warming length: the first N post-marker (for inputs other
  /// than ELFies, post-entry) instructions train caches/TLBs/predictors
  /// through the model's entry points while it is warming — no cycles,
  /// stats, or footprint — before detailed simulation starts at the
  /// boundary.
  /// UINT64_MAX means auto: the ELFie's embedded elfie_warmup_length
  /// symbol when present, else 0.
  uint64_t WarmupInstructions = UINT64_MAX;
  /// When set, serialize the model into this .esimstate sidecar at the
  /// warming -> detailed boundary (DESIGN.md §16).
  std::string SaveStatePath;
  /// When set, skip warming and restore the model from this sidecar at
  /// the boundary instead; loads fail closed with EFAULT.SIMSTATE.*.
  /// Mutually exclusive with SaveStatePath.
  std::string LoadStatePath;
};

/// The outcome of a simulation.
struct SimResult {
  SimStats Stats;
  vm::StopReason Reason = vm::StopReason::AllExited;
  /// Instructions simulated inside the ROI.
  uint64_t RoiRetired = 0;
  bool MarkerSeen = false;
  /// Set when the input was recognized as an ELFie.
  bool WasElfie = false;
  /// Decoded-block cache counters from the functional VM underneath the
  /// timing model. All zero when the cache is disabled.
  vm::DecodeCacheStats VMStats;
  /// Memory-substrate counters from the functional VM: attached image
  /// extents, copy-on-write faults, and private (dirty) bytes.
  vm::MemStats MemStats;
  /// JIT counters from the functional VM. Non-zero only with
  /// VMConfig::EnableJit (the library default, which `esim` uses): the
  /// pre-ROI fast-forward, warming, a -warmup-load resume's warm-up skip
  /// and the detailed phase run compiled. The detailed phase interprets
  /// while a StopPC condition is armed in the VM; on a multi-core binary,
  /// whose engine picks a thread before every instruction, only
  /// one-instruction blocks run compiled there.
  vm::JitStats JitStats;
  /// Instructions consumed by the warming phase (functionally skipped
  /// instructions when resuming from a checkpoint).
  uint64_t WarmupRetired = 0;
  /// Global functional retired count at the warming -> detailed boundary;
  /// 0 when no boundary was crossed. Identical between a cold/save run
  /// and a -warmup-load resume of the same input (the identity pin).
  uint64_t CheckpointRetired = 0;
  /// A sidecar was written / restored at the boundary.
  bool StateSaved = false;
  bool StateLoaded = false;
};

/// Simulates a guest ELF image (program or guest-target ELFie). The image
/// bytes are borrowed for the duration of the call (zero-copy load).
Expected<SimResult> simulateBinaryImage(std::span<const uint8_t> Image,
                                        const MachineConfig &Machine,
                                        RunControls Controls = {},
                                        vm::VMConfig VMConfig = {},
                                        std::vector<std::string> Args = {});

/// Convenience: mmap + simulate a file.
Expected<SimResult> simulateBinaryFile(const std::string &Path,
                                       const MachineConfig &Machine,
                                       RunControls Controls = {},
                                       vm::VMConfig VMConfig = {},
                                       std::vector<std::string> Args = {});

/// Simulates a pinball region: constrained (schedule + injection enforced)
/// or unconstrained (ELFie-like free run of the same checkpoint).
/// \p VMConfig seeds the replay VM's configuration (FsRoot, EnableJit...).
Expected<SimResult> simulatePinball(const pinball::Pinball &PB,
                                    const MachineConfig &Machine,
                                    bool Constrained,
                                    RunControls Controls = {},
                                    vm::VMConfig VMConfig = {});

} // namespace sim
} // namespace elfie

#endif // ELFIE_SIM_FRONTEND_H
