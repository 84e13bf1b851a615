//===- sim/SimState.h - warmup-checkpoint sidecar format --------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `.esimstate` warmup-checkpoint sidecar: a versioned, length-
/// prefixed, SHA-256-sealed container for the timing model's state,
/// written by `esim -warmup-save` at the warming -> detailed phase
/// boundary, resumed from by `esim -warmup-load` and checked by
/// `everify -simstate` (DESIGN.md §16). It holds only what warming
/// changes: the predictors, caches, TLBs and fetch line of each core and
/// the L3. A warming model charges no statistic, advances no timer and
/// runs no kernel handler, so the rest is still as constructed at the
/// boundary, and a resume builds it afresh.
///
/// Layout (little-endian):
///
///   magic "ESIMST01" (8)        format marker
///   u32   format version        container layout version (currently 2)
///   str   config name           sim::MachineConfig::Name
///   32B   config fingerprint    sim::configFingerprint of that config
///   32B   input digest          the input's identity: store::artifactRoot
///                               of a binary image, pinballInputDigest of a
///                               pinball
///   u64   warmup instructions   warming length the boundary sits after
///   u64   checkpoint retired    global retired count at the boundary
///   u64   detailed budget       ROI budget recorded at save (0 = none)
///   u32   component count
///   per component:
///     str  component id         simStateComponentTable: "core0"..
///                               "coreN-1", "l3"
///     u32  component version    the table's payload version
///     blob payload              length-prefixed saveState() bytes
///   32B   seal                  SHA-256 over every preceding byte
///
/// Loads fail closed with the EFAULT.SIMSTATE.* taxonomy: MAGIC, VERSION,
/// TRUNCATED (structure overruns / trailing garbage), SEAL, CONFIG,
/// INPUT, COMPONENT (geometry/id mismatches), BUDGET (warmup >= region).
/// SimStateFile makes every one of those checks but BUDGET, which is
/// checkWarmupBudget.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SIM_SIMSTATE_H
#define ELFIE_SIM_SIMSTATE_H

#include "sim/Config.h"
#include "sim/TimingModel.h"
#include "support/Error.h"
#include "support/Sha256.h"

#include <cstdint>
#include <string>
#include <vector>

namespace elfie {
namespace sim {

/// Current container layout version. Version 2 made a binary input's
/// digest its artifact root; version-1 sidecars (a whole-image SHA-256)
/// are EFAULT.SIMSTATE.VERSION.
constexpr uint32_t SimStateFormatVersion = 2;

/// Header metadata binding a sidecar to its input, config, and boundary.
struct SimStateMeta {
  std::string ConfigName;
  Sha256Digest ConfigFP;
  Sha256Digest InputDigest;
  /// Warming instructions consumed before the boundary.
  uint64_t WarmupInstructions = 0;
  /// Global functional retired count at the boundary (ELFie startup +
  /// marker + warming for ELFie inputs).
  uint64_t CheckpointRetired = 0;
  /// Detailed ROI budget in effect at save time; 0 when unbounded.
  uint64_t DetailedBudget = 0;
};

/// Default sidecar path for an input: "<input>.esimstate", with a
/// trailing '/' (pinball directories) stripped first.
std::string simStatePathFor(std::string InputPath);

/// One entry of a machine's component table: the id the sidecar records
/// and the payload version this build writes and reads.
struct SimStateComponentId {
  std::string Id;
  uint32_t Version = 0;
};

/// The component table of \p Machine, in sidecar order: one "core<i>" per
/// core, then "l3". Saves write it, and loads and everify require exactly
/// it: a sidecar with any other entry is EFAULT.SIMSTATE.COMPONENT.
std::vector<SimStateComponentId>
simStateComponentTable(const MachineConfig &Machine);

/// A save in two steps, for a caller that learns the input digest after
/// the boundary: the sidecar of \p Model with its component table encoded
/// and its header and seal left blank, taken at the boundary...
std::vector<uint8_t> encodeSimStateComponents(const TimingModel &Model);

/// ... and that sidecar with the header of \p Meta (whose ConfigName is
/// the model's) and the seal filled in, written atomically to \p Path.
Error writeSimState(const std::string &Path, const SimStateMeta &Meta,
                    std::vector<uint8_t> Sidecar);

/// BUDGET: a warm-up of \p Warmup instructions must leave part of a
/// region of \p Region instructions to measure. The one spelling of the
/// rule, for esim, pinball2elf and everify.
Error checkWarmupBudget(uint64_t Warmup, uint64_t Region);

/// The one reader of a sidecar, for esim's resume and everify's SIMSTATE
/// pass. Called as open, checkConfig, checkInput, apply, it makes the
/// checks in DESIGN.md §16.3's order; a caller that defers checkInput must
/// report its INPUT failure ahead of any failure of apply.
class SimStateFile {
public:
  /// Reads \p Path and makes the checks on the file alone: MAGIC,
  /// VERSION, TRUNCATED, then SEAL.
  static Expected<SimStateFile> open(const std::string &Path);

  const SimStateMeta &meta() const { return Meta; }

  /// The component table as recorded: entry \p I's id and payload size.
  size_t numComponents() const { return Components.size(); }
  const std::string &componentId(size_t I) const { return Components[I].Id; }
  size_t payloadBytes(size_t I) const { return Components[I].Size; }

  /// CONFIG: the sidecar was taken under \p Machine.
  Error checkConfig(const MachineConfig &Machine) const;

  /// INPUT: the sidecar was taken on the input whose digest is
  /// \p InputDigest.
  Error checkInput(const Sha256Digest &InputDigest) const;

  /// The checks after INPUT (COMPONENT, component VERSION), then applies
  /// every component to \p Model.
  Error apply(TimingModel &Model) const;

private:
  /// One component-table entry: its payload is Bytes[Offset, +Size).
  struct Component {
    std::string Id;
    uint32_t Version = 0;
    size_t Offset = 0;
    size_t Size = 0;
  };

  Error fail(Error E) const;

  std::string Path;
  std::vector<uint8_t> Bytes;
  SimStateMeta Meta;
  std::vector<Component> Components;
};

} // namespace sim
} // namespace elfie

#endif // ELFIE_SIM_SIMSTATE_H
