//===- analyze/SimStatePass.cpp - warmup-checkpoint verification ----------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// SIMSTATE.*: static verification of a `.esimstate` warmup-checkpoint
/// sidecar (DESIGN.md §16) without running the simulator. Checks the
/// container structure and seal (via the same parser `esim -warmup-load`
/// rejects with), that the recorded machine config exists and its
/// fingerprint matches, that the warming budget fits inside the ELFie's
/// region, that the component table is exactly what the config implies
/// (stats + one core per configured core + l3), and — when the sidecar
/// sits next to the ELFie being verified — that the input digest binds to
/// those exact bytes. A sidecar this pass accepts is one the simulator
/// will resume from; one it rejects carries the same EFAULT.SIMSTATE.*
/// reason the runtime would fail closed with.
///
//===----------------------------------------------------------------------===//

#include "analyze/Passes.h"

#include "sim/SimState.h"
#include "support/FileIO.h"
#include "support/Format.h"

using namespace elfie;
using namespace elfie::analyze;

namespace {

/// Maps a runtime EFAULT.SIMSTATE.<X> error code onto the pass's
/// SIMSTATE.<X> finding code, defaulting to the structural bucket.
std::string findingCodeFor(const std::string &ErrCode) {
  const std::string Prefix = "EFAULT.SIMSTATE.";
  if (ErrCode.compare(0, Prefix.size(), Prefix) == 0)
    return "SIMSTATE." + ErrCode.substr(Prefix.size());
  return "SIMSTATE.TRUNCATED";
}

class SimStatePass : public Pass {
public:
  const char *name() const override { return "simstate"; }
  const char *description() const override {
    return "warmup-checkpoint sidecar: seal, config fingerprint, warming "
           "budget, component table, input digest";
  }

  bool applicable(const AnalysisInput &In, std::string &WhyNot) const override {
    if (In.SimStatePath.empty()) {
      WhyNot = "no warmup checkpoint given (-simstate)";
      return false;
    }
    return true;
  }

  void run(const AnalysisInput &In, Report &Out) const override {
    // Structure + seal, through the exact parser the simulator loads with:
    // magic, format version, length-prefixed component table, trailing
    // SHA-256 seal over every preceding byte.
    auto Info = sim::inspectSimState(In.SimStatePath);
    if (!Info) {
      Error E = Info.takeError();
      Out.add(Severity::Error, findingCodeFor(E.code()), 0, E.str());
      return;
    }

    // The recorded config must exist in this build and fingerprint
    // identically: a resume against a drifted machine model would warm
    // the wrong structures.
    sim::MachineConfig Machine;
    bool Known = false;
    if (!sim::configByName(Info->Meta.ConfigName, Machine)) {
      Out.add(Severity::Error, "SIMSTATE.CONFIG", 0,
              formatString("unknown machine config '%s'",
                           Info->Meta.ConfigName.c_str()));
    } else if (sim::configFingerprint(Machine) != Info->Meta.ConfigFP) {
      Out.add(Severity::Error, "SIMSTATE.CONFIG", 0,
              formatString("config fingerprint mismatch for '%s': the "
                           "sidecar was written by a different parameter "
                           "set",
                           Info->Meta.ConfigName.c_str()));
    } else {
      Known = true;
    }

    // Component table: exactly the config's, as the simulator writes it —
    // nothing missing, nothing extra, in canonical order.
    if (Known) {
      std::vector<sim::SimStateComponentId> Want =
          sim::simStateComponentTable(Machine);
      if (Info->Components.size() != Want.size()) {
        Out.add(Severity::Error, "SIMSTATE.COMPONENT", 0,
                formatString("component table has %zu entries, config "
                             "'%s' implies %zu",
                             Info->Components.size(),
                             Info->Meta.ConfigName.c_str(), Want.size()));
      } else {
        for (size_t I = 0; I < Want.size(); ++I)
          if (Info->Components[I].Id != Want[I].Id)
            Out.add(Severity::Error, "SIMSTATE.COMPONENT", 0,
                    formatString("component %zu is '%s', expected '%s'",
                                 I, Info->Components[I].Id.c_str(),
                                 Want[I].Id.c_str()));
      }
    }

    // Warming budget vs the ELFie's region symbol: warmup must leave a
    // non-empty detailed stretch, and a recorded detailed budget must fit
    // in what remains.
    const auto *Region =
        In.Elf ? In.Elf->findSymbol("elfie_region_length") : nullptr;
    if (Region) {
      if (Info->Meta.WarmupInstructions >= Region->Value)
        Out.add(Severity::Error, "SIMSTATE.BUDGET", 0,
                formatString("warmup %llu must be smaller than the region "
                             "length %llu",
                             static_cast<unsigned long long>(
                                 Info->Meta.WarmupInstructions),
                             static_cast<unsigned long long>(
                                 Region->Value)));
      else if (Info->Meta.DetailedBudget &&
               Info->Meta.DetailedBudget >
                   Region->Value - Info->Meta.WarmupInstructions)
        Out.add(Severity::Error, "SIMSTATE.BUDGET", 0,
                formatString("detailed budget %llu exceeds the %llu "
                             "instructions left after warming",
                             static_cast<unsigned long long>(
                                 Info->Meta.DetailedBudget),
                             static_cast<unsigned long long>(
                                 Region->Value -
                                 Info->Meta.WarmupInstructions)));
    } else {
      Out.add(Severity::Warning, "SIMSTATE.BUDGET", 0,
              "no elfie_region_length symbol to bound the warming budget "
              "against");
    }

    // Input binding: the digest must cover the ELFie bytes being
    // verified, or the simulator will reject the resume outright.
    if (!In.ArtifactPath.empty()) {
      auto Bytes = readFileBytes(In.ArtifactPath);
      if (!Bytes) {
        Out.add(Severity::Warning, "SIMSTATE.INPUT", 0,
                formatString("cannot read '%s' to check the input "
                             "digest: %s",
                             In.ArtifactPath.c_str(),
                             Bytes.message().c_str()));
      } else if (Sha256::digest(*Bytes) != Info->Meta.InputDigest) {
        Out.add(Severity::Error, "SIMSTATE.INPUT", 0,
                formatString("input digest does not match '%s': the "
                             "checkpoint belongs to a different ELFie",
                             In.ArtifactPath.c_str()));
      }
    }

    Out.add(Severity::Note, "SIMSTATE.SUMMARY", 0,
            formatString("checkpoint '%s': config %s, warmup %llu, "
                         "boundary at %llu, %zu components",
                         In.SimStatePath.c_str(),
                         Info->Meta.ConfigName.c_str(),
                         static_cast<unsigned long long>(
                             Info->Meta.WarmupInstructions),
                         static_cast<unsigned long long>(
                             Info->Meta.CheckpointRetired),
                         Info->Components.size()));
  }
};

} // namespace

std::unique_ptr<Pass> analyze::makeSimStatePass() {
  return std::make_unique<SimStatePass>();
}
