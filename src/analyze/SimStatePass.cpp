//===- analyze/SimStatePass.cpp - warmup-checkpoint verification ----------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// SIMSTATE.*: static verification of a `.esimstate` warmup-checkpoint
/// sidecar (DESIGN.md §16) through the simulator's own reader,
/// sim::SimStateFile: the container structure and seal, the recorded
/// machine config, the component table and every payload (applied to a
/// scratch timing model of that config, as a resume applies them), the
/// warming budget against the ELFie's region, and, for the ELFie being
/// verified, the input digest. A sidecar this pass accepts is one the
/// simulator will resume from under the config it records; one it rejects
/// carries the same EFAULT.SIMSTATE.* reason and text the runtime fails
/// closed with.
///
//===----------------------------------------------------------------------===//

#include "analyze/Passes.h"

#include "sim/SimState.h"
#include "store/Artifact.h"
#include "support/FileIO.h"
#include "support/Format.h"

using namespace elfie;
using namespace elfie::analyze;

namespace {

/// The pass's finding code for a rejection by the simulator's reader:
/// esim's code without the "EFAULT." prefix (EFAULT.IO.OPEN for a missing
/// sidecar is IO.OPEN), so both consumers name it alike. An uncoded error
/// falls in the structural bucket.
std::string findingCodeFor(const std::string &ErrCode) {
  const std::string Prefix = "EFAULT.";
  if (ErrCode.compare(0, Prefix.size(), Prefix) == 0)
    return ErrCode.substr(Prefix.size());
  return "SIMSTATE.TRUNCATED";
}

/// A rejection by the simulator's reader as a finding, with its text.
void report(Report &Out, const Error &E) {
  Out.add(Severity::Error, findingCodeFor(E.code()), 0, E.message());
}

class SimStatePass : public Pass {
public:
  const char *name() const override { return "simstate"; }
  const char *description() const override {
    return "warmup-checkpoint sidecar: seal, config fingerprint, component "
           "table and payloads, warming budget, input digest";
  }

  bool applicable(const AnalysisInput &In, std::string &WhyNot) const override {
    if (In.SimStatePath.empty()) {
      WhyNot = "no warmup checkpoint given (-simstate)";
      return false;
    }
    return true;
  }

  void run(const AnalysisInput &In, Report &Out) const override {
    // Magic, format version, structure and seal.
    auto File = sim::SimStateFile::open(In.SimStatePath);
    if (!File) {
      report(Out, File.takeError());
      return;
    }
    const sim::SimStateMeta &Meta = File->meta();

    // The config and the component table. esim resumes under the config it
    // is given; here the sidecar names it, so an unknown name is this
    // pass's own finding.
    sim::MachineConfig Machine;
    if (!sim::configByName(Meta.ConfigName, Machine)) {
      Out.add(Severity::Error, "SIMSTATE.CONFIG", 0,
              formatString("unknown machine config '%s'",
                           Meta.ConfigName.c_str()));
    } else if (Error E = File->checkConfig(Machine)) {
      report(Out, E);
    } else {
      sim::TimingModel Scratch(Machine);
      if (Error E = File->apply(Scratch))
        report(Out, E);
    }

    // Warming budget vs the ELFie's region symbol: warmup must leave a
    // non-empty detailed stretch, and a recorded detailed budget must fit
    // in what remains.
    const auto *Region =
        In.Elf ? In.Elf->findSymbol("elfie_region_length") : nullptr;
    if (!Region)
      Out.add(Severity::Warning, "SIMSTATE.BUDGET", 0,
              "no elfie_region_length symbol to bound the warming budget "
              "against");
    else if (Error E =
                 sim::checkWarmupBudget(Meta.WarmupInstructions, Region->Value))
      report(Out, E);
    else if (Meta.DetailedBudget &&
             Meta.DetailedBudget > Region->Value - Meta.WarmupInstructions)
      Out.add(Severity::Error, "SIMSTATE.BUDGET", 0,
              formatString("detailed budget %llu exceeds the %llu "
                           "instructions left after warming",
                           static_cast<unsigned long long>(
                               Meta.DetailedBudget),
                           static_cast<unsigned long long>(
                               Region->Value - Meta.WarmupInstructions)));

    // Input binding: the digest must be the identity (the artifact root)
    // of the ELFie bytes being verified, or the simulator will reject the
    // resume outright.
    if (!In.ArtifactPath.empty()) {
      auto Bytes = readFileBytes(In.ArtifactPath);
      if (!Bytes)
        Out.add(Severity::Warning, "SIMSTATE.INPUT", 0,
                formatString("cannot read '%s' to check the input "
                             "digest: %s",
                             In.ArtifactPath.c_str(),
                             Bytes.message().c_str()));
      else if (Error E = File->checkInput(store::artifactRoot(*Bytes)))
        report(Out, E);
    }

    Out.add(Severity::Note, "SIMSTATE.SUMMARY", 0,
            formatString("checkpoint '%s': config %s, warmup %llu, "
                         "boundary at %llu, %zu components",
                         In.SimStatePath.c_str(), Meta.ConfigName.c_str(),
                         static_cast<unsigned long long>(
                             Meta.WarmupInstructions),
                         static_cast<unsigned long long>(
                             Meta.CheckpointRetired),
                         File->numComponents()));
  }
};

} // namespace

std::unique_ptr<Pass> analyze::makeSimStatePass() {
  return std::make_unique<SimStatePass>();
}
