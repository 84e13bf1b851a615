//===- tools/ecfg_main.cpp - standalone region-code CFG analyzer ----------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// ecfg recovers a conservative control-flow graph of the region code in a
/// pinball directory or an emitted ELFie, seeded from the captured thread
/// PCs, and runs the dataflow passes of src/analyze/cfg over it: code
/// integrity, syscall footprint vs. SYSSTATE provisioning, static memory
/// footprint, SMC detection, and JIT translatability (DESIGN.md §13).
///
///   ecfg region.pb/        # analyze a pinball in place
///   ecfg region.elfie      # analyze an emitted ELFie
///   ecfg -json region.pb   # machine-readable report (schema'd like everify)
///   ecfg -dot region.elfie > cfg.dot   # Graphviz rendering of the CFG
///
//===----------------------------------------------------------------------===//

#include "analyze/cfg/CodePasses.h"
#include "pinball/Pinball.h"
#include "support/CommandLine.h"
#include "support/FileIO.h"

#include <cstdio>

using namespace elfie;
using namespace elfie::analyze;

int main(int Argc, char **Argv) {
  CommandLine CL("ecfg",
                 "recovers the region-code CFG from a pinball or ELFie and "
                 "reports code integrity, syscall/memory footprint, SMC, "
                 "and JIT translatability");
  CL.addString("pinball", "",
               "when analyzing an ELFie: the source pinball directory, for "
               "seed PCs and the syscall-provisioning diff");
  CL.addFlag("json", false, "print the report as JSON on stdout");
  CL.addFlag("dot", false, "print the CFG as Graphviz dot on stdout");
  exitOnError(CL.parse(Argc, Argv));
  if (CL.positional().size() != 1) {
    std::fprintf(stderr, "usage: ecfg [options] <pinball-dir|elfie>\n");
    return ExitUsage;
  }
  const std::string &Target = CL.positional()[0];

  cfg::AnalyzeOptions Opts;
  cfg::Provisioning Prov;
  const cfg::Provisioning *ProvPtr = nullptr;
  std::vector<uint64_t> Seeds;
  cfg::CodeAnalysis A;

  if (isDirectory(Target)) {
    // Pinball: walk the captured memory image from the thread PCs.
    pinball::Pinball PB = exitOnError(pinball::Pinball::load(Target));
    cfg::PinballCodeSource CS(PB);
    std::set<uint64_t> Seen;
    for (const pinball::ThreadRegs &T : PB.Threads)
      if (Seen.insert(T.PC).second)
        Seeds.push_back(T.PC);
    Prov = cfg::provisioningFromPinball(PB);
    ProvPtr = &Prov;
    // A thin pinball only captured the touched pages; don't call a
    // reference outside them corruption.
    Opts.CompleteImage = PB.isFat();
    A = cfg::analyzeCode(CS, Seeds, Opts, ProvPtr);
  } else {
    elf::ELFReader Elf = exitOnError(elf::ELFReader::open(Target));
    ElfKind Kind = AnalysisInput::classify(Elf);
    if (Kind == ElfKind::Unknown) {
      std::fprintf(stderr, "ecfg: %s: not a pinball directory or ELFie\n",
                   Target.c_str());
      return ExitUsage;
    }
    pinball::Pinball PB;
    const pinball::Pinball *PBPtr = nullptr;
    if (!CL.getString("pinball").empty()) {
      PB = exitOnError(pinball::Pinball::load(CL.getString("pinball")));
      PBPtr = &PB;
      Prov = cfg::provisioningFromPinball(PB);
      ProvPtr = &Prov;
    }
    cfg::ElfCodeSource CS(Elf);
    Seeds = cfg::elfieSeeds(Elf, Kind, PBPtr);
    if (Seeds.empty()) {
      std::fprintf(stderr, "ecfg: %s: no seed PCs found\n", Target.c_str());
      return ExitFailure;
    }
    A = cfg::analyzeCode(CS, Seeds, Opts, ProvPtr);
  }

  if (CL.getFlag("dot"))
    std::fputs(cfg::renderCodeDot(A).c_str(), stdout);
  else if (CL.getFlag("json"))
    std::fputs(cfg::renderCodeJSON(A).c_str(), stdout);
  else {
    std::printf("ecfg: %s\n", Target.c_str());
    std::fputs(cfg::renderCodeText(A).c_str(), stdout);
  }
  return A.count(Severity::Error) ? 1 : 0;
}
