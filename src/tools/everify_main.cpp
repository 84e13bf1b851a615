//===- tools/everify_main.cpp - standalone ELFie static verifier ----------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analyze/Passes.h"
#include "sched/Campaign.h"
#include "support/CommandLine.h"

#include <cstdio>

using namespace elfie;

int main(int Argc, char **Argv) {
  CommandLine CL("everify",
                 "statically verifies an emitted ELFie: layout, thread "
                 "contexts, budgets, permissions, startup reachability, "
                 "sysstate proxies");
  CL.addString("pinball", "",
               "source pinball directory; enables budget/permission/"
               "context cross-checks");
  CL.addString("sysstate", "",
               "sysstate directory (with workdir/ and BRK.log)");
  CL.addFlag("json", false, "print the report as JSON on stdout");
  CL.addInt("markers", -1,
            "1 if the ELFie was emitted with ROI markers, 0 if not, "
            "-1 unknown (skips the marker check)");
  CL.addString("manifest", "",
               "append this verification as a job line to the given efleet "
               "manifest instead of verifying");
  CL.addString("store", "",
               "estore pool root; enables the STORE.* integrity pass "
               "(manifest seals, chunk digests, reassembly)");
  CL.addString("store-name", "",
               "pool artifact to verify (cross-checked byte-identical "
               "with the elfie argument); default: every manifest");
  CL.addString("simstate", "",
               ".esimstate warmup-checkpoint sidecar; enables the "
               "SIMSTATE.* pass: esim's own checks (seal, config, "
               "component table, warming budget, input digest vs the "
               "elfie argument)");
  exitOnError(CL.parse(Argc, Argv));
  if (CL.positional().size() != 1) {
    std::fprintf(stderr, "usage: everify [options] elfie\n");
    return ExitUsage;
  }

  if (!CL.getString("manifest").empty()) {
    sched::Job J;
    J.Id = sched::jobIdForTarget("verify", CL.positional()[0]);
    J.A = sched::Action::Verify;
    J.Target = CL.positional()[0];
    if (!CL.getString("pinball").empty())
      J.ExtraArgs = {"-pinball", CL.getString("pinball")};
    exitOnError(sched::appendManifestLine(CL.getString("manifest"), J),
                "everify");
    std::fprintf(stderr, "everify: appended job %s to %s\n", J.Id.c_str(),
                 CL.getString("manifest").c_str());
    return ExitSuccess;
  }

  elf::ELFReader Elf = exitOnError(elf::ELFReader::open(CL.positional()[0]));

  pinball::Pinball PB;
  analyze::AnalysisInput In;
  In.Elf = &Elf;
  In.Kind = analyze::AnalysisInput::classify(Elf);
  In.SysstateDir = CL.getString("sysstate");
  In.ExpectMarkers = static_cast<int>(CL.getInt("markers"));
  In.StoreRoot = CL.getString("store");
  In.StoreName = CL.getString("store-name");
  In.ArtifactPath = CL.positional()[0];
  In.SimStatePath = CL.getString("simstate");
  if (!CL.getString("pinball").empty()) {
    PB = exitOnError(pinball::Pinball::load(CL.getString("pinball")));
    In.PB = &PB;
  }

  analyze::PassManager PM;
  analyze::addStandardPasses(PM);
  analyze::Report Report;
  PM.runAll(In, Report);

  if (CL.getFlag("json")) {
    std::fputs(Report.renderJSON().c_str(), stdout);
  } else {
    std::printf("everify: %s: %s\n", CL.positional()[0].c_str(),
                analyze::elfKindName(In.Kind));
    std::fputs(Report.renderText().c_str(), stdout);
  }
  return Report.errorCount() ? 1 : 0;
}
