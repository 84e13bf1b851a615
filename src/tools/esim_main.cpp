//===- tools/esim_main.cpp - timing simulator driver ----------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/Frontend.h"
#include "sim/SimState.h"
#include "support/CommandLine.h"

#include <cstdio>

using namespace elfie;

int main(int Argc, char **Argv) {
  CommandLine CL("esim",
                 "cycle-level simulation of guest binaries/ELFies "
                 "(execution-driven) or pinballs (replay-driven)");
  CL.addString("config", "nehalem",
               "machine: gainestown8 | nehalem | haswell | skylake | "
               "skylake-fs");
  CL.addFlag("pinball", false, "treat the input as a pinball directory");
  CL.addFlag("constrained", true,
             "pinball mode: enforce the recorded schedule + injection");
  CL.addInt("maxinsns", -1, "ROI instruction budget");
  CL.addString("fsroot", ".", "guest filesystem root");
  CL.addFlag("vm:stats", false,
             "print the functional VM's decode-cache, memory and JIT "
             "statistics");
  CL.addInt("warmup", -1,
            "functional-warming length before detailed simulation "
            "(default: the ELFie's embedded elfie_warmup_length, else 0)");
  CL.addFlag("warmup-save", false,
             "serialize the simulator at the warming -> detailed boundary "
             "into the .esimstate sidecar (DESIGN.md §16)");
  CL.addFlag("warmup-load", false,
             "resume from the .esimstate sidecar instead of re-warming");
  CL.addString("warmup-state", "",
               "sidecar path (default: <input>.esimstate)");
  exitOnError(CL.parse(Argc, Argv));
  if (CL.positional().empty()) {
    std::fprintf(stderr, "usage: esim [options] binary|pinball-dir "
                         "[args...]\n");
    return ExitUsage;
  }
  if (CL.getFlag("warmup-save") && CL.getFlag("warmup-load")) {
    std::fprintf(stderr,
                 "esim: -warmup-save and -warmup-load are mutually "
                 "exclusive\n");
    return ExitUsage;
  }

  sim::MachineConfig Machine;
  if (!sim::configByName(CL.getString("config"), Machine))
    exitOnError(makeError("unknown config '%s'",
                          CL.getString("config").c_str()));

  sim::RunControls Controls;
  if (CL.getInt("maxinsns") >= 0)
    Controls.MaxInstructions = static_cast<uint64_t>(CL.getInt("maxinsns"));
  if (CL.getInt("warmup") >= 0)
    Controls.WarmupInstructions = static_cast<uint64_t>(CL.getInt("warmup"));
  std::string StatePath = CL.getString("warmup-state");
  if (StatePath.empty())
    StatePath = sim::simStatePathFor(CL.positional()[0]);
  if (CL.getFlag("warmup-save"))
    Controls.SaveStatePath = StatePath;
  else if (CL.getFlag("warmup-load"))
    Controls.LoadStatePath = StatePath;

  Expected<sim::SimResult> R = makeError("unreachable");
  vm::VMConfig VMC;
  VMC.FsRoot = CL.getString("fsroot");
  if (CL.getFlag("pinball")) {
    pinball::Pinball PB =
        exitOnError(pinball::Pinball::load(CL.positional()[0]));
    R = sim::simulatePinball(PB, Machine, CL.getFlag("constrained"),
                             Controls, VMC);
  } else {
    std::vector<std::string> Args(CL.positional().begin(),
                                  CL.positional().end());
    R = sim::simulateBinaryFile(CL.positional()[0], Machine, Controls, VMC,
                                Args);
  }
  sim::SimResult Result = exitOnError(std::move(R));
  std::printf("=== esim (%s) ===\n", Machine.Name.c_str());
  if (Result.WasElfie)
    std::printf("input recognized as an ELFie (ROI from marker, budget "
                "from elfie_region_length)\n");
  if (Result.WarmupRetired || Result.StateSaved || Result.StateLoaded)
    std::printf("warmup: %llu instructions, boundary at global retired "
                "%llu\n",
                static_cast<unsigned long long>(Result.WarmupRetired),
                static_cast<unsigned long long>(Result.CheckpointRetired));
  if (Result.StateSaved)
    std::printf("warmup checkpoint saved to %s\n", StatePath.c_str());
  if (Result.StateLoaded)
    std::printf("warmup checkpoint loaded from %s\n", StatePath.c_str());
  std::fputs(Result.Stats.summary().c_str(), stdout);
  if (CL.getFlag("vm:stats"))
    std::fputs(vm::renderVMStats("", Result.VMStats, Result.MemStats,
                                 Result.JitStats)
                   .c_str(),
               stdout);
  return 0;
}
