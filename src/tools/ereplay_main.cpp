//===- tools/ereplay_main.cpp - constrained replayer driver ---------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "replay/Replayer.h"
#include "sched/Campaign.h"
#include "support/CommandLine.h"
#include "support/Watchdog.h"

#include <cstdio>

using namespace elfie;

int main(int Argc, char **Argv) {
  CommandLine CL("ereplay", "replays a pinball: constrained by default, "
                            "or injection-less (-replay:injection 0)");
  CL.addFlag("replay:injection", true,
             "inject syscall side effects and enforce the recorded thread "
             "order (0 mimics an ELFie run)");
  CL.addInt("maxinsns", -1, "stop after N instructions");
  CL.addString("fsroot", ".", "guest filesystem root (injection=0 mode)");
  CL.addFlag("vm:cache", true, "use the decoded-block cache");
  CL.addFlag("jit", false,
             "compile hot blocks to host code and dispatch them natively "
             "(x86-64 hosts; implies -vm:cache)");
  CL.addFlag("vm:stats", false,
             "print decode-cache, memory and JIT statistics after replay");
  CL.addFlag("watchdog", true,
             "arm a budget-scaled SIGALRM guard around the replay (fires "
             "as exit 125, like the native ELFie watchdog)");
  CL.addString("manifest", "",
               "append this replay as a job line to the given efleet "
               "manifest instead of replaying");
  exitOnError(CL.parse(Argc, Argv));
  if (CL.positional().size() != 1) {
    std::fprintf(stderr, "usage: ereplay [options] pinball-dir\n");
    return ExitUsage;
  }

  if (!CL.getString("manifest").empty()) {
    sched::Job J;
    J.Id = sched::jobIdForTarget("replay", CL.positional()[0]);
    J.A = sched::Action::Replay;
    J.Target = CL.positional()[0];
    if (!CL.getFlag("replay:injection"))
      J.ExtraArgs = {"-replay:injection", "0"};
    exitOnError(sched::appendManifestLine(CL.getString("manifest"), J),
                "ereplay");
    std::fprintf(stderr, "ereplay: appended job %s to %s\n", J.Id.c_str(),
                 CL.getString("manifest").c_str());
    return ExitSuccess;
  }

  pinball::Pinball PB =
      exitOnError(pinball::Pinball::load(CL.positional()[0]));
  // Interpreted replay is far slower than native execution: scale the
  // guard from the region budget at a pessimistic 2M instr/s.
  if (CL.getFlag("watchdog"))
    armBudgetWatchdog("ereplay",
                      scaledWatchdogSeconds(PB.Meta.RegionLength, 2000000ull));
  replay::ReplayOptions Opts;
  Opts.Injection = CL.getFlag("replay:injection");
  Opts.Config.FsRoot = CL.getString("fsroot");
  Opts.Config.EnableDecodeCache = CL.getFlag("vm:cache");
  Opts.Config.EnableJit = CL.getFlag("jit");
  if (Opts.Config.EnableJit)
    Opts.Config.EnableDecodeCache = true; // the JIT promotes from the cache
  if (CL.getInt("maxinsns") >= 0)
    Opts.MaxInstructions = static_cast<uint64_t>(CL.getInt("maxinsns"));

  auto R = exitOnError(replay::replayPinball(PB, Opts));
  // Replay finished within budget: cancel the pending alarm and restore
  // the default SIGALRM disposition before reporting.
  disarmBudgetWatchdog();
  std::fprintf(stderr, "ereplay: retired %llu instructions (region %llu)\n",
               static_cast<unsigned long long>(R.Retired),
               static_cast<unsigned long long>(PB.Meta.RegionLength));
  for (const auto &[Tid, N] : R.RetiredPerThread) {
    const pinball::ThreadRegs *T = PB.threadRegs(Tid);
    std::fprintf(stderr, "ereplay:   thread %u: %llu (recorded %llu)\n",
                 Tid, static_cast<unsigned long long>(N),
                 static_cast<unsigned long long>(T ? T->RegionIcount : 0));
  }
  if (CL.getFlag("vm:stats"))
    std::fputs(vm::renderVMStats("ereplay: ", R.VMStats, R.MemStats,
                                 R.JitStats)
                   .c_str(),
               stderr);
  if (!R.Divergence.empty()) {
    std::fprintf(stderr, "ereplay: DIVERGENCE: %s\n", R.Divergence.c_str());
    const replay::DivergenceInfo &D = R.Diverge;
    if (D.diverged())
      std::fprintf(stderr,
                   "ereplay: DIVERGENCE: record %llu expected tid %u "
                   "nr %llu, observed tid %u nr %llu\n",
                   static_cast<unsigned long long>(D.RecordIndex),
                   D.ExpectedTid,
                   static_cast<unsigned long long>(D.ExpectedNr),
                   D.ObservedTid,
                   static_cast<unsigned long long>(D.ObservedNr));
    return ExitDivergence;
  }
  return ExitSuccess;
}
