//===- tools/efleetd_main.cpp - fault-tolerant campaign daemon ------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// efleetd serves campaign submissions over a Unix-domain socket: multiple
// clients submit manifests into named namespaces; the daemon multiplexes
// every campaign's FleetEngine over one poll(2) loop and a global worker
// budget. Crash-recoverable end to end: SIGKILL the daemon at any instant
// and the next start replays the per-campaign journals — zero lost, zero
// duplicated jobs. See DESIGN.md §14 and `efleet -connect` for the client.
//
//===----------------------------------------------------------------------===//

#include "fault/FaultPlan.h"
#include "sched/Service.h"
#include "support/CommandLine.h"
#include "support/Subprocess.h"

#include <cstdio>
#include <cstring>
#include <signal.h>
#include <unistd.h>

using namespace elfie;
using namespace elfie::sched;

static void onDrainSignal(int) { requestDrain(); }

int main(int Argc, char **Argv) {
  CommandLine CL("efleetd",
                 "long-lived campaign service: accepts manifest "
                 "submissions over a Unix-domain socket, runs them through "
                 "crash-recoverable worker pools, and survives SIGKILL at "
                 "any instant");
  CL.addString("root", "efleetd-root",
               "state root (socket, lock, and ns/<ns>/<campaign>/ state "
               "live here); existing campaigns resume on start");
  CL.addString("socket", "", "socket path (default: <root>/efleetd.sock)");
  CL.addString("bindir", "",
               "directory holding the driven tools (default: efleetd's "
               "own directory)");
  CL.addInt("workers", 4, "global concurrent worker budget");
  CL.addInt("max-campaigns", 8, "active-campaign quota per namespace");
  CL.addInt("max-jobs", 4096, "non-terminal-job quota per namespace");
  CL.addInt("retries", 5, "default max attempts per job");
  CL.addInt("backoff-ms", 200, "base retry backoff in milliseconds");
  CL.addInt("backoff-max-ms", 5000, "backoff cap in milliseconds");
  CL.addInt("seed", 0, "seed for deterministic backoff jitter");
  CL.addInt("timeout", 0,
            "per-job timeout override in seconds (0 = budget-scaled)");
  CL.addInt("grace", 5, "drain grace period in seconds");
  CL.addInt("poll-ms", 20, "event-loop poll cadence in milliseconds");
  CL.addInt("probe-ms", 500,
            "disk-recovery probe cadence while admission is paused");
  CL.addString("store", "",
               "estore pool root backing estore://<artifact> campaign "
               "targets (materialized digest-verified at campaign start)");
  CL.addFlag("verbose", false, "narrate engine activity");
  exitOnError(CL.parse(Argc, Argv));
  if (!CL.positional().empty()) {
    std::fprintf(stderr, "usage: efleetd [options]\n");
    return ExitUsage;
  }

  // The daemon's own journal appends go through the fault hook so the
  // chaos harness can fail or kill it at an exact record; workers get
  // ELFIE_FAULT_SPEC stripped unless a manifest reinjects it.
  fault::installFaultHookFromEnv();

  ServiceOptions Opts;
  Opts.Root = CL.getString("root");
  Opts.SocketPath = CL.getString("socket");
  Opts.BinDir = CL.getString("bindir").empty() ? selfBinDir(Argv[0])
                                               : CL.getString("bindir");
  Opts.Workers = static_cast<uint32_t>(CL.getInt("workers"));
  Opts.Quotas.MaxCampaigns =
      static_cast<uint32_t>(CL.getInt("max-campaigns"));
  Opts.Quotas.MaxJobs = static_cast<uint64_t>(CL.getInt("max-jobs"));
  Opts.Retries = static_cast<uint32_t>(CL.getInt("retries"));
  Opts.BackoffBaseMs = static_cast<uint64_t>(CL.getInt("backoff-ms"));
  Opts.BackoffCapMs = static_cast<uint64_t>(CL.getInt("backoff-max-ms"));
  Opts.Seed = static_cast<uint64_t>(CL.getInt("seed"));
  Opts.TimeoutSecs = static_cast<uint64_t>(CL.getInt("timeout"));
  Opts.GraceSecs = static_cast<uint64_t>(CL.getInt("grace"));
  Opts.PollMs = static_cast<uint64_t>(CL.getInt("poll-ms"));
  Opts.DiskProbeMs = static_cast<uint64_t>(CL.getInt("probe-ms"));
  Opts.StoreRoot = CL.getString("store");
  Opts.Verbose = CL.getFlag("verbose");
  if (Opts.Workers == 0 || Opts.Retries == 0) {
    std::fprintf(stderr, "efleetd: -workers and -retries must be >= 1\n");
    return ExitUsage;
  }

  // SIGINT/SIGTERM request a graceful drain (concurrent deliveries
  // collapse into one idempotent flag); SIGPIPE is ignored inside
  // Service::init so vanished clients cannot kill the daemon.
  struct sigaction SA;
  ::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onDrainSignal;
  ::sigaction(SIGINT, &SA, nullptr);
  ::sigaction(SIGTERM, &SA, nullptr);

  Service S(Opts);
  exitOnError(S.init(), "efleetd");
  exitOnError(S.run(), "efleetd");
  return ExitSuccess;
}
