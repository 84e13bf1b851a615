//===- tests/sched/ChaosTest.cpp - seeded chaos episodes over efleetd -----===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Drives the echaos harness: each episode boots a real efleetd, submits
/// campaigns from concurrent clients, then kills the daemon (SIGKILL),
/// streamers, and workers at seeded random instants, restarts, waits for
/// every campaign to seal, and verifies the journal-derived invariants
/// from disk alone — exactly one terminal record per manifest job, no
/// terminals for unknown jobs, every journal sealed complete, every acked
/// submit durable. A clean episode exits 0; any violation is printed and
/// fails the seed.
///
/// The default build runs a handful of seeds per configuration; building
/// with -DELFIE_SLOW_TESTS=ON runs the 100-seed soak in both
/// configurations (the acceptance sweep, >= 200 episodes).
///
//===----------------------------------------------------------------------===//

#include "../common/TestHelpers.h"
#include "support/FileIO.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <string>
#include <unistd.h>

using namespace elfie;

#ifndef ELFIE_BIN_DIR
#define ELFIE_BIN_DIR ""
#endif

#ifdef ELFIE_SLOW_TESTS
static constexpr int ChaosSeeds = 100;
#else
static constexpr int ChaosSeeds = 3;
#endif

namespace {

using test::CmdResult;
using test::runCmd;

/// One episode. Roots are per-pid + per-seed + per-config so parallel
/// ctest shards never collide (and short: the root carries a socket).
CmdResult runEpisode(int Seed, const std::string &ExtraFlags) {
  std::string Root = testing::TempDir() +
                     formatString("/ec.%d.%d%s", getpid(), Seed,
                                  ExtraFlags.empty() ? "" : ".k");
  removeTree(Root);
  CmdResult R = runCmd("", formatString(
      "%s/echaos -root %s -bindir %s -seed %d %s", ELFIE_BIN_DIR,
      Root.c_str(), ELFIE_BIN_DIR, Seed, ExtraFlags.c_str()));
  if (R.ExitCode == 0)
    removeTree(Root); // keep failed episodes on disk for forensics
  return R;
}

/// The full fault mix: daemon SIGKILL + restart, streamer kills, late
/// submits, worker crashes (the flaky/crash jobs in the generated
/// manifests) — across seeds.
TEST(ChaosE2E, SeededEpisodesWithDaemonKillsStayClean) {
  for (int Seed = 1; Seed <= ChaosSeeds; ++Seed) {
    CmdResult R = runEpisode(Seed, "");
    ASSERT_EQ(R.ExitCode, 0) << "seed " << Seed << ":\n" << R.Output;
    EXPECT_NE(R.Output.find("clean"), std::string::npos)
        << "seed " << Seed << ":\n" << R.Output;
  }
}

/// Same episodes without daemon kills: the daemon must also survive an
/// entire episode of client/worker chaos in one uninterrupted run.
TEST(ChaosE2E, SeededEpisodesDaemonLongevityStayClean) {
  for (int Seed = 1; Seed <= ChaosSeeds; ++Seed) {
    CmdResult R = runEpisode(1000 + Seed, "-no-daemon-kill");
    ASSERT_EQ(R.ExitCode, 0) << "seed " << 1000 + Seed << ":\n" << R.Output;
  }
}

} // namespace
