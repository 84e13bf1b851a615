//===- tests/sched/FleetTest.cpp - efleet end-to-end tests ----------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Drives the efleet campaign runner as a subprocess, the way an operator
/// would: an acceptance campaign with injected transient faults and a
/// deterministic divergence, SIGKILL-mid-campaign resume (via the fault
/// harness's kill op on the runner's own journal appends), a randomized
/// kill-point resume sweep, and SIGTERM graceful drain.
///
/// The sweep runs ELFIE_FLEET_SWEEP_SEEDS seeds by default; building with
/// -DELFIE_SLOW_TESTS=ON raises it to 50.
///
//===----------------------------------------------------------------------===//

#include "../common/TestHelpers.h"
#include "sched/Journal.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/Subprocess.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <signal.h>
#include <unistd.h>

using namespace elfie;
using namespace elfie::sched;

#ifndef ELFIE_BIN_DIR
#define ELFIE_BIN_DIR ""
#endif

#ifdef ELFIE_SLOW_TESTS
static constexpr int SweepSeeds = 50;
#else
static constexpr int SweepSeeds = 6;
#endif

namespace {

using test::CmdResult;
using test::runCmd;

std::string binPath(const std::string &Tool) {
  return std::string(ELFIE_BIN_DIR) + "/" + Tool;
}

/// Shared fixtures (a pinball, an emitted ELFie, a divergent pinball),
/// built once: every campaign in this file reuses them read-only.
class FleetE2E : public testing::Test {
protected:
  static void SetUpTestSuite() {
    // Per-process root: ctest runs each TEST as its own process, possibly
    // in parallel, and every process rebuilds this fixture — a shared
    // path would race (removeTree under a sibling mid-recording).
    Root = testing::TempDir() + "/elfie_fleet_e2e." +
           std::to_string(getpid());
    removeTree(Root);
    ASSERT_FALSE(createDirectories(Root).isError());

    // A small looping program (same shape the tools test uses). The
    // gettid syscall inside the loop guarantees sel.log records land in
    // the recorded region, which the divergence fixture below corrupts.
    std::string Src = R"(
_start:
  ldi r9, 0
loop:
  muli r2, r2, 13
  addi r2, r2, 7
  ldi r7, 10
  syscall
  addi r9, r9, 1
  slti r3, r9, 50000
  bnez r3, loop
  ldi r7, 1
  ldi r1, 0
  syscall
)";
    ASSERT_FALSE(writeFileText(Root + "/p.s", Src).isError());
    auto R = runCmd("", formatString("%s -o %s/p.elf %s/p.s",
                                     binPath("easm").c_str(), Root.c_str(),
                                     Root.c_str()));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;
    R = runCmd("", formatString("%s -region:start 50000 -region:length "
                                "100000 -log:fat 1 -o %s/r.pb %s/p.elf",
                                binPath("elogger").c_str(), Root.c_str(),
                                Root.c_str()));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;
    R = runCmd("", formatString("%s -o %s/r.elfie %s/r.pb",
                                binPath("pinball2elf").c_str(), Root.c_str(),
                                Root.c_str()));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;
    // A guest ELFie for the sim-action warmup campaign (esim simulates
    // EG64 guest code, not the native x86 ELFie above).
    R = runCmd("", formatString("%s -target guest -o %s/g.elfie %s/r.pb",
                                binPath("pinball2elf").c_str(), Root.c_str(),
                                Root.c_str()));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;

    // A divergent pinball: same region, but the first sel.log record's Tid
    // byte is corrupted, so constrained replay hits a syscall-order
    // mismatch and exits 3.
    R = runCmd("", formatString("cp -r %s/r.pb %s/div.pb", Root.c_str(),
                                Root.c_str()));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;
    auto Sel = readFileBytes(Root + "/div.pb/sel.log");
    ASSERT_TRUE(Sel.hasValue()) << Sel.message();
    ASSERT_GT(Sel->size(), 16u);
    (*Sel)[16] = 99; // Tid of the first syscall record
    ASSERT_FALSE(writeFile(Root + "/div.pb/sel.log", Sel->data(),
                           Sel->size())
                     .isError());
  }

  static void TearDownTestSuite() { removeTree(Root); }

  void SetUp() override {
    Dir = Root + "/" +
          testing::UnitTest::GetInstance()->current_test_info()->name();
    removeTree(Dir);
    ASSERT_FALSE(createDirectories(Dir).isError());
  }

  CmdResult runFleetCmd(const std::string &Env, const std::string &Flags,
                        const std::string &Manifest) {
    return runCmd(Env, formatString("%s -bindir %s -out %s/out %s %s",
                                    binPath("efleet").c_str(), ELFIE_BIN_DIR,
                                    Dir.c_str(), Flags.c_str(),
                                    Manifest.c_str()));
  }

  /// Parses the campaign journal into ordered records.
  std::vector<JournalRecord> journalRecords() {
    std::vector<JournalRecord> Recs;
    auto Text = readFileText(Dir + "/out/journal.jsonl");
    if (!Text)
      return Recs;
    for (const std::string &Line : splitString(*Text, '\n')) {
      JournalRecord Rec;
      if (!trimString(Line).empty() && parseJournalRecord(Line, Rec))
        Recs.push_back(Rec);
    }
    return Recs;
  }

  static std::string Root;
  std::string Dir;
};

std::string FleetE2E::Root;

/// The ISSUE acceptance campaign: >= 20 jobs over real pipelines; several
/// suffer injected transient I/O faults on their first attempt (the
/// {attempt} placeholder makes the fault miss on retry); one is a
/// deterministic divergence. Everything transient must succeed under
/// backoff; the divergence must be quarantined with a fault report.
TEST_F(FleetE2E, AcceptanceCampaignWithFaultsAndDivergence) {
  std::string Manifest;
  for (int I = 0; I < 10; ++I)
    Manifest += formatString("replay%d replay %s/r.pb\n", I, Root.c_str());
  for (int I = 0; I < 6; ++I)
    Manifest += formatString("flaky%d emit %s/r.pb "
                             "!env:ELFIE_FAULT_SPEC=write:{attempt}:enospc\n",
                             I, Root.c_str());
  Manifest += formatString("verify0 verify %s/r.elfie -pinball %s/r.pb\n",
                           Root.c_str(), Root.c_str());
  Manifest += formatString("sim0 sim %s/r.pb\n", Root.c_str());
  Manifest += formatString("native0 native /bin/true\n");
  Manifest += formatString("diverge replay %s/div.pb !retries=3\n",
                           Root.c_str());
  ASSERT_FALSE(writeFileText(Dir + "/manifest.txt", Manifest).isError());

  CmdResult R = runFleetCmd("", "-json", Dir + "/manifest.txt");
  EXPECT_EQ(R.ExitCode, 1) << R.Output; // the divergent job fails it
  EXPECT_NE(R.Output.find("\"jobs\":20"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("\"succeeded\":19"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("\"quarantined\":1"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("\"incomplete\":0"), std::string::npos)
      << R.Output;

  // Each flaky job retried exactly once: 20 + 6 retries = 26 attempts.
  EXPECT_NE(R.Output.find("\"attempts\":26"), std::string::npos) << R.Output;

  // The divergent job was quarantined on first classification (exit 3 is
  // deterministic — its !retries=3 budget must NOT be consumed).
  auto Cause = readFileText(Dir + "/out/quarantine/diverge/cause.txt");
  ASSERT_TRUE(Cause.hasValue()) << Cause.message();
  EXPECT_NE(Cause->find("reason: divergence"), std::string::npos) << *Cause;
  EXPECT_NE(Cause->find("attempts: 1"), std::string::npos) << *Cause;
  EXPECT_NE(Cause->find("DIVERGENCE"), std::string::npos) << *Cause;
  EXPECT_TRUE(fileExists(Dir + "/out/quarantine/diverge/stderr.txt"));

  // Emitted artifacts from the flaky emit jobs actually landed.
  for (int I = 0; I < 6; ++I)
    EXPECT_TRUE(
        fileExists(Dir + formatString("/out/artifacts/flaky%d.elfie", I)));

  // The journal is sealed complete and scan agrees with the summary.
  auto St = scanJournal(Dir + "/out/journal.jsonl");
  ASSERT_TRUE(St.hasValue()) << St.message();
  EXPECT_TRUE(St->Sealed);
  EXPECT_EQ(St->SealReason, "complete");
  EXPECT_EQ(St->Done.size(), 19u);
  EXPECT_EQ(St->Quarantined.size(), 1u);
}

/// SIGKILL mid-campaign (the fault harness kills efleet at its Nth journal
/// append), then resume: journaled-complete jobs must not re-run, in-flight
/// jobs must, and the final state must be exactly one terminal record per
/// job.
TEST_F(FleetE2E, KillAndResumeSkipsCompletedJobs) {
  std::string Manifest =
      formatString("a replay %s/r.pb\n"
                   "b emit %s/r.pb\n"
                   "c verify %s/r.elfie\n"
                   "d emit %s/r.pb "
                   "!env:ELFIE_FAULT_SPEC=write:{attempt}:enospc\n",
                   Root.c_str(), Root.c_str(), Root.c_str(), Root.c_str());
  ASSERT_FALSE(writeFileText(Dir + "/manifest.txt", Manifest).isError());

  // Serial workers so some jobs are journaled done before the kill lands.
  CmdResult First = runFleetCmd("ELFIE_FAULT_SPEC=write:10:kill",
                                "-workers 1", Dir + "/manifest.txt");
  ASSERT_EQ(First.ExitCode, 97) << First.Output; // fault kill op

  auto Before = scanJournal(Dir + "/out/journal.jsonl");
  ASSERT_TRUE(Before.hasValue()) << Before.message();
  ASSERT_FALSE(Before->Sealed);
  ASSERT_FALSE(Before->Done.empty()) << "kill landed before any job done";
  std::set<std::string> DoneBeforeKill = Before->Done;
  size_t RecordsBeforeKill = Before->Records;

  CmdResult Second = runFleetCmd("", "-verbose", Dir + "/manifest.txt");
  EXPECT_EQ(Second.ExitCode, 0) << Second.Output;
  EXPECT_NE(Second.Output.find("resumed"), std::string::npos)
      << Second.Output;

  // No journaled-complete job may have a start record after the resume.
  std::vector<JournalRecord> Recs = journalRecords();
  bool SawResume = false;
  std::map<std::string, int> TerminalCount;
  for (JournalRecord &Rec : Recs) {
    if (Rec["rec"] == "resume")
      SawResume = true;
    if (Rec["rec"] == "start" && SawResume)
      EXPECT_EQ(DoneBeforeKill.count(Rec["job"]), 0u)
          << "completed job '" << Rec["job"] << "' re-ran after resume";
    if (Rec["rec"] == "done" || Rec["rec"] == "quarantine")
      ++TerminalCount[Rec["job"]];
  }
  EXPECT_TRUE(SawResume);
  EXPECT_GT(Recs.size(), RecordsBeforeKill);
  ASSERT_EQ(TerminalCount.size(), 4u);
  for (const auto &[JobId, N] : TerminalCount)
    EXPECT_EQ(N, 1) << "job '" << JobId << "' has duplicate terminal records";

  auto After = scanJournal(Dir + "/out/journal.jsonl");
  ASSERT_TRUE(After.hasValue());
  EXPECT_TRUE(After->Sealed);
  EXPECT_EQ(After->SealReason, "complete");
  EXPECT_EQ(After->Done.size(), 4u);
}

/// Satellite: the resume sweep. Kill efleet at randomized journal-append
/// points across many seeds; every resume must complete the campaign with
/// no duplicated or lost jobs. (50 seeds with -DELFIE_SLOW_TESTS=ON.)
TEST_F(FleetE2E, ResumeSweepOverRandomizedKillPoints) {
  std::string Manifest =
      formatString("a replay %s/r.pb\n"
                   "b emit %s/r.pb\n"
                   "c emit %s/r.pb "
                   "!env:ELFIE_FAULT_SPEC=write:{attempt}:enospc\n",
                   Root.c_str(), Root.c_str(), Root.c_str());
  ASSERT_FALSE(writeFileText(Dir + "/manifest.txt", Manifest).isError());

  for (int Seed = 1; Seed <= SweepSeeds; ++Seed) {
    removeTree(Dir + "/out");
    // A full run of this campaign appends ~13 journal records (plan, 4
    // attempts x start/exit, 3 done, seal); walk the kill point across
    // that whole range so every record boundary gets hit across seeds.
    int KillAt = 2 + (Seed * 7) % 12;
    CmdResult First = runFleetCmd(
        formatString("ELFIE_FAULT_SPEC=write:%d:kill", KillAt),
        "-workers 1", Dir + "/manifest.txt");
    // Either the kill landed (97) or the campaign finished under it.
    ASSERT_TRUE(First.ExitCode == 97 || First.ExitCode == 0)
        << "seed " << Seed << ": " << First.Output;

    CmdResult Second = runFleetCmd("", "", Dir + "/manifest.txt");
    ASSERT_EQ(Second.ExitCode, 0) << "seed " << Seed << ": " << Second.Output;

    // Exactly one terminal record per job — none lost, none duplicated.
    std::map<std::string, int> TerminalCount;
    for (JournalRecord &Rec : journalRecords())
      if (Rec["rec"] == "done" || Rec["rec"] == "quarantine")
        ++TerminalCount[Rec["job"]];
    ASSERT_EQ(TerminalCount.size(), 3u) << "seed " << Seed;
    for (const auto &[JobId, N] : TerminalCount)
      ASSERT_EQ(N, 1) << "seed " << Seed << " job " << JobId;

    auto St = scanJournal(Dir + "/out/journal.jsonl");
    ASSERT_TRUE(St.hasValue());
    ASSERT_TRUE(St->Sealed) << "seed " << Seed;
    ASSERT_EQ(St->Done.size(), 3u) << "seed " << Seed;
  }
}

/// SIGTERM triggers a graceful drain: running jobs get the grace period,
/// the journal seals with reason "drain", and the summary still comes out.
TEST_F(FleetE2E, SigtermDrainsGracefully) {
  std::string Manifest = formatString("fast replay %s/r.pb\n"
                                      "slow native /bin/sleep 30 "
                                      "!timeout=60\n",
                                      Root.c_str());
  ASSERT_FALSE(writeFileText(Dir + "/manifest.txt", Manifest).isError());

  SpawnSpec Spec;
  Spec.Argv = {binPath("efleet"), "-bindir", ELFIE_BIN_DIR,
               "-out",            Dir + "/out", "-grace", "1",
               Dir + "/manifest.txt"};
  Spec.StdoutPath = Dir + "/fleet.out";
  Spec.StderrPath = Dir + "/fleet.err";
  auto Pid = spawnProcess(Spec);
  ASSERT_TRUE(Pid.hasValue()) << Pid.message();

  // Wait until the slow job is journaled as started, then ask for drain.
  bool SlowStarted = false;
  for (int I = 0; I < 200 && !SlowStarted; ++I) {
    ::usleep(50000);
    for (JournalRecord &Rec : journalRecords())
      if (Rec["rec"] == "start" && Rec["job"] == "slow")
        SlowStarted = true;
  }
  ASSERT_TRUE(SlowStarted);
  // efleet leads its own process group: signal it directly.
  ASSERT_EQ(::kill(*Pid, SIGTERM), 0);

  auto W = waitProcess(*Pid);
  ASSERT_TRUE(W.hasValue());
  ASSERT_TRUE(W->Exited) << "signal " << W->Signal;
  EXPECT_EQ(W->ExitCode, 1); // drained campaigns are not all-success

  auto St = scanJournal(Dir + "/out/journal.jsonl");
  ASSERT_TRUE(St.hasValue());
  EXPECT_TRUE(St->Sealed);
  EXPECT_EQ(St->SealReason, "drain");
  EXPECT_TRUE(St->Done.count("fast"));
  EXPECT_FALSE(St->terminal("slow")); // re-runs on resume
  auto Err = readFileText(Dir + "/fleet.err");
  ASSERT_TRUE(Err.hasValue());
  EXPECT_NE(Err->find("drain requested"), std::string::npos) << *Err;
  EXPECT_NE(Err->find("drained"), std::string::npos) << *Err;
}

/// Drain edge: SIGTERM and SIGINT land together (and again mid-drain).
/// Concurrent deliveries collapse into one idempotent drain — exactly one
/// seal record, reason "drain", never a double-seal or an abort.
TEST_F(FleetE2E, ConcurrentSignalsDuringDrainSealOnce) {
  std::string Manifest = formatString("fast replay %s/r.pb\n"
                                      "slow native /bin/sleep 30 "
                                      "!timeout=60\n",
                                      Root.c_str());
  ASSERT_FALSE(writeFileText(Dir + "/manifest.txt", Manifest).isError());

  SpawnSpec Spec;
  Spec.Argv = {binPath("efleet"), "-bindir", ELFIE_BIN_DIR,
               "-out",            Dir + "/out", "-grace", "1",
               Dir + "/manifest.txt"};
  Spec.StdoutPath = Dir + "/fleet.out";
  Spec.StderrPath = Dir + "/fleet.err";
  auto Pid = spawnProcess(Spec);
  ASSERT_TRUE(Pid.hasValue()) << Pid.message();

  bool SlowStarted = false;
  for (int I = 0; I < 200 && !SlowStarted; ++I) {
    ::usleep(50000);
    for (JournalRecord &Rec : journalRecords())
      if (Rec["rec"] == "start" && Rec["job"] == "slow")
        SlowStarted = true;
  }
  ASSERT_TRUE(SlowStarted);

  // Both drain signals back to back, then another one mid-drain.
  ASSERT_EQ(::kill(*Pid, SIGTERM), 0);
  ASSERT_EQ(::kill(*Pid, SIGINT), 0);
  ::usleep(100000);
  ASSERT_EQ(::kill(*Pid, SIGTERM), 0);

  auto W = waitProcess(*Pid);
  ASSERT_TRUE(W.hasValue());
  ASSERT_TRUE(W->Exited) << "signal " << W->Signal;
  EXPECT_EQ(W->ExitCode, 1);

  int Seals = 0;
  for (JournalRecord &Rec : journalRecords())
    if (Rec["rec"] == "seal")
      ++Seals;
  EXPECT_EQ(Seals, 1);
  auto St = scanJournal(Dir + "/out/journal.jsonl");
  ASSERT_TRUE(St.hasValue());
  EXPECT_TRUE(St->Sealed);
  EXPECT_EQ(St->SealReason, "drain");
  EXPECT_TRUE(St->Done.count("fast"));
}

/// Drain edge: the journal's seal record is torn mid-write (SIGKILL
/// mid-append leaves a partial final line). Resume must treat the journal
/// as unsealed, skip every journaled-terminal job, and re-seal complete —
/// the torn line is tolerated, never fatal, never a re-run.
TEST_F(FleetE2E, ResumeFromJournalTornMidSealRecord) {
  std::string Manifest = formatString("a replay %s/r.pb\n"
                                      "b native /bin/true\n",
                                      Root.c_str());
  ASSERT_FALSE(writeFileText(Dir + "/manifest.txt", Manifest).isError());
  CmdResult First = runFleetCmd("", "", Dir + "/manifest.txt");
  ASSERT_EQ(First.ExitCode, 0) << First.Output;

  // Tear the seal line: keep everything up to a few bytes into it.
  std::string JPath = Dir + "/out/journal.jsonl";
  auto Text = readFileText(JPath);
  ASSERT_TRUE(Text.hasValue()) << Text.message();
  size_t SealAt = Text->rfind("{\"rec\":\"seal\"");
  ASSERT_NE(SealAt, std::string::npos);
  std::string Torn = Text->substr(0, SealAt + 9); // ends inside "seal"
  ASSERT_FALSE(writeFileText(JPath, Torn).isError());
  auto Before = scanJournal(JPath);
  ASSERT_TRUE(Before.hasValue());
  ASSERT_FALSE(Before->Sealed);
  ASSERT_GE(Before->TornLines, 1u);
  size_t StartsBefore = 0;
  for (JournalRecord &Rec : journalRecords())
    if (Rec["rec"] == "start")
      ++StartsBefore;

  CmdResult Second = runFleetCmd("", "", Dir + "/manifest.txt");
  EXPECT_EQ(Second.ExitCode, 0) << Second.Output;
  EXPECT_NE(Second.Output.find("2 skipped as already complete"),
            std::string::npos)
      << Second.Output;

  // No job re-ran, and the journal is sealed complete again with exactly
  // one terminal record per job.
  size_t StartsAfter = 0;
  std::map<std::string, int> TerminalCount;
  for (JournalRecord &Rec : journalRecords()) {
    if (Rec["rec"] == "start")
      ++StartsAfter;
    if (Rec["rec"] == "done" || Rec["rec"] == "quarantine")
      ++TerminalCount[Rec["job"]];
  }
  EXPECT_EQ(StartsAfter, StartsBefore);
  ASSERT_EQ(TerminalCount.size(), 2u);
  for (const auto &[JobId, N] : TerminalCount)
    EXPECT_EQ(N, 1) << JobId;
  auto After = scanJournal(JPath);
  ASSERT_TRUE(After.hasValue());
  EXPECT_TRUE(After->Sealed);
  EXPECT_EQ(After->SealReason, "complete");
}

/// Per-job budget timeouts kill and retry; retries exhausted quarantines.
TEST_F(FleetE2E, TimeoutRetriesThenQuarantines) {
  std::string Manifest = "hang native /bin/sleep 30 !timeout=1 !retries=2\n";
  ASSERT_FALSE(writeFileText(Dir + "/manifest.txt", Manifest).isError());
  CmdResult R = runFleetCmd("", "-backoff-ms 50 -backoff-max-ms 100",
                            Dir + "/manifest.txt");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  auto Cause = readFileText(Dir + "/out/quarantine/hang/cause.txt");
  ASSERT_TRUE(Cause.hasValue()) << Cause.message();
  EXPECT_NE(Cause->find("reason: retries-exhausted"), std::string::npos)
      << *Cause;
  EXPECT_NE(Cause->find("attempts: 2"), std::string::npos) << *Cause;
}

/// The !warmup= attribute: the first campaign warms and writes the job's
/// checkpoint sidecar, a re-run of the same campaign finds it and
/// resumes, and a corrupted sidecar is quarantined as deterministic (one
/// attempt, no blind retries).
TEST_F(FleetE2E, WarmupCheckpointSaveResumeAndQuarantine) {
  std::string Manifest = formatString("wsim sim %s/g.elfie !warmup=20000\n",
                                      Root.c_str());
  ASSERT_FALSE(writeFileText(Dir + "/manifest.txt", Manifest).isError());
  std::string Sidecar = Dir + "/out/artifacts/wsim.esimstate";

  // First campaign: no sidecar yet -> the job runs esim -warmup-save.
  CmdResult R = runFleetCmd("", "", Dir + "/manifest.txt");
  auto JobErr = readFileText(Dir + "/out/logs/wsim.a1.err");
  EXPECT_EQ(R.ExitCode, 0) << R.Output
                           << (JobErr ? *JobErr : JobErr.message());
  ASSERT_TRUE(fileExists(Sidecar));
  auto Log = readFileText(Dir + "/out/logs/wsim.a1.out");
  ASSERT_TRUE(Log.hasValue()) << Log.message();
  EXPECT_NE(Log->find("warmup checkpoint saved to"), std::string::npos)
      << *Log;

  // Same campaign re-run fresh (journal cleared, artifacts kept): the
  // sidecar is found and the job resumes instead of re-warming.
  removeFile(Dir + "/out/journal.jsonl");
  R = runFleetCmd("", "", Dir + "/manifest.txt");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  Log = readFileText(Dir + "/out/logs/wsim.a1.out");
  ASSERT_TRUE(Log.hasValue()) << Log.message();
  EXPECT_NE(Log->find("warmup checkpoint loaded from"), std::string::npos)
      << *Log;

  // Corrupt one payload byte: the resume must fail closed and classify
  // as deterministic — quarantined after exactly one attempt, with the
  // EFAULT.SIMSTATE code in the evidence.
  auto Bytes = readFileBytes(Sidecar);
  ASSERT_TRUE(Bytes.hasValue()) << Bytes.message();
  (*Bytes)[Bytes->size() / 2] ^= 0x01;
  ASSERT_FALSE(
      writeFile(Sidecar, Bytes->data(), Bytes->size()).isError());
  removeFile(Dir + "/out/journal.jsonl");
  R = runFleetCmd("", "", Dir + "/manifest.txt");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  auto Cause = readFileText(Dir + "/out/quarantine/wsim/cause.txt");
  ASSERT_TRUE(Cause.hasValue()) << Cause.message();
  EXPECT_NE(Cause->find("reason: rejected"), std::string::npos) << *Cause;
  EXPECT_NE(Cause->find("attempts: 1"), std::string::npos)
      << "a corrupt checkpoint must never be retried: " << *Cause;
  auto Stderr = readFileText(Dir + "/out/quarantine/wsim/stderr.txt");
  ASSERT_TRUE(Stderr.hasValue()) << Stderr.message();
  EXPECT_NE(Stderr->find("EFAULT.SIMSTATE."), std::string::npos) << *Stderr;
}

/// Manifest and usage errors surface as the documented exit codes.
TEST_F(FleetE2E, BadInputsUseTaxonomyCodes) {
  CmdResult R = runCmd("", binPath("efleet"));
  EXPECT_EQ(R.ExitCode, 2); // usage
  ASSERT_FALSE(
      writeFileText(Dir + "/bad.txt", "only two-fields\n").isError());
  R = runFleetCmd("", "", Dir + "/bad.txt");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("EFAULT.FLEET.MANIFEST"), std::string::npos)
      << R.Output;
}

} // namespace
