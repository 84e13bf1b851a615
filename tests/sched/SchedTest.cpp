//===- tests/sched/SchedTest.cpp - Campaign runner unit tests -------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the src/sched library: manifest parsing, outcome
/// classification (the full exit-code decision table), seeded backoff,
/// journal round-trip and crash recovery, and quarantine evidence.
///
//===----------------------------------------------------------------------===//

#include "fault/FaultPlan.h"
#include "sched/Backoff.h"
#include "sched/Campaign.h"
#include "sched/Classify.h"
#include "sched/Journal.h"
#include "sched/Quarantine.h"
#include "support/FileIO.h"

#include <gtest/gtest.h>

#include <signal.h>

using namespace elfie;
using namespace elfie::sched;

namespace {

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "/elfie_sched_" + Name;
}

//===----------------------------------------------------------------------===//
// Manifest parsing
//===----------------------------------------------------------------------===//

TEST(Campaign, ParsesJobsAttributesAndExtras) {
  auto Plan = CampaignPlan::parse(
      "# campaign\n"
      "\n"
      "r1 replay pb/a\n"
      "v1 verify out/a.elfie -pinball pb/a\n"
      "e1 emit pb/a !timeout=30 !retries=2 !env:ELFIE_FAULT_SPEC="
      "write:{attempt}:enospc\n"
      "n1 native /bin/true\n"
      "s1 sim pb/a\n"
      "s2 sim out/a.elfie !warmup=100000\n");
  ASSERT_TRUE(Plan.hasValue()) << Plan.message();
  ASSERT_EQ(Plan->Jobs.size(), 6u);

  const Job *V = Plan->find("v1");
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->A, Action::Verify);
  EXPECT_EQ(V->Target, "out/a.elfie");
  ASSERT_EQ(V->ExtraArgs.size(), 2u);
  EXPECT_EQ(V->ExtraArgs[0], "-pinball");

  const Job *E = Plan->find("e1");
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->TimeoutSecs, 30u);
  EXPECT_EQ(E->Retries, 2u);
  ASSERT_EQ(E->Env.size(), 1u);
  EXPECT_EQ(E->Env[0].first, "ELFIE_FAULT_SPEC");
  EXPECT_EQ(E->Env[0].second, "write:{attempt}:enospc");

  const Job *S1 = Plan->find("s1");
  ASSERT_NE(S1, nullptr);
  EXPECT_EQ(S1->WarmupInstructions, 0u) << "warmup defaults to off";
  const Job *S2 = Plan->find("s2");
  ASSERT_NE(S2, nullptr);
  EXPECT_EQ(S2->WarmupInstructions, 100000u);
}

TEST(Campaign, RejectsMalformedManifests) {
  struct {
    const char *Text;
    const char *Want; // substring of the error message
  } Cases[] = {
      {"", "no jobs"},
      {"onlytwo replay\n", "got 2 fields"},
      {"bad/id replay pb\n", "bad job id"},
      {"a replay pb\na replay pb\n", "duplicate job id"},
      {"a explode pb\n", "unknown action"},
      {"a replay pb !timeout=0\n", "bad '!timeout=0'"},
      {"a replay pb !retries=1001\n", "bad '!retries=1001'"},
      {"a replay pb !env:NOEQUALS\n", "want !env:K=V"},
      {"a replay pb !frob=1\n", "unknown attribute"},
      {"a sim pb !warmup=0\n", "bad '!warmup=0'"},
      {"a replay pb !warmup=1000\n", "only applies to the sim action"},
  };
  for (const auto &C : Cases) {
    auto Plan = CampaignPlan::parse(C.Text);
    ASSERT_FALSE(Plan.hasValue()) << C.Text;
    Error E = Plan.takeError();
    EXPECT_NE(E.message().find(C.Want), std::string::npos)
        << C.Text << " -> " << E.message();
    // Unknown actions carry EFAULT.FLEET.ACTION; the rest MANIFEST.
    EXPECT_EQ(E.code().find("EFAULT.FLEET."), 0u) << E.code();
  }
}

TEST(Campaign, ManifestLineRoundTrips) {
  Job J;
  J.Id = "e1";
  J.A = Action::Sim;
  J.Target = "pb/a";
  J.TimeoutSecs = 30;
  J.Retries = 2;
  J.WarmupInstructions = 50000;
  J.Env.emplace_back("K", "V");
  J.ExtraArgs = {"-x", "1"};
  auto Plan = CampaignPlan::parse(manifestLine(J) + "\n");
  ASSERT_TRUE(Plan.hasValue()) << Plan.message();
  ASSERT_EQ(Plan->Jobs.size(), 1u);
  const Job &R = Plan->Jobs[0];
  EXPECT_EQ(R.Id, J.Id);
  EXPECT_EQ(R.A, J.A);
  EXPECT_EQ(R.Target, J.Target);
  EXPECT_EQ(R.TimeoutSecs, J.TimeoutSecs);
  EXPECT_EQ(R.Retries, J.Retries);
  EXPECT_EQ(R.WarmupInstructions, J.WarmupInstructions);
  EXPECT_EQ(R.Env, J.Env);
  EXPECT_EQ(R.ExtraArgs, J.ExtraArgs);
}

TEST(Campaign, AppendManifestLineGrowsAFile) {
  std::string Path = tempPath("manifest_append");
  removeFile(Path);
  Job A, B;
  A.Id = "a";
  A.A = Action::Replay;
  A.Target = "pb/a";
  B.Id = "b";
  B.A = Action::Verify;
  B.Target = "x.elfie";
  ASSERT_FALSE(appendManifestLine(Path, A).isError());
  ASSERT_FALSE(appendManifestLine(Path, B).isError());
  auto Plan = CampaignPlan::loadFile(Path);
  ASSERT_TRUE(Plan.hasValue()) << Plan.message();
  EXPECT_EQ(Plan->Jobs.size(), 2u);
  removeFile(Path);
}

TEST(Campaign, JobIdForTargetIsManifestLegal) {
  std::string Id = jobIdForTarget("replay", "/tmp/pb dir/a.pb");
  EXPECT_EQ(Id, "replay._tmp_pb_dir_a.pb");
  auto Plan = CampaignPlan::parse(Id + " replay pb\n");
  EXPECT_TRUE(Plan.hasValue()) << Plan.message();
}

TEST(Campaign, ExpandPlaceholders) {
  EXPECT_EQ(expandPlaceholders("write:{attempt}:enospc", 3),
            "write:3:enospc");
  EXPECT_EQ(expandPlaceholders("{attempt}{attempt}", 12), "1212");
  EXPECT_EQ(expandPlaceholders("no placeholder", 7), "no placeholder");
}

//===----------------------------------------------------------------------===//
// Classification: the full documented exit-code decision table
// (DESIGN.md §9). Every code a pipeline tool can produce must map to the
// intended retry/quarantine/success decision.
//===----------------------------------------------------------------------===//

TEST(Classify, ExitCodeDecisionTable) {
  const std::string TransientErr =
      "pinball2elf: error: EFAULT.IO.WRITE: injected: no space left on "
      "device\n";
  const std::string RejectErr =
      "pinball2elf: error: EFAULT.PINBALL.TRUNCATED: meta: short read\n";
  struct Case {
    const char *Name;
    AttemptOutcome O;
    std::string Stderr;
    JobClass Want;
    const char *WantDetail;
  };
  auto Exited = [](int Code) {
    AttemptOutcome O;
    O.Exited = true;
    O.ExitCode = Code;
    return O;
  };
  auto Signaled = [](int Sig) {
    AttemptOutcome O;
    O.Signal = Sig;
    return O;
  };
  AttemptOutcome Timeout = Signaled(SIGKILL);
  Timeout.TimedOut = true;

  const Case Cases[] = {
      // Tool taxonomy 0/1/2/3.
      {"success", Exited(0), "", JobClass::Success, "ok"},
      {"error+io-stderr", Exited(1), TransientErr, JobClass::Transient,
       "transient-io"},
      {"error+rejection", Exited(1), RejectErr, JobClass::Deterministic,
       "rejected"},
      {"error+empty-stderr", Exited(1), "", JobClass::Deterministic,
       "rejected"},
      {"usage", Exited(2), "", JobClass::Deterministic, "usage"},
      {"divergence", Exited(3), "", JobClass::Deterministic, "divergence"},
      // Runner/exec layer.
      {"exec-failure", Exited(124), "", JobClass::Deterministic,
       "exec-failure"},
      // Native-ELFie fault codes.
      {"watchdog", Exited(125), "", JobClass::Deterministic, "elfie-fault"},
      {"hw-signal", Exited(126), "", JobClass::Deterministic, "elfie-fault"},
      {"divergence-abort", Exited(127), "", JobClass::Deterministic,
       "elfie-fault"},
      // Unknown guest semantics.
      {"guest-exit-42", Exited(42), "", JobClass::Deterministic, "rejected"},
      {"fault-kill-97", Exited(97), "", JobClass::Deterministic, "rejected"},
      // Signal deaths: host weather (OOM kill, operator kill) — retry.
      {"sigkill", Signaled(SIGKILL), "", JobClass::Transient, "signal"},
      {"sigsegv", Signaled(SIGSEGV), "", JobClass::Transient, "signal"},
      {"sigterm", Signaled(SIGTERM), "", JobClass::Transient, "signal"},
      // Runner-imposed budget timeout.
      {"timeout", Timeout, "", JobClass::Transient, "timeout"},
  };
  for (const Case &C : Cases) {
    EXPECT_EQ(classifyOutcome(C.O, C.Stderr), C.Want) << C.Name;
    EXPECT_STREQ(classifyDetail(C.O, C.Stderr), C.WantDetail) << C.Name;
  }
}

TEST(Classify, TransientMarkersCoverInjectedFaultMessages) {
  // The exact messages src/fault injects must classify as transient, or
  // the fault harness would quarantine jobs it meant to retry.
  for (const char *Msg :
       {"EFAULT.IO.WRITE: injected: no space left on device",
        "EFAULT.IO.READ: injected: I/O error",
        "EFAULT.IO.FSYNC: fsync failed",
        "open: No space left on device"}) {
    AttemptOutcome O;
    O.Exited = true;
    O.ExitCode = 1;
    EXPECT_EQ(classifyOutcome(O, Msg), JobClass::Transient) << Msg;
  }
}

//===----------------------------------------------------------------------===//
// Backoff
//===----------------------------------------------------------------------===//

TEST(Backoff, DeterministicPerSeedJobAttempt) {
  uint64_t A = backoffDelayMs(7, "job-a", 2, 200, 5000);
  EXPECT_EQ(A, backoffDelayMs(7, "job-a", 2, 200, 5000));
  // Different coordinates draw different jitter (overwhelmingly likely for
  // these fixed inputs; this asserts the hash actually mixes them).
  EXPECT_TRUE(A != backoffDelayMs(8, "job-a", 2, 200, 5000) ||
              A != backoffDelayMs(7, "job-b", 2, 200, 5000) ||
              A != backoffDelayMs(7, "job-a", 3, 200, 5000));
}

TEST(Backoff, DelaysStayInHalfWindowAndGrow) {
  const uint64_t Base = 200, Cap = 5000;
  for (uint32_t Attempt = 2; Attempt <= 12; ++Attempt) {
    uint64_t Exp = Base;
    for (uint32_t I = 2; I < Attempt && Exp < Cap; ++I)
      Exp = std::min(Exp * 2, Cap);
    for (uint64_t Seed = 0; Seed < 20; ++Seed) {
      uint64_t D = backoffDelayMs(Seed, "j", Attempt, Base, Cap);
      EXPECT_GE(D, Exp / 2) << "attempt " << Attempt << " seed " << Seed;
      EXPECT_LE(D, Exp) << "attempt " << Attempt << " seed " << Seed;
    }
  }
}

TEST(Backoff, CapBoundsLateAttemptsAndHugeBases) {
  // Attempt numbers large enough to overflow a naive BaseMs << N.
  EXPECT_LE(backoffDelayMs(1, "j", 200, 200, 5000), 5000u);
  EXPECT_LE(backoffDelayMs(1, "j", 2, UINT64_MAX / 2, 5000), 5000u);
}

//===----------------------------------------------------------------------===//
// Journal
//===----------------------------------------------------------------------===//

TEST(Journal, RecordRoundTrip) {
  JournalRecord Rec = {{"rec", "exit"},
                       {"job", "weird \"id\"\twith\nescapes"},
                       {"attempt", "3"},
                       {"code", "-1"},
                       {"detail", "timeout\rcarriage"}};
  std::string Line = renderJournalRecord(Rec);
  EXPECT_EQ(Line.find('\n'), std::string::npos);
  EXPECT_EQ(Line.find('\r'), std::string::npos);
  EXPECT_NE(Line.find("timeout\\u000dcarriage"), std::string::npos) << Line;
  JournalRecord Back;
  ASSERT_TRUE(parseJournalRecord(Line, Back)) << Line;
  EXPECT_EQ(Back, Rec);
}

/// Journals written before the writer moved to support/Json spell a
/// carriage return `\r`; they must still resume.
TEST(Journal, ParsesLegacyCarriageReturnEscape) {
  JournalRecord Back;
  ASSERT_TRUE(parseJournalRecord(
      "{\"rec\":\"exit\",\"attempt\":1,\"detail\":\"a\\rb\",\"job\":\"j\"}",
      Back));
  EXPECT_EQ(Back, (JournalRecord{{"rec", "exit"},
                                 {"attempt", "1"},
                                 {"detail", "a\rb"},
                                 {"job", "j"}}));
}

TEST(Journal, RejectsTornAndForeignLines) {
  JournalRecord Out;
  EXPECT_FALSE(parseJournalRecord("", Out));
  EXPECT_FALSE(parseJournalRecord("{\"rec\":\"sta", Out)); // torn tail
  EXPECT_FALSE(parseJournalRecord("{\"job\":\"a\"}", Out)); // no rec
  EXPECT_FALSE(parseJournalRecord("{\"rec\":{\"nested\":1}}", Out));
  EXPECT_FALSE(parseJournalRecord("{\"rec\":\"a\"} trailing", Out));
  EXPECT_FALSE(parseJournalRecord("not json at all", Out));
}

TEST(Journal, ScanRecoversTerminalAndInFlightJobs) {
  std::string Path = tempPath("journal_scan");
  JournalWriter W;
  ASSERT_FALSE(W.open(Path).isError());
  auto Put = [&](JournalRecord Rec) {
    ASSERT_FALSE(W.append(Rec).isError());
  };
  Put({{"rec", "plan"}, {"jobs", "3"}, {"seed", "7"}});
  Put({{"rec", "start"}, {"job", "a"}, {"attempt", "1"}});
  Put({{"rec", "exit"}, {"job", "a"}, {"attempt", "1"}});
  Put({{"rec", "done"}, {"job", "a"}, {"attempts", "1"}});
  Put({{"rec", "start"}, {"job", "b"}, {"attempt", "1"}});
  Put({{"rec", "quarantine"}, {"job", "b"}, {"attempts", "1"}});
  Put({{"rec", "start"}, {"job", "c"}, {"attempt", "2"}});
  W.close();
  // Simulate a SIGKILL mid-append: a torn trailing line.
  AppendLog Tail;
  ASSERT_FALSE(Tail.open(Path).isError());
  ASSERT_FALSE(Tail.append("{\"rec\":\"done\",\"jo").isError());
  Tail.close();

  auto St = scanJournal(Path);
  ASSERT_TRUE(St.hasValue()) << St.message();
  EXPECT_EQ(St->PlanJobs, 3u);
  EXPECT_TRUE(St->Done.count("a"));
  EXPECT_TRUE(St->Quarantined.count("b"));
  EXPECT_TRUE(St->InFlight.count("c"));
  EXPECT_FALSE(St->InFlight.count("a"));
  EXPECT_EQ(St->Attempts.at("c"), 2u);
  EXPECT_EQ(St->TornLines, 1u);
  EXPECT_FALSE(St->Sealed);
  EXPECT_TRUE(St->terminal("a"));
  EXPECT_TRUE(St->terminal("b"));
  EXPECT_FALSE(St->terminal("c"));
  removeFile(Path);
}

TEST(Journal, ScanSeesSeal) {
  std::string Path = tempPath("journal_seal");
  JournalWriter W;
  ASSERT_FALSE(W.open(Path).isError());
  ASSERT_FALSE(W.append({{"rec", "seal"}, {"reason", "drain"}}).isError());
  W.close();
  auto St = scanJournal(Path);
  ASSERT_TRUE(St.hasValue());
  EXPECT_TRUE(St->Sealed);
  EXPECT_EQ(St->SealReason, "drain");
  removeFile(Path);
}

/// Disk pressure on an append — whether a kernel errno or an injected
/// hook fault whose message names the condition — surfaces as the
/// structured EFAULT.IO.ENOSPC / EFAULT.IO.EIO codes with the journal
/// path in context, so the campaign service can pause admission on disk
/// pressure specifically.
TEST(Journal, AppendSurfacesDiskPressureStructured) {
  struct Case {
    fault::FaultSpec::Kind Kind;
    const char *Code;
  } Cases[] = {
      {fault::FaultSpec::Kind::Enospc, "EFAULT.IO.ENOSPC"},
      {fault::FaultSpec::Kind::Eio, "EFAULT.IO.EIO"},
  };
  for (const Case &C : Cases) {
    std::string Path = tempPath("journal_pressure");
    removeFile(Path);
    JournalWriter W;
    ASSERT_FALSE(W.open(Path).isError());

    fault::FaultPlan Plan;
    Plan.add({fault::FaultSpec::Op::Write, 1, C.Kind});
    setIOFaultHook(&Plan);
    Error E = W.append({{"rec", "plan"}, {"jobs", "1"}});
    setIOFaultHook(nullptr);

    ASSERT_TRUE(E.isError()) << C.Code;
    EXPECT_EQ(E.code(), C.Code);
    EXPECT_NE(E.message().find(Path), std::string::npos)
        << "no path context: " << E.message();
    EXPECT_TRUE(isDiskPressureError(E));

    // The writer stays usable once the pressure lifts (one-shot fault
    // spent): the next append lands durably.
    ASSERT_FALSE(W.append({{"rec", "plan"}, {"jobs", "1"}}).isError());
    W.close();
    removeFile(Path);
  }
}

TEST(Journal, DiskPressurePredicateMatchesOnlyPressureCodes) {
  EXPECT_TRUE(isDiskPressureError(
      makeCodedError("EFAULT.IO.ENOSPC", "no space")));
  EXPECT_TRUE(isDiskPressureError(makeCodedError("EFAULT.IO.EIO", "eio")));
  EXPECT_FALSE(isDiskPressureError(
      makeCodedError("EFAULT.IO.WRITE", "generic write failure")));
  EXPECT_FALSE(isDiskPressureError(
      makeCodedError("EFAULT.FLEET.MANIFEST", "bad manifest")));
  EXPECT_FALSE(isDiskPressureError(Error::success()));
}

//===----------------------------------------------------------------------===//
// Quarantine
//===----------------------------------------------------------------------===//

TEST(Quarantine, WritesCauseAndEvidence) {
  std::string Root = tempPath("quarantine_root");
  removeTree(Root);
  std::string ErrPath = tempPath("quarantine_stderr");
  ASSERT_FALSE(
      writeFileText(ErrPath,
                    "ereplay: retired 100 instructions\n"
                    "ereplay: DIVERGENCE: sel.log record 0 mismatch\n")
          .isError());

  QuarantineReport R;
  R.JobId = "r1";
  R.Reason = "divergence";
  R.CommandLine = "ereplay pb/a";
  R.Attempts = 1;
  R.ExitCode = 3;
  R.StderrPath = ErrPath;
  auto Dir = quarantineJob(Root, R);
  ASSERT_TRUE(Dir.hasValue()) << Dir.message();

  auto Cause = readFileText(*Dir + "/cause.txt");
  ASSERT_TRUE(Cause.hasValue());
  EXPECT_NE(Cause->find("reason: divergence"), std::string::npos);
  EXPECT_NE(Cause->find("exit-code: 3"), std::string::npos);
  EXPECT_NE(Cause->find("command: ereplay pb/a"), std::string::npos);
  // The fault report extracts the DIVERGENCE line, not the chatter.
  EXPECT_NE(Cause->find("DIVERGENCE: sel.log record 0"), std::string::npos);
  EXPECT_EQ(Cause->find("retired 100"), std::string::npos);
  EXPECT_TRUE(fileExists(*Dir + "/stderr.txt"));
  removeTree(Root);
  removeFile(ErrPath);
}

TEST(Quarantine, ExtractFaultLines) {
  auto Lines = extractFaultLines(
      "noise line\n"
      "elfie-fault: divergence: icount 5 of 10\n"
      "error EFAULT.VERIFY.BUDGET @0x40: budget mismatch\n"
      "evm: guest fault in thread 0 at 0x0: bad opcode\n"
      "EFAULT.IO.WRITE: injected: no space left on device\n");
  ASSERT_EQ(Lines.size(), 4u);
  EXPECT_NE(Lines[0].find("elfie-fault:"), std::string::npos);
}

} // namespace
