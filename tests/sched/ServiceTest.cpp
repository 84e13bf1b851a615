//===- tests/sched/ServiceTest.cpp - efleetd service tests ----------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// The campaign service, bottom up: protocol grammar and reply parsing,
/// the quota ledger, line assembly and session buffer caps — then the
/// daemon end to end as an operator sees it, driven over its socket with
/// `efleet -connect`: submit/status/stream/cancel, structured busy
/// backpressure, dup rejection, client disconnect mid-stream, graceful
/// shutdown drain, SIGKILL + restart recovery, and the ENOSPC admission
/// pause with probe-based recovery.
///
/// Campaigns here use native /bin jobs only (no pinball fixtures): the
/// service layer is what is under test, and FleetTest already proves the
/// engine against real pipelines.
///
//===----------------------------------------------------------------------===//

#include "../common/TestHelpers.h"
#include "sched/Journal.h"
#include "sched/Protocol.h"
#include "sched/Quota.h"
#include "sched/Session.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/SocketIO.h"
#include "support/Subprocess.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <map>
#include <signal.h>
#include <string>
#include <unistd.h>

using namespace elfie;
using namespace elfie::sched;

#ifndef ELFIE_BIN_DIR
#define ELFIE_BIN_DIR ""
#endif

namespace {

//===----------------------------------------------------------------------===//
// Protocol grammar
//===----------------------------------------------------------------------===//

TEST(Protocol, NamesAreDirectorySafe) {
  EXPECT_TRUE(proto::isValidName("team-a"));
  EXPECT_TRUE(proto::isValidName("run.2026_08"));
  EXPECT_TRUE(proto::isValidName("A"));
  EXPECT_TRUE(proto::isValidName(std::string(64, 'x')));
  EXPECT_FALSE(proto::isValidName(""));
  EXPECT_FALSE(proto::isValidName(std::string(65, 'x')));
  EXPECT_FALSE(proto::isValidName("."));
  EXPECT_FALSE(proto::isValidName(".."));
  EXPECT_FALSE(proto::isValidName("a/b"));
  EXPECT_FALSE(proto::isValidName("a b"));
  EXPECT_FALSE(proto::isValidName("caf\xc3\xa9"));
}

TEST(Protocol, ParsesEveryRequestForm) {
  auto R = proto::parseRequest("ping");
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Kind, proto::RequestKind::Ping);

  R = proto::parseRequest("submit team  job-1\t12");
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->Kind, proto::RequestKind::Submit);
  EXPECT_EQ(R->Ns, "team");
  EXPECT_EQ(R->Campaign, "job-1");
  EXPECT_EQ(R->ManifestLines, 12u);

  R = proto::parseRequest("status");
  ASSERT_TRUE(R.hasValue());
  EXPECT_TRUE(R->Ns.empty());
  R = proto::parseRequest("status team");
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Ns, "team");
  EXPECT_TRUE(R->Campaign.empty());
  R = proto::parseRequest("status team c1");
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Campaign, "c1");

  R = proto::parseRequest("stream team c1");
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Kind, proto::RequestKind::Stream);
  R = proto::parseRequest("cancel team c1");
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Kind, proto::RequestKind::Cancel);
  R = proto::parseRequest("shutdown");
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Kind, proto::RequestKind::Shutdown);
}

TEST(Protocol, RejectsWithStableCodes) {
  struct Case {
    const char *Line;
    const char *Code;
  } Cases[] = {
      {"", proto::CodeProtoCmd},
      {"frobnicate", proto::CodeProtoCmd},
      {"ping extra", proto::CodeProtoArgs},
      {"submit team c1", proto::CodeProtoArgs},     // missing nlines
      {"submit team c1 0", proto::CodeProtoArgs},   // empty body
      {"submit team c1 nan", proto::CodeProtoArgs},
      {"submit team c1 9999", proto::CodeProtoLine}, // over MaxManifestLines
      {"submit ../etc c1 1", proto::CodeProtoNs},
      {"stream a/b c1", proto::CodeProtoNs},
      {"stream team", proto::CodeProtoArgs},
      {"status a b c d", proto::CodeProtoArgs},
  };
  for (const Case &C : Cases) {
    auto R = proto::parseRequest(C.Line);
    ASSERT_FALSE(R.hasValue()) << C.Line;
    EXPECT_EQ(R.takeError().code(), C.Code) << C.Line;
  }
  auto R = proto::parseRequest(std::string(proto::MaxLineBytes + 1, 'p'));
  ASSERT_FALSE(R.hasValue());
  EXPECT_EQ(R.takeError().code(), proto::CodeProtoLine);
}

TEST(Protocol, ReplyRenderParseRoundTrip) {
  struct Case {
    std::string Wire;
    proto::Reply::Kind K;
    std::string Code, Text;
  } Cases[] = {
      {proto::replyOk("accepted t/c jobs=3"), proto::Reply::Kind::Ok, "",
       "accepted t/c jobs=3"},
      {proto::replyOk(), proto::Reply::Kind::Ok, "", ""},
      {proto::replyErr(proto::CodeDup, "campaign t/c already exists"),
       proto::Reply::Kind::Err, proto::CodeDup, "campaign t/c already exists"},
      {proto::replyBusy(proto::CodeBusyJobs, "namespace t is at its quota"),
       proto::Reply::Kind::Busy, proto::CodeBusyJobs,
       "namespace t is at its quota"},
      {proto::replyEvent("{\"rec\":\"done\",\"job\":\"a\"}"),
       proto::Reply::Kind::Event, "", "{\"rec\":\"done\",\"job\":\"a\"}"},
      {proto::replyEnd("complete"), proto::Reply::Kind::End, "", "complete"},
  };
  for (const Case &C : Cases) {
    ASSERT_EQ(C.Wire.back(), '\n');
    auto R = proto::parseReply(C.Wire.substr(0, C.Wire.size() - 1));
    ASSERT_TRUE(R.hasValue()) << C.Wire;
    EXPECT_EQ(R->K, C.K) << C.Wire;
    EXPECT_EQ(R->Code, C.Code) << C.Wire;
    EXPECT_EQ(R->Text, C.Text) << C.Wire;
  }
  EXPECT_FALSE(proto::parseReply("gibberish line").hasValue());
  EXPECT_FALSE(proto::parseReply("err").hasValue()); // code is mandatory
}

//===----------------------------------------------------------------------===//
// Quota ledger
//===----------------------------------------------------------------------===//

TEST(Quota, BoundsCampaignsAndJobsPerNamespace) {
  QuotaLedger L({/*MaxCampaigns=*/2, /*MaxJobs=*/10});
  EXPECT_EQ(L.check("a", 8), nullptr);
  L.admit("a", 8);
  // Job bound: 8 + 3 > 10.
  EXPECT_STREQ(L.check("a", 3), proto::CodeBusyJobs);
  EXPECT_EQ(L.check("a", 2), nullptr);
  L.admit("a", 2);
  // Campaign bound: a third campaign even with zero jobs outstanding.
  L.releaseJobs("a", 10);
  EXPECT_STREQ(L.check("a", 1), proto::CodeBusyCampaigns);
  // Namespaces are isolated shares, not a global pool.
  EXPECT_EQ(L.check("b", 10), nullptr);

  L.releaseCampaign("a");
  EXPECT_EQ(L.check("a", 1), nullptr);
  auto U = L.usage("a");
  EXPECT_EQ(U.Campaigns, 1u);
  EXPECT_EQ(U.Jobs, 0u);
}

TEST(Quota, ReleaseClampsAndErasesEmptyNamespaces) {
  QuotaLedger L({2, 10});
  L.admit("a", 4);
  L.releaseJobs("a", 100); // over-release never underflows
  EXPECT_EQ(L.usage("a").Jobs, 0u);
  L.releaseCampaign("a");
  L.releaseCampaign("a"); // idempotent on an empty namespace
  EXPECT_EQ(L.usage("a").Campaigns, 0u);
  EXPECT_EQ(L.check("a", 10), nullptr);
}

TEST(Quota, MillionCycleChurnStaysExact) {
  QuotaLedger L({4, 100});
  for (int I = 0; I < 250000; ++I) {
    ASSERT_EQ(L.check("ns", 25), nullptr);
    L.admit("ns", 25);
    L.releaseJobs("ns", 25);
    L.releaseCampaign("ns");
  }
  EXPECT_EQ(L.usage("ns").Campaigns, 0u);
  EXPECT_EQ(L.usage("ns").Jobs, 0u);
}

//===----------------------------------------------------------------------===//
// Line assembly and session caps
//===----------------------------------------------------------------------===//

TEST(LineBuffer, AssemblesLinesAcrossArbitraryChunks) {
  LineBuffer B(64);
  std::string Line;
  EXPECT_TRUE(B.feed("pi", 2));
  EXPECT_FALSE(B.pop(Line));
  EXPECT_TRUE(B.feed("ng\nsta", 6));
  ASSERT_TRUE(B.pop(Line));
  EXPECT_EQ(Line, "ping");
  EXPECT_FALSE(B.pop(Line));
  EXPECT_TRUE(B.feed("tus\r\nok\n", 8)); // CRLF peers are tolerated
  ASSERT_TRUE(B.pop(Line));
  EXPECT_EQ(Line, "status");
  ASSERT_TRUE(B.pop(Line));
  EXPECT_EQ(Line, "ok");
  EXPECT_FALSE(B.pop(Line));
  EXPECT_EQ(B.pending(), 0u);
}

TEST(LineBuffer, UnterminatedDataPastCapPoisons) {
  LineBuffer B(8);
  EXPECT_TRUE(B.feed("complete\n", 9)); // a full line may exceed nothing
  std::string Line;
  ASSERT_TRUE(B.pop(Line));
  EXPECT_EQ(Line, "complete");
  EXPECT_FALSE(B.overflowed());
  // 9 pending bytes with no newline in sight: poisoned.
  EXPECT_FALSE(B.feed("abcdefghi", 9));
  EXPECT_TRUE(B.overflowed());
}

TEST(Session, ReadsLinesAndEnforcesRecvCap) {
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  ASSERT_FALSE(setNonBlocking(Pair[0]).isError());
  {
    Session S(Pair[0], 1, /*RecvCap=*/32, /*SendCap=*/4096);
    ASSERT_FALSE(writeAllSocket(Pair[1], "ping\n").isError());
    S.onReadable();
    std::string Line;
    ASSERT_TRUE(S.nextLine(Line));
    EXPECT_EQ(Line, "ping");
    EXPECT_FALSE(S.dead());

    S.send("ok pong\n");
    char Buf[64];
    auto R = readSocket(Pair[1], Buf, sizeof(Buf));
    ASSERT_TRUE(R.hasValue());
    EXPECT_EQ(std::string(Buf, R->Bytes), "ok pong\n");

    // A client spraying an endless unterminated line is disconnected when
    // it crosses the recv cap, not buffered forever.
    ASSERT_FALSE(
        writeAllSocket(Pair[1], std::string(64, 'x')).isError());
    S.onReadable();
    EXPECT_TRUE(S.dead());
    EXPECT_TRUE(S.shouldClose());
  } // Session closes Pair[0]
  ::close(Pair[1]);
}

TEST(Session, PeerDisconnectMakesSessionDeadAndSendsAreSwallowed) {
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  ASSERT_FALSE(setNonBlocking(Pair[0]).isError());
  Session S(Pair[0], 1, 4096, 4096);
  ::close(Pair[1]); // the client vanishes
  S.onReadable();   // EOF
  EXPECT_TRUE(S.dead());
  // Sends to a dead session are dropped, never an error or a signal.
  S.send("event {\"rec\":\"done\"}\n");
  EXPECT_TRUE(S.shouldClose());
}

//===----------------------------------------------------------------------===//
// Daemon end-to-end
//===----------------------------------------------------------------------===//

using test::CmdResult;
using test::runCmd;

std::string binPath(const std::string &Tool) {
  return std::string(ELFIE_BIN_DIR) + "/" + Tool;
}

class ServiceE2E : public testing::Test {
protected:
  static void SetUpTestSuite() {
    Root = testing::TempDir() + "/elfie_service_e2e." +
           std::to_string(getpid());
    removeTree(Root);
    ASSERT_FALSE(createDirectories(Root).isError());
  }
  static void TearDownTestSuite() { removeTree(Root); }

  void SetUp() override {
    Dir = Root + "/" +
          testing::UnitTest::GetInstance()->current_test_info()->name();
    removeTree(Dir);
    ASSERT_FALSE(createDirectories(Dir).isError());
    Sock = Dir + "/d.sock";
  }

  void TearDown() override {
    if (Daemon > 0) {
      killProcessTree(Daemon, SIGKILL);
      (void)waitProcess(Daemon);
      Daemon = -1;
    }
  }

  /// Spawns efleetd against this test's state root and waits for its
  /// socket to accept. Extra flags append (last flag wins in CommandLine);
  /// Env entries are set in the daemon only.
  void startDaemon(
      const std::vector<std::string> &Extra = {},
      const std::vector<std::pair<std::string, std::string>> &Env = {}) {
    SpawnSpec Spec;
    Spec.Argv = {binPath("efleetd"),
                 "-root", Dir + "/state",
                 "-socket", Sock,
                 "-bindir", ELFIE_BIN_DIR,
                 "-workers", "4",
                 "-poll-ms", "5",
                 "-grace", "1",
                 "-retries", "3",
                 "-backoff-ms", "20",
                 "-backoff-max-ms", "100",
                 "-timeout", "30"};
    Spec.Argv.insert(Spec.Argv.end(), Extra.begin(), Extra.end());
    Spec.ExtraEnv = Env;
    Spec.StdoutPath = Dir + formatString("/daemon%d.out", ++DaemonGen);
    Spec.StderrPath = Dir + formatString("/daemon%d.err", DaemonGen);
    auto Pid = spawnProcess(Spec);
    ASSERT_TRUE(Pid.hasValue()) << Pid.message();
    Daemon = *Pid;
    for (int I = 0; I < 400; ++I) {
      auto Fd = connectUnixSocket(Sock);
      if (Fd.hasValue()) {
        ::close(*Fd);
        return;
      }
      ::usleep(25000);
    }
    FAIL() << "daemon socket never came up: " << daemonErr();
  }

  void killDaemon() {
    ASSERT_GT(Daemon, 0);
    killProcessTree(Daemon, SIGKILL);
    (void)waitProcess(Daemon);
    Daemon = -1;
  }

  /// Graceful stop via the protocol; asserts a clean daemon exit.
  void shutdownDaemon() {
    CmdResult R = client("shutdown");
    EXPECT_EQ(R.ExitCode, 0) << R.Output;
    auto W = waitProcess(Daemon);
    Daemon = -1;
    ASSERT_TRUE(W.hasValue());
    ASSERT_TRUE(W->Exited) << "signal " << W->Signal;
    EXPECT_EQ(W->ExitCode, 0);
  }

  CmdResult client(const std::string &Args) {
    return runCmd("", formatString("%s -connect %s %s",
                                   binPath("efleet").c_str(), Sock.c_str(),
                                   Args.c_str()));
  }

  std::string daemonErr() {
    auto T = readFileText(Dir + formatString("/daemon%d.err", DaemonGen));
    return T ? *T : T.message();
  }

  void writeManifest(const std::string &Name, const std::string &Text) {
    ASSERT_FALSE(writeFileText(Dir + "/" + Name, Text).isError());
  }

  CmdResult submit(const std::string &Ns, const std::string &Id,
                   const std::string &ManifestName) {
    return client(formatString("submit %s %s %s/%s", Ns.c_str(), Id.c_str(),
                               Dir.c_str(), ManifestName.c_str()));
  }

  /// Polls `status ns id` until the campaign reports sealed (or the
  /// budget runs out). Returns the final status text.
  std::string waitSealed(const std::string &Ns, const std::string &Id,
                         int BudgetMs = 30000) {
    std::string Last;
    for (int Waited = 0; Waited < BudgetMs; Waited += 100) {
      CmdResult R = client(formatString("status %s %s", Ns.c_str(),
                                        Id.c_str()));
      Last = R.Output;
      if (R.Output.find("state=sealed") != std::string::npos)
        return R.Output;
      ::usleep(100000);
    }
    return Last;
  }

  std::string journalPath(const std::string &Ns, const std::string &Id) {
    return Dir + "/state/ns/" + Ns + "/" + Id + "/journal.jsonl";
  }

  /// done/quarantine record count per job, straight off the on-disk
  /// journal (the chaos invariant: exactly one per job).
  std::map<std::string, int> terminalCounts(const std::string &Ns,
                                            const std::string &Id) {
    std::map<std::string, int> Counts;
    auto Text = readFileText(journalPath(Ns, Id));
    if (!Text)
      return Counts;
    for (const std::string &Line : splitString(*Text, '\n')) {
      JournalRecord Rec;
      if (trimString(Line).empty() || !parseJournalRecord(Line, Rec))
        continue;
      if (Rec["rec"] == "done" || Rec["rec"] == "quarantine")
        ++Counts[Rec["job"]];
    }
    return Counts;
  }

  static std::string Root;
  std::string Dir, Sock;
  pid_t Daemon = -1;
  int DaemonGen = 0;
};

std::string ServiceE2E::Root;

TEST_F(ServiceE2E, PingStatusAndWireErrors) {
  startDaemon();
  CmdResult R = client("ping");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("ok pong"), std::string::npos) << R.Output;

  R = client("status");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("active=0"), std::string::npos) << R.Output;

  R = client("status team nothere");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("EFLEETD.NOTFOUND"), std::string::npos)
      << R.Output;
  R = client("cancel team nothere");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;

  // Raw wire errors, bypassing the client's own arg validation.
  auto Fd = connectUnixSocket(Sock);
  ASSERT_TRUE(Fd.hasValue()) << Fd.message();
  std::string Raw = "frobnicate\n";
  Raw += "stream bad/ns c1\n";
  Raw += std::string(proto::MaxLineBytes + 16, 'z') + "\n";
  Raw += "ping\n";
  ASSERT_FALSE(writeAllSocket(*Fd, Raw).isError());
  std::string Got;
  char Buf[4096];
  while (Got.find("ok pong") == std::string::npos) {
    auto RR = readSocket(*Fd, Buf, sizeof(Buf));
    ASSERT_TRUE(RR.hasValue()) << RR.message();
    ASSERT_FALSE(RR->Closed) << Got;
    Got.append(Buf, RR->Bytes);
  }
  ::close(*Fd);
  EXPECT_NE(Got.find("err EFLEETD.PROTO.CMD"), std::string::npos) << Got;
  EXPECT_NE(Got.find("err EFLEETD.PROTO.NS"), std::string::npos) << Got;
  EXPECT_NE(Got.find("err EFLEETD.PROTO.LINE"), std::string::npos) << Got;

  shutdownDaemon();
}

TEST_F(ServiceE2E, SubmitRunsStreamsAndRejectsDuplicates) {
  startDaemon();
  // One job sleeps long enough that the campaign is reliably still live
  // when the streaming client connects below (instant jobs can seal the
  // campaign before the stream attaches, which is the `end sealed` path
  // tested separately).
  writeManifest("m.txt", "a native /bin/true\n"
                         "b native /bin/true\n"
                         "c native /bin/echo hello\n"
                         "d native /bin/sleep 1\n");
  CmdResult R = submit("team", "c1", "m.txt");
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("accepted team/c1 jobs=4"), std::string::npos)
      << R.Output;

  // The manifest was durable before the ok reply.
  auto M = readFileText(Dir + "/state/ns/team/c1/manifest");
  ASSERT_TRUE(M.hasValue()) << M.message();
  EXPECT_NE(M->find("a native"), std::string::npos);

  // Stream until the campaign seals; every event line is a well-formed
  // journal record on stdout.
  R = client("stream team c1");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("end complete"), std::string::npos) << R.Output;
  int Events = 0;
  for (const std::string &Line : splitString(R.Output, '\n')) {
    if (Line.empty() || Line.compare(0, 1, "{") != 0)
      continue;
    JournalRecord Rec;
    EXPECT_TRUE(parseJournalRecord(Line, Rec)) << Line;
    ++Events;
  }
  EXPECT_GT(Events, 0) << R.Output;

  std::string St = waitSealed("team", "c1");
  EXPECT_NE(St.find("reason=complete"), std::string::npos) << St;
  EXPECT_NE(St.find("done=4"), std::string::npos) << St;

  // Streaming a sealed campaign ends immediately instead of hanging.
  R = client("stream team c1");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("end sealed"), std::string::npos) << R.Output;

  // Same name, same namespace: a permanent error, not backpressure.
  R = submit("team", "c1", "m.txt");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("EFLEETD.DUP"), std::string::npos) << R.Output;
  // Same name in another namespace is a different campaign.
  R = submit("other", "c1", "m.txt");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  waitSealed("other", "c1");

  auto St2 = scanJournal(journalPath("team", "c1"));
  ASSERT_TRUE(St2.hasValue()) << St2.message();
  EXPECT_TRUE(St2->Sealed);
  EXPECT_EQ(St2->SealReason, "complete");
  EXPECT_EQ(St2->Done.size(), 4u);

  shutdownDaemon();
}

TEST_F(ServiceE2E, QuotaBackpressureIsBusyNotError) {
  startDaemon({"-max-campaigns", "2", "-max-jobs", "3"});
  writeManifest("slow.txt", "s1 native /bin/sleep 10 !timeout=30\n"
                            "s2 native /bin/sleep 10 !timeout=30\n");
  writeManifest("slow1.txt", "s1 native /bin/sleep 10 !timeout=30\n");
  writeManifest("one.txt", "only native /bin/true\n");

  CmdResult R = submit("team", "big", "slow.txt");
  ASSERT_EQ(R.ExitCode, 0) << R.Output;

  // Job quota: 2 running + 2 more > 3.
  R = submit("team", "big2", "slow.txt");
  EXPECT_EQ(R.ExitCode, 4) << R.Output;
  EXPECT_NE(R.Output.find("busy EFLEETD.BUSY.JOBS"), std::string::npos)
      << R.Output;

  // A one-job campaign still fits (3 total) ...
  R = submit("team", "small", "slow1.txt");
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  // ... but the namespace is now at its campaign quota.
  R = submit("team", "small2", "one.txt");
  EXPECT_EQ(R.ExitCode, 4) << R.Output;
  EXPECT_NE(R.Output.find("busy EFLEETD.BUSY.CAMPAIGNS"), std::string::npos)
      << R.Output;

  // Quotas are per namespace, not global.
  R = submit("other", "small", "one.txt");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;

  // Cancel drains the big campaign; its slots free and the busy submit —
  // retried exactly as the reply tells the client to — goes through.
  R = client("cancel team big");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  std::string St = waitSealed("team", "big");
  EXPECT_NE(St.find("reason=drain"), std::string::npos) << St;
  bool Accepted = false;
  for (int I = 0; I < 100 && !Accepted; ++I) {
    R = submit("team", "small2", "one.txt");
    if (R.ExitCode == 0)
      Accepted = true;
    else {
      ASSERT_EQ(R.ExitCode, 4) << R.Output;
      ::usleep(100000);
    }
  }
  EXPECT_TRUE(Accepted) << R.Output;

  shutdownDaemon();
}

TEST_F(ServiceE2E, StreamerDisconnectNeverHurtsTheCampaign) {
  startDaemon();
  writeManifest("m.txt", "a native /bin/sleep 2\n"
                         "b native /bin/sleep 2\n");
  CmdResult R = submit("team", "c1", "m.txt");
  ASSERT_EQ(R.ExitCode, 0) << R.Output;

  // A streaming client attaches, then dies mid-stream (SIGKILL, no
  // goodbye). The daemon must drop the subscription and keep running.
  SpawnSpec Spec;
  Spec.Argv = {binPath("efleet"), "-connect", Sock, "stream", "team", "c1"};
  Spec.StdoutPath = Dir + "/streamer.out";
  Spec.StderrPath = Dir + "/streamer.err";
  auto Pid = spawnProcess(Spec);
  ASSERT_TRUE(Pid.hasValue()) << Pid.message();
  ::usleep(300000);
  killProcessTree(*Pid, SIGKILL);
  (void)waitProcess(*Pid);

  R = client("ping");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;

  std::string St = waitSealed("team", "c1");
  EXPECT_NE(St.find("reason=complete"), std::string::npos) << St;
  EXPECT_NE(St.find("done=2"), std::string::npos) << St;
  shutdownDaemon();
}

TEST_F(ServiceE2E, SigkillRestartRecoversZeroLostZeroDuplicated) {
  startDaemon();
  writeManifest("m.txt", "f1 native /bin/true\n"
                         "f2 native /bin/true\n"
                         "s1 native /bin/sleep 1\n"
                         "s2 native /bin/sleep 1\n");
  CmdResult R = submit("team", "c1", "m.txt");
  ASSERT_EQ(R.ExitCode, 0) << R.Output;

  // SIGKILL with the fast jobs likely journaled done and the sleeps in
  // flight. Workers are orphaned — they only write log files, never the
  // journal, so the restart re-runs their jobs from journal truth.
  ::usleep(400000);
  killDaemon();

  startDaemon();
  EXPECT_NE(daemonErr().find("recover: resuming team/c1"),
            std::string::npos)
      << daemonErr();

  std::string St = waitSealed("team", "c1");
  EXPECT_NE(St.find("reason=complete"), std::string::npos) << St;
  EXPECT_NE(St.find("done=4"), std::string::npos) << St;

  std::map<std::string, int> Counts = terminalCounts("team", "c1");
  ASSERT_EQ(Counts.size(), 4u);
  for (const auto &[Job, N] : Counts)
    EXPECT_EQ(N, 1) << "job '" << Job << "' lost or duplicated";

  // Recovery after the seal: a fresh daemon lists the campaign as
  // finished without resuming it.
  shutdownDaemon();
  startDaemon();
  R = client("status team c1");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("reason=complete"), std::string::npos)
      << R.Output;
  R = client("status");
  EXPECT_NE(R.Output.find("active=0"), std::string::npos) << R.Output;
  shutdownDaemon();
}

TEST_F(ServiceE2E, ShutdownDrainsInFlightWorkAndResumeFinishesIt) {
  startDaemon();
  writeManifest("m.txt", "fast native /bin/true\n"
                         "slow native /bin/sleep 3 !timeout=30\n");
  CmdResult R = submit("team", "c1", "m.txt");
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  ::usleep(300000); // let the slow job start

  R = client("shutdown");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("draining"), std::string::npos) << R.Output;

  // Admission is closed while the drain runs: structured busy, exit 4.
  writeManifest("late.txt", "late native /bin/true\n");
  R = submit("team", "c2", "late.txt");
  if (R.ExitCode != 1) { // the daemon may already be gone (conn refused)
    EXPECT_EQ(R.ExitCode, 4) << R.Output;
    EXPECT_NE(R.Output.find("EFLEETD.BUSY.DRAIN"), std::string::npos)
        << R.Output;
  }

  auto W = waitProcess(Daemon);
  Daemon = -1;
  ASSERT_TRUE(W.hasValue());
  ASSERT_TRUE(W->Exited);
  EXPECT_EQ(W->ExitCode, 0);

  auto St = scanJournal(journalPath("team", "c1"));
  ASSERT_TRUE(St.hasValue()) << St.message();
  EXPECT_TRUE(St->Sealed);
  EXPECT_EQ(St->SealReason, "drain");
  EXPECT_TRUE(St->Done.count("fast"));
  EXPECT_FALSE(St->terminal("slow"));

  // The drained campaign resumes on the next start and completes.
  startDaemon();
  std::string Final = waitSealed("team", "c1");
  EXPECT_NE(Final.find("reason=complete"), std::string::npos) << Final;
  std::map<std::string, int> Counts = terminalCounts("team", "c1");
  ASSERT_EQ(Counts.size(), 2u);
  for (const auto &[Job, N] : Counts)
    EXPECT_EQ(N, 1) << Job;
  shutdownDaemon();
}

TEST_F(ServiceE2E, DiskPressurePausesAdmissionUntilProbeRecovers) {
  // The injected ENOSPC lands on the daemon's 4th write: manifest, plan
  // record, start record, then the exit-record append fails. The daemon
  // must pause admission (busy EFLEETD.BUSY.DISK), drain the campaign,
  // and reopen admission when the probe write succeeds (the one-shot
  // fault is spent by then).
  startDaemon({"-probe-ms", "2000"},
              {{"ELFIE_FAULT_SPEC", "write:4:enospc"}});
  writeManifest("m.txt", "a native /bin/true\n");
  writeManifest("late.txt", "late native /bin/true\n");

  CmdResult R = submit("team", "c1", "m.txt");
  ASSERT_EQ(R.ExitCode, 0) << R.Output;

  // Wait for the pause to take effect, then prove the structured refusal.
  bool Paused = false;
  for (int I = 0; I < 100 && !Paused; ++I) {
    R = client("status");
    Paused = R.Output.find("paused=1") != std::string::npos;
    if (!Paused)
      ::usleep(100000);
  }
  ASSERT_TRUE(Paused) << R.Output << daemonErr();
  R = submit("team", "late", "late.txt");
  EXPECT_EQ(R.ExitCode, 4) << R.Output;
  EXPECT_NE(R.Output.find("busy EFLEETD.BUSY.DISK"), std::string::npos)
      << R.Output;

  // The documented client policy: busy means retry later. The probe
  // unpauses admission within its cadence and the retry goes through.
  bool Accepted = false;
  for (int I = 0; I < 150 && !Accepted; ++I) {
    R = submit("team", "late", "late.txt");
    if (R.ExitCode == 0)
      Accepted = true;
    else {
      ASSERT_EQ(R.ExitCode, 4) << R.Output;
      ::usleep(100000);
    }
  }
  ASSERT_TRUE(Accepted) << R.Output << daemonErr();
  waitSealed("team", "late");

  // c1 drained under the outage; a restart (healthy disk) finishes it.
  shutdownDaemon();
  startDaemon();
  std::string Final = waitSealed("team", "c1");
  EXPECT_NE(Final.find("reason=complete"), std::string::npos)
      << Final << daemonErr();
  std::map<std::string, int> Counts = terminalCounts("team", "c1");
  ASSERT_EQ(Counts.size(), 1u);
  EXPECT_EQ(Counts["a"], 1);
  shutdownDaemon();
}

TEST_F(ServiceE2E, SecondDaemonOnSameRootIsRefused) {
  startDaemon();
  CmdResult R = runCmd(
      "", formatString("%s -root %s/state -socket %s/other.sock",
                       binPath("efleetd").c_str(), Dir.c_str(), Dir.c_str()));
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("EFAULT.SERVICE.LOCKED"), std::string::npos)
      << R.Output;
  // The incumbent is unharmed.
  R = client("ping");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  shutdownDaemon();
}

} // namespace
