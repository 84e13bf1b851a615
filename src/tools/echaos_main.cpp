//===- tools/echaos_main.cpp - seeded chaos harness for efleetd -----------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// echaos drives one seeded chaos episode against a real efleetd: it
// generates campaigns whose jobs succeed, crash themselves, flake (crash on
// attempt 1, succeed later), sleep, or fail deterministically; submits them
// from real client processes; and then, for a number of rounds, SIGKILLs
// the daemon (restarting it against the same root), SIGKILLs streaming
// clients mid-stream, and submits more work — all at seed-determined
// instants. When the dust settles it waits for every campaign to seal and
// verifies the journal-derived invariants:
//
//   * every manifest job has exactly one parseable terminal record
//     (done or quarantine), campaign-wide — zero lost, zero duplicated;
//   * no terminal record names a job outside the manifest;
//   * every journal is sealed (reason "complete" after a full drain-free
//     finish).
//
// Exit 0 when every invariant holds; 1 with a diagnostic otherwise. The
// ChaosTest suite runs this across many seeds (hundreds under
// ELFIE_SLOW_TESTS) and under the sanitizer trees.
//
//===----------------------------------------------------------------------===//

#include "sched/Campaign.h"
#include "sched/Journal.h"
#include "support/CommandLine.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/RNG.h"
#include "support/SocketIO.h"
#include "support/Subprocess.h"

#include <cstdio>
#include <map>
#include <signal.h>
#include <string.h>
#include <unistd.h>

using namespace elfie;
using namespace elfie::sched;

namespace {

struct ChaosConfig {
  std::string Root;
  std::string BinDir;
  uint64_t Seed = 1;
  uint64_t Rounds = 6;
  uint64_t Campaigns = 3;
  bool KillDaemon = true;
  bool Verbose = false;
};

class Chaos {
public:
  explicit Chaos(ChaosConfig C) : Cfg(std::move(C)), Rand(Cfg.Seed) {}

  int run();

private:
  void note(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));
  Error writeScripts();
  std::string makeManifest(uint64_t Jobs, std::map<std::string, char> &Mix);
  Error startDaemon();
  void killDaemon();
  Error stopDaemonGracefully();
  int clientRun(const std::vector<std::string> &Args,
                const std::string &LogTag);
  pid_t clientSpawn(const std::vector<std::string> &Args,
                    const std::string &LogTag);
  bool waitAllSealed(uint64_t BudgetMs);
  int verify();

  ChaosConfig Cfg;
  RNG Rand;
  std::string Sock;
  pid_t DaemonPid = -1;
  uint64_t NextCampaign = 0;
  uint64_t ClientLogSeq = 0;
  std::vector<pid_t> Streamers;
  /// campaign id -> expected per-job kind, for submitted-and-acked work.
  std::map<std::string, std::map<std::string, char>> Acked;
};

void Chaos::note(const char *Fmt, ...) {
  if (!Cfg.Verbose)
    return;
  va_list Args;
  va_start(Args, Fmt);
  std::fprintf(stderr, "echaos: ");
  std::vfprintf(stderr, Fmt, Args);
  std::fprintf(stderr, "\n");
  va_end(Args);
}

/// Job behaviors, one shell script each (manifests cannot quote, so
/// behavior lives in files). 'f' crashes itself with SIGKILL on attempt 1
/// and succeeds afterwards — a worker crash the engine must classify as
/// transient and retry; 'c' always crashes (retries exhaust into
/// quarantine); 'b' fails deterministically.
Error Chaos::writeScripts() {
  struct {
    const char *Name;
    const char *Text;
  } Scripts[] = {
      {"ok.sh", "#!/bin/sh\nexit 0\n"},
      {"slow.sh", "#!/bin/sh\nsleep 0.2\nexit 0\n"},
      {"flaky.sh", "#!/bin/sh\nif [ \"$ELFIE_ATTEMPT\" = \"1\" ]; then "
                   "kill -9 $$; fi\nexit 0\n"},
      {"crash.sh", "#!/bin/sh\nkill -9 $$\n"},
      {"bad.sh", "#!/bin/sh\nexit 7\n"},
  };
  for (const auto &S : Scripts) {
    std::string Path = Cfg.Root + "/bin/" + S.Name;
    if (Error E = writeFileAtomic(Path, S.Text, ::strlen(S.Text),
                                  /*Executable=*/true))
      return E;
  }
  return Error::success();
}

std::string Chaos::makeManifest(uint64_t Jobs,
                                std::map<std::string, char> &Mix) {
  std::string Text = "# echaos generated\n";
  for (uint64_t J = 0; J < Jobs; ++J) {
    // Weighted kind mix: mostly clean finishes with a sprinkling of
    // crashes and deterministic failures.
    uint64_t Roll = Rand.nextBelow(10);
    char Kind = Roll < 4 ? 'o' : Roll < 6 ? 's' : Roll < 8 ? 'f'
                                          : Roll < 9 ? 'c' : 'b';
    const char *Script = Kind == 'o' ? "ok.sh"
                         : Kind == 's' ? "slow.sh"
                         : Kind == 'f' ? "flaky.sh"
                         : Kind == 'c' ? "crash.sh"
                                       : "bad.sh";
    std::string Id = formatString("job%03llu",
                                  static_cast<unsigned long long>(J));
    Text += formatString("%s native %s/bin/%s", Id.c_str(),
                         Cfg.Root.c_str(), Script);
    if (Kind == 'f')
      Text += " !env:ELFIE_ATTEMPT={attempt}";
    if (Kind == 'c')
      Text += " !retries=2";
    Text += "\n";
    Mix[Id] = Kind;
  }
  return Text;
}

Error Chaos::startDaemon() {
  SpawnSpec Spec;
  Spec.Argv = {Cfg.BinDir + "/efleetd",
               "-root", Cfg.Root + "/state",
               "-socket", Sock,
               "-workers", "3",
               "-poll-ms", "5",
               "-grace", "1",
               "-retries", "4",
               "-backoff-ms", "20",
               "-backoff-max-ms", "100",
               "-timeout", "20",
               "-seed", formatString("%llu",
                                     static_cast<unsigned long long>(
                                         Cfg.Seed))};
  Spec.StdoutPath = Cfg.Root + "/daemon.out";
  Spec.StderrPath = Cfg.Root + "/daemon.err";
  auto Pid = spawnProcess(Spec);
  if (!Pid)
    return Pid.takeError();
  DaemonPid = *Pid;
  // Wait until it serves (the socket connects) or it died.
  for (int I = 0; I < 500; ++I) {
    auto Fd = connectUnixSocket(Sock);
    if (Fd) {
      ::close(*Fd);
      return Error::success();
    }
    auto W = pollProcess(DaemonPid);
    if (W && !W->Running)
      return makeError("efleetd died on start (see %s/daemon.err)",
                       Cfg.Root.c_str());
    ::usleep(10000);
  }
  return makeError("efleetd did not start serving");
}

void Chaos::killDaemon() {
  if (DaemonPid <= 0)
    return;
  note("SIGKILL daemon pid %d", DaemonPid);
  ::kill(DaemonPid, SIGKILL);
  (void)waitProcess(DaemonPid);
  DaemonPid = -1;
}

Error Chaos::stopDaemonGracefully() {
  if (DaemonPid <= 0)
    return Error::success();
  (void)clientRun({"shutdown"}, "shutdown");
  for (int I = 0; I < 2000; ++I) {
    auto W = pollProcess(DaemonPid);
    if (W && !W->Running) {
      DaemonPid = -1;
      return Error::success();
    }
    ::usleep(10000);
  }
  killDaemon();
  return makeError("efleetd ignored shutdown; killed");
}

pid_t Chaos::clientSpawn(const std::vector<std::string> &Args,
                         const std::string &LogTag) {
  SpawnSpec Spec;
  Spec.Argv = {Cfg.BinDir + "/efleet", "-connect", Sock};
  Spec.Argv.insert(Spec.Argv.end(), Args.begin(), Args.end());
  std::string Tag = formatString(
      "%s.%llu", LogTag.c_str(),
      static_cast<unsigned long long>(ClientLogSeq++));
  Spec.StdoutPath = Cfg.Root + "/clients/" + Tag + ".out";
  Spec.StderrPath = Cfg.Root + "/clients/" + Tag + ".err";
  auto Pid = spawnProcess(Spec);
  return Pid ? *Pid : -1;
}

int Chaos::clientRun(const std::vector<std::string> &Args,
                     const std::string &LogTag) {
  pid_t Pid = clientSpawn(Args, LogTag);
  if (Pid < 0)
    return -1;
  auto W = waitProcess(Pid);
  if (!W || !W->Exited)
    return -1;
  return W->ExitCode;
}

bool Chaos::waitAllSealed(uint64_t BudgetMs) {
  uint64_t Deadline = monotonicMillis() + BudgetMs;
  while (monotonicMillis() < Deadline) {
    pid_t Pid = clientSpawn({"status"}, "status");
    if (Pid >= 0) {
      auto W = waitProcess(Pid);
      if (W && W->Exited && W->ExitCode == 0) {
        std::string Out;
        if (auto T = readFileText(
                formatString("%s/clients/status.%llu.out", Cfg.Root.c_str(),
                             static_cast<unsigned long long>(
                                 ClientLogSeq - 1))))
          Out = T.takeValue();
        // efleet prints the terminal reply on stderr; re-read it there.
        if (auto T = readFileText(
                formatString("%s/clients/status.%llu.err", Cfg.Root.c_str(),
                             static_cast<unsigned long long>(
                                 ClientLogSeq - 1))))
          Out += T.takeValue();
        if (Out.find("active=0") != std::string::npos)
          return true;
      }
    }
    ::usleep(50000);
  }
  return false;
}

int Chaos::run() {
  removeTree(Cfg.Root);
  for (const char *Sub : {"", "/bin", "/clients", "/state"})
    if (Error E = createDirectories(Cfg.Root + Sub)) {
      std::fprintf(stderr, "echaos: %s\n", E.str().c_str());
      return 1;
    }
  Sock = Cfg.Root + "/d.sock";
  if (Sock.size() > 90) {
    std::fprintf(stderr, "echaos: root path too long for a socket\n");
    return 2;
  }
  if (Error E = writeScripts()) {
    std::fprintf(stderr, "echaos: %s\n", E.str().c_str());
    return 1;
  }
  if (Error E = startDaemon()) {
    std::fprintf(stderr, "echaos: %s\n", E.str().c_str());
    return 1;
  }

  // Submit the initial campaigns, each from its own client process.
  for (uint64_t C = 0; C < Cfg.Campaigns; ++C) {
    std::string Id = formatString(
        "camp%03llu", static_cast<unsigned long long>(NextCampaign++));
    std::map<std::string, char> Mix;
    std::string Manifest = makeManifest(3 + Rand.nextBelow(6), Mix);
    std::string MPath = Cfg.Root + "/" + Id + ".manifest";
    if (Error E = writeFileText(MPath, Manifest)) {
      std::fprintf(stderr, "echaos: %s\n", E.str().c_str());
      return 1;
    }
    int Code = clientRun({"submit", "chaos", Id, MPath}, "submit");
    note("submit %s -> %d", Id.c_str(), Code);
    if (Code == 0)
      Acked["chaos/" + Id] = Mix;
    // A streamer follows roughly half the campaigns; some of these get
    // SIGKILLed mid-stream later.
    if (Code == 0 && Rand.nextBelow(2) == 0) {
      pid_t S = clientSpawn({"stream", "chaos", Id}, "stream");
      if (S > 0)
        Streamers.push_back(S);
    }
  }

  // Chaos rounds: at seed-chosen instants, kill the daemon (then restart
  // it against the same root), kill a streaming client, or add work.
  for (uint64_t R = 0; R < Cfg.Rounds; ++R) {
    ::usleep(static_cast<useconds_t>(
        (30 + Rand.nextBelow(250)) * 1000));
    uint64_t Act = Rand.nextBelow(4);
    if (Act == 0 && Cfg.KillDaemon) {
      killDaemon();
      // Orphaned workers may still be running; the restarted daemon
      // re-runs their jobs from the journal regardless.
      if (Error E = startDaemon()) {
        std::fprintf(stderr, "echaos: restart: %s\n", E.str().c_str());
        return 1;
      }
      note("daemon restarted");
    } else if (Act == 1 && !Streamers.empty()) {
      size_t I = Rand.nextBelow(Streamers.size());
      note("SIGKILL streaming client pid %d", Streamers[I]);
      ::kill(Streamers[I], SIGKILL);
      (void)waitProcess(Streamers[I]);
      Streamers.erase(Streamers.begin() + static_cast<long>(I));
    } else if (Act == 2) {
      std::string Id = formatString(
          "camp%03llu", static_cast<unsigned long long>(NextCampaign++));
      std::map<std::string, char> Mix;
      std::string Manifest = makeManifest(2 + Rand.nextBelow(4), Mix);
      std::string MPath = Cfg.Root + "/" + Id + ".manifest";
      (void)writeFileText(MPath, Manifest);
      int Code = clientRun({"submit", "chaos", Id, MPath}, "submit");
      note("late submit %s -> %d", Id.c_str(), Code);
      if (Code == 0)
        Acked["chaos/" + Id] = Mix;
    } else {
      (void)clientRun({"ping"}, "ping");
    }
  }

  // Settle: every campaign must seal on its own (no cancels were sent),
  // then the daemon drains out.
  if (!waitAllSealed(60000)) {
    std::fprintf(stderr, "echaos: campaigns did not all seal in time\n");
    stopDaemonGracefully();
    return 1;
  }
  if (Error E = stopDaemonGracefully()) {
    std::fprintf(stderr, "echaos: %s\n", E.str().c_str());
    return 1;
  }
  for (pid_t S : Streamers) {
    ::kill(S, SIGKILL);
    (void)waitProcess(S);
  }
  return verify();
}

/// The journal-derived invariants, checked from disk alone.
int Chaos::verify() {
  int Bad = 0;
  std::string NsRoot = Cfg.Root + "/state/ns";
  auto NsList = listDirectory(NsRoot);
  if (!NsList) {
    std::fprintf(stderr, "echaos: verify: %s\n",
                 NsList.takeError().str().c_str());
    return 1;
  }
  size_t Seen = 0;
  for (const std::string &Ns : *NsList) {
    auto Ids = listDirectory(NsRoot + "/" + Ns);
    if (!Ids)
      continue;
    for (const std::string &Id : *Ids) {
      std::string Dir = NsRoot + "/" + Ns + "/" + Id;
      std::string Key = Ns + "/" + Id;
      ++Seen;
      auto Fail = [&](const std::string &Why) {
        std::fprintf(stderr, "echaos: INVARIANT %s: %s\n", Key.c_str(),
                     Why.c_str());
        ++Bad;
      };
      auto MText = readFileText(Dir + "/manifest");
      if (!MText) {
        Fail("accepted campaign without a manifest");
        continue;
      }
      auto Plan = CampaignPlan::parse(*MText);
      if (!Plan) {
        Fail("unparseable manifest: " + Plan.takeError().str());
        continue;
      }
      auto JText = readFileText(Dir + "/journal.jsonl");
      if (!JText) {
        Fail("no journal");
        continue;
      }
      // Count parseable terminal records per job from the raw lines:
      // exactly-once means exactly one, even across daemon SIGKILLs.
      std::map<std::string, uint64_t> Terminal;
      bool Sealed = false;
      std::string SealReason;
      for (const std::string &Raw : splitString(*JText, '\n')) {
        std::string Line = trimString(Raw);
        if (Line.empty())
          continue;
        JournalRecord Rec;
        if (!parseJournalRecord(Line, Rec))
          continue; // torn line: permitted, carries no record
        if (Rec["rec"] == "done" || Rec["rec"] == "quarantine")
          ++Terminal[Rec["job"]];
        if (Rec["rec"] == "seal") {
          Sealed = true;
          SealReason = Rec["reason"];
        }
      }
      if (!Sealed) {
        Fail("journal not sealed");
        continue;
      }
      if (SealReason != "complete")
        Fail("sealed with reason '" + SealReason + "', expected complete");
      for (const Job &J : Plan->Jobs) {
        uint64_t N = Terminal.count(J.Id) ? Terminal[J.Id] : 0;
        if (N != 1)
          Fail(formatString("job %s has %llu terminal records, want 1",
                            J.Id.c_str(),
                            static_cast<unsigned long long>(N)));
      }
      for (const auto &[JobId, N] : Terminal)
        if (!Plan->find(JobId))
          Fail("terminal record for unknown job " + JobId);
    }
  }
  // Every acknowledged submit must exist on disk (durable accept).
  for (const auto &KV : Acked)
    if (!fileExists(NsRoot + "/" + KV.first + "/manifest")) {
      std::fprintf(stderr,
                   "echaos: INVARIANT %s: acked submit lost its manifest\n",
                   KV.first.c_str());
      ++Bad;
    }
  if (Bad) {
    std::fprintf(stderr, "echaos: seed %llu: %d invariant violation%s\n",
                 static_cast<unsigned long long>(Cfg.Seed), Bad,
                 Bad == 1 ? "" : "s");
    return 1;
  }
  std::fprintf(stderr,
               "echaos: seed %llu clean (%zu campaigns verified, %zu "
               "acked)\n",
               static_cast<unsigned long long>(Cfg.Seed), Seen,
               Acked.size());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL("echaos",
                 "seeded chaos harness for efleetd: random daemon/client "
                 "kills during live campaigns, then journal-invariant "
                 "verification (exactly one terminal record per job)");
  CL.addString("root", "echaos-root", "scratch root for the episode");
  CL.addString("bindir", "",
               "directory holding efleetd/efleet (default: echaos's own)");
  CL.addInt("seed", 1, "episode seed (drives every random choice)");
  CL.addInt("rounds", 6, "chaos rounds (kills/submits/probes)");
  CL.addInt("campaigns", 3, "initial campaign count");
  CL.addFlag("no-daemon-kill", false,
             "never SIGKILL the daemon (client/worker chaos only)");
  CL.addFlag("keep", false, "keep the scratch root after the episode");
  CL.addFlag("verbose", false, "narrate the chaos schedule");
  exitOnError(CL.parse(Argc, Argv));
  if (!CL.positional().empty()) {
    std::fprintf(stderr, "usage: echaos [options]\n");
    return ExitUsage;
  }

  ChaosConfig Cfg;
  Cfg.Root = CL.getString("root");
  Cfg.BinDir = CL.getString("bindir").empty() ? selfBinDir(Argv[0])
                                              : CL.getString("bindir");
  Cfg.Seed = static_cast<uint64_t>(CL.getInt("seed"));
  Cfg.Rounds = static_cast<uint64_t>(CL.getInt("rounds"));
  Cfg.Campaigns = static_cast<uint64_t>(CL.getInt("campaigns"));
  Cfg.KillDaemon = !CL.getFlag("no-daemon-kill");
  Cfg.Verbose = CL.getFlag("verbose");

  Chaos C(Cfg);
  int Code = C.run();
  if (!CL.getFlag("keep") && Code == 0)
    removeTree(Cfg.Root);
  return Code;
}
