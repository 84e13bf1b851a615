//===- tools/efleet_main.cpp - crash-recoverable campaign runner ----------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// efleet executes a manifest of jobs (replay/emit/native/verify/sim over
// pinballs and ELFies) through a bounded pool of subprocess workers.
// Transient failures retry with seeded exponential backoff; deterministic
// failures are quarantined with evidence attached; every transition is
// journaled (fsync per record) so SIGKILL mid-campaign resumes exactly.
// SIGINT/SIGTERM drain gracefully. See DESIGN.md §9.
//
//===----------------------------------------------------------------------===//

#include "fault/FaultPlan.h"
#include "sched/Fleet.h"
#include "sched/Protocol.h"
#include "support/CommandLine.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/SocketIO.h"
#include "support/Subprocess.h"

#include <cstdio>
#include <cstdlib>
#include <signal.h>
#include <string.h>
#include <unistd.h>

using namespace elfie;
using namespace elfie::sched;

/// Client exit code for structured backpressure (busy replies): the request
/// was well-formed but the daemon refused it for now — retry later.
/// Documented alongside the 0/1/2/3 taxonomy in README.
static constexpr int ExitBusy = 4;

static void onDrainSignal(int) { requestDrain(); }

namespace {

/// Blocking '\n'-framed reader over the client socket.
class LineReader {
public:
  explicit LineReader(int Fd) : Fd(Fd) {}

  /// Reads one line (without '\n'). False on EOF/error with nothing left.
  bool next(std::string &Out) {
    for (;;) {
      size_t NL = Buf.find('\n');
      if (NL != std::string::npos) {
        Out = Buf.substr(0, NL);
        Buf.erase(0, NL + 1);
        return true;
      }
      char Chunk[4096];
      auto R = readSocket(Fd, Chunk, sizeof(Chunk));
      if (!R || R->Closed || R->Bytes == 0)
        return false;
      Buf.append(Chunk, R->Bytes);
    }
  }

private:
  int Fd;
  std::string Buf;
};

/// Maps a terminal reply to the client exit code and prints it.
int settleReply(const proto::Reply &R) {
  switch (R.K) {
  case proto::Reply::Kind::Ok:
    std::fprintf(stderr, "efleet: ok %s\n", R.Text.c_str());
    return ExitSuccess;
  case proto::Reply::Kind::End:
    std::fprintf(stderr, "efleet: end %s\n", R.Text.c_str());
    return ExitSuccess;
  case proto::Reply::Kind::Busy:
    std::fprintf(stderr, "efleet: busy %s %s\n", R.Code.c_str(),
                 R.Text.c_str());
    return ExitBusy;
  case proto::Reply::Kind::Err:
    std::fprintf(stderr, "efleet: err %s %s\n", R.Code.c_str(),
                 R.Text.c_str());
    return ExitFailure;
  case proto::Reply::Kind::Event:
    break;
  }
  return ExitFailure;
}

/// Client mode: speaks the efleetd protocol (DESIGN.md §14).
///   efleet -connect SOCK ping
///   efleet -connect SOCK submit <ns> <campaign> <manifest-file>
///   efleet -connect SOCK status [<ns> [<campaign>]]
///   efleet -connect SOCK stream <ns> <campaign>
///   efleet -connect SOCK cancel <ns> <campaign>
///   efleet -connect SOCK shutdown
int runClient(const std::string &Sock, const std::vector<std::string> &Args) {
  if (Args.empty()) {
    std::fprintf(stderr,
                 "usage: efleet -connect SOCK "
                 "ping|submit|status|stream|cancel|shutdown ...\n");
    return ExitUsage;
  }
  const std::string &Verb = Args[0];

  std::string Request;
  std::string Body;
  bool Streaming = Verb == "stream";
  if (Verb == "submit") {
    if (Args.size() != 4) {
      std::fprintf(stderr,
                   "usage: efleet -connect SOCK submit <ns> <campaign> "
                   "<manifest-file>\n");
      return ExitUsage;
    }
    std::string Text =
        exitOnError(readFileText(Args[3]), "efleet");
    std::vector<std::string> Lines64 = splitString(Text, '\n');
    if (!Lines64.empty() && Lines64.back().empty())
      Lines64.pop_back(); // trailing-newline artifact
    uint64_t Lines = Lines64.size();
    for (const std::string &L : Lines64) {
      Body += L;
      Body += '\n';
    }
    if (Lines == 0) {
      std::fprintf(stderr, "efleet: empty manifest '%s'\n", Args[3].c_str());
      return ExitFailure;
    }
    Request = formatString("submit %s %s %llu\n", Args[1].c_str(),
                           Args[2].c_str(),
                           static_cast<unsigned long long>(Lines));
  } else {
    for (const std::string &A : Args) {
      Request += Request.empty() ? "" : " ";
      Request += A;
    }
    Request += '\n';
  }

  int Fd = exitOnError(connectUnixSocket(Sock), "efleet");
  if (Error E = writeAllSocket(Fd, Request + Body)) {
    std::fprintf(stderr, "efleet: %s\n", E.str().c_str());
    ::close(Fd);
    return ExitFailure;
  }

  LineReader Rd(Fd);
  int Code = ExitFailure;
  std::string Line;
  for (;;) {
    if (!Rd.next(Line)) {
      std::fprintf(stderr, "efleet: daemon closed the connection\n");
      break;
    }
    auto R = proto::parseReply(Line);
    if (!R) {
      std::fprintf(stderr, "efleet: %s\n", R.takeError().str().c_str());
      break;
    }
    if (R->K == proto::Reply::Kind::Event) {
      // Journal records stream to stdout as-is (JSONL).
      std::fprintf(stdout, "%s\n", R->Text.c_str());
      std::fflush(stdout);
      continue;
    }
    Code = settleReply(*R);
    if (!Streaming || R->K == proto::Reply::Kind::End ||
        R->K == proto::Reply::Kind::Err ||
        R->K == proto::Reply::Kind::Busy)
      break;
  }
  ::close(Fd);
  return Code;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL("efleet",
                 "runs a campaign manifest through a crash-recoverable "
                 "worker pool with retry/backoff, quarantine, and "
                 "graceful drain");
  CL.addString("out", "fleet-out",
               "campaign state root (journal.jsonl, logs/, quarantine/, "
               "artifacts/); an existing journal there resumes the "
               "campaign");
  CL.addString("bindir", "",
               "directory holding the driven tools (default: efleet's own "
               "directory)");
  CL.addInt("workers", 4, "max concurrent jobs");
  CL.addInt("retries", 5, "max attempts per job (manifest !retries= "
                          "overrides per job)");
  CL.addInt("backoff-ms", 200, "base retry backoff in milliseconds");
  CL.addInt("backoff-max-ms", 5000, "backoff cap in milliseconds");
  CL.addInt("seed", 0, "seed for the deterministic backoff jitter");
  CL.addInt("timeout", 0,
            "per-job timeout override in seconds (0 = budget-scaled from "
            "the target pinball, like the native watchdog)");
  CL.addInt("grace", 5,
            "drain grace period in seconds before running jobs are killed");
  CL.addFlag("json", false, "print the summary as one JSON line on stdout");
  CL.addFlag("verbose", false, "narrate attempts, retries, and timeouts");
  CL.addString("connect", "",
               "client mode: talk to the efleetd at this socket "
               "(ping|submit|status|stream|cancel|shutdown)");
  CL.addString("store", "",
               "estore pool root backing estore://<artifact> targets "
               "(materialized digest-verified before jobs launch)");
  exitOnError(CL.parse(Argc, Argv));
  if (!CL.getString("connect").empty())
    return runClient(CL.getString("connect"), CL.positional());
  if (CL.positional().size() != 1) {
    std::fprintf(stderr, "usage: efleet [options] manifest\n");
    return ExitUsage;
  }

  // The runner consumes any ambient fault spec itself (its journal appends
  // go through the hook, so the harness can kill it at an exact record);
  // children get ELFIE_FAULT_SPEC stripped unless the manifest sets it.
  fault::installFaultHookFromEnv();

  CampaignPlan Plan =
      exitOnError(CampaignPlan::loadFile(CL.positional()[0]), "efleet");

  FleetOptions Opts;
  Opts.OutDir = CL.getString("out");
  Opts.BinDir = CL.getString("bindir").empty() ? selfBinDir(Argv[0])
                                               : CL.getString("bindir");
  Opts.Workers = static_cast<uint32_t>(CL.getInt("workers"));
  Opts.Retries = static_cast<uint32_t>(CL.getInt("retries"));
  Opts.BackoffBaseMs = static_cast<uint64_t>(CL.getInt("backoff-ms"));
  Opts.BackoffCapMs = static_cast<uint64_t>(CL.getInt("backoff-max-ms"));
  Opts.Seed = static_cast<uint64_t>(CL.getInt("seed"));
  Opts.TimeoutSecs = static_cast<uint64_t>(CL.getInt("timeout"));
  Opts.GraceSecs = static_cast<uint64_t>(CL.getInt("grace"));
  Opts.Verbose = CL.getFlag("verbose");
  Opts.StoreRoot = CL.getString("store");
  if (Opts.Workers == 0 || Opts.Retries == 0) {
    std::fprintf(stderr, "efleet: -workers and -retries must be >= 1\n");
    return ExitUsage;
  }

  struct sigaction SA;
  ::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onDrainSignal;
  ::sigaction(SIGINT, &SA, nullptr);
  ::sigaction(SIGTERM, &SA, nullptr);

  FleetSummary Sum = exitOnError(runFleet(Plan, Opts), "efleet");

  if (CL.getFlag("json"))
    std::fputs(Sum.renderJSON().c_str(), stdout);
  else
    std::fputs(Sum.renderText().c_str(), stderr);
  return Sum.allSucceeded() ? ExitSuccess : ExitFailure;
}
