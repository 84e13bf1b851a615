//===- sched/Fleet.cpp ----------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sched/Fleet.h"

#include "pinball/Pinball.h"
#include "sched/Backoff.h"
#include "sched/Classify.h"
#include "sched/Quarantine.h"
#include "store/Artifact.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Subprocess.h"
#include "support/Watchdog.h"

#include <cstdarg>
#include <cstdio>
#include <signal.h>
#include <unistd.h>

using namespace elfie;
using namespace elfie::sched;

static volatile sig_atomic_t DrainFlag = 0;

void elfie::sched::requestDrain() { DrainFlag = 1; }
bool elfie::sched::drainRequested() { return DrainFlag != 0; }
void elfie::sched::resetDrain() { DrainFlag = 0; }

/// Runtime state of one manifest job.
struct FleetEngine::JobState {
  const Job *J = nullptr;
  enum class Phase { Pending, Running, Done, Quarantined } Ph = Phase::Pending;
  uint32_t Attempt = 0;       ///< attempts launched so far
  uint64_t ReadyAtMs = 0;     ///< backoff deadline (UINT64_MAX = parked)
  pid_t Pid = -1;
  uint64_t StartMs = 0;
  uint64_t TimeoutMs = 0;
  bool TimedOut = false;      ///< the runner killed it past its budget
  std::string OutPath, ErrPath, CommandLine;
};

FleetEngine::FleetEngine(CampaignPlan Plan, FleetOptions Opts)
    : Plan(std::move(Plan)), Opts(std::move(Opts)) {}

FleetEngine::~FleetEngine() {
  // Error-path hygiene: a host abandoning an engine must not leak worker
  // process groups (graceful paths drain and reap before destruction).
  for (auto &JSp : Jobs) {
    if (JSp->Ph == JobState::Phase::Running && JSp->Pid > 0) {
      killProcessTree(JSp->Pid, SIGKILL);
      (void)waitProcess(JSp->Pid);
    }
  }
}

void FleetEngine::verbose(const char *Fmt, ...) {
  if (!Opts.Verbose)
    return;
  va_list Args;
  va_start(Args, Fmt);
  std::fprintf(stderr, "%s: ", Opts.Tag.c_str());
  std::vfprintf(stderr, Fmt, Args);
  std::fprintf(stderr, "\n");
  va_end(Args);
}

Error FleetEngine::journalAppend(JournalRecord Rec) {
  if (Error E = Writer.append(Rec))
    return E;
  if (EventSink)
    EventSink(Rec);
  return Error::success();
}

uint32_t FleetEngine::jobRetries(const Job &J) const {
  return J.Retries ? J.Retries : Opts.Retries;
}

std::vector<std::string> FleetEngine::buildArgv(const JobState &JS) const {
  const Job &J = *JS.J;
  std::vector<std::string> Argv;
  switch (J.A) {
  case Action::Replay:
    Argv = {Opts.BinDir + "/ereplay"};
    break;
  case Action::Emit:
    Argv = {Opts.BinDir + "/pinball2elf", "-verify", "-o",
            Opts.OutDir + "/artifacts/" + J.Id + ".elfie"};
    break;
  case Action::Native:
    Argv = {J.Target};
    break;
  case Action::Verify:
    Argv = {Opts.BinDir + "/everify"};
    break;
  case Action::Sim:
    Argv = {Opts.BinDir + "/esim", "-config", "nehalem"};
    if (J.WarmupInstructions) {
      // Warmup checkpointing: the first attempt warms and writes the
      // job's sidecar; later attempts find it and resume past the
      // warming stretch. A corrupt sidecar rejects with
      // EFAULT.SIMSTATE.* (deterministic -> quarantine), never a blind
      // retry loop.
      std::string StatePath =
          Opts.OutDir + "/artifacts/" + J.Id + ".esimstate";
      Argv.push_back("-warmup");
      Argv.push_back(formatString(
          "%llu", static_cast<unsigned long long>(J.WarmupInstructions)));
      Argv.push_back(fileExists(StatePath) ? "-warmup-load"
                                           : "-warmup-save");
      Argv.push_back("-warmup-state");
      Argv.push_back(StatePath);
    }
    break;
  }
  for (const std::string &A : J.ExtraArgs)
    Argv.push_back(expandPlaceholders(A, JS.Attempt));
  switch (J.A) {
  case Action::Native:
    break; // target IS the program, already argv[0]
  case Action::Sim:
    if (isDirectory(J.Target))
      Argv.push_back("-pinball");
    Argv.push_back(J.Target);
    break;
  default:
    Argv.push_back(J.Target);
  }
  return Argv;
}

uint64_t FleetEngine::jobTimeoutSecs(const Job &J) const {
  if (J.TimeoutSecs)
    return J.TimeoutSecs;
  if (Opts.TimeoutSecs)
    return Opts.TimeoutSecs;
  // Budget-scaled (the NativeElfie watchdog rule): read only the pinball
  // meta. Interpreting consumers get a pessimistic 2M instr/s; native-rate
  // consumers the emitted guard's 50M/s.
  if (isDirectory(J.Target)) {
    auto Meta = pinball::Pinball::loadMeta(J.Target);
    if (Meta) {
      uint64_t Rate = (J.A == Action::Replay || J.A == Action::Sim)
                          ? 2000000ull
                          : 50000000ull;
      return scaledWatchdogSeconds(Meta->RegionLength, Rate);
    }
  }
  return Opts.DefaultTimeoutSecs;
}

/// Parks a job whose durable record could not be written: it stops
/// launching in this process (never ready again) but stays non-terminal, so
/// the next resume — when the disk recovered — re-runs it from its journal
/// state. Exactly-once accounting is preserved: no terminal record was
/// written, so none can be duplicated.
void FleetEngine::park(JobState &JS) {
  JS.Ph = JobState::Phase::Pending;
  JS.ReadyAtMs = UINT64_MAX;
  JS.Pid = -1;
}

Error FleetEngine::launch(JobState &JS) {
  const Job &J = *JS.J;
  // Journal before mutating: a failed append leaves the job untouched and
  // re-launchable after recovery.
  if (Error E = journalAppend(
          {{"rec", "start"},
           {"job", J.Id},
           {"attempt", formatString("%u", JS.Attempt + 1)}})) {
    park(JS);
    return E;
  }
  ++JS.Attempt;
  ++Sum.Attempts;
  JS.TimedOut = false;
  JS.OutPath = formatString("%s/logs/%s.a%u.out", Opts.OutDir.c_str(),
                            J.Id.c_str(), JS.Attempt);
  JS.ErrPath = formatString("%s/logs/%s.a%u.err", Opts.OutDir.c_str(),
                            J.Id.c_str(), JS.Attempt);

  SpawnSpec Spec;
  Spec.Argv = buildArgv(JS);
  Spec.StdoutPath = JS.OutPath;
  Spec.StderrPath = JS.ErrPath;
  // The runner consumed any ambient fault spec itself; children only see
  // faults the manifest asks for.
  Spec.UnsetEnv.push_back("ELFIE_FAULT_SPEC");
  for (const auto &[K, V] : J.Env)
    Spec.ExtraEnv.emplace_back(K, expandPlaceholders(V, JS.Attempt));

  JS.CommandLine.clear();
  for (const std::string &A : Spec.Argv)
    JS.CommandLine += (JS.CommandLine.empty() ? "" : " ") + A;

  auto Pid = spawnProcess(Spec);
  if (!Pid) {
    // Spawn failure (fork/redirect): treat like an exec failure — the
    // environment, not the artifact, but not retryable either.
    std::fprintf(stderr, "%s: %s: %s\n", Opts.Tag.c_str(), J.Id.c_str(),
                 Pid.error().str().c_str());
    AttemptOutcome O;
    O.Exited = true;
    O.ExitCode = ExitExecFailure;
    return finishAttempt(JS, O);
  }
  JS.Pid = *Pid;
  JS.StartMs = monotonicMillis();
  JS.TimeoutMs = jobTimeoutSecs(J) * 1000u;
  JS.Ph = JobState::Phase::Running;
  verbose("%s attempt %u: %s (timeout %llus)", J.Id.c_str(), JS.Attempt,
          JS.CommandLine.c_str(),
          static_cast<unsigned long long>(JS.TimeoutMs / 1000));
  return Error::success();
}

Error FleetEngine::quarantine(JobState &JS, const std::string &Reason,
                              const AttemptOutcome &O) {
  QuarantineReport R;
  R.JobId = JS.J->Id;
  R.Reason = Reason;
  R.CommandLine = JS.CommandLine;
  R.Attempts = JS.Attempt;
  R.ExitCode = O.ExitCode;
  R.Signal = O.Signal;
  R.StdoutPath = JS.OutPath;
  R.StderrPath = JS.ErrPath;
  auto Dir = quarantineJob(Opts.OutDir + "/quarantine", R);
  if (!Dir) {
    park(JS);
    return Dir.takeError();
  }
  JS.Ph = JobState::Phase::Quarantined;
  ++Sum.Quarantined;
  std::fprintf(stderr, "%s: QUARANTINE %s (%s) after %u attempt%s -> %s\n",
               Opts.Tag.c_str(), JS.J->Id.c_str(), Reason.c_str(), JS.Attempt,
               JS.Attempt == 1 ? "" : "s", Dir->c_str());
  if (Error E = journalAppend({{"rec", "quarantine"},
                               {"job", JS.J->Id},
                               {"attempts", formatString("%u", JS.Attempt)},
                               {"reason", Reason},
                               {"dir", "quarantine/" + JS.J->Id}})) {
    // The in-memory verdict stands for this process; without the terminal
    // record the job re-runs on resume, which can only re-earn the same
    // deterministic quarantine.
    return E;
  }
  return Error::success();
}

Error FleetEngine::finishAttempt(JobState &JS, const AttemptOutcome &O) {
  std::string StderrText;
  if (auto Text = readFileText(JS.ErrPath))
    StderrText = Text.takeValue();
  JobClass C = classifyOutcome(O, StderrText);
  std::string Detail = classifyDetail(O, StderrText);
  uint64_t Ms = JS.StartMs ? monotonicMillis() - JS.StartMs : 0;
  JS.Pid = -1;

  if (Error E = journalAppend(
          {{"rec", "exit"},
           {"job", JS.J->Id},
           {"attempt", formatString("%u", JS.Attempt)},
           {"class", jobClassName(C)},
           {"detail", Detail},
           {"code", formatString("%d", O.Exited ? O.ExitCode : -1)},
           {"signal", formatString("%d", O.Signal)},
           {"timeout", O.TimedOut ? "1" : "0"},
           {"ms", formatString("%llu", static_cast<unsigned long long>(Ms))}})) {
    park(JS);
    return E;
  }

  switch (C) {
  case JobClass::Success:
    JS.Ph = JobState::Phase::Done;
    ++Sum.Succeeded;
    verbose("%s done (attempt %u, %llums)", JS.J->Id.c_str(), JS.Attempt,
            static_cast<unsigned long long>(Ms));
    return journalAppend({{"rec", "done"},
                          {"job", JS.J->Id},
                          {"attempts", formatString("%u", JS.Attempt)}});
  case JobClass::Deterministic:
    return quarantine(JS, Detail, O);
  case JobClass::Transient: {
    if (JS.Attempt >= jobRetries(*JS.J))
      return quarantine(JS, "retries-exhausted", O);
    uint64_t Delay = backoffDelayMs(Opts.Seed, JS.J->Id, JS.Attempt + 1,
                                    Opts.BackoffBaseMs, Opts.BackoffCapMs);
    JS.ReadyAtMs = monotonicMillis() + Delay;
    JS.Ph = JobState::Phase::Pending;
    ++Sum.Retries;
    verbose("%s transient (%s), retry %u in %llums", JS.J->Id.c_str(),
            Detail.c_str(), JS.Attempt + 1,
            static_cast<unsigned long long>(Delay));
    return Error::success();
  }
  }
  return Error::success();
}

Error FleetEngine::materializeStoreTargets() {
  bool Any = false;
  for (const Job &J : Plan.Jobs)
    if (startsWith(J.Target, "estore://"))
      Any = true;
  if (!Any)
    return Error::success();
  if (Opts.StoreRoot.empty())
    return makeCodedError("EFAULT.STORE.MISSING",
                          "campaign has estore:// targets but no pool "
                          "root was given (-store)");
  auto Pool = store::ChunkStore::open(Opts.StoreRoot, /*Create=*/false);
  if (!Pool)
    return Pool.takeError();
  for (Job &J : Plan.Jobs) {
    if (!startsWith(J.Target, "estore://"))
      continue;
    std::string Name = J.Target.substr(9);
    std::string Out = Opts.OutDir + "/artifacts/" + Name;
    if (Error E = store::materializeArtifact(*Pool, Name, Out))
      return E.withContext(formatString("materializing %s for job %s",
                                        J.Target.c_str(), J.Id.c_str()));
    verbose("materialized %s -> %s", J.Target.c_str(), Out.c_str());
    J.Target = Out;
  }
  return Error::success();
}

Error FleetEngine::start() {
  StartWallMs = monotonicMillis();
  Sum.Total = Plan.Jobs.size();
  for (const char *Sub : {"", "/logs", "/quarantine", "/artifacts"})
    if (Error E = createDirectories(Opts.OutDir + Sub))
      return E;

  // Store-backed targets: materialize every estore://<name> artifact out
  // of the pool (digest-verified) before any worker launches, rewriting
  // the target to the materialized path. Errors propagate as this start()
  // failing — EFAULT.STORE.* for pool corruption, EFAULT.IO.ENOSPC when
  // the materialization hits disk pressure (daemon answers `busy DISK`).
  if (Error E = materializeStoreTargets())
    return E;

  // Resume: journaled-terminal jobs are skipped; in-flight jobs re-run.
  std::string JournalPath = Opts.OutDir + "/journal.jsonl";
  JournalState Prior;
  if (fileExists(JournalPath)) {
    auto St = scanJournal(JournalPath);
    if (!St)
      return St.takeError();
    Prior = St.takeValue();
    Sum.Resumed = Prior.Records > 0;
  }

  if (Error E = Writer.open(JournalPath))
    return E;
  if (!Sum.Resumed) {
    if (Error E = journalAppend(
            {{"rec", "plan"},
             {"jobs", formatString("%zu", Plan.Jobs.size())},
             {"seed", formatString("%llu",
                                   static_cast<unsigned long long>(Opts.Seed))}}))
      return E;
  } else {
    if (Error E = journalAppend(
            {{"rec", "resume"},
             {"completed",
              formatString("%zu", Prior.Done.size() +
                                      Prior.Quarantined.size())}}))
      return E;
  }

  Jobs.reserve(Plan.Jobs.size());
  AnyPending = false;
  for (const Job &J : Plan.Jobs) {
    auto JS = std::make_unique<JobState>();
    JS->J = &J;
    if (Prior.Done.count(J.Id)) {
      JS->Ph = JobState::Phase::Done;
      ++Sum.Succeeded;
      ++Sum.SkippedComplete;
    } else if (Prior.Quarantined.count(J.Id)) {
      JS->Ph = JobState::Phase::Quarantined;
      ++Sum.Quarantined;
      ++Sum.SkippedComplete;
    } else {
      AnyPending = true;
    }
    Jobs.push_back(std::move(JS));
  }
  if (Sum.Resumed)
    verbose("resuming: %llu of %llu jobs already terminal",
            static_cast<unsigned long long>(Sum.SkippedComplete),
            static_cast<unsigned long long>(Sum.Total));
  Started = true;
  return Error::success();
}

uint32_t FleetEngine::runningCount() const {
  uint32_t Running = 0;
  for (const auto &JSp : Jobs)
    if (JSp->Ph == JobState::Phase::Running)
      ++Running;
  return Running;
}

FleetEngine::Counts FleetEngine::counts() const {
  Counts C;
  C.Total = Jobs.size();
  for (const auto &JSp : Jobs) {
    switch (JSp->Ph) {
    case JobState::Phase::Pending:
      ++C.Pending;
      break;
    case JobState::Phase::Running:
      ++C.Running;
      break;
    case JobState::Phase::Done:
      ++C.Done;
      break;
    case JobState::Phase::Quarantined:
      ++C.Quarantined;
      break;
    }
  }
  return C;
}

bool FleetEngine::finished() const {
  if (!Started)
    return false;
  if (Draining || DrainWanted)
    return !AnyRunning;
  return !AnyRunning && !AnyPending;
}

Error FleetEngine::step(uint64_t NowMs, uint32_t LaunchBudget) {
  if (!Started || Sealed)
    return Error::success();

  if (DrainWanted && !Draining) {
    Draining = true;
    DrainStartMs = NowMs;
    std::fprintf(stderr,
                 "%s: drain requested: finishing running jobs "
                 "(grace %llus)\n",
                 Opts.Tag.c_str(),
                 static_cast<unsigned long long>(Opts.GraceSecs));
  }

  // Launch phase (skipped while draining).
  if (!Draining) {
    uint32_t Running = runningCount();
    for (auto &JSp : Jobs) {
      JobState &JS = *JSp;
      if (Running >= Opts.Workers || LaunchBudget == 0)
        break;
      if (JS.Ph != JobState::Phase::Pending || JS.ReadyAtMs > NowMs)
        continue;
      if (Error E = launch(JS))
        return E;
      if (JS.Ph == JobState::Phase::Running) {
        ++Running;
        --LaunchBudget;
      }
    }
  }

  // Reap phase. Re-read the clock: jobs launched above have StartMs later
  // than the NowMs the caller captured.
  uint64_t ReapNow = monotonicMillis();
  AnyRunning = false;
  for (auto &JSp : Jobs) {
    JobState &JS = *JSp;
    if (JS.Ph != JobState::Phase::Running || JS.Pid <= 0)
      continue;
    auto W = pollProcess(JS.Pid);
    if (!W)
      return W.takeError();
    if (W->Running) {
      // Budget timeout: SIGKILL the job's process group; the death is
      // reaped (and classified as a transient timeout) next poll.
      uint64_t RanMs = ReapNow > JS.StartMs ? ReapNow - JS.StartMs : 0;
      if (!JS.TimedOut && JS.TimeoutMs && RanMs > JS.TimeoutMs) {
        JS.TimedOut = true;
        std::fprintf(stderr, "%s: %s: timeout after %llums, killing\n",
                     Opts.Tag.c_str(), JS.J->Id.c_str(),
                     static_cast<unsigned long long>(RanMs));
        killProcessTree(JS.Pid, SIGKILL);
      }
      AnyRunning = true;
      continue;
    }
    AttemptOutcome O;
    O.TimedOut = JS.TimedOut;
    O.Exited = W->Exited;
    O.ExitCode = W->ExitCode;
    O.Signal = W->Signal;
    if (Error E = finishAttempt(JS, O))
      return E;
    if (JS.Ph == JobState::Phase::Running)
      AnyRunning = true;
  }

  AnyPending = false;
  for (const auto &JSp : Jobs)
    if (JSp->Ph == JobState::Phase::Pending)
      AnyPending = true;

  if (Draining && AnyRunning && !GraceKilled &&
      monotonicMillis() - DrainStartMs > Opts.GraceSecs * 1000u) {
    GraceKilled = true;
    for (auto &JSp : Jobs)
      if (JSp->Ph == JobState::Phase::Running) {
        std::fprintf(stderr, "%s: %s: grace expired, killing\n",
                     Opts.Tag.c_str(), JSp->J->Id.c_str());
        JSp->TimedOut = true; // classified transient: re-run on resume
        killProcessTree(JSp->Pid, SIGKILL);
      }
  }
  return Error::success();
}

Error FleetEngine::seal() {
  if (Sealed)
    return Error::success();
  Sum.Incomplete = 0;
  for (const auto &JSp : Jobs)
    if (JSp->Ph == JobState::Phase::Pending ||
        JSp->Ph == JobState::Phase::Running)
      ++Sum.Incomplete;
  Sum.Drained = Draining || DrainWanted;
  Sum.WallMs = monotonicMillis() - StartWallMs;
  Error E = journalAppend(
      {{"rec", "seal"}, {"reason", Sum.Drained ? "drain" : "complete"}});
  Writer.close();
  if (E)
    return E;
  Sealed = true;
  return Error::success();
}

std::string FleetSummary::renderText() const {
  std::string Out = formatString(
      "efleet: %llu job%s: %llu succeeded, %llu quarantined, %llu "
      "incomplete\n",
      static_cast<unsigned long long>(Total), Total == 1 ? "" : "s",
      static_cast<unsigned long long>(Succeeded),
      static_cast<unsigned long long>(Quarantined),
      static_cast<unsigned long long>(Incomplete));
  Out += formatString(
      "efleet: %llu attempt%s this run (%llu transient retr%s), "
      "%llu skipped as already complete%s%s\n",
      static_cast<unsigned long long>(Attempts), Attempts == 1 ? "" : "s",
      static_cast<unsigned long long>(Retries), Retries == 1 ? "y" : "ies",
      static_cast<unsigned long long>(SkippedComplete),
      Resumed ? ", resumed" : "", Drained ? ", drained" : "");
  return Out;
}

std::string FleetSummary::renderJSON() const {
  JsonWriter W;
  W.beginObject();
  W.key("jobs").value(Total);
  W.key("succeeded").value(Succeeded);
  W.key("quarantined").value(Quarantined);
  W.key("incomplete").value(Incomplete);
  W.key("attempts").value(Attempts);
  W.key("retries").value(Retries);
  W.key("skipped_complete").value(SkippedComplete);
  W.key("resumed").value(Resumed);
  W.key("drained").value(Drained);
  W.key("wall_ms").value(WallMs);
  W.endObject();
  return W.str() + "\n";
}

Expected<FleetSummary> elfie::sched::runFleet(const CampaignPlan &Plan,
                                              const FleetOptions &Opts) {
  FleetEngine Engine(Plan, Opts);
  if (Error E = Engine.start())
    return E;
  while (!Engine.finished()) {
    if (drainRequested())
      Engine.requestDrain();
    if (Error E = Engine.step(monotonicMillis()))
      return E;
    if (Engine.finished())
      break;
    ::usleep(static_cast<useconds_t>(Opts.PollMs * 1000));
  }
  if (Error E = Engine.seal())
    return E;
  return Engine.summary();
}
