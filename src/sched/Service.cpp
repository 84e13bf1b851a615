//===- sched/Service.cpp --------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sched/Service.h"

#include "sched/Journal.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/Hashing.h"
#include "support/SocketIO.h"
#include "support/Subprocess.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

using namespace elfie;
using namespace elfie::sched;
using namespace elfie::sched::proto;

/// Per-campaign backoff seeds derive from the daemon seed and the campaign
/// key so two campaigns never share a jitter sequence.
static uint64_t mixSeed(uint64_t Seed, const std::string &Key) {
  return fnv1a(Key.data(), Key.size(), 0xcbf29ce484222325ull ^ Seed);
}

/// One accepted campaign: the engine plus its service-side bookkeeping.
struct Service::Campaign {
  std::string Ns, Id;
  std::string Key; ///< "ns/id"
  std::string Dir;
  std::unique_ptr<FleetEngine> Engine;
  std::vector<uint64_t> Streamers; ///< session ids subscribed to events
  uint64_t JobsAdmitted = 0;       ///< job slots held in the quota ledger
  uint64_t JobsReleased = 0;
  uint64_t InitialTerminal = 0;    ///< terminal jobs at engine start (resume)
};

/// One client connection: transport session + submit-body collection state.
struct Service::Conn {
  std::unique_ptr<Session> S;
  bool Collecting = false;       ///< inside a submit body
  proto::Request Submit;
  std::vector<std::string> Body;
  std::string EarlyReject;       ///< reply decided at the header; body is
                                 ///< still consumed so the stream stays
                                 ///< in sync
};

Service::Service(ServiceOptions O) : Opts(std::move(O)), Quotas(Opts.Quotas) {
  SockPath =
      Opts.SocketPath.empty() ? Opts.Root + "/efleetd.sock" : Opts.SocketPath;
}

Service::~Service() {
  Conns.clear(); // sessions close their fds
  if (ListenFd >= 0) {
    ::close(ListenFd);
    removeFile(SockPath);
  }
  if (LockFd >= 0)
    ::close(LockFd); // releases the flock
}

void Service::say(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::fprintf(stderr, "efleetd: ");
  std::vfprintf(stderr, Fmt, Args);
  std::fprintf(stderr, "\n");
  va_end(Args);
}

std::string Service::campaignDir(const std::string &Ns,
                                 const std::string &Id) const {
  return Opts.Root + "/ns/" + Ns + "/" + Id;
}

Service::Campaign *Service::findCampaign(const std::string &Ns,
                                         const std::string &Id) {
  for (auto &C : Campaigns)
    if (C->Ns == Ns && C->Id == Id)
      return C.get();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Init and recovery
//===----------------------------------------------------------------------===//

Error Service::init() {
  if (Error E = createDirectories(Opts.Root + "/ns"))
    return E;

  // One daemon per root: the lock also makes unlinking a stale socket safe.
  std::string LockPath = Opts.Root + "/efleetd.lock";
  LockFd = ::open(LockPath.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (LockFd < 0)
    return makeCodedError("EFAULT.SERVICE.LOCK", "cannot open '%s'",
                          LockPath.c_str());
  if (::flock(LockFd, LOCK_EX | LOCK_NB) != 0) {
    ::close(LockFd);
    LockFd = -1;
    return makeCodedError("EFAULT.SERVICE.LOCKED",
                          "another efleetd serves '%s'", Opts.Root.c_str());
  }
  std::string PidLine = formatString("%d\n", ::getpid());
  (void)!::ftruncate(LockFd, 0);
  (void)!::write(LockFd, PidLine.data(), PidLine.size());

  ignoreSigpipe();

  if (Error E = recoverCampaigns())
    return E;

  auto L = listenUnixSocket(SockPath);
  if (!L)
    return L.takeError();
  ListenFd = *L;
  if (Error E = setNonBlocking(ListenFd))
    return E;
  say("serving %s (root %s, %zu campaign%s resumed)", SockPath.c_str(),
      Opts.Root.c_str(), Campaigns.size(), Campaigns.size() == 1 ? "" : "s");
  return Error::success();
}

Error Service::recoverCampaigns() {
  std::string NsRoot = Opts.Root + "/ns";
  auto NsList = listDirectory(NsRoot);
  if (!NsList)
    return NsList.takeError();
  for (const std::string &Ns : *NsList) {
    auto IdList = listDirectory(NsRoot + "/" + Ns);
    if (!IdList)
      continue; // a plain file in ns/: not ours
    for (const std::string &Id : *IdList) {
      std::string Dir = campaignDir(Ns, Id);
      std::string Key = Ns + "/" + Id;
      std::string ManifestPath = Dir + "/manifest";
      if (!fileExists(ManifestPath)) {
        // Killed between mkdir and the atomic manifest write: the submit
        // was never acknowledged, so the campaign does not exist.
        say("recover: removing torn submit %s", Key.c_str());
        removeTree(Dir);
        continue;
      }
      auto Text = readFileText(ManifestPath);
      if (!Text) {
        say("recover: %s: %s", Key.c_str(),
            Text.takeError().str().c_str());
        continue;
      }
      auto Plan = CampaignPlan::parse(*Text);
      if (!Plan) {
        say("recover: %s: %s", Key.c_str(),
            Plan.takeError().str().c_str());
        continue;
      }
      // Sealed-complete campaigns are history; everything else (unsealed,
      // sealed-drain, torn seal line) resumes.
      std::string JournalPath = Dir + "/journal.jsonl";
      if (fileExists(JournalPath)) {
        auto St = scanJournal(JournalPath);
        if (St && St->Sealed && St->SealReason == "complete") {
          Finished[Key] = formatString(
              "state=sealed reason=complete total=%zu done=%zu "
              "quarantined=%zu incomplete=0",
              Plan->Jobs.size(), St->Done.size(), St->Quarantined.size());
          continue;
        }
      }
      auto C = openCampaign(Ns, Id, Plan.takeValue(), /*Fresh=*/false);
      if (!C) {
        Error E = C.takeError();
        say("recover: %s: %s", Key.c_str(), E.str().c_str());
        if (isDiskPressureError(E))
          onDiskPressure(E, nullptr);
        continue;
      }
      Quotas.admit(Ns, (*C)->JobsAdmitted);
      say("recover: resuming %s (%llu of %llu jobs open)", Key.c_str(),
          static_cast<unsigned long long>((*C)->JobsAdmitted),
          static_cast<unsigned long long>((*C)->Engine->counts().Total));
    }
  }
  return Error::success();
}

Expected<Service::Campaign *> Service::openCampaign(const std::string &Ns,
                                                    const std::string &Id,
                                                    CampaignPlan Plan,
                                                    bool Fresh) {
  auto C = std::make_unique<Campaign>();
  C->Ns = Ns;
  C->Id = Id;
  C->Key = Ns + "/" + Id;
  C->Dir = campaignDir(Ns, Id);

  FleetOptions FO;
  FO.BinDir = Opts.BinDir;
  FO.OutDir = C->Dir;
  FO.Workers = Opts.Workers;
  FO.Retries = Opts.Retries;
  FO.BackoffBaseMs = Opts.BackoffBaseMs;
  FO.BackoffCapMs = Opts.BackoffCapMs;
  FO.Seed = mixSeed(Opts.Seed, C->Key);
  FO.TimeoutSecs = Opts.TimeoutSecs;
  FO.DefaultTimeoutSecs = Opts.DefaultTimeoutSecs;
  FO.GraceSecs = Opts.GraceSecs;
  FO.Tag = "efleetd[" + C->Key + "]";
  FO.Verbose = Opts.Verbose;
  FO.StoreRoot = Opts.StoreRoot;

  C->Engine = std::make_unique<FleetEngine>(std::move(Plan), std::move(FO));
  Campaign *Raw = C.get();
  C->Engine->EventSink = [this, Raw](const JournalRecord &Rec) {
    if (!Raw->Streamers.empty())
      broadcast(*Raw, replyEvent(renderJournalRecord(Rec)));
  };
  if (Error E = C->Engine->start())
    return E;
  auto K = C->Engine->counts();
  C->InitialTerminal = K.Done + K.Quarantined;
  C->JobsAdmitted = K.Total - C->InitialTerminal;
  (void)Fresh;
  Campaigns.push_back(std::move(C));
  return Raw;
}

//===----------------------------------------------------------------------===//
// Event loop
//===----------------------------------------------------------------------===//

Error Service::run() {
  for (;;) {
    if (!ShuttingDown && drainRequested())
      beginShutdown();
    runOnce(static_cast<int>(Opts.PollMs));
    if (shutdownComplete())
      break;
  }
  say("drained, exiting");
  return Error::success();
}

bool Service::shutdownComplete() const {
  return ShuttingDown && Campaigns.empty();
}

void Service::beginShutdown() {
  if (ShuttingDown)
    return;
  ShuttingDown = true;
  say("shutdown: draining %zu campaign%s", Campaigns.size(),
      Campaigns.size() == 1 ? "" : "s");
  for (auto &C : Campaigns)
    C->Engine->requestDrain();
}

void Service::runOnce(int PollTimeoutMs) {
  std::vector<struct pollfd> P;
  P.reserve(Conns.size() + 1);
  P.push_back({ListenFd, POLLIN, 0});
  for (auto &C : Conns) {
    short Ev = POLLIN;
    if (C->S->wantsWrite())
      Ev |= POLLOUT;
    P.push_back({C->S->fd(), Ev, 0});
  }

  (void)pollSockets(P.data(), P.size(), PollTimeoutMs);

  // Dispatch revents only to the sessions that were polled: accepting
  // first grows Conns, and the newcomers have no pollfd slot until the
  // next tick.
  const size_t Polled = Conns.size();
  if (P[0].revents & POLLIN)
    acceptPending();
  for (size_t I = 0; I < Polled; ++I) {
    short Re = P[I + 1].revents;
    if (Re & POLLOUT)
      Conns[I]->S->onWritable();
    if (Re & (POLLIN | POLLHUP | POLLERR))
      Conns[I]->S->onReadable();
  }

  pumpSessions();
  stepCampaigns();
  probeDisk();

  // Reap dead / fully-flushed-after-close sessions. Their stream
  // subscriptions go stale and are dropped lazily in broadcast().
  Conns.erase(std::remove_if(Conns.begin(), Conns.end(),
                             [](const std::unique_ptr<Conn> &C) {
                               return C->S->shouldClose();
                             }),
              Conns.end());
}

void Service::acceptPending() {
  for (;;) {
    auto Fd = acceptSocket(ListenFd);
    if (!Fd) {
      say("accept: %s", Fd.takeError().str().c_str());
      return;
    }
    if (*Fd < 0)
      return; // nothing pending
    if (Error E = setNonBlocking(*Fd)) {
      say("accept: %s", E.str().c_str());
      ::close(*Fd);
      continue;
    }
    auto C = std::make_unique<Conn>();
    C->S = std::make_unique<Session>(*Fd, NextSessionId++, MaxRecvBuffer,
                                     MaxSendBuffer);
    Conns.push_back(std::move(C));
  }
}

void Service::pumpSessions() {
  for (auto &C : Conns) {
    std::string Line;
    while (!C->S->dead() && C->S->nextLine(Line))
      handleLine(*C, Line);
  }
}

void Service::broadcast(Campaign &C, const std::string &Data) {
  auto &Ids = C.Streamers;
  Ids.erase(std::remove_if(Ids.begin(), Ids.end(),
                           [&](uint64_t Id) {
                             for (auto &Conn : Conns)
                               if (Conn->S->id() == Id) {
                                 Conn->S->send(Data);
                                 return Conn->S->dead();
                               }
                             return true; // session long gone
                           }),
            Ids.end());
}

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

void Service::handleLine(Conn &C, const std::string &Line) {
  if (C.Collecting) {
    C.Body.push_back(Line);
    if (C.Body.size() >= C.Submit.ManifestLines) {
      C.Collecting = false;
      finishSubmit(C);
    }
    return;
  }
  auto R = parseRequest(Line);
  if (!R) {
    Error E = R.takeError();
    C.S->send(replyErr(E.code(), E.message()));
    return;
  }
  handleRequest(C, *R);
}

void Service::handleRequest(Conn &C, const proto::Request &R) {
  switch (R.Kind) {
  case RequestKind::Ping:
    C.S->send(replyOk("pong"));
    return;
  case RequestKind::Shutdown:
    C.S->send(replyOk("draining"));
    beginShutdown();
    return;
  case RequestKind::Submit:
    // The body is consumed whatever happens; admission is evaluated once
    // it has fully arrived (finishSubmit) so there is exactly one decision
    // point and one reply.
    C.Submit = R;
    C.Body.clear();
    C.EarlyReject.clear();
    C.Collecting = true;
    return;
  case RequestKind::Status:
    handleStatus(C, R);
    return;
  case RequestKind::Stream:
    handleStream(C, R);
    return;
  case RequestKind::Cancel:
    handleCancel(C, R);
    return;
  }
}

void Service::finishSubmit(Conn &C) {
  const std::string &Ns = C.Submit.Ns;
  const std::string &Id = C.Submit.Campaign;
  std::vector<std::string> Body = std::move(C.Body);
  C.Body.clear();

  for (const std::string &L : Body)
    if (L.size() > MaxLineBytes) {
      C.S->send(replyErr(CodeProtoLine,
                         formatString("manifest line over %zu bytes",
                                      MaxLineBytes)));
      return;
    }

  std::string Text;
  for (const std::string &L : Body) {
    Text += L;
    Text += '\n';
  }
  auto Plan = CampaignPlan::parse(Text);
  if (!Plan) {
    C.S->send(replyErr(CodeProtoManifest, Plan.takeError().str()));
    return;
  }
  uint64_t Jobs = Plan->Jobs.size();

  // Admission, cheapest refusal first. "busy" means retry later; "err"
  // means never as written.
  if (ShuttingDown) {
    C.S->send(replyBusy(CodeBusyDrain, "daemon is draining"));
    return;
  }
  if (DiskPaused) {
    C.S->send(replyBusy(CodeBusyDisk, "admission paused: disk pressure"));
    return;
  }
  std::string Key = Ns + "/" + Id;
  if (findCampaign(Ns, Id) || Finished.count(Key) ||
      fileExists(campaignDir(Ns, Id))) {
    C.S->send(replyErr(CodeDup, "campaign " + Key + " already exists"));
    return;
  }
  if (const char *BusyCode = Quotas.check(Ns, Jobs)) {
    C.S->send(replyBusy(BusyCode,
                        formatString("namespace %s is at its quota",
                                     Ns.c_str())));
    return;
  }

  // Durable accept: directory + atomic manifest BEFORE the ok reply. A
  // SIGKILL after this point recovers the campaign; before it, the client
  // never saw ok and the torn directory is swept at the next start.
  std::string Dir = campaignDir(Ns, Id);
  if (Error E = createDirectories(Dir)) {
    C.S->send(replyErr(CodeInternal, E.str()));
    return;
  }
  if (Error E =
          writeFileAtomic(Dir + "/manifest", Text.data(), Text.size())) {
    if (isDiskPressureError(E) ||
        E.message().find("o space left") != std::string::npos)
      onDiskPressure(E, nullptr);
    removeTree(Dir);
    C.S->send(DiskPaused
                  ? replyBusy(CodeBusyDisk, "admission paused: disk pressure")
                  : replyErr(CodeInternal, E.str()));
    return;
  }
  auto Opened = openCampaign(Ns, Id, Plan.takeValue(), /*Fresh=*/true);
  if (!Opened) {
    Error E = Opened.takeError();
    if (isDiskPressureError(E)) {
      onDiskPressure(E, nullptr);
      // The manifest is durable: the campaign will run when the disk
      // recovers (next daemon start or probe unpause + resubmit-free
      // recovery). Still report busy so the client knows it is queued
      // behind the outage rather than running.
      C.S->send(replyBusy(CodeBusyDisk,
                          "accepted but paused: disk pressure"));
      return;
    }
    removeTree(Dir);
    C.S->send(replyErr(CodeInternal, E.str()));
    return;
  }
  Quotas.admit(Ns, (*Opened)->JobsAdmitted);
  say("accepted %s (%llu job%s)", Key.c_str(),
      static_cast<unsigned long long>(Jobs), Jobs == 1 ? "" : "s");
  C.S->send(replyOk(formatString("accepted %s jobs=%llu", Key.c_str(),
                                 static_cast<unsigned long long>(Jobs))));
}

void Service::handleStatus(Conn &C, const proto::Request &R) {
  if (R.Ns.empty()) {
    C.S->send(replyOk(formatString(
        "active=%zu finished=%zu paused=%d draining=%d", Campaigns.size(),
        Finished.size(), DiskPaused ? 1 : 0, ShuttingDown ? 1 : 0)));
    return;
  }
  if (R.Campaign.empty()) {
    auto U = Quotas.usage(R.Ns);
    C.S->send(replyOk(formatString(
        "campaigns=%u jobs=%llu", U.Campaigns,
        static_cast<unsigned long long>(U.Jobs))));
    return;
  }
  if (Campaign *Ca = findCampaign(R.Ns, R.Campaign)) {
    auto K = Ca->Engine->counts();
    C.S->send(replyOk(formatString(
        "state=%s total=%llu pending=%llu running=%llu done=%llu "
        "quarantined=%llu",
        Ca->Engine->draining() ? "draining" : "running",
        static_cast<unsigned long long>(K.Total),
        static_cast<unsigned long long>(K.Pending),
        static_cast<unsigned long long>(K.Running),
        static_cast<unsigned long long>(K.Done),
        static_cast<unsigned long long>(K.Quarantined))));
    return;
  }
  auto It = Finished.find(R.Ns + "/" + R.Campaign);
  if (It != Finished.end()) {
    C.S->send(replyOk(It->second));
    return;
  }
  C.S->send(replyErr(CodeNotFound,
                     "no campaign " + R.Ns + "/" + R.Campaign));
}

void Service::handleStream(Conn &C, const proto::Request &R) {
  if (Campaign *Ca = findCampaign(R.Ns, R.Campaign)) {
    Ca->Streamers.push_back(C.S->id());
    return; // events flow from here; "end <reason>" closes the stream
  }
  auto It = Finished.find(R.Ns + "/" + R.Campaign);
  if (It != Finished.end()) {
    C.S->send(replyEnd("sealed"));
    return;
  }
  C.S->send(replyErr(CodeNotFound,
                     "no campaign " + R.Ns + "/" + R.Campaign));
}

void Service::handleCancel(Conn &C, const proto::Request &R) {
  if (Campaign *Ca = findCampaign(R.Ns, R.Campaign)) {
    Ca->Engine->requestDrain();
    C.S->send(replyOk("draining"));
    return;
  }
  if (Finished.count(R.Ns + "/" + R.Campaign)) {
    C.S->send(replyOk("already sealed"));
    return;
  }
  C.S->send(replyErr(CodeNotFound,
                     "no campaign " + R.Ns + "/" + R.Campaign));
}

//===----------------------------------------------------------------------===//
// Campaign stepping, retirement, disk pressure
//===----------------------------------------------------------------------===//

void Service::stepCampaigns() {
  uint64_t Now = monotonicMillis();
  uint32_t TotalRunning = 0;
  for (auto &C : Campaigns)
    TotalRunning += C->Engine->runningCount();

  for (auto &C : Campaigns) {
    uint32_t Budget =
        Opts.Workers > TotalRunning ? Opts.Workers - TotalRunning : 0;
    uint32_t Before = C->Engine->runningCount();
    if (Error E = C->Engine->step(Now, Budget)) {
      if (isDiskPressureError(E)) {
        onDiskPressure(E, C.get());
      } else {
        say("%s: %s; draining campaign", C->Key.c_str(), E.str().c_str());
        C->Engine->requestDrain();
      }
    }
    uint32_t After = C->Engine->runningCount();
    TotalRunning = TotalRunning - Before + After;

    // Quota slots free as jobs reach terminal states, not at seal time, so
    // a namespace can pipeline submissions against a long campaign.
    auto K = C->Engine->counts();
    uint64_t Terminal = K.Done + K.Quarantined;
    if (Terminal > C->InitialTerminal + C->JobsReleased) {
      uint64_t Delta = Terminal - C->InitialTerminal - C->JobsReleased;
      Quotas.releaseJobs(C->Ns, Delta);
      C->JobsReleased += Delta;
    }
  }

  for (size_t I = 0; I < Campaigns.size();) {
    Campaign &C = *Campaigns[I];
    if (!C.Engine->finished()) {
      ++I;
      continue;
    }
    std::string EndNote;
    if (Error E = C.Engine->seal()) {
      if (isDiskPressureError(E))
        onDiskPressure(E, nullptr);
      say("%s: seal failed: %s", C.Key.c_str(), E.str().c_str());
      // Without a seal record the journal is simply unsealed: the next
      // daemon start resumes the campaign and re-seals. Nothing is lost.
      Finished[C.Key] = "state=seal-failed (resumes at next start)";
      EndNote = "error seal-failed";
    } else {
      const FleetSummary &S = C.Engine->summary();
      Finished[C.Key] = formatString(
          "state=sealed reason=%s total=%llu done=%llu quarantined=%llu "
          "incomplete=%llu",
          S.Drained ? "drain" : "complete",
          static_cast<unsigned long long>(S.Total),
          static_cast<unsigned long long>(S.Succeeded),
          static_cast<unsigned long long>(S.Quarantined),
          static_cast<unsigned long long>(S.Incomplete));
      EndNote = S.Drained ? "drained" : "complete";
      say("%s sealed (%s)", C.Key.c_str(), EndNote.c_str());
    }
    retireCampaign(C, EndNote);
    Campaigns.erase(Campaigns.begin() + static_cast<long>(I));
  }
}

void Service::retireCampaign(Campaign &C, const std::string &EndNote) {
  broadcast(C, replyEnd(EndNote));
  if (C.JobsAdmitted > C.JobsReleased)
    Quotas.releaseJobs(C.Ns, C.JobsAdmitted - C.JobsReleased);
  Quotas.releaseCampaign(C.Ns);
}

void Service::onDiskPressure(const Error &E, Campaign *Source) {
  if (!DiskPaused) {
    say("disk pressure (%s): pausing admission, draining in-flight work",
        E.code().c_str());
    DiskPaused = true;
  }
  NextProbeMs = monotonicMillis() + Opts.DiskProbeMs;
  if (Source)
    Source->Engine->requestDrain();
}

void Service::probeDisk() {
  if (!DiskPaused || monotonicMillis() < NextProbeMs)
    return;
  std::string Probe = Opts.Root + "/.diskprobe";
  Error E = writeFileText(Probe, "probe\n");
  if (E) {
    NextProbeMs = monotonicMillis() + Opts.DiskProbeMs;
    return;
  }
  removeFile(Probe);
  DiskPaused = false;
  say("disk recovered: admission resumed");
}
