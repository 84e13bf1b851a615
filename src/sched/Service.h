//===- sched/Service.h - The efleetd campaign service ----------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived campaign service behind efleetd (DESIGN.md §14): a
/// single-threaded poll(2) event loop multiplexing a Unix-domain socket of
/// client sessions over many concurrently-executing FleetEngine campaigns,
/// with one global worker-subprocess budget shared across all of them.
///
/// Fault model, in decreasing order of blast radius:
///
///  - Daemon SIGKILL at any instant: every accepted campaign is durable
///    before its ok reply (manifest written atomically into the campaign
///    directory; every job transition fsync'd to the campaign journal).
///    The next start scans `<root>/ns/*/*`, resumes every unsealed
///    campaign, and skips journaled-terminal jobs — zero lost, zero
///    duplicated jobs. Only ephemera (connections, stream subscriptions)
///    are lost.
///
///  - Worker crash: an attempt outcome (classified, retried or
///    quarantined by the engine), never a daemon event.
///
///  - Client crash / disconnect mid-stream: the session dies; its
///    campaigns keep running. SIGPIPE is ignored process-wide and sends
///    use MSG_NOSIGNAL, so a vanished peer can never kill the daemon.
///
///  - Disk pressure (ENOSPC/EIO on a journal append): admission pauses
///    (submits get busy EFLEETD.BUSY.DISK), the affected campaign drains,
///    and a periodic probe write reopens admission when space returns.
///    In-flight campaigns drain rather than abort; their parked jobs
///    re-run on the next resume.
///
/// Backpressure is explicit and bounded everywhere: per-namespace quotas
/// (QuotaLedger) refuse over-quota submits with structured busy replies,
/// and per-session buffers are hard-capped (slow consumers are
/// disconnected, never allowed to stall the loop).
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SCHED_SERVICE_H
#define ELFIE_SCHED_SERVICE_H

#include "sched/Fleet.h"
#include "sched/Protocol.h"
#include "sched/Quota.h"
#include "sched/Session.h"
#include "support/Error.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace elfie {
namespace sched {

struct ServiceOptions {
  /// State root: campaigns live at <Root>/ns/<ns>/<campaign>/, the socket
  /// (by default) at <Root>/efleetd.sock, the lock at <Root>/efleetd.lock.
  std::string Root;
  /// Socket path override (empty = <Root>/efleetd.sock).
  std::string SocketPath;
  /// Directory holding the driven tools (ereplay, everify, ...).
  std::string BinDir;
  /// Global concurrent worker-subprocess budget across all campaigns.
  uint32_t Workers = 4;
  QuotaLimits Quotas;
  /// Event-loop poll cadence (also the scheduler tick).
  uint64_t PollMs = 20;
  /// Fleet defaults forwarded to every campaign engine.
  uint32_t Retries = 5;
  uint64_t TimeoutSecs = 0;
  uint64_t DefaultTimeoutSecs = 120;
  uint64_t GraceSecs = 5;
  uint64_t BackoffBaseMs = 200;
  uint64_t BackoffCapMs = 5000;
  uint64_t Seed = 0;
  /// Cadence of the disk-recovery probe while admission is paused.
  uint64_t DiskProbeMs = 500;
  bool Verbose = false;
  /// estore pool root backing estore:// campaign targets (see
  /// FleetOptions::StoreRoot). Empty disables store-backed targets.
  std::string StoreRoot;
};

/// The daemon core. Lifecycle: construct, init() (lock + recover + listen),
/// run() until a shutdown is requested (signal → requestDrain(), or a
/// client "shutdown" request), destruct. Single-threaded by design — the
/// only concurrency is worker subprocesses, so the daemon is trivially
/// data-race-free.
class Service {
public:
  explicit Service(ServiceOptions Opts);
  ~Service();

  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

  /// Takes the daemon lock, recovers persisted campaigns from <Root>/ns,
  /// and starts listening. Fails (EFAULT.SERVICE.LOCKED) when another
  /// daemon holds the lock.
  Error init();

  /// Serves until shutdown: drains every campaign, seals, replies to
  /// stragglers, then returns. Observes the process-wide drain flag
  /// (sched::requestDrain()) as a shutdown request.
  Error run();

  /// One event-loop iteration (poll + sessions + engines). Exposed for
  /// the service tests; run() is a loop around this.
  void runOnce(int PollTimeoutMs);

  /// Begins a graceful shutdown: admission closes (busy
  /// EFLEETD.BUSY.DRAIN), every campaign drains. Idempotent.
  void beginShutdown();

  /// True once every campaign has sealed during shutdown.
  bool shutdownComplete() const;

private:
  struct Campaign;
  struct Conn;

  // Request handling.
  void handleLine(Conn &C, const std::string &Line);
  void handleRequest(Conn &C, const proto::Request &R);
  void finishSubmit(Conn &C);
  void handleStatus(Conn &C, const proto::Request &R);
  void handleStream(Conn &C, const proto::Request &R);
  void handleCancel(Conn &C, const proto::Request &R);

  // Campaign lifecycle.
  Error recoverCampaigns();
  Expected<Campaign *> openCampaign(const std::string &Ns,
                                    const std::string &Id,
                                    CampaignPlan Plan, bool Fresh);
  void stepCampaigns();
  void retireCampaign(Campaign &C, const std::string &EndNote);
  void onDiskPressure(const Error &E, Campaign *Source);
  void probeDisk();

  // Plumbing.
  void acceptPending();
  void pumpSessions();
  void broadcast(Campaign &C, const std::string &Data);
  Campaign *findCampaign(const std::string &Ns, const std::string &Id);
  std::string campaignDir(const std::string &Ns,
                          const std::string &Id) const;
  void say(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));

  ServiceOptions Opts;
  std::string SockPath;
  int LockFd = -1;
  int ListenFd = -1;
  uint64_t NextSessionId = 1;
  std::vector<std::unique_ptr<Conn>> Conns;
  std::vector<std::unique_ptr<Campaign>> Campaigns;
  /// Terminal campaign summaries ("ns/id" → status line) for status
  /// queries after the engine is gone; rebuilt from disk on recovery.
  std::map<std::string, std::string> Finished;
  QuotaLedger Quotas;
  bool ShuttingDown = false;
  bool DiskPaused = false;
  uint64_t NextProbeMs = 0;
};

} // namespace sched
} // namespace elfie

#endif // ELFIE_SCHED_SERVICE_H
