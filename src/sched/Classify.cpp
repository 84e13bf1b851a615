//===- sched/Classify.cpp -------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sched/Classify.h"

#include "support/Error.h"

using namespace elfie;
using namespace elfie::sched;

/// Exit-1 rejections split on their stable code: I/O-layer failures are
/// weather (a retry may find the disk writable again), everything else —
/// corrupt artifacts, failed verification, bad configs — is a property of
/// the input and retrying cannot change it.
static bool stderrLooksTransient(const std::string &Text) {
  static const char *TransientMarks[] = {
      "EFAULT.IO.READ",   "EFAULT.IO.WRITE",
      "EFAULT.IO.FSYNC",  "EFAULT.IO.ENOSPC",
      "EFAULT.IO.EIO",    "No space left on device",
      "I/O error",        "Input/output error",
      "Resource temporarily unavailable",
  };
  for (const char *Mark : TransientMarks)
    if (Text.find(Mark) != std::string::npos)
      return true;
  return false;
}

JobClass elfie::sched::classifyOutcome(const AttemptOutcome &O,
                                       const std::string &StderrText) {
  if (O.TimedOut || !O.Exited)
    return JobClass::Transient; // runner timeout or signal death (OOM, kill)
  switch (O.ExitCode) {
  case ExitSuccess:
    return JobClass::Success;
  case ExitUsage:
  case ExitDivergence:
    return JobClass::Deterministic;
  case ExitExecFailure: // the tool binary itself is missing/broken
    return JobClass::Deterministic;
  case ExitElfieDivergence:
  case ExitElfieSignal:
  case ExitWatchdog: // budget watchdog (ELFie runtime or host guard)
    return JobClass::Deterministic;
  case ExitFailure:
    return stderrLooksTransient(StderrText) ? JobClass::Transient
                                            : JobClass::Deterministic;
  default:
    // Unknown nonzero codes (e.g. a mutated guest's own exit status under
    // evm) are the artifact's semantics, not weather: quarantine.
    return JobClass::Deterministic;
  }
}

const char *elfie::sched::classifyDetail(const AttemptOutcome &O,
                                         const std::string &StderrText) {
  if (O.TimedOut)
    return "timeout";
  if (!O.Exited)
    return "signal";
  switch (O.ExitCode) {
  case ExitSuccess:
    return "ok";
  case ExitUsage:
    return "usage";
  case ExitDivergence:
    return "divergence";
  case ExitExecFailure:
    return "exec-failure";
  case ExitElfieDivergence:
  case ExitElfieSignal:
  case ExitWatchdog:
    return "elfie-fault";
  case ExitFailure:
    return stderrLooksTransient(StderrText) ? "transient-io" : "rejected";
  default:
    return "rejected";
  }
}

const char *elfie::sched::jobClassName(JobClass C) {
  switch (C) {
  case JobClass::Success:
    return "success";
  case JobClass::Transient:
    return "transient";
  case JobClass::Deterministic:
    return "deterministic";
  }
  return "?";
}
