//===- support/Subprocess.h - Child-process spawn/poll/kill ----*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Subprocess helpers for tools that drive other tools: spawn with
/// stdout/stderr redirection and environment edits, non-blocking polling,
/// process-group kill, and runCommand, the one blocking run with a deadline
/// and captured output. The campaign runner (src/sched) builds its bounded
/// worker pool on these; they carry no scheduling policy themselves.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SUPPORT_SUBPROCESS_H
#define ELFIE_SUPPORT_SUBPROCESS_H

#include "support/Error.h"

#include <string>
#include <sys/types.h>
#include <utility>
#include <vector>

namespace elfie {

/// Exit code a spawned child reports when the exec itself fails (tool binary
/// missing or not executable). Chosen to stay clear of the tool taxonomy
/// (0/1/2/3) and the native-ELFie fault codes (127/126/125); efault uses
/// the same convention.
enum : int { ExitExecFailure = 124 };

/// What to run and how to wire it up.
struct SpawnSpec {
  /// argv[0] must be the executable path (no PATH search).
  std::vector<std::string> Argv;

  /// Variables set in the child on top of the inherited environment.
  std::vector<std::pair<std::string, std::string>> ExtraEnv;

  /// Variables removed from the child's environment. The campaign runner
  /// always strips ELFIE_FAULT_SPEC here: the runner consumes the spec
  /// itself, and children must only see faults the manifest asks for.
  std::vector<std::string> UnsetEnv;

  /// Redirect targets (files, created/truncated). Empty = inherit.
  std::string StdoutPath;
  std::string StderrPath;

  /// Child working directory. Empty = inherit.
  std::string WorkDir;

  /// Place the child in its own process group so killProcessTree() can
  /// take out anything it forks. Defaults on.
  bool NewProcessGroup = true;
};

/// Fork+exec per \p Spec. Returns the child pid; the caller owns the wait.
Expected<pid_t> spawnProcess(const SpawnSpec &Spec);

/// Outcome of a (possibly still running) child.
struct WaitResult {
  bool Running = false; ///< still alive (poll only)
  bool Exited = false;  ///< normal exit (vs. signal death)
  int ExitCode = -1;    ///< when Exited
  int Signal = 0;       ///< terminating signal when !Exited && !Running
};

/// Non-blocking waitpid. Running=true when the child has not changed state.
Expected<WaitResult> pollProcess(pid_t Pid);

/// Blocking waitpid.
Expected<WaitResult> waitProcess(pid_t Pid);

/// Sends \p Sig to the child's process group (falling back to the single
/// process when it leads no group). Safe to call on already-dead children.
void killProcessTree(pid_t Pid, int Sig);

/// How a runCommand child ended, and what it wrote.
struct CommandResult {
  WaitResult Wait;       ///< the child's exit status or terminating signal
  bool TimedOut = false; ///< killed (SIGKILL) at the deadline
  std::string Stdout;    ///< empty when Spec redirects stdout to a file
  std::string Stderr;    ///< empty when Spec redirects stderr to a file
};

/// Spawns \p Spec, waits for it, and returns its status and its stdout and
/// stderr (those Spec leaves unredirected; they are captured in anonymous
/// files, so a chatty child cannot block on a full pipe). When the child
/// outlives \p TimeoutMs, its process tree is SIGKILLed and TimedOut is
/// set.
Expected<CommandResult> runCommand(const SpawnSpec &Spec, uint64_t TimeoutMs);

/// Directory of the running executable (/proc/self/exe), or of \p Argv0
/// when that link cannot be read. Tools that drive their sibling tools
/// look for them here.
std::string selfBinDir(const char *Argv0);

/// Monotonic milliseconds (CLOCK_MONOTONIC); the campaign runner's clock
/// for timeouts and backoff deadlines.
uint64_t monotonicMillis();

} // namespace elfie

#endif // ELFIE_SUPPORT_SUBPROCESS_H
