//===- support/Subprocess.cpp ---------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Subprocess.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <libgen.h>
#include <limits.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace elfie;

/// open(2) retrying EINTR: the daemon's supervisor loop fields SIGCHLD-era
/// signal traffic constantly, and an interrupted redirect open must not
/// turn into a spurious spawn failure.
static int openRetry(const char *Path, int Flags, mode_t Mode) {
  for (;;) {
    int Fd = ::open(Path, Flags, Mode);
    if (Fd >= 0 || errno != EINTR)
      return Fd;
  }
}

Expected<pid_t> elfie::spawnProcess(const SpawnSpec &Spec) {
  if (Spec.Argv.empty())
    return makeCodedError("EFAULT.PROC.SPAWN", "empty argv");

  // Open redirect targets in the parent so failures are reportable as
  // errors rather than a dead child.
  int OutFd = -1, ErrFd = -1;
  auto CloseFds = [&] {
    if (OutFd >= 0)
      ::close(OutFd);
    if (ErrFd >= 0)
      ::close(ErrFd);
  };
  if (!Spec.StdoutPath.empty()) {
    OutFd = openRetry(Spec.StdoutPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                      0644);
    if (OutFd < 0)
      return makeCodedError("EFAULT.PROC.SPAWN", "cannot open '%s': %s",
                            Spec.StdoutPath.c_str(), std::strerror(errno));
  }
  if (!Spec.StderrPath.empty()) {
    ErrFd = openRetry(Spec.StderrPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                      0644);
    if (ErrFd < 0) {
      int E = errno;
      CloseFds();
      return makeCodedError("EFAULT.PROC.SPAWN", "cannot open '%s': %s",
                            Spec.StderrPath.c_str(), std::strerror(E));
    }
  }

  pid_t Pid = ::fork();
  if (Pid < 0) {
    int E = errno;
    CloseFds();
    return makeCodedError("EFAULT.PROC.SPAWN", "fork failed: %s",
                          std::strerror(E));
  }
  if (Pid == 0) {
    // Child. Only async-signal-safe calls plus setenv/unsetenv (we are
    // single-threaded between fork and exec).
    if (Spec.NewProcessGroup)
      ::setpgid(0, 0);
    if (OutFd >= 0) {
      ::dup2(OutFd, 1);
      ::close(OutFd);
    }
    if (ErrFd >= 0) {
      ::dup2(ErrFd, 2);
      ::close(ErrFd);
    }
    if (!Spec.WorkDir.empty() && ::chdir(Spec.WorkDir.c_str()) != 0)
      ::_exit(ExitExecFailure);
    for (const std::string &Name : Spec.UnsetEnv)
      ::unsetenv(Name.c_str());
    for (const auto &[Name, Value] : Spec.ExtraEnv)
      ::setenv(Name.c_str(), Value.c_str(), 1);
    std::vector<char *> Args;
    Args.reserve(Spec.Argv.size() + 1);
    for (const std::string &A : Spec.Argv)
      Args.push_back(const_cast<char *>(A.c_str()));
    Args.push_back(nullptr);
    ::execv(Args[0], Args.data());
    // Exec failed: leave a one-line breadcrumb on (possibly redirected)
    // stderr and report through the reserved code.
    const char *Msg = "exec failed: ";
    (void)!::write(2, Msg, std::strlen(Msg));
    (void)!::write(2, Args[0], std::strlen(Args[0]));
    (void)!::write(2, "\n", 1);
    ::_exit(ExitExecFailure);
  }
  CloseFds();
  return Pid;
}

static WaitResult decodeStatus(int Status) {
  WaitResult R;
  if (WIFEXITED(Status)) {
    R.Exited = true;
    R.ExitCode = WEXITSTATUS(Status);
  } else if (WIFSIGNALED(Status)) {
    R.Signal = WTERMSIG(Status);
  }
  return R;
}

Expected<WaitResult> elfie::pollProcess(pid_t Pid) {
  int Status = 0;
  pid_t W;
  do {
    W = ::waitpid(Pid, &Status, WNOHANG);
  } while (W < 0 && errno == EINTR);
  if (W < 0)
    return makeCodedError("EFAULT.PROC.WAIT", "waitpid(%d) failed: %s",
                          static_cast<int>(Pid), std::strerror(errno));
  if (W == 0) {
    WaitResult R;
    R.Running = true;
    return R;
  }
  return decodeStatus(Status);
}

Expected<WaitResult> elfie::waitProcess(pid_t Pid) {
  int Status = 0;
  for (;;) {
    pid_t W = ::waitpid(Pid, &Status, 0);
    if (W == Pid)
      return decodeStatus(Status);
    if (W < 0 && errno == EINTR)
      continue;
    return makeCodedError("EFAULT.PROC.WAIT", "waitpid(%d) failed: %s",
                          static_cast<int>(Pid), std::strerror(errno));
  }
}

void elfie::killProcessTree(pid_t Pid, int Sig) {
  if (Pid <= 0)
    return;
  if (::kill(-Pid, Sig) != 0)
    ::kill(Pid, Sig);
}

std::string elfie::selfBinDir(const char *Argv0) {
  char Buf[PATH_MAX];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N > 0) {
    Buf[N] = '\0';
    return ::dirname(Buf);
  }
  char Copy[PATH_MAX];
  ::strncpy(Copy, Argv0, sizeof(Copy) - 1);
  Copy[sizeof(Copy) - 1] = '\0';
  return ::dirname(Copy);
}

uint64_t elfie::monotonicMillis() {
  struct timespec Ts;
  ::clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000u +
         static_cast<uint64_t>(Ts.tv_nsec) / 1000000u;
}
