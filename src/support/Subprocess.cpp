//===- support/Subprocess.cpp ---------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Subprocess.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <libgen.h>
#include <limits.h>
#include <signal.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/syscall.h>
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

namespace {
/// A descriptor closed on scope exit.
struct OwnedFd {
  int Fd;
  explicit OwnedFd(int Fd = -1) : Fd(Fd) {}
  OwnedFd(const OwnedFd &) = delete;
  OwnedFd &operator=(const OwnedFd &) = delete;
  ~OwnedFd() {
    if (Fd >= 0)
      ::close(Fd);
  }
};
} // namespace

/// Opens \p Path (created/truncated) into \p Out for a redirect; leaves Out
/// unset when Path is empty. Opened in the parent so a bad path is an error
/// rather than a dead child.
static Error openRedirect(const std::string &Path, OwnedFd &Out) {
  if (Path.empty())
    return Error::success();
  Out.Fd = openRetry(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                     0644);
  if (Out.Fd < 0)
    return makeCodedError("EFAULT.PROC.SPAWN", "cannot open '%s': %s",
                          Path.c_str(), std::strerror(errno));
  return Error::success();
}

/// Fork+exec per \p Spec with \p OutFd / \p ErrFd (-1 = inherit) as the
/// child's stdout / stderr. The caller keeps ownership of both.
static Expected<pid_t> forkExec(const SpawnSpec &Spec, int OutFd, int ErrFd) {
  if (Spec.Argv.empty())
    return makeCodedError("EFAULT.PROC.SPAWN", "empty argv");
  pid_t Pid = ::fork();
  if (Pid < 0)
    return makeCodedError("EFAULT.PROC.SPAWN", "fork failed: %s",
                          std::strerror(errno));
  if (Pid == 0) {
    // Child. Only async-signal-safe calls plus setenv/unsetenv (we are
    // single-threaded between fork and exec).
    if (Spec.NewProcessGroup)
      ::setpgid(0, 0);
    if (OutFd >= 0)
      ::dup2(OutFd, 1);
    if (ErrFd >= 0)
      ::dup2(ErrFd, 2);
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
  return Pid;
}

Expected<pid_t> elfie::spawnProcess(const SpawnSpec &Spec) {
  OwnedFd Out, Err;
  if (Error E = openRedirect(Spec.StdoutPath, Out))
    return E;
  if (Error E = openRedirect(Spec.StderrPath, Err))
    return E;
  return forkExec(Spec, Out.Fd, Err.Fd);
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

/// The whole of the capture file \p Fd.
static std::string readCaptured(int Fd) {
  std::string Out;
  char Buf[4096];
  ssize_t N;
  for (off_t Off = 0; (N = ::pread(Fd, Buf, sizeof(Buf), Off)) > 0; Off += N)
    Out.append(Buf, static_cast<size_t>(N));
  return Out;
}

Expected<CommandResult> elfie::runCommand(const SpawnSpec &Spec,
                                          uint64_t TimeoutMs) {
  OwnedFd Fds[2];
  for (int I = 0; I < 2; ++I) {
    const std::string &Path = I ? Spec.StderrPath : Spec.StdoutPath;
    if (Error E = openRedirect(Path, Fds[I]))
      return E;
    if (Path.empty() &&
        (Fds[I].Fd = ::memfd_create("elfie-capture", MFD_CLOEXEC)) < 0)
      return makeCodedError("EFAULT.PROC.SPAWN", "memfd_create failed: %s",
                            std::strerror(errno));
  }
  auto Pid = forkExec(Spec, Fds[0].Fd, Fds[1].Fd);
  if (!Pid)
    return Pid.takeError();

  CommandResult R;
  const uint64_t Deadline = monotonicMillis() + TimeoutMs;
  // Sleep on a pidfd, which turns readable when the child exits, so the
  // wait ends with the child; without one, look every millisecond.
  OwnedFd PidFd(static_cast<int>(::syscall(SYS_pidfd_open, *Pid, 0)));
  Expected<WaitResult> W = pollProcess(*Pid);
  while (W && W->Running) {
    uint64_t Now = monotonicMillis();
    if (Now >= Deadline) {
      R.TimedOut = true;
      killProcessTree(*Pid, SIGKILL);
      W = waitProcess(*Pid);
      break;
    }
    // poll(2) skips a negative fd and then only sleeps.
    struct pollfd P = {PidFd.Fd, POLLIN, 0};
    ::poll(&P, 1,
           PidFd.Fd < 0 ? 1 : static_cast<int>(std::min<uint64_t>(
                                  Deadline - Now, 1000)));
    W = pollProcess(*Pid);
  }
  if (!W)
    return W.takeError();
  R.Wait = *W;
  if (Spec.StdoutPath.empty())
    R.Stdout = readCaptured(Fds[0].Fd);
  if (Spec.StderrPath.empty())
    R.Stderr = readCaptured(Fds[1].Fd);
  return R;
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
