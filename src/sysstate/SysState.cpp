//===- sysstate/SysState.cpp ----------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sysstate/SysState.h"

#include "support/FileIO.h"
#include "support/Format.h"

#include <algorithm>
#include <unistd.h>

using namespace elfie;
using namespace elfie::sysstate;
using isa::Sys;
using pinball::Pinball;
using pinball::SyscallRecord;

namespace {

struct FdTrack {
  FileProxy Proxy;
  uint64_t Offset = 0; ///< simulated file offset
  bool Open = true;
};

void placeBytes(std::vector<uint8_t> &Contents, uint64_t Offset,
                const std::vector<uint8_t> &Bytes) {
  if (Bytes.empty())
    return;
  size_t End = static_cast<size_t>(Offset) + Bytes.size();
  if (Contents.size() < End)
    Contents.resize(End, 0);
  std::copy(Bytes.begin(), Bytes.end(),
            Contents.begin() + static_cast<ssize_t>(Offset));
}

} // namespace

SysState sysstate::analyze(const Pinball &PB) {
  SysState Out;
  Out.BrkStart = PB.Meta.BrkAtStart;
  Out.BrkEnd = PB.Meta.BrkAtEnd;

  std::map<int64_t, FdTrack> Tracked;

  auto TrackPreRegionFd = [&](int64_t Fd) -> FdTrack & {
    auto It = Tracked.find(Fd);
    if (It != Tracked.end())
      return It->second;
    FdTrack T;
    T.Proxy.Fd = Fd;
    T.Proxy.ProxyName = formatString("FD_%lld", static_cast<long long>(Fd));
    T.Proxy.OpenedBeforeRegion = true;
    return Tracked.emplace(Fd, std::move(T)).first->second;
  };

  for (const SyscallRecord &S : PB.Syscalls) {
    switch (static_cast<Sys>(S.Nr)) {
    case Sys::Open: {
      if (S.Result < 0)
        break;
      // A file opened inside the region: proxy carries the real name. The
      // path string lives in guest memory we no longer have; recover it
      // from the captured pages if possible, else fall back to FD naming.
      std::string Name;
      uint64_t Addr = S.Args[0];
      for (const pinball::PageRecord *P : PB.allPages()) {
        if (Addr >= P->Addr && Addr < P->Addr + vm::GuestPageSize) {
          const uint8_t *Base = P->Bytes.data() + (Addr - P->Addr);
          const uint8_t *End = P->Bytes.data() + P->Bytes.size();
          const uint8_t *Q = Base;
          while (Q < End && *Q)
            ++Q;
          if (Q < End)
            Name.assign(reinterpret_cast<const char *>(Base),
                        static_cast<size_t>(Q - Base));
          break;
        }
      }
      FdTrack T;
      T.Proxy.Fd = S.Result;
      T.Proxy.ProxyName =
          Name.empty()
              ? formatString("FD_%lld", static_cast<long long>(S.Result))
              : Name;
      T.Proxy.OpenedBeforeRegion = false;
      Tracked[S.Result] = std::move(T);
      break;
    }
    case Sys::Read: {
      if (S.Result <= 0 || S.Args[0] <= 2)
        break;
      FdTrack &T = TrackPreRegionFd(static_cast<int64_t>(S.Args[0]));
      if (!S.MemWrites.empty())
        placeBytes(T.Proxy.Contents, T.Offset, S.MemWrites[0].Bytes);
      T.Offset += static_cast<uint64_t>(S.Result);
      break;
    }
    case Sys::Write: {
      if (S.Args[0] <= 2)
        break; // stdout/stderr need no proxy
      FdTrack &T = TrackPreRegionFd(static_cast<int64_t>(S.Args[0]));
      T.Proxy.Written = true;
      if (S.Result > 0)
        T.Offset += static_cast<uint64_t>(S.Result);
      break;
    }
    case Sys::Lseek: {
      if (S.Args[0] <= 2 || S.Result < 0)
        break;
      FdTrack &T = TrackPreRegionFd(static_cast<int64_t>(S.Args[0]));
      // The replayed lseek's *result* is the authoritative new offset.
      T.Offset = static_cast<uint64_t>(S.Result);
      break;
    }
    case Sys::Close: {
      auto It = Tracked.find(static_cast<int64_t>(S.Args[0]));
      if (It != Tracked.end())
        It->second.Open = false;
      break;
    }
    default:
      break;
    }
  }

  for (auto &[Fd, T] : Tracked)
    Out.Files.push_back(std::move(T.Proxy));
  return Out;
}

std::string SysState::report() const {
  std::string Out;
  for (const FileProxy &F : Files) {
    if (F.OpenedBeforeRegion)
      Out += formatString("File opened prior to the region: "
                          "file descriptor %lld -> proxy %s (%zu bytes%s)\n",
                          static_cast<long long>(F.Fd), F.ProxyName.c_str(),
                          F.Contents.size(), F.Written ? ", written" : "");
    else
      Out += formatString("File opened inside the region: fd %lld -> %s "
                          "(%zu bytes%s)\n",
                          static_cast<long long>(F.Fd), F.ProxyName.c_str(),
                          F.Contents.size(), F.Written ? ", written" : "");
  }
  Out += formatString("BRK.log: first %#llx last %#llx\n",
                      static_cast<unsigned long long>(BrkStart),
                      static_cast<unsigned long long>(BrkEnd));
  return Out;
}

Error sysstate::writeSysstateDir(const SysState &State,
                                 const std::string &Dir) {
  // Staged emission: an interrupted pinball_sysstate must not leave a
  // half-populated workdir that a later ELFie run would half-trust. Build
  // under a temp sibling (files fsync'd in place), then publishDirAtomic
  // syncs the stage's directories and renames the whole tree into place.
  std::string Stage = Dir + ".stage." + std::to_string(::getpid());
  removeTree(Stage);
  auto Fail = [&](Error E) {
    removeTree(Stage);
    return E.withContext("writing sysstate '" + Dir + "'");
  };
  std::string WorkDir = Stage + "/workdir";
  if (Error E = createDirectories(WorkDir))
    return Fail(std::move(E));
  for (const FileProxy &F : State.Files) {
    std::string Path = WorkDir + "/" + F.ProxyName;
    // Real-named proxies may carry relative directories.
    size_t Slash = F.ProxyName.rfind('/');
    if (Slash != std::string::npos)
      if (Error E =
              createDirectories(WorkDir + "/" + F.ProxyName.substr(0, Slash)))
        return Fail(std::move(E));
    if (Error E =
            writeFileSynced(Path, F.Contents.data(), F.Contents.size()))
      return Fail(std::move(E));
  }
  std::string BrkLog = formatString(
      "first_brk %#llx\nlast_brk %#llx\n",
      static_cast<unsigned long long>(State.BrkStart),
      static_cast<unsigned long long>(State.BrkEnd));
  if (Error E =
          writeFileSynced(Stage + "/BRK.log", BrkLog.data(), BrkLog.size()))
    return Fail(std::move(E));
  std::string Report = State.report();
  if (Error E = writeFileSynced(Stage + "/report.txt", Report.data(),
                                Report.size()))
    return Fail(std::move(E));
  if (Error E = publishDirAtomic(Stage, Dir))
    return Fail(std::move(E));
  return Error::success();
}
