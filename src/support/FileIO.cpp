//===- support/FileIO.cpp -------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <sys/stat.h>
#include <unistd.h>

using namespace elfie;

static IOFaultHook *TheIOFaultHook = nullptr;

void elfie::setIOFaultHook(IOFaultHook *Hook) { TheIOFaultHook = Hook; }

IOFaultHook *elfie::ioFaultHook() { return TheIOFaultHook; }

Expected<std::vector<uint8_t>>
elfie::readFileBytes(const std::string &Path) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return makeCodedError("EFAULT.IO.OPEN", "cannot open '%s': %s",
                          Path.c_str(), std::strerror(errno));
  std::vector<uint8_t> Out;
  uint8_t Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.insert(Out.end(), Buf, Buf + N);
  int ReadErrno = errno;
  bool Bad = std::ferror(F);
  std::fclose(F);
  if (Bad)
    return makeCodedError("EFAULT.IO.READ", "read error on '%s': %s",
                          Path.c_str(), std::strerror(ReadErrno));
  if (TheIOFaultHook) {
    if (Error E = TheIOFaultHook->onRead(Path, Out))
      return E;
  }
  return Out;
}

Expected<std::string> elfie::readFileText(const std::string &Path) {
  auto Bytes = readFileBytes(Path);
  if (!Bytes)
    return Bytes.takeError();
  return std::string(Bytes->begin(), Bytes->end());
}

/// Runs the write hook; on injection the (possibly mutated) bytes live in
/// \p Storage and \p Data/\p Size are redirected into it.
static Error applyWriteHook(const std::string &Path, const void *&Data,
                            size_t &Size, std::vector<uint8_t> &Storage) {
  if (!TheIOFaultHook)
    return Error::success();
  Storage.assign(static_cast<const uint8_t *>(Data),
                 static_cast<const uint8_t *>(Data) + Size);
  if (Error E = TheIOFaultHook->onWrite(Path, Storage))
    return E;
  Data = Storage.data();
  Size = Storage.size();
  return Error::success();
}

Error elfie::writeFile(const std::string &Path, const void *Data,
                       size_t Size) {
  std::vector<uint8_t> Hooked;
  if (Error E = applyWriteHook(Path, Data, Size, Hooked))
    return E;
  FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return makeCodedError("EFAULT.IO.OPEN", "cannot create '%s': %s",
                          Path.c_str(), std::strerror(errno));
  size_t Written = Size ? std::fwrite(Data, 1, Size, F) : 0;
  int WriteErrno = errno;
  int CloseErr = std::fclose(F);
  if (Written != Size || CloseErr != 0)
    return makeCodedError("EFAULT.IO.WRITE", "write error on '%s': %s",
                          Path.c_str(), std::strerror(WriteErrno));
  return Error::success();
}

Error elfie::writeFileText(const std::string &Path, const std::string &Text) {
  return writeFile(Path, Text.data(), Text.size());
}

/// Disk-pressure errnos keep their identity instead of flattening into the
/// generic write/fsync codes: the campaign service pauses admission on
/// ENOSPC specifically, and operators grep for it.
static const char *errnoIOCode(int E) {
  if (E == ENOSPC || E == EDQUOT)
    return "EFAULT.IO.ENOSPC";
  if (E == EIO)
    return "EFAULT.IO.EIO";
  return nullptr;
}

/// Durability of the *directory entry*: rename(2) makes the new name
/// visible, but only an fsync of the containing directory makes it
/// permanent. Without this, a crash right after an atomic publish can lose
/// the entry even though the file bytes themselves were fsync'd — the
/// "old or new, never partial" contract would degrade to "old, new, or
/// silently gone". Best effort on open failure (e.g. a search-only parent);
/// a failed fsync(2) itself is reported.
static Error fsyncDir(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return Error::success();
  int R = ::fsync(Fd);
  int FsyncErrno = errno;
  ::close(Fd);
  if (R != 0) {
    const char *Code = errnoIOCode(FsyncErrno);
    return makeCodedError(Code ? Code : "EFAULT.IO.FSYNC",
                          "fsync failed on directory '%s': %s", Dir.c_str(),
                          std::strerror(FsyncErrno));
  }
  return Error::success();
}

static Error fsyncParentDir(const std::string &Path) {
  size_t Slash = Path.rfind('/');
  std::string Dir = Slash == std::string::npos ? "." : Path.substr(0, Slash);
  return fsyncDir(Dir.empty() ? "/" : Dir);
}

/// Writes all \p Size bytes to \p Fd (opened on \p Path) and fsyncs it.
static Error writeAllAndSync(int Fd, const std::string &Path,
                             const void *Data, size_t Size) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  size_t Left = Size;
  while (Left > 0) {
    ssize_t N = ::write(Fd, P, Left);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      const char *Code = errnoIOCode(errno);
      return makeCodedError(Code ? Code : "EFAULT.IO.WRITE",
                            "write error on '%s': %s", Path.c_str(),
                            std::strerror(errno));
    }
    P += N;
    Left -= static_cast<size_t>(N);
  }
  if (::fsync(Fd) != 0) {
    const char *Code = errnoIOCode(errno);
    return makeCodedError(Code ? Code : "EFAULT.IO.FSYNC",
                          "fsync failed on '%s': %s", Path.c_str(),
                          std::strerror(errno));
  }
  return Error::success();
}

namespace {
/// Owns the temp sibling of an atomic write: any return before release()
/// (success) closes the descriptor and unlinks the file, so no error path
/// can leave "*.tmp" litter behind.
class TmpFileGuard {
public:
  TmpFileGuard(std::string Path, int Fd) : Path(std::move(Path)), Fd(Fd) {}
  ~TmpFileGuard() {
    closeFd();
    if (!Released)
      ::unlink(Path.c_str());
  }
  int closeFd() {
    int R = 0;
    if (Fd >= 0)
      R = ::close(Fd);
    Fd = -1;
    return R;
  }
  void release() { Released = true; }
  int fd() const { return Fd; }

private:
  std::string Path;
  int Fd = -1;
  bool Released = false;
};
} // namespace

Error elfie::writeFileAtomic(const std::string &Path, const void *Data,
                             size_t Size, bool Executable) {
  std::vector<uint8_t> Hooked;
  if (Error E = applyWriteHook(Path, Data, Size, Hooked))
    return E;
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                  Executable ? 0755 : 0644);
  if (Fd < 0)
    return makeCodedError("EFAULT.IO.OPEN", "cannot create '%s': %s",
                          Tmp.c_str(), std::strerror(errno));
  TmpFileGuard Guard(Tmp, Fd);
  if (Error E = writeAllAndSync(Guard.fd(), Tmp, Data, Size))
    return E;
  if (Guard.closeFd() != 0)
    return makeCodedError("EFAULT.IO.WRITE", "close failed on '%s': %s",
                          Tmp.c_str(), std::strerror(errno));
  if (::rename(Tmp.c_str(), Path.c_str()) != 0)
    return makeCodedError("EFAULT.IO.RENAME",
                          "cannot rename '%s' to '%s': %s", Tmp.c_str(),
                          Path.c_str(), std::strerror(errno));
  Guard.release();
  return fsyncParentDir(Path);
}

Error elfie::writeFileSynced(const std::string &Path, const void *Data,
                             size_t Size) {
  std::vector<uint8_t> Hooked;
  if (Error E = applyWriteHook(Path, Data, Size, Hooked))
    return E;
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return makeCodedError("EFAULT.IO.OPEN", "cannot create '%s': %s",
                          Path.c_str(), std::strerror(errno));
  Error E = writeAllAndSync(Fd, Path, Data, Size);
  if (::close(Fd) != 0 && !E.isError())
    return makeCodedError("EFAULT.IO.WRITE", "close failed on '%s': %s",
                          Path.c_str(), std::strerror(errno));
  return E;
}

Error elfie::renamePath(const std::string &From, const std::string &To) {
  if (::rename(From.c_str(), To.c_str()) != 0)
    return makeCodedError("EFAULT.IO.RENAME",
                          "cannot rename '%s' to '%s': %s", From.c_str(),
                          To.c_str(), std::strerror(errno));
  return Error::success();
}

Error elfie::publishDirAtomic(const std::string &StageDir,
                              const std::string &FinalDir) {
  // The staged files were fsync'd in place (writeFileSynced); their
  // directory entries become durable with one fsync per staged directory.
  std::vector<std::string> Dirs = {StageDir};
  std::error_code EC;
  for (const auto &Entry :
       std::filesystem::recursive_directory_iterator(StageDir, EC))
    if (Entry.is_directory(EC))
      Dirs.push_back(Entry.path().string());
  for (const std::string &D : Dirs)
    if (Error E = fsyncDir(D))
      return E.withContext("publishing '" + FinalDir + "'");
  std::string Old = FinalDir + ".old." + std::to_string(::getpid());
  bool HadOld = fileExists(FinalDir);
  if (HadOld) {
    if (Error E = renamePath(FinalDir, Old))
      return E.withContext("publishing '" + FinalDir + "'");
  }
  if (Error E = renamePath(StageDir, FinalDir)) {
    if (HadOld)
      renamePath(Old, FinalDir); // best-effort restore
    return E.withContext("publishing '" + FinalDir + "'");
  }
  if (HadOld)
    removeTree(Old);
  return fsyncParentDir(FinalDir);
}

Error elfie::createDirectories(const std::string &Path) {
  std::error_code EC;
  std::filesystem::create_directories(Path, EC);
  if (EC)
    return makeCodedError("EFAULT.IO.DIR", "cannot create directory '%s': %s",
                          Path.c_str(), EC.message().c_str());
  return Error::success();
}

bool elfie::fileExists(const std::string &Path) {
  std::error_code EC;
  return std::filesystem::exists(Path, EC);
}

bool elfie::isDirectory(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
}

void elfie::removeFile(const std::string &Path) {
  std::error_code EC;
  std::filesystem::remove(Path, EC);
}

void elfie::removeTree(const std::string &Path) {
  std::error_code EC;
  std::filesystem::remove_all(Path, EC);
}

Expected<std::vector<std::string>>
elfie::listDirectory(const std::string &Path) {
  std::error_code EC;
  std::filesystem::directory_iterator It(Path, EC);
  if (EC)
    return makeCodedError("EFAULT.IO.LIST", "cannot list directory '%s': %s",
                          Path.c_str(), EC.message().c_str());
  std::vector<std::string> Names;
  for (const auto &Entry : It)
    Names.push_back(Entry.path().filename().string());
  std::sort(Names.begin(), Names.end());
  return Names;
}

Error elfie::makeExecutable(const std::string &Path) {
  if (::chmod(Path.c_str(), 0755) != 0)
    return makeCodedError("EFAULT.IO.CHMOD", "chmod failed on '%s': %s",
                          Path.c_str(), std::strerror(errno));
  return Error::success();
}

Error AppendLog::open(const std::string &Path) {
  close();
  // Readable too: append() looks at the last byte before each record.
  Fd = ::open(Path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (Fd < 0)
    return makeCodedError("EFAULT.IO.OPEN", "cannot open log '%s': %s",
                          Path.c_str(), std::strerror(errno));
  LogPath = Path;
  return Error::success();
}


Error AppendLog::append(const std::string &Line) {
  if (Fd < 0)
    return makeCodedError("EFAULT.IO.WRITE", "append to closed log '%s'",
                          LogPath.c_str());
  std::vector<uint8_t> Bytes(Line.begin(), Line.end());
  if (Bytes.empty() || Bytes.back() != '\n')
    Bytes.push_back('\n');
  if (TheIOFaultHook) {
    if (Error E = TheIOFaultHook->onWrite(LogPath, Bytes))
      return E;
  }
  // A torn earlier record (a kill or short write mid-append) leaves the
  // file without its final newline: start this one on a fresh line, or
  // replay would read the two as one malformed record.
  struct stat St;
  char Last = '\n';
  if (::fstat(Fd, &St) == 0 && St.st_size > 0 &&
      ::pread(Fd, &Last, 1, St.st_size - 1) == 1 && Last != '\n')
    Bytes.insert(Bytes.begin(), '\n');
  const uint8_t *P = Bytes.data();
  size_t Left = Bytes.size();
  while (Left > 0) {
    ssize_t N = ::write(Fd, P, Left);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      const char *Code = errnoIOCode(errno);
      return makeCodedError(Code ? Code : "EFAULT.IO.WRITE",
                            "write error on '%s': %s", LogPath.c_str(),
                            std::strerror(errno));
    }
    P += N;
    Left -= static_cast<size_t>(N);
  }
  if (::fsync(Fd) != 0) {
    const char *Code = errnoIOCode(errno);
    return makeCodedError(Code ? Code : "EFAULT.IO.FSYNC",
                          "fsync failed on '%s': %s", LogPath.c_str(),
                          std::strerror(errno));
  }
  return Error::success();
}

void AppendLog::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}

void BinaryWriter::writeLE(const void *P, size_t N) {
  const uint8_t *B = static_cast<const uint8_t *>(P);
  Bytes.insert(Bytes.end(), B, B + N);
}

void BinaryWriter::writeBlob(const void *Data, size_t Size) {
  writeU32(static_cast<uint32_t>(Size));
  writeRaw(Data, Size);
}

void BinaryWriter::writeRaw(const void *Data, size_t Size) {
  const uint8_t *B = static_cast<const uint8_t *>(Data);
  Bytes.insert(Bytes.end(), B, B + Size);
}

uint8_t BinaryReader::readU8() {
  if (!take(1))
    return 0;
  return Data[Pos++];
}

uint16_t BinaryReader::readU16() {
  if (!take(2))
    return 0;
  uint16_t V;
  std::memcpy(&V, Data + Pos, 2);
  Pos += 2;
  return V;
}

uint32_t BinaryReader::readU32() {
  if (!take(4))
    return 0;
  uint32_t V;
  std::memcpy(&V, Data + Pos, 4);
  Pos += 4;
  return V;
}

uint64_t BinaryReader::readU64() {
  if (!take(8))
    return 0;
  uint64_t V;
  std::memcpy(&V, Data + Pos, 8);
  Pos += 8;
  return V;
}

double BinaryReader::readDouble() {
  if (!take(8))
    return 0.0;
  double V;
  std::memcpy(&V, Data + Pos, 8);
  Pos += 8;
  return V;
}

std::vector<uint8_t> BinaryReader::readBlob() {
  uint32_t N = readU32();
  if (!take(N))
    return {};
  std::vector<uint8_t> Out(Data + Pos, Data + Pos + N);
  Pos += N;
  return Out;
}

std::span<const uint8_t> BinaryReader::readBlobView() {
  uint32_t N = readU32();
  if (!take(N))
    return {};
  std::span<const uint8_t> Out(Data + Pos, N);
  Pos += N;
  return Out;
}

std::string BinaryReader::readString() {
  auto Blob = readBlob();
  return std::string(Blob.begin(), Blob.end());
}

void BinaryReader::readRaw(void *Out, size_t N) {
  if (!take(N)) {
    std::memset(Out, 0, N);
    return;
  }
  std::memcpy(Out, Data + Pos, N);
  Pos += N;
}

void BinaryReader::skip(size_t N) {
  if (take(N))
    Pos += N;
}
