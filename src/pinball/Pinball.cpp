//===- pinball/Pinball.cpp ------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "pinball/Pinball.h"

#include "support/FileIO.h"
#include "support/Format.h"

#include <algorithm>
#include <unistd.h>

using namespace elfie;
using namespace elfie::pinball;

namespace {

constexpr uint32_t FileMagic = 0x50424c45; // "ELBP"
/// Version 2 added payload-free zero page records (see Pinball.h).
constexpr uint32_t FormatVersion = 2;

void writeHeader(BinaryWriter &W, uint32_t Kind) {
  W.writeU32(FileMagic);
  W.writeU32(FormatVersion);
  W.writeU32(Kind);
}

Error checkHeader(BinaryReader &R, uint32_t Kind, const std::string &File) {
  uint32_t Magic = R.readU32();
  uint32_t Version = R.readU32();
  uint32_t GotKind = R.readU32();
  if (R.hadError())
    return makeCodedError(
        "EFAULT.PINBALL.TRUNCATED",
        "'%s' is truncated (shorter than the pinball header)", File.c_str());
  if (Magic != FileMagic)
    return makeCodedError("EFAULT.PINBALL.MAGIC",
                          "'%s' is not a pinball file (bad magic)",
                          File.c_str());
  if (Version != FormatVersion)
    return makeCodedError("EFAULT.PINBALL.VERSION",
                          "'%s' has unsupported pinball version %u",
                          File.c_str(), Version);
  if (GotKind != Kind)
    return makeCodedError("EFAULT.PINBALL.KIND",
                          "'%s' has unexpected record kind %u", File.c_str(),
                          GotKind);
  return Error::success();
}

/// Range-checks a record count read from a file header against the bytes
/// actually present: a corrupt or hostile count must never drive an
/// allocation or loop past EOF. \p MinRecordSize is a per-record lower
/// bound, so N * MinRecordSize <= remaining (overflow-safe as a division).
Error checkCount(uint64_t N, size_t MinRecordSize, const BinaryReader &R,
                 const std::string &File, const char *What) {
  if (N > R.remaining() / MinRecordSize)
    return makeCodedError(
        "EFAULT.PINBALL.COUNT",
        "'%s' claims %llu %s records but only %zu bytes remain",
        File.c_str(), static_cast<unsigned long long>(N), What,
        R.remaining());
  return Error::success();
}

/// A page file must end with its last record: bytes left over mean the
/// framing was misread (e.g. a payload-free record claiming a payload).
Error checkEnd(const BinaryReader &R, const std::string &File) {
  if (!R.atEnd())
    return makeCodedError("EFAULT.PINBALL.TRAILING",
                          "'%s' has %zu bytes after its last record",
                          File.c_str(), R.remaining());
  return Error::success();
}

enum FileKind : uint32_t {
  KindImage = 1,
  KindInject = 2,
  KindRegs = 3,
  KindSyscalls = 4,
  KindSchedule = 5,
  KindMeta = 6,
};

/// A zero page is written with an empty payload.
void writePage(BinaryWriter &W, const PageRecord &P) {
  W.writeU64(P.Addr);
  W.writeU8(P.Perm);
  W.writeBlob(P.Bytes.data(), P.Bytes.isZero() ? 0 : P.Bytes.size());
}

/// Parses one page record. The page bytes are *borrowed* from the reader's
/// underlying buffer (zero-copy); the caller keeps that buffer alive — for
/// Pinball::load, by retaining the mapped file in Pinball::Backing. A
/// payload-free record borrows the shared zero page.
Error readPage(BinaryReader &R, PageRecord &P, const std::string &File) {
  P.Addr = R.readU64();
  P.Perm = R.readU8();
  std::span<const uint8_t> Blob = R.readBlobView();
  if (R.hadError())
    return makeCodedError("EFAULT.PINBALL.TRUNCATED",
                          "'%s' is truncated inside a page record",
                          File.c_str());
  if (!Blob.empty() && Blob.size() != vm::GuestPageSize)
    return makeCodedError(
        "EFAULT.PINBALL.PAGE",
        "'%s': page record at %#llx has %zu bytes, expected 0 or %llu",
        File.c_str(), static_cast<unsigned long long>(P.Addr), Blob.size(),
        static_cast<unsigned long long>(vm::GuestPageSize));
  if (P.Addr & vm::GuestPageMask)
    return makeCodedError(
        "EFAULT.PINBALL.PAGE",
        "'%s': page record address %#llx is not page aligned", File.c_str(),
        static_cast<unsigned long long>(P.Addr));
  if (Blob.empty())
    P.Bytes.borrow(vm::zeroPage(), vm::GuestPageSize);
  else
    P.Bytes.borrow(Blob.data(), Blob.size());
  return Error::success();
}

} // namespace

void PageBytes::capturePage(const uint8_t *Page) {
  const uint8_t *Zero = vm::zeroPage();
  if (Page == Zero || std::memcmp(Page, Zero, vm::GuestPageSize) == 0)
    borrow(Zero, vm::GuestPageSize);
  else
    assign(Page, Page + vm::GuestPageSize);
}

std::vector<const PageRecord *> Pinball::allPages() const {
  std::vector<const PageRecord *> Out;
  Out.reserve(Image.size() + Injects.size());
  for (const PageRecord &P : Image)
    Out.push_back(&P);
  for (const InjectRecord &I : Injects)
    Out.push_back(&I.Page);
  return Out;
}

const ThreadRegs *Pinball::threadRegs(uint32_t Tid) const {
  for (const ThreadRegs &T : Threads)
    if (T.Tid == Tid)
      return &T;
  return nullptr;
}

uint64_t Pinball::imageBytes() const {
  return (Image.size() + Injects.size()) * vm::GuestPageSize;
}

vm::MemImage Pinball::buildMemImage(bool IncludeInjects) const {
  vm::MemImage Img;
  auto AddPage = [&](const PageRecord &P) {
    Img.addRun(P.Addr, P.Perm, P.Bytes.data(), P.Bytes.size());
    // Owned page buffers (captured or assigned pages) need their own
    // keepalive; borrowed pages are covered by the Backing files below.
    if (auto O = P.Bytes.owner())
      Img.retain(std::move(O));
  };
  for (const PageRecord &P : Image)
    AddPage(P);
  if (IncludeInjects)
    for (const InjectRecord &I : Injects)
      AddPage(I.Page);
  for (const auto &B : Backing)
    Img.retain(B);
  return Img;
}

Error Pinball::save(const std::string &Dir) const {
  // Crash-safe emission: build the pinball in a staged sibling directory,
  // fsync every file in place, then let publishDirAtomic sync the stage
  // and rename the whole tree into place. A process killed at any point
  // leaves either the previous complete pinball or nothing at \p Dir —
  // never a half-written checkpoint a later stage would half-trust.
  std::string Stage = Dir + ".stage." + std::to_string(::getpid());
  removeTree(Stage);
  if (Error E = createDirectories(Stage))
    return E;
  auto Fail = [&](Error E) {
    removeTree(Stage);
    return E.withContext("saving pinball '" + Dir + "'");
  };
  auto WriteOut = [&](const std::string &Name,
                      const BinaryWriter &W) -> Error {
    return writeFileSynced(Stage + "/" + Name, W.bytes().data(), W.size());
  };

  {
    BinaryWriter W;
    writeHeader(W, KindImage);
    W.writeU32(static_cast<uint32_t>(Image.size()));
    for (const PageRecord &P : Image)
      writePage(W, P);
    if (Error E = WriteOut("image.text", W))
      return Fail(std::move(E));
  }
  {
    BinaryWriter W;
    writeHeader(W, KindInject);
    W.writeU32(static_cast<uint32_t>(Injects.size()));
    for (const InjectRecord &I : Injects) {
      W.writeU64(I.FirstUseIcount);
      writePage(W, I.Page);
    }
    if (Error E = WriteOut("inject.pages", W))
      return Fail(std::move(E));
  }
  for (const ThreadRegs &T : Threads) {
    BinaryWriter W;
    writeHeader(W, KindRegs);
    W.writeU32(T.Tid);
    for (uint64_t G : T.GPR)
      W.writeU64(G);
    for (double F : T.FPR)
      W.writeDouble(F);
    W.writeU64(T.PC);
    W.writeU64(T.RegionIcount);
    if (Error E = WriteOut(formatString("t%u.reg", T.Tid), W))
      return Fail(std::move(E));
  }
  {
    BinaryWriter W;
    writeHeader(W, KindSyscalls);
    W.writeU32(static_cast<uint32_t>(Syscalls.size()));
    for (const SyscallRecord &S : Syscalls) {
      W.writeU32(S.Tid);
      W.writeU64(S.Nr);
      for (uint64_t A : S.Args)
        W.writeU64(A);
      W.writeI64(S.Result);
      W.writeU32(static_cast<uint32_t>(S.MemWrites.size()));
      for (const auto &M : S.MemWrites) {
        W.writeU64(M.Addr);
        W.writeBlob(M.Bytes.data(), M.Bytes.size());
      }
    }
    if (Error E = WriteOut("sel.log", W))
      return Fail(std::move(E));
  }
  {
    BinaryWriter W;
    writeHeader(W, KindSchedule);
    W.writeU32(static_cast<uint32_t>(Schedule.size()));
    for (const ScheduleSlice &S : Schedule) {
      W.writeU32(S.Tid);
      W.writeU64(S.NumInsts);
    }
    if (Error E = WriteOut("race.log", W))
      return Fail(std::move(E));
  }
  {
    BinaryWriter W;
    writeHeader(W, KindMeta);
    W.writeString(Meta.ProgramName);
    W.writeU64(Meta.RegionStart);
    W.writeU64(Meta.RegionLength);
    W.writeU8(Meta.WholeImage);
    W.writeU8(Meta.PagesEarly);
    W.writeU64(Meta.StackBase);
    W.writeU64(Meta.StackTop);
    W.writeU64(Meta.BrkAtStart);
    W.writeU64(Meta.BrkAtEnd);
    W.writeU32(static_cast<uint32_t>(Threads.size()));
    if (Error E = WriteOut("meta", W))
      return Fail(std::move(E));
  }
  if (Error E = writeFileSynced(Stage + "/output.log", OutputLog.data(),
                                OutputLog.size()))
    return Fail(std::move(E));
  if (Error E = publishDirAtomic(Stage, Dir))
    return Fail(std::move(E));
  return Error::success();
}

Expected<PinballMeta> Pinball::loadMeta(const std::string &Dir,
                                        uint32_t *NumThreads) {
  auto Bytes = readFileBytes(Dir + "/meta");
  if (!Bytes)
    return Bytes.takeError();
  BinaryReader R(*Bytes);
  if (Error E = checkHeader(R, KindMeta, "meta"))
    return E;
  PinballMeta Meta;
  Meta.ProgramName = R.readString();
  Meta.RegionStart = R.readU64();
  Meta.RegionLength = R.readU64();
  Meta.WholeImage = R.readU8();
  Meta.PagesEarly = R.readU8();
  Meta.StackBase = R.readU64();
  Meta.StackTop = R.readU64();
  Meta.BrkAtStart = R.readU64();
  Meta.BrkAtEnd = R.readU64();
  uint32_t Threads = R.readU32();
  if (R.hadError())
    return makeCodedError("EFAULT.PINBALL.TRUNCATED", "'meta' is truncated");
  // A pinball names one t<N>.reg file per thread; a count beyond any
  // plausible directory is a corrupt header, not a real checkpoint.
  if (Threads > (1u << 16))
    return makeCodedError("EFAULT.PINBALL.COUNT",
                          "'meta' claims an implausible %u threads", Threads);
  if (NumThreads)
    *NumThreads = Threads;
  return Meta;
}

Expected<Pinball> Pinball::load(const std::string &Dir) {
  Pinball PB;
  auto ReadAll = [&](const std::string &Name)
      -> Expected<std::vector<uint8_t>> {
    return readFileBytes(Dir + "/" + Name);
  };

  // meta (read first: gives the thread count)
  uint32_t NumThreads = 0;
  {
    auto Meta = loadMeta(Dir, &NumThreads);
    if (!Meta)
      return Meta.takeError();
    PB.Meta = Meta.takeValue();
  }

  // The page-bearing files are mmap'd, not slurped: page records borrow
  // their bytes straight out of the mapping (retained in PB.Backing), so
  // loading a fat pinball allocates no per-page copies at all.
  auto MapFile = [&](const std::string &Name)
      -> Expected<std::shared_ptr<const MappedFile>> {
    auto MF = MappedFile::open(Dir + "/" + Name);
    if (!MF)
      return MF.takeError();
    auto File = std::make_shared<const MappedFile>(MF.takeValue());
    PB.Backing.push_back(File);
    return File;
  };
  {
    auto File = MapFile("image.text");
    if (!File)
      return File.takeError();
    BinaryReader R((*File)->data(), (*File)->size());
    if (Error E = checkHeader(R, KindImage, "image.text"))
      return E;
    uint32_t N = R.readU32();
    // 8 addr + 1 perm + 4 blob length is the smallest framing a page
    // record can occupy; anything claiming more records than fit is bogus.
    if (Error E = checkCount(N, 13, R, "image.text", "page"))
      return E;
    PB.Image.reserve(N);
    for (uint32_t I = 0; I < N; ++I) {
      PageRecord P;
      if (Error E = readPage(R, P, "image.text"))
        return E;
      PB.Image.push_back(std::move(P));
    }
    if (Error E = checkEnd(R, "image.text"))
      return E;
  }
  {
    auto File = MapFile("inject.pages");
    if (!File)
      return File.takeError();
    BinaryReader R((*File)->data(), (*File)->size());
    if (Error E = checkHeader(R, KindInject, "inject.pages"))
      return E;
    uint32_t N = R.readU32();
    if (Error E = checkCount(N, 21, R, "inject.pages", "inject"))
      return E;
    PB.Injects.reserve(N);
    for (uint32_t I = 0; I < N; ++I) {
      InjectRecord Rec;
      Rec.FirstUseIcount = R.readU64();
      if (Error E = readPage(R, Rec.Page, "inject.pages"))
        return E;
      PB.Injects.push_back(std::move(Rec));
    }
    if (Error E = checkEnd(R, "inject.pages"))
      return E;
  }
  // Replay maps image and inject pages into one address space, so a page
  // recorded twice would make the checkpoint's content ambiguous.
  {
    std::vector<uint64_t> Addrs;
    for (const PageRecord *P : PB.allPages())
      Addrs.push_back(P->Addr);
    std::sort(Addrs.begin(), Addrs.end());
    auto Dup = std::adjacent_find(Addrs.begin(), Addrs.end());
    if (Dup != Addrs.end())
      return makeCodedError(
          "EFAULT.PINBALL.PAGE",
          "page %#llx has more than one record across 'image.text' and "
          "'inject.pages'",
          static_cast<unsigned long long>(*Dup));
  }
  // Thread register files are named by tid (t<Tid>.reg) and tids need not
  // be dense — e.g. a region captured after some threads already exited.
  // Enumerate the directory instead of guessing names from the count.
  std::vector<uint32_t> Tids;
  {
    auto Entries = listDirectory(Dir);
    if (!Entries)
      return Entries.takeError();
    for (const std::string &Name : *Entries) {
      if (Name.size() < 6 || Name.front() != 't' ||
          Name.compare(Name.size() - 4, 4, ".reg") != 0)
        continue;
      std::string Digits = Name.substr(1, Name.size() - 5);
      if (Digits.empty() ||
          Digits.find_first_not_of("0123456789") != std::string::npos)
        continue;
      Tids.push_back(static_cast<uint32_t>(std::stoul(Digits)));
    }
  }
  std::sort(Tids.begin(), Tids.end());
  if (Tids.size() != NumThreads)
    return makeCodedError("EFAULT.PINBALL.THREADS",
                          "pinball has %zu t*.reg files but 'meta' records "
                          "%u threads",
                          Tids.size(), NumThreads);
  for (uint32_t Tid : Tids) {
    std::string Name = formatString("t%u.reg", Tid);
    auto Bytes = ReadAll(Name);
    if (!Bytes)
      return Bytes.takeError();
    BinaryReader R(*Bytes);
    if (Error E = checkHeader(R, KindRegs, Name))
      return E;
    ThreadRegs T;
    T.Tid = R.readU32();
    for (uint64_t &G : T.GPR)
      G = R.readU64();
    for (double &F : T.FPR)
      F = R.readDouble();
    T.PC = R.readU64();
    T.RegionIcount = R.readU64();
    if (R.hadError())
      return makeCodedError("EFAULT.PINBALL.TRUNCATED", "'%s' is truncated",
                            Name.c_str());
    if (T.Tid != Tid)
      return makeCodedError(
          "EFAULT.PINBALL.TID",
          "'%s' records tid %u, expected %u from its file name",
          Name.c_str(), T.Tid, Tid);
    PB.Threads.push_back(T);
  }
  {
    auto Bytes = ReadAll("sel.log");
    if (!Bytes)
      return Bytes.takeError();
    BinaryReader R(*Bytes);
    if (Error E = checkHeader(R, KindSyscalls, "sel.log"))
      return E;
    uint32_t N = R.readU32();
    // tid(4) + nr(8) + 6 args(48) + result(8) + memwrite count(4).
    if (Error E = checkCount(N, 72, R, "sel.log", "syscall"))
      return E;
    PB.Syscalls.reserve(N);
    for (uint32_t I = 0; I < N; ++I) {
      SyscallRecord S;
      S.Tid = R.readU32();
      S.Nr = R.readU64();
      for (uint64_t &A : S.Args)
        A = R.readU64();
      S.Result = R.readI64();
      uint32_t M = R.readU32();
      if (Error E = checkCount(M, 12, R, "sel.log", "memwrite"))
        return E.withContext(formatString("syscall record %u", I));
      S.MemWrites.reserve(M);
      for (uint32_t J = 0; J < M; ++J) {
        SyscallRecord::MemWrite W;
        W.Addr = R.readU64();
        W.Bytes = R.readBlob();
        S.MemWrites.push_back(std::move(W));
      }
      if (R.hadError())
        return makeCodedError("EFAULT.PINBALL.TRUNCATED",
                              "'sel.log' is truncated inside record %u", I);
      PB.Syscalls.push_back(std::move(S));
    }
  }
  {
    auto Bytes = ReadAll("race.log");
    if (!Bytes)
      return Bytes.takeError();
    BinaryReader R(*Bytes);
    if (Error E = checkHeader(R, KindSchedule, "race.log"))
      return E;
    uint32_t N = R.readU32();
    // tid(4) + inst count(8): reject huge N before the loop allocates.
    if (Error E = checkCount(N, 12, R, "race.log", "schedule"))
      return E;
    PB.Schedule.reserve(N);
    for (uint32_t I = 0; I < N; ++I) {
      ScheduleSlice S;
      S.Tid = R.readU32();
      S.NumInsts = R.readU64();
      PB.Schedule.push_back(S);
    }
    if (R.hadError())
      return makeCodedError("EFAULT.PINBALL.TRUNCATED",
                            "'race.log' is truncated");
  }
  if (auto Text = readFileText(Dir + "/output.log"))
    PB.OutputLog = Text.takeValue();
  return PB;
}
