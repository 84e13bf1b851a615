//===- store/ChunkStore.cpp -----------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Pool mechanics. The load-bearing decisions:
//
//  * Chunk publication rides writeFileAtomic (pid-suffixed temp + fsync +
//    rename + parent-dir fsync). Two processes putting the same digest
//    write byte-identical temps and race on rename; whoever loses renames
//    over an identical file. No lock needed.
//
//  * GC is journaled mark-and-sweep with a trash/ staging directory:
//
//      gc-begin            (fsync'd)  -- opens the sweep epoch
//      gc-trash <digest>   (fsync'd)  -- then rename chunk -> trash/
//      ... one per dead chunk ...
//      gc-end              (fsync'd)  -- seals the epoch
//      unlink trash files, compact journal
//
//    SIGKILL anywhere leaves one of three states, all recoverable at the
//    next open(): (a) epoch sealed, trash possibly non-empty -> trash is
//    dead by definition, delete it; (b) epoch open (gc-begin without
//    gc-end) -> re-mark against the *current* manifests and pins, restore
//    live trash entries, delete dead ones, seal; (c) no epoch -> nothing
//    to do. A live chunk is never lost because the rename into trash/ is
//    the only way a chunk leaves chunks/, and recovery restores every
//    trash entry that is live. A dead chunk never survives indefinitely
//    because both recovery paths delete dead trash.
//
//  * Pins are journal records, replayed on demand, compacted at gc-end.
//    An ingestion pins all its digests in one append, before its first
//    chunk write. An ingestion killed between pin and manifest publication
//    leaves its pins active -- chunks are kept (safe) until the owner is
//    sealed or re-run.
//
//===----------------------------------------------------------------------===//

#include "store/ChunkStore.h"

#include "support/FileIO.h"
#include "support/Format.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace elfie;
using namespace elfie::store;

static const char MetaMarker[] = "estore 1\n";

static bool isHexDigestName(const std::string &Name) {
  if (Name.size() != 64)
    return false;
  for (char C : Name)
    if (!((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')))
      return false;
  return true;
}

static uint64_t fileSizeOf(const std::string &Path) {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0)
    return 0;
  return static_cast<uint64_t>(St.st_size);
}

bool elfie::store::isStoreRoot(const std::string &Dir) {
  return fileExists(Dir + "/estore.meta");
}

Expected<ChunkStore> ChunkStore::open(const std::string &Root, bool Create) {
  ChunkStore S(Root);
  std::string Meta = Root + "/estore.meta";
  if (!fileExists(Meta)) {
    if (!Create)
      return makeCodedError("EFAULT.STORE.MISSING",
                            "'%s' is not an estore root (no estore.meta)",
                            Root.c_str());
    if (Error E = createDirectories(Root + "/chunks"))
      return E;
    if (Error E = createDirectories(Root + "/manifests"))
      return E;
    if (Error E = createDirectories(Root + "/quarantine"))
      return E;
    if (Error E = createDirectories(Root + "/trash"))
      return E;
    if (Error E = writeFileAtomic(Meta, MetaMarker, sizeof(MetaMarker) - 1))
      return E;
  } else {
    auto Text = readFileText(Meta);
    if (!Text)
      return Text.takeError();
    if (*Text != MetaMarker)
      return makeCodedError("EFAULT.STORE.MANIFEST",
                            "'%s' has an unrecognized estore.meta (got %zu "
                            "bytes, want \"estore 1\")",
                            Root.c_str(), Text->size());
  }
  // Finish any GC a crash interrupted before handing the pool out.
  if (Error E = S.recoverTornGc(nullptr))
    return E;
  return S;
}

std::string ChunkStore::chunkPath(const Sha256Digest &D) const {
  std::string Hex = D.hex();
  return Root + "/chunks/" + Hex.substr(0, 2) + "/" + Hex;
}

std::string ChunkStore::quarantinePath(const Sha256Digest &D) const {
  return Root + "/quarantine/" + D.hex();
}

std::string ChunkStore::manifestPath(const std::string &Name) const {
  return Root + "/manifests/" + Name;
}

bool ChunkStore::hasChunk(const Sha256Digest &D) const {
  return fileExists(chunkPath(D));
}

Expected<Sha256Digest> ChunkStore::put(std::span<const uint8_t> Bytes,
                                       bool *WasNew) {
  Sha256Digest D = Sha256::digest(Bytes);
  if (Error E = put(D, Bytes, WasNew))
    return E;
  return D;
}

Error ChunkStore::put(const Sha256Digest &D, std::span<const uint8_t> Bytes,
                      bool *WasNew) {
  std::string Path = chunkPath(D);
  bool New = !fileExists(Path);
  if (WasNew)
    *WasNew = New;
  if (!New)
    return Error::success();
  std::string Hex = D.hex();
  if (Error E = createDirectories(Root + "/chunks/" + Hex.substr(0, 2)))
    return E;
  return writeFileAtomic(Path, Bytes.data(), Bytes.size());
}

/// Reads the whole regular file open on \p Fd into \p Dst when it is
/// exactly Dst.size() bytes long, else into \p Spill; returns the bytes.
static Expected<std::span<uint8_t>> preadWhole(int Fd, const std::string &Path,
                                               std::span<uint8_t> Dst,
                                               std::vector<uint8_t> &Spill) {
  struct stat St;
  if (::fstat(Fd, &St) != 0)
    return makeCodedError("EFAULT.IO.READ", "cannot stat '%s': %s",
                          Path.c_str(), std::strerror(errno));
  if (!S_ISREG(St.st_mode))
    return makeCodedError("EFAULT.IO.READ", "'%s' is not a regular file",
                          Path.c_str());
  size_t Size = static_cast<size_t>(St.st_size);
  if (Size != Dst.size()) {
    Spill.resize(Size);
    Dst = Spill;
  }
  size_t Done = 0;
  while (Done < Size) {
    ssize_t N = ::pread(Fd, Dst.data() + Done, Size - Done, Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0)
      return makeCodedError("EFAULT.IO.READ", "read error on '%s': %s",
                            Path.c_str(), std::strerror(errno));
    if (N == 0)
      break; // shrank under us: hash what is there, the digest decides
    Done += static_cast<size_t>(N);
  }
  return Dst.first(Done);
}

Error ChunkStore::missingChunk(const Sha256Digest &D) const {
  std::string Q = quarantinePath(D);
  if (fileExists(Q))
    return makeCodedError("EFAULT.STORE.MISSING",
                          "chunk %s is quarantined (corrupt; see "
                          "%s.evidence.txt); run `estore repair`",
                          D.hex().c_str(), Q.c_str());
  return makeCodedError("EFAULT.STORE.MISSING",
                        "chunk %s is not in the pool at '%s'",
                        D.hex().c_str(), Root.c_str());
}

Expected<uint64_t> ChunkStore::readChunk(const Sha256Digest &D,
                                         std::span<uint8_t> Dst,
                                         std::vector<uint8_t> &Spill) const {
  // A failed open is the "is it missing?" test; only then ask about
  // quarantine. Bytes of the wrong size go to Spill and are still hashed,
  // so the caller can tell a corrupt chunk from a manifest that records
  // the wrong size.
  std::string Path = chunkPath(D);
  std::span<uint8_t> Got;
  if (ioFaultHook()) {
    // Fault seam: the installed hook must see (and may corrupt or fail)
    // every chunk read, so go through the hooked reader.
    auto Bytes = readFileBytes(Path);
    if (!Bytes)
      return fileExists(Path) ? Bytes.takeError() : missingChunk(D);
    Spill = Bytes.takeValue();
    Got = Spill;
    if (Spill.size() == Dst.size()) {
      std::copy(Spill.begin(), Spill.end(), Dst.begin());
      Got = Dst;
    }
  } else {
    int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
    if (Fd < 0) {
      if (errno == ENOENT)
        return missingChunk(D);
      return makeCodedError("EFAULT.IO.OPEN", "cannot open '%s': %s",
                            Path.c_str(), std::strerror(errno));
    }
    auto Read = preadWhole(Fd, Path, Dst, Spill);
    ::close(Fd);
    if (!Read)
      return Read.takeError();
    Got = *Read;
  }
  Sha256Digest Actual = Sha256::digest(Got);
  if (Actual != D)
    return makeCodedError("EFAULT.STORE.DIGEST",
                          "chunk %s fails verification: %zu bytes hash to "
                          "%s (pool corruption; run `estore scrub`)",
                          D.hex().c_str(), Got.size(), Actual.hex().c_str());
  return static_cast<uint64_t>(Got.size());
}

Expected<std::vector<uint8_t>>
ChunkStore::openChunk(const Sha256Digest &D) const {
  std::vector<uint8_t> Bytes;
  auto Size = readChunk(D, {}, Bytes);
  if (!Size)
    return Size.takeError();
  return Bytes;
}

Error ChunkStore::quarantineChunk(const Sha256Digest &D,
                                  const std::string &Evidence) {
  std::string From = chunkPath(D);
  std::string To = quarantinePath(D);
  if (Error E = createDirectories(Root + "/quarantine"))
    return E;
  if (Error E = renamePath(From, To))
    return E;
  return writeFileAtomic(To + ".evidence.txt", Evidence.data(),
                         Evidence.size());
}

Expected<std::vector<Sha256Digest>> ChunkStore::listChunks() const {
  std::vector<Sha256Digest> Out;
  auto Fans = listDirectory(Root + "/chunks");
  if (!Fans)
    return Fans.takeError();
  for (const std::string &Fan : *Fans) {
    if (Fan.size() != 2)
      continue;
    auto Names = listDirectory(Root + "/chunks/" + Fan);
    if (!Names)
      return Names.takeError();
    for (const std::string &Name : *Names) {
      if (!isHexDigestName(Name))
        continue; // pid-suffixed temp litter from a crashed put
      auto D = Sha256Digest::fromHex(Name);
      if (D)
        Out.push_back(*D);
    }
  }
  return Out; // sorted: fanout dirs and entries both come back sorted
}

//===----------------------------------------------------------------------===//
// Manifests
//===----------------------------------------------------------------------===//

Error ChunkStore::putManifest(const Manifest &M) {
  if (!Manifest::validName(M.Name))
    return makeCodedError("EFAULT.STORE.MANIFEST",
                          "invalid manifest name '%s'", M.Name.c_str());
  // Refuse to publish a root that dangles: every referenced chunk must
  // already be in the pool, or GC/open would see a reachable-but-absent
  // digest.
  std::set<Sha256Digest> Checked;
  for (const ChunkRef &C : M.Chunks)
    if (Checked.insert(C.Digest).second && !hasChunk(C.Digest))
      return makeCodedError("EFAULT.STORE.MISSING",
                            "manifest '%s' references chunk %s which is not "
                            "in the pool (put chunks before the manifest)",
                            M.Name.c_str(), C.Digest.hex().c_str());
  std::string Text = M.render();
  return writeFileAtomic(manifestPath(M.Name), Text.data(), Text.size());
}

Expected<Manifest> ChunkStore::getManifest(const std::string &Name) const {
  if (!Manifest::validName(Name))
    return makeCodedError("EFAULT.STORE.MANIFEST",
                          "invalid manifest name '%s'", Name.c_str());
  std::string Path = manifestPath(Name);
  if (!fileExists(Path))
    return makeCodedError("EFAULT.STORE.MISSING",
                          "no manifest '%s' in the pool at '%s'",
                          Name.c_str(), Root.c_str());
  auto Text = readFileText(Path);
  if (!Text)
    return Text.takeError();
  auto M = Manifest::parse(*Text);
  if (!M)
    return M.takeError();
  if (M->Name != Name)
    return makeCodedError("EFAULT.STORE.MANIFEST",
                          "manifest file '%s' records name '%s' (renamed "
                          "or cross-wired manifest)",
                          Name.c_str(), M->Name.c_str());
  return M;
}

Expected<std::vector<std::string>> ChunkStore::listManifests() const {
  auto Names = listDirectory(Root + "/manifests");
  if (!Names)
    return Names.takeError();
  std::vector<std::string> Out;
  for (const std::string &N : *Names)
    if (Manifest::validName(N)) // skips temp litter
      Out.push_back(N);
  return Out;
}

Error ChunkStore::removeManifest(const std::string &Name) {
  if (!Manifest::validName(Name))
    return makeCodedError("EFAULT.STORE.MANIFEST",
                          "invalid manifest name '%s'", Name.c_str());
  removeFile(manifestPath(Name));
  return Error::success();
}

//===----------------------------------------------------------------------===//
// Pin journal
//===----------------------------------------------------------------------===//

Error ChunkStore::journalAppend(const std::string &Line) {
  AppendLog Log;
  if (Error E = Log.open(Root + "/gc.journal"))
    return E;
  return Log.append(Line);
}

Error ChunkStore::pin(const std::string &Owner,
                      std::span<const Sha256Digest> Digests) {
  if (!Manifest::validName(Owner))
    return makeCodedError("EFAULT.STORE.MANIFEST",
                          "invalid pin owner '%s'", Owner.c_str());
  if (Digests.empty())
    return Error::success();
  std::string Lines;
  for (const Sha256Digest &D : Digests)
    Lines += "pin " + Owner + " " + D.hex() + "\n";
  return journalAppend(Lines);
}

Error ChunkStore::sealPins(const std::string &Owner) {
  if (!Manifest::validName(Owner))
    return makeCodedError("EFAULT.STORE.MANIFEST",
                          "invalid pin owner '%s'", Owner.c_str());
  return journalAppend("seal " + Owner);
}

namespace {

/// Replayed journal state: active pins plus whether the last GC epoch was
/// sealed.
struct JournalState {
  std::map<std::string, std::set<std::string>> Pins;
  bool InGc = false; ///< gc-begin seen with no following gc-end
};

JournalState replayJournal(const std::string &Path) {
  JournalState St;
  if (!fileExists(Path))
    return St;
  auto Text = readFileText(Path);
  if (!Text)
    return St; // unreadable journal: treat as empty (pins are advisory keeps)
  for (const std::string &RawLine : splitString(*Text, '\n')) {
    std::string Line = trimString(RawLine);
    if (Line.empty())
      continue;
    auto F = splitString(Line, ' ');
    if (F[0] == "pin" && F.size() == 3)
      St.Pins[F[1]].insert(F[2]);
    else if (F[0] == "seal" && F.size() == 2)
      St.Pins.erase(F[1]);
    else if (F[0] == "gc-begin")
      St.InGc = true;
    else if (F[0] == "gc-end")
      St.InGc = false;
    // gc-trash and unknown records: informational only
  }
  return St;
}

std::string renderPins(
    const std::map<std::string, std::set<std::string>> &Pins) {
  std::string Out;
  for (const auto &[Owner, Digests] : Pins)
    for (const std::string &Hex : Digests)
      Out += "pin " + Owner + " " + Hex + "\n";
  return Out;
}

} // namespace

Expected<std::map<std::string, std::set<std::string>>>
ChunkStore::activePins() const {
  return replayJournal(Root + "/gc.journal").Pins;
}

//===----------------------------------------------------------------------===//
// GC
//===----------------------------------------------------------------------===//

Expected<std::set<std::string>> ChunkStore::liveDigests() const {
  std::set<std::string> Live;
  auto Names = listManifests();
  if (!Names)
    return Names.takeError();
  for (const std::string &Name : *Names) {
    auto M = getManifest(Name);
    if (!M) {
      // A manifest we cannot parse still protects its chunks: never sweep
      // based on a root we failed to read. Surface the error instead.
      return M.takeError();
    }
    for (const ChunkRef &C : M->Chunks)
      Live.insert(C.Digest.hex());
  }
  for (const auto &[Owner, Digests] : replayJournal(Root + "/gc.journal").Pins)
    for (const std::string &Hex : Digests)
      Live.insert(Hex);
  return Live;
}

Error ChunkStore::recoverTornGc(GcResult *Out) {
  std::string JournalPath = Root + "/gc.journal";
  JournalState St = replayJournal(JournalPath);
  if (Error E = createDirectories(Root + "/trash"))
    return E;
  auto Trash = listDirectory(Root + "/trash");
  if (!Trash)
    return Trash.takeError();
  if (!St.InGc && Trash->empty())
    return Error::success(); // nothing interrupted

  if (!St.InGc) {
    // Epoch sealed but trash not yet emptied: everything here is dead.
    for (const std::string &Name : *Trash)
      removeFile(Root + "/trash/" + Name);
    return Error::success();
  }

  // Torn epoch: re-mark against the current manifests and pins, restore
  // live trash entries, delete the dead, then seal.
  auto Live = liveDigests();
  if (!Live)
    return Live.takeError();
  uint64_t Restored = 0;
  for (const std::string &Name : *Trash) {
    std::string From = Root + "/trash/" + Name;
    if (isHexDigestName(Name) && Live->count(Name)) {
      if (Error E = createDirectories(Root + "/chunks/" + Name.substr(0, 2)))
        return E;
      if (Error E = renamePath(From, Root + "/chunks/" + Name.substr(0, 2) +
                                         "/" + Name))
        return E;
      ++Restored;
    } else {
      removeFile(From);
    }
  }
  if (Error E = journalAppend("gc-end"))
    return E;
  std::string Compact = renderPins(St.Pins);
  if (Error E = writeFileAtomic(JournalPath, Compact.data(), Compact.size()))
    return E;
  if (Out) {
    Out->Restored = Restored;
    Out->RecoveredTornGc = true;
  }
  return Error::success();
}

Expected<GcResult> ChunkStore::gc() {
  GcResult R;
  if (Error E = recoverTornGc(&R))
    return E;

  auto Live = liveDigests();
  if (!Live)
    return Live.takeError();
  auto Chunks = listChunks();
  if (!Chunks)
    return Chunks.takeError();
  if (Error E = createDirectories(Root + "/trash"))
    return E;

  // Mark done; open the sweep epoch. Every rename into trash/ is preceded
  // by its fsync'd gc-trash record, so a kill between record and rename
  // (or mid-rename) is recovered by the torn-epoch path above.
  if (Error E = journalAppend("gc-begin"))
    return E;
  for (const Sha256Digest &D : *Chunks) {
    std::string Hex = D.hex();
    if (Live->count(Hex)) {
      ++R.Live;
      continue;
    }
    uint64_t Size = fileSizeOf(chunkPath(D));
    if (Error E = journalAppend("gc-trash " + Hex))
      return E;
    if (Error E = renamePath(chunkPath(D), Root + "/trash/" + Hex))
      return E;
    ++R.Swept;
    R.SweptBytes += Size;
  }
  if (Error E = journalAppend("gc-end"))
    return E;

  // Epoch sealed: the trash is dead no matter what happens now. Empty it
  // and compact the journal down to the surviving pins.
  auto Trash = listDirectory(Root + "/trash");
  if (Trash)
    for (const std::string &Name : *Trash)
      removeFile(Root + "/trash/" + Name);
  JournalState St = replayJournal(Root + "/gc.journal");
  std::string Compact = renderPins(St.Pins);
  if (Error E = writeFileAtomic(Root + "/gc.journal", Compact.data(),
                                Compact.size()))
    return E;
  return R;
}

//===----------------------------------------------------------------------===//
// Scrub / repair / stats
//===----------------------------------------------------------------------===//

Expected<ScrubResult> ChunkStore::scrub(bool Quarantine) {
  ScrubResult R;

  // Reverse map digest -> referencing manifests, for blast-radius evidence.
  std::map<std::string, std::vector<std::string>> RefdBy;
  auto Names = listManifests();
  if (!Names)
    return Names.takeError();
  for (const std::string &Name : *Names) {
    auto M = getManifest(Name);
    if (!M)
      continue; // manifest corruption is everify/getManifest's report
    for (const ChunkRef &C : M->Chunks)
      RefdBy[C.Digest.hex()].push_back(Name);
  }

  auto Chunks = listChunks();
  if (!Chunks)
    return Chunks.takeError();
  for (const Sha256Digest &D : *Chunks) {
    auto Bytes = readFileBytes(chunkPath(D));
    if (!Bytes) {
      ScrubFinding F;
      F.Expected = D;
      F.Detail = "unreadable: " + Bytes.takeError().message();
      F.ReferencingManifests = RefdBy[D.hex()];
      R.Corrupt.push_back(std::move(F));
      continue;
    }
    ++R.ChunksScanned;
    R.BytesScanned += Bytes->size();
    Sha256Digest Actual = Sha256::digest(*Bytes);
    if (Actual == D)
      continue;
    ScrubFinding F;
    F.Expected = D;
    F.Actual = Actual.hex();
    F.Detail = formatString("%zu bytes hash to %s, file name claims %s",
                            Bytes->size(), Actual.hex().c_str(),
                            D.hex().c_str());
    F.ReferencingManifests = RefdBy[D.hex()];
    if (Quarantine) {
      std::string Evidence = "estore scrub verdict\n";
      Evidence += "expected " + D.hex() + "\n";
      Evidence += "actual   " + Actual.hex() + "\n";
      Evidence += formatString("size     %zu\n", Bytes->size());
      Evidence += "referenced-by";
      if (F.ReferencingManifests.empty())
        Evidence += " (no manifest)";
      for (const std::string &Name : F.ReferencingManifests)
        Evidence += " " + Name;
      Evidence += "\nremedy   estore repair -from <replica-root>\n";
      if (Error E = quarantineChunk(D, Evidence))
        return E;
      F.Quarantined = true;
    }
    R.Corrupt.push_back(std::move(F));
  }

  // Referenced-but-absent digests (including ones scrub just quarantined).
  for (const auto &[Hex, Manifests] : RefdBy) {
    auto D = Sha256Digest::fromHex(Hex);
    if (D && !hasChunk(*D))
      R.MissingRefs.push_back(Hex);
  }
  return R;
}

Expected<RepairResult>
ChunkStore::repair(const std::vector<std::string> &ReplicaRoots) {
  RepairResult R;

  // What needs repair: every manifest-referenced digest that is missing,
  // quarantined, or present-but-corrupt.
  std::set<std::string> Needed;
  auto Names = listManifests();
  if (!Names)
    return Names.takeError();
  for (const std::string &Name : *Names) {
    auto M = getManifest(Name);
    if (!M)
      continue;
    for (const ChunkRef &C : M->Chunks) {
      std::string Hex = C.Digest.hex();
      if (Needed.count(Hex))
        continue;
      if (!hasChunk(C.Digest)) {
        Needed.insert(Hex);
        continue;
      }
      auto Bytes = readFileBytes(chunkPath(C.Digest));
      if (!Bytes || Sha256::digest(*Bytes) != C.Digest)
        Needed.insert(Hex);
    }
  }

  for (const std::string &Hex : Needed) {
    auto D = Sha256Digest::fromHex(Hex);
    if (!D)
      continue;
    bool Fixed = false;
    for (const std::string &Replica : ReplicaRoots) {
      auto RS = ChunkStore::open(Replica, /*Create=*/false);
      if (!RS) {
        RS.takeError(); // not a store (or unreadable); try the next replica
        continue;
      }
      auto Good = RS->openChunk(*D); // digest-verified: corruption cannot
      if (!Good) {                   // propagate from a bad replica
        Good.takeError();
        continue;
      }
      // A corrupt in-place copy must move aside first so the verified
      // replacement publishes cleanly (and the bad bytes stay debuggable).
      if (hasChunk(*D) && !fileExists(quarantinePath(*D))) {
        std::string Evidence = "estore repair verdict\n";
        Evidence += "expected " + Hex + "\n";
        Evidence += "replaced from replica " + Replica + "\n";
        if (Error E = quarantineChunk(*D, Evidence))
          return E;
      }
      auto Put = put(*Good);
      if (!Put)
        return Put.takeError();
      if (*Put != *D) // cannot happen (put hashes the verified bytes)
        return makeCodedError("EFAULT.STORE.DIGEST",
                              "repair round-trip digest mismatch for %s",
                              Hex.c_str());
      // The pool copy is verified good again; retire the quarantined copy
      // and its evidence so stats and scrub reflect a healthy pool.
      removeFile(quarantinePath(*D));
      removeFile(quarantinePath(*D) + ".evidence.txt");
      ++R.Restored;
      R.RestoredDigests.push_back(Hex);
      Fixed = true;
      break;
    }
    if (!Fixed) {
      ++R.Unrepairable;
      R.UnrepairableDigests.push_back(Hex);
    }
  }
  return R;
}

Expected<StoreStats> ChunkStore::stats() const {
  StoreStats S;
  auto Chunks = listChunks();
  if (!Chunks)
    return Chunks.takeError();
  S.Chunks = Chunks->size();
  for (const Sha256Digest &D : *Chunks)
    S.ChunkBytes += fileSizeOf(chunkPath(D));

  auto Names = listManifests();
  if (!Names)
    return Names.takeError();
  S.Manifests = Names->size();
  for (const std::string &Name : *Names) {
    auto M = getManifest(Name);
    if (M)
      S.ArtifactBytes += M->Size;
  }

  auto Quarantined = listDirectory(Root + "/quarantine");
  if (Quarantined)
    for (const std::string &Name : *Quarantined)
      if (isHexDigestName(Name))
        ++S.Quarantined;

  for (const auto &[Owner, Digests] : replayJournal(Root + "/gc.journal").Pins)
    S.ActivePins += Digests.size();
  return S;
}
