//===- store/Artifact.cpp -------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "store/Artifact.h"

#include "elf/ELFReader.h"
#include "support/FileIO.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <map>
#include <set>
#include <system_error>
#include <thread>

using namespace elfie;
using namespace elfie::elf;
using namespace elfie::store;

std::string elfie::store::classifyArtifact(std::span<const uint8_t> Bytes) {
  if (Bytes.size() < 4 || Bytes[0] != 0x7f || Bytes[1] != 'E' ||
      Bytes[2] != 'L' || Bytes[3] != 'F')
    return "raw";
  auto R = ELFReader::parseView(Bytes);
  if (!R) {
    R.takeError();
    return "raw"; // malformed ELF: chunk it like any other byte string
  }
  return "elf";
}

namespace {

/// Appends fixed-granule chunks covering [Begin, End).
void tileFixed(uint64_t Begin, uint64_t End,
               std::vector<std::pair<uint64_t, uint64_t>> &Out) {
  for (uint64_t Off = Begin; Off < End; Off += ChunkGranule)
    Out.emplace_back(Off, std::min(ChunkGranule, End - Off));
}

} // namespace

std::vector<std::pair<uint64_t, uint64_t>>
elfie::store::chunkBoundaries(std::span<const uint8_t> Bytes,
                              const std::string &Kind) {
  std::vector<std::pair<uint64_t, uint64_t>> Out;
  uint64_t Size = Bytes.size();
  if (Size == 0)
    return Out;

  if (Kind == "elf") {
    auto R = ELFReader::parseView(Bytes);
    if (R) {
      // Section content ranges, clipped to the file and de-overlapped.
      std::vector<std::pair<uint64_t, uint64_t>> Ranges; // (begin, end)
      for (const auto &Sec : R->sections()) {
        if (Sec.Type != SHT_PROGBITS || Sec.Size == 0)
          continue;
        if (Sec.Offset >= Size)
          continue;
        Ranges.emplace_back(Sec.Offset,
                            std::min(Size, Sec.Offset + Sec.Size));
      }
      std::sort(Ranges.begin(), Ranges.end());
      uint64_t Cursor = 0;
      for (auto [Begin, End] : Ranges) {
        Begin = std::max(Begin, Cursor); // drop any overlap with the prior
        if (Begin >= End)
          continue;
        tileFixed(Cursor, Begin, Out); // residue: headers, gaps, tables
        // Section payload split relative to the *section* start, so the
        // same page payload chunks identically across differently-laid-out
        // files.
        tileFixed(Begin, End, Out);
        Cursor = End;
      }
      tileFixed(Cursor, Size, Out); // tail: section headers etc.
      return Out;
    }
    R.takeError();
  }

  tileFixed(0, Size, Out);
  return Out;
}

const Sha256Digest elfie::store::ZeroChunkDigest = {
    {0xad, 0x7f, 0xac, 0xb2, 0x58, 0x6f, 0xc6, 0xe9, 0x66, 0xc0, 0x04,
     0xd7, 0xd1, 0xd1, 0x6b, 0x02, 0x4f, 0x58, 0x05, 0xff, 0x7c, 0xb4,
     0x7c, 0x7a, 0x85, 0xda, 0xbd, 0x8b, 0x48, 0x89, 0x2c, 0xa7}};

namespace {

/// True when \p Piece is a full all-zero chunk: its first byte is zero and
/// every byte equals the next (the chunk compared with itself one byte
/// on), which is several times faster than hashing it.
bool isZeroChunk(const uint8_t *Piece, uint64_t Size) {
  return Size == ChunkGranule && Piece[0] == 0 &&
         std::memcmp(Piece, Piece + 1, ChunkGranule - 1) == 0;
}

} // namespace

ArtifactRootJob::ArtifactRootJob(std::span<const uint8_t> Bytes,
                                 const std::string &Kind)
    : Bytes(Bytes), Bounds(chunkBoundaries(Bytes, Kind)),
      Digests(Bounds.size()) {}

void ArtifactRootJob::help() {
  for (size_t I; (I = Next.fetch_add(1, std::memory_order_relaxed)) <
                 Bounds.size();) {
    auto [Off, Len] = Bounds[I];
    Digests[I] = isZeroChunk(&Bytes[Off], Len)
                     ? ZeroChunkDigest
                     : Sha256::digest(&Bytes[Off], Len);
    if (Done.fetch_add(1, std::memory_order_acq_rel) + 1 == Bounds.size())
      Done.notify_all();
  }
}

Sha256Digest ArtifactRootJob::root() {
  help();
  for (size_t D;
       (D = Done.load(std::memory_order_acquire)) != Bounds.size();)
    Done.wait(D, std::memory_order_acquire);
  // No allocation here: esim calls root() on its digest thread, where one
  // would grow that thread's malloc arena.
  Sha256 Root;
  for (size_t I = 0; I < Bounds.size(); ++I)
    addRootRecord(Root, {Bounds[I].first, Bounds[I].second, Digests[I]});
  return Root.final();
}

std::vector<ChunkRef> ArtifactRootJob::chunks() const {
  std::vector<ChunkRef> Out;
  Out.reserve(Bounds.size());
  for (size_t I = 0; I < Bounds.size(); ++I)
    Out.push_back({Bounds[I].first, Bounds[I].second, Digests[I]});
  return Out;
}

Sha256Digest elfie::store::artifactRoot(std::span<const uint8_t> Bytes) {
  return ArtifactRootJob(Bytes).root();
}

Expected<Manifest> elfie::store::putArtifact(ChunkStore &S,
                                             const std::string &Name,
                                             std::span<const uint8_t> Bytes,
                                             const std::string &Source,
                                             uint64_t *NewBytes) {
  if (!Manifest::validName(Name))
    return makeCodedError("EFAULT.STORE.MANIFEST",
                          "invalid artifact name '%s'", Name.c_str());
  Manifest M;
  M.Name = Name;
  M.Kind = classifyArtifact(Bytes);
  M.Source = Source;
  M.Size = Bytes.size();
  ArtifactRootJob Job(Bytes, M.Kind);
  M.Root = Job.root();
  M.Chunks = Job.chunks();

  // The first reference to each digest.
  std::set<Sha256Digest> Seen;
  std::vector<Sha256Digest> Distinct;
  std::vector<std::span<const uint8_t>> Pieces;
  for (const ChunkRef &C : M.Chunks)
    if (Seen.insert(C.Digest).second) {
      Distinct.push_back(C.Digest);
      Pieces.push_back(Bytes.subspan(C.Offset, C.Size));
    }

  // Pin before put: every pin is durable before the first chunk byte
  // lands, so each chunk has a GC root from the instant it exists, even if
  // we die before the manifest publishes.
  if (Error E = S.pin(Name, Distinct))
    return E;
  uint64_t Added = 0;
  for (size_t I = 0; I < Distinct.size(); ++I) {
    bool WasNew = false;
    if (Error E = S.put(Distinct[I], Pieces[I], &WasNew))
      return E;
    Added += WasNew ? Pieces[I].size() : 0;
  }
  if (NewBytes)
    *NewBytes = Added;

  if (Error E = S.putManifest(M))
    return E;
  // Manifest is the durable root now; retire the ingestion pins.
  if (Error E = S.sealPins(Name))
    return E;
  return M;
}

namespace {

/// The distinct-chunk reads of one load, in first-reference order. The
/// calling thread and up to LoadHelperThreads helpers claim them from one
/// atomic cursor; each is ChunkStore::readChunk straight into the output
/// at the chunk's offset, and its claimant publishes the result by setting
/// Done. Reads write disjoint spans of the output, so the caller may copy
/// and hash a span as soon as it sees that span's read done.
class ChunkReads {
public:
  ChunkReads(const ChunkStore &S, std::vector<uint8_t> &Out,
             const std::vector<const ChunkRef *> &Firsts)
      : S(S), Out(Out), Reads(Firsts.size()) {
    for (size_t K = 0; K < Firsts.size(); ++K)
      Reads[K].Ref = Firsts[K];
  }
  ~ChunkReads() { stop(); }
  ChunkReads(const ChunkReads &) = delete;
  ChunkReads &operator=(const ChunkReads &) = delete;

  /// Starts up to \p N helpers; a helper that cannot start leaves its
  /// share to the caller.
  void startHelpers(unsigned N) {
    for (unsigned I = 0; I < N; ++I) {
      try {
        Helpers.emplace_back([this] {
          std::vector<uint8_t> Spill;
          while (runNext(Spill)) {
          }
        });
      } catch (const std::system_error &) {
        break;
      }
    }
  }

  /// The result of read \p K (called once per read), doing pending reads
  /// while a helper finishes it. An exception the read threw (bad_alloc)
  /// is rethrown here, on the calling thread, as a one-thread load would.
  Expected<uint64_t> wait(size_t K) {
    Read &R = Reads[K];
    while (!R.Done.load(std::memory_order_acquire))
      if (!runNext(Spill))
        R.Done.wait(false, std::memory_order_acquire);
    if (R.Thrown)
      std::rethrow_exception(R.Thrown);
    if (R.Err.isError())
      return std::move(R.Err);
    return R.Size;
  }

  /// Ends claiming and joins the helpers; reads in flight finish first.
  void stop() {
    Next.store(Reads.size());
    for (std::thread &T : Helpers)
      T.join();
    Helpers.clear();
  }

private:
  struct Read {
    const ChunkRef *Ref = nullptr;
    uint64_t Size = 0;
    Error Err;
    std::exception_ptr Thrown;
    std::atomic<bool> Done{false};
  };

  /// Claims and runs the next pending read; false when none is left.
  bool runNext(std::vector<uint8_t> &ReadSpill) {
    size_t K = Next.fetch_add(1, std::memory_order_relaxed);
    if (K >= Reads.size())
      return false;
    Read &R = Reads[K];
    const ChunkRef &C = *R.Ref;
    try {
      auto Size = S.readChunk(C.Digest, {Out.data() + C.Offset, C.Size},
                              ReadSpill);
      if (Size)
        R.Size = *Size;
      else
        R.Err = Size.takeError();
    } catch (...) {
      R.Thrown = std::current_exception();
    }
    R.Done.store(true, std::memory_order_release);
    R.Done.notify_one();
    return true;
  }

  const ChunkStore &S;
  std::vector<uint8_t> &Out;
  std::vector<Read> Reads;
  std::atomic<size_t> Next{0};
  std::vector<uint8_t> Spill; // the caller's
  std::vector<std::thread> Helpers;
};

} // namespace

Expected<std::vector<uint8_t>>
elfie::store::loadArtifact(const ChunkStore &S, const Manifest &M) {
  // Helpers need disjoint first-reference spans.
  if (Error E = M.checkTiling())
    return E;
  std::vector<uint8_t> Out(M.Size);
  // The first reference to each digest, and for each reference the index
  // of its digest's read.
  std::map<Sha256Digest, size_t> ReadOf;
  std::vector<const ChunkRef *> Firsts;
  std::vector<size_t> RefRead;
  for (const ChunkRef &C : M.Chunks) {
    auto [It, First] = ReadOf.try_emplace(C.Digest, Firsts.size());
    if (First)
      Firsts.push_back(&C);
    RefRead.push_back(It->second);
  }

  // An installed fault hook must see the reads in order from one thread.
  ChunkReads Reads(S, Out, Firsts);
  unsigned Cores = std::thread::hardware_concurrency();
  if (!ioFaultHook() && Firsts.size() >= ParallelLoadMinChunks && Cores > 1)
    Reads.startHelpers(std::min(LoadHelperThreads, Cores - 1));

  // Walk the references in order, so the error returned is the first
  // failing reference's.
  for (size_t I = 0; I < M.Chunks.size(); ++I) {
    const ChunkRef &C = M.Chunks[I];
    const ChunkRef &First = *Firsts[RefRead[I]];
    uint64_t ChunkSize = First.Size;
    if (&First == &C) {
      auto Read = Reads.wait(RefRead[I]);
      if (!Read)
        return Read.takeError();
      ChunkSize = *Read;
    }
    if (ChunkSize != C.Size)
      return makeCodedError("EFAULT.STORE.MANIFEST",
                            "chunk %s is %llu bytes but manifest '%s' "
                            "records %llu",
                            C.Digest.hex().c_str(),
                            static_cast<unsigned long long>(ChunkSize),
                            M.Name.c_str(),
                            static_cast<unsigned long long>(C.Size));
    // A repeat: copy from the verified first copy, no syscall, no hash;
    // Out starts zeroed, so a zero chunk needs no copy.
    if (&First != &C && C.Digest != ZeroChunkDigest)
      std::memcpy(Out.data() + C.Offset, Out.data() + First.Offset, C.Size);
  }
  Reads.stop();
  // Every chunk now holds the bytes of its recorded digest, so the output
  // is the artifact the chunk list names; the root binds that list to the
  // identity recorded at ingest, catching a chunk list rewritten and
  // resealed (digests swapped between same-sized chunks, say).
  Sha256Digest Root = chunkListRoot(M.Chunks);
  if (Root != M.Root)
    return makeCodedError("EFAULT.STORE.DIGEST",
                          "artifact '%s': its chunk list roots to %s but "
                          "manifest records %s",
                          M.Name.c_str(), Root.hex().c_str(),
                          M.Root.hex().c_str());
  return Out;
}

Expected<std::vector<uint8_t>>
elfie::store::loadArtifact(const ChunkStore &S, const std::string &Name) {
  auto M = S.getManifest(Name);
  if (!M)
    return M.takeError();
  return loadArtifact(S, *M);
}

Error elfie::store::materializeArtifact(const ChunkStore &S,
                                        const std::string &Name,
                                        const std::string &OutPath) {
  auto M = S.getManifest(Name);
  if (!M)
    return M.takeError();
  auto Bytes = loadArtifact(S, *M);
  if (!Bytes)
    return Bytes.takeError();
  return writeFileAtomic(OutPath, Bytes->data(), Bytes->size(),
                         /*Executable=*/M->Kind == "elf");
}
