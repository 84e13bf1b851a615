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
#include <cstring>
#include <map>
#include <set>

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

Expected<Manifest> elfie::store::putArtifact(ChunkStore &S,
                                             const std::string &Name,
                                             std::span<const uint8_t> Bytes,
                                             const std::string &Source) {
  if (!Manifest::validName(Name))
    return makeCodedError("EFAULT.STORE.MANIFEST",
                          "invalid artifact name '%s'", Name.c_str());
  Manifest M;
  M.Name = Name;
  M.Kind = classifyArtifact(Bytes);
  M.Source = Source;
  M.Size = Bytes.size();
  M.Total = Sha256::digest(Bytes);

  // Hash every chunk once; keep the first reference to each digest.
  std::set<Sha256Digest> Seen;
  std::vector<Sha256Digest> Distinct;
  std::vector<std::span<const uint8_t>> Pieces;
  for (auto [Off, Len] : chunkBoundaries(Bytes, M.Kind)) {
    std::span<const uint8_t> Piece = Bytes.subspan(Off, Len);
    Sha256Digest D = Sha256::digest(Piece);
    M.Chunks.push_back({Off, Len, D});
    if (Seen.insert(D).second) {
      Distinct.push_back(D);
      Pieces.push_back(Piece);
    }
  }

  // Pin before put: every pin is durable before the first chunk byte
  // lands, so each chunk has a GC root from the instant it exists, even if
  // we die before the manifest publishes.
  if (Error E = S.pin(Name, Distinct))
    return E;
  for (size_t I = 0; I < Distinct.size(); ++I)
    if (Error E = S.put(Distinct[I], Pieces[I]))
      return E;

  if (Error E = S.putManifest(M))
    return E;
  // Manifest is the durable root now; retire the ingestion pins.
  if (Error E = S.sealPins(Name))
    return E;
  return M;
}

Expected<std::vector<uint8_t>>
elfie::store::loadArtifact(const ChunkStore &S, const Manifest &M) {
  std::vector<uint8_t> Out(M.Size);
  // Digest -> the reference whose bytes were read and verified first.
  std::map<Sha256Digest, const ChunkRef *> Verified;
  std::vector<uint8_t> Spill;
  for (const ChunkRef &C : M.Chunks) {
    if (C.Offset > M.Size || C.Size > M.Size - C.Offset)
      return makeCodedError("EFAULT.STORE.MANIFEST",
                            "manifest '%s' chunk at %llu overruns its size",
                            M.Name.c_str(),
                            static_cast<unsigned long long>(C.Offset));
    uint8_t *Dst = Out.data() + C.Offset;
    uint64_t ChunkSize;
    auto [It, First] = Verified.try_emplace(C.Digest, &C);
    if (First) {
      auto Read = S.readChunk(C.Digest, {Dst, C.Size}, Spill);
      if (!Read)
        return Read.takeError();
      ChunkSize = *Read;
    } else {
      // A repeat: copy from the verified first copy, no syscall, no hash.
      ChunkSize = It->second->Size;
    }
    if (ChunkSize != C.Size)
      return makeCodedError("EFAULT.STORE.MANIFEST",
                            "chunk %s is %llu bytes but manifest '%s' "
                            "records %llu",
                            C.Digest.hex().c_str(),
                            static_cast<unsigned long long>(ChunkSize),
                            M.Name.c_str(),
                            static_cast<unsigned long long>(C.Size));
    if (!First)
      std::memcpy(Dst, Out.data() + It->second->Offset, C.Size);
  }
  // Belt and braces: per-chunk digests already matched, but the
  // whole-artifact check also catches manifest chunk-list tampering that
  // survived the seal (it cannot, in practice) and our own bugs.
  Sha256Digest Total = Sha256::digest(Out);
  if (Total != M.Total)
    return makeCodedError("EFAULT.STORE.DIGEST",
                          "artifact '%s' reassembles to %s but manifest "
                          "records %s",
                          M.Name.c_str(), Total.hex().c_str(),
                          M.Total.hex().c_str());
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
