//===- fault/Mutator.cpp --------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "fault/Mutator.h"

#include "support/FileIO.h"
#include "support/Format.h"
#include "support/MappedFile.h"
#include "support/RNG.h"
#include "support/Sha256.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

using namespace elfie;
using namespace elfie::fault;

Error elfie::fault::copyTree(const std::string &From,
                             const std::string &To) {
  std::error_code EC;
  std::filesystem::copy(From, To,
                        std::filesystem::copy_options::recursive, EC);
  if (EC)
    return makeCodedError("EFAULT.IO.COPY", "cannot copy '%s' to '%s': %s",
                          From.c_str(), To.c_str(), EC.message().c_str());
  return Error::success();
}

namespace {

/// The byte-level mutation kinds shared by both artifact classes.
enum class ByteMut {
  TruncatePrefix, ///< keep a random strict prefix
  ChopTail,       ///< drop 1..16 trailing bytes
  FlipBit,        ///< flip one bit of one byte
  HugeField,      ///< overwrite an aligned u32 with a near-overflow value
  ZeroRange,      ///< zero a random run of bytes
  PatchHeader,    ///< scribble over bytes in the first 64 (magic/version)
};

constexpr int NumByteMuts = 6;

/// Applies \p M in place to the \p Size bytes at \p Bytes (the private-COW
/// view of the target file); returns a description fragment. Truncating
/// kinds only shrink \p Size — the buffer itself is never reallocated, so
/// it can live inside a MAP_PRIVATE mapping.
std::string applyByteMut(ByteMut M, uint8_t *Bytes, size_t &Size,
                         RNG &Rand) {
  size_t N = Size;
  switch (M) {
  case ByteMut::TruncatePrefix: {
    size_t Keep = N ? Rand.nextBelow(N) : 0;
    Size = Keep;
    return formatString("truncate %zu -> %zu", N, Keep);
  }
  case ByteMut::ChopTail: {
    size_t Drop = std::min<size_t>(N, 1 + Rand.nextBelow(16));
    Size = N - Drop;
    return formatString("chop %zu tail bytes", Drop);
  }
  case ByteMut::FlipBit: {
    if (N == 0)
      return "flip on empty (noop)";
    size_t At = Rand.nextBelow(N);
    uint8_t Bit = static_cast<uint8_t>(1u << Rand.nextBelow(8));
    Bytes[At] ^= Bit;
    return formatString("flip bit 0x%02x at offset %zu", Bit, At);
  }
  case ByteMut::HugeField: {
    if (N < 4)
      return "huge-field on tiny file (noop)";
    size_t At = Rand.nextBelow(N / 4) * 4;
    uint32_t V = 0x7FFFFFF0u + static_cast<uint32_t>(Rand.nextBelow(16));
    std::memcpy(Bytes + At, &V, 4);
    return formatString("huge u32 0x%08x at offset %zu", V, At);
  }
  case ByteMut::ZeroRange: {
    if (N == 0)
      return "zero on empty (noop)";
    size_t At = Rand.nextBelow(N);
    size_t Len = std::min<size_t>(N - At, 1 + Rand.nextBelow(64));
    std::memset(Bytes + At, 0, Len);
    return formatString("zero %zu bytes at offset %zu", Len, At);
  }
  case ByteMut::PatchHeader: {
    if (N == 0)
      return "patch on empty (noop)";
    size_t Span = std::min<size_t>(N, 64);
    size_t At = Rand.nextBelow(Span);
    Bytes[At] = static_cast<uint8_t>(Rand.next());
    return formatString("patch header byte at offset %zu", At);
  }
  }
  return "noop";
}

/// Maps \p Path private-COW, mutates the view in place, and writes the
/// (possibly shortened) result back. The kernel's private pages absorb the
/// scribbles; only the final writeFile touches the disk.
Expected<std::string> mutateFileInPlace(const std::string &Path,
                                        ByteMut Kind, RNG &Rand) {
  auto File = MappedFile::open(Path, MappedFile::Mode::PrivateCow);
  if (!File)
    return File.takeError();
  size_t Size = File->size();
  std::string What = applyByteMut(Kind, File->mutableData(), Size, Rand);
  // Atomic write-back: the rename retires the old inode while the mapping
  // still references it (a plain truncating rewrite of the mapped file
  // would SIGBUS the not-yet-copied pages we are writing from).
  if (Error E = writeFileAtomic(Path, File->data(), Size))
    return E;
  return What;
}

} // namespace

Expected<std::string>
elfie::fault::mutatePinballDir(const std::string &Dir, uint64_t Seed) {
  auto Names = listDirectory(Dir);
  if (!Names)
    return Names.takeError();
  // Only regular files are mutation targets (skip e.g. a sysstate subdir).
  std::vector<std::string> Files;
  for (const std::string &Name : *Names)
    if (!std::filesystem::is_directory(Dir + "/" + Name))
      Files.push_back(Name);
  if (Files.empty())
    return makeCodedError("EFAULT.MUTATE.EMPTY",
                          "no files to mutate in '%s'", Dir.c_str());

  RNG Rand(Seed);
  const std::string &Name = Files[Rand.nextBelow(Files.size())];
  std::string Path = Dir + "/" + Name;

  // Three extra kinds beyond the byte mutations: delete the file outright,
  // or corrupt a zero page record either way.
  uint64_t Kind = Rand.nextBelow(NumByteMuts + 3);
  if (Kind == NumByteMuts) {
    removeFile(Path);
    return "delete " + Name;
  }
  if (Kind > NumByteMuts)
    return mutateZeroPageRecord(Dir,
                                Kind == NumByteMuts + 1
                                    ? ZeroPageMut::ClaimPayload
                                    : ZeroPageMut::BadLength,
                                Rand.next());

  auto What = mutateFileInPlace(Path, static_cast<ByteMut>(Kind), Rand);
  if (!What)
    return What.takeError();
  return Name + ": " + *What;
}

Expected<std::string> elfie::fault::mutateZeroPageRecord(
    const std::string &Dir, ZeroPageMut Kind, uint64_t Seed) {
  // Walk the page record framing (12-byte header, u32 count, then per
  // record [u64 first-use icount,] u64 addr, u8 perm, u32 length, payload)
  // and note where each zero record's length field sits.
  const char *Files[2] = {"image.text", "inject.pages"};
  std::vector<uint8_t> Bytes[2];
  std::vector<std::pair<int, size_t>> Sites; // (file, length offset)
  for (int F = 0; F < 2; ++F) {
    auto Read = readFileBytes(Dir + "/" + Files[F]);
    if (!Read)
      return Read.takeError();
    Bytes[F] = Read.takeValue();
    BinaryReader R(Bytes[F]);
    R.skip(12);
    uint32_t N = R.readU32();
    for (uint32_t I = 0; I < N && !R.hadError(); ++I) {
      R.skip(F == 1 ? 17 : 9);
      size_t LengthOff = R.offset();
      uint32_t Len = R.readU32();
      if (!R.hadError() && Len == 0)
        Sites.push_back({F, LengthOff});
      R.skip(Len);
    }
  }
  if (Sites.empty())
    return std::string("no zero page record (noop)");

  RNG Rand(Seed);
  auto [F, LengthOff] = Sites[Rand.nextBelow(Sites.size())];
  uint32_t Len = 4096;
  if (Kind == ZeroPageMut::BadLength) {
    Len = 1 + static_cast<uint32_t>(Rand.nextBelow(8190));
    if (Len >= 4096)
      ++Len; // skip the one valid payload length
  }
  std::memcpy(Bytes[F].data() + LengthOff, &Len, sizeof(Len));
  if (Error E = writeFileAtomic(Dir + "/" + Files[F], Bytes[F].data(),
                                Bytes[F].size()))
    return E;
  return formatString("%s: zero page record at offset %zu claims %u bytes",
                      Files[F], LengthOff, Len);
}

Expected<std::string> elfie::fault::mutateElfFile(const std::string &Path,
                                                 uint64_t Seed) {
  RNG Rand(Seed);
  return mutateFileInPlace(
      Path, static_cast<ByteMut>(Rand.nextBelow(NumByteMuts)), Rand);
}

Expected<std::string>
elfie::fault::mutateSimStateFile(const std::string &Path, uint64_t Seed) {
  auto Bytes = readFileBytes(Path);
  if (!Bytes)
    return Bytes.takeError();
  std::vector<uint8_t> &B = *Bytes;
  if (B.size() < 44) // magic + version + seal: nothing real to corrupt
    return makeCodedError("EFAULT.MUTATE.EMPTY",
                          "'%s' is too small to be a sidecar",
                          Path.c_str());

  RNG Rand(Seed);
  std::string What;
  switch (Rand.nextBelow(7)) {
  case 0: { // interrupted copy: keep a strict prefix
    size_t Keep = Rand.nextBelow(B.size());
    What = formatString("truncate %zu -> %zu", B.size(), Keep);
    B.resize(Keep);
    break;
  }
  case 1: { // chopped tail: the seal (or part of it) is gone
    size_t Drop = 1 + Rand.nextBelow(16);
    What = formatString("chop %zu tail bytes", Drop);
    B.resize(B.size() - std::min(Drop, B.size()));
    break;
  }
  case 2: { // media corruption: one bit anywhere
    size_t At = Rand.nextBelow(B.size());
    uint8_t Bit = static_cast<uint8_t>(1u << Rand.nextBelow(8));
    B[At] ^= Bit;
    What = formatString("flip bit 0x%02x at offset %zu", Bit, At);
    break;
  }
  case 3: { // scribbled magic
    size_t At = Rand.nextBelow(8);
    B[At] ^= static_cast<uint8_t>(1 + Rand.nextBelow(255));
    What = formatString("scribble magic byte %zu", At);
    break;
  }
  case 4: { // hostile producer: future format version, valid seal
    uint32_t Cur;
    std::memcpy(&Cur, B.data() + 8, 4);
    uint32_t V = Cur + 1 + static_cast<uint32_t>(Rand.nextBelow(1000));
    std::memcpy(B.data() + 8, &V, 4);
    Sha256Digest Seal = Sha256::digest(B.data(), B.size() - 32);
    std::memcpy(B.data() + B.size() - 32, Seal.Bytes.data(), 32);
    What = formatString("format version %u, resealed", V);
    break;
  }
  case 5: { // trailing garbage after the seal
    size_t Extra = 1 + Rand.nextBelow(16);
    for (size_t I = 0; I < Extra; ++I)
      B.push_back(static_cast<uint8_t>(Rand.next()));
    What = formatString("append %zu garbage bytes", Extra);
    break;
  }
  default: { // torn write: a u64 in the middle replaced wholesale
    size_t At = 8 + Rand.nextBelow((B.size() - 40) / 8) * 8;
    uint64_t V = Rand.next() | 0x8000000000000000ull;
    std::memcpy(B.data() + At, &V, 8);
    What = formatString("scribble u64 at offset %zu", At);
    break;
  }
  }
  if (Error E = writeFileAtomic(Path, B.data(), B.size()))
    return E;
  return What;
}

Expected<std::string>
elfie::fault::mutateStoreChunk(const std::string &Root, uint64_t Seed) {
  RNG Rand(Seed);

  // 1 seed in 5 corrupts a manifest instead of a chunk: the seal must
  // catch it (EFAULT.STORE.SEAL) just as the chunk digest catches chunk
  // flips (EFAULT.STORE.DIGEST).
  if (Rand.nextBelow(5) == 0) {
    auto Names = listDirectory(Root + "/manifests");
    if (!Names)
      return Names.takeError();
    if (!Names->empty()) {
      const std::string &Name = (*Names)[Rand.nextBelow(Names->size())];
      auto What = mutateFileInPlace(Root + "/manifests/" + Name,
                                    ByteMut::FlipBit, Rand);
      if (!What)
        return What.takeError();
      return "manifest " + Name + ": " + *What;
    }
  }

  // Enumerate the pool's chunk files (chunks/<aa>/<64-hex>).
  std::vector<std::string> Chunks; // paths relative to chunks/
  auto Fans = listDirectory(Root + "/chunks");
  if (!Fans)
    return Fans.takeError();
  for (const std::string &Fan : *Fans) {
    if (Fan.size() != 2)
      continue;
    auto Names = listDirectory(Root + "/chunks/" + Fan);
    if (!Names)
      return Names.takeError();
    for (const std::string &Name : *Names)
      if (Name.size() == 64)
        Chunks.push_back(Fan + "/" + Name);
  }
  if (Chunks.empty())
    return makeCodedError("EFAULT.MUTATE.EMPTY",
                          "no chunks to mutate in '%s'", Root.c_str());

  const std::string &Rel = Chunks[Rand.nextBelow(Chunks.size())];
  auto What =
      mutateFileInPlace(Root + "/chunks/" + Rel, ByteMut::FlipBit, Rand);
  if (!What)
    return What.takeError();
  return "chunk " + Rel.substr(3) + ": " + *What;
}
