//===- store/Manifest.h - Digest-addressed artifact manifests --*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The manifest: how an artifact (an emitted ELFie, a pinball file, any
/// byte string) references pool chunks by digest instead of carrying the
/// bytes inline. A manifest is a line-oriented text file, greppable like
/// the campaign journal, and sealed by a SHA-256 of its own body so a
/// flipped manifest byte is as detectable as a flipped chunk byte:
///
///   estore-manifest 2
///   name <artifact name>
///   kind <elf|raw>
///   source <path the artifact was ingested from>      (optional)
///   size <total bytes>
///   root <the artifact's identity: chunkListRoot of the chunk lines>
///   chunk <offset> <size> <digest>                     (one per chunk)
///   ...
///   seal <sha256 of every preceding byte of this file>
///
/// Chunks tile [0, size) exactly, in offset order. Reassembly concatenates
/// the chunk bytes; byte-identity with the original artifact is guaranteed
/// by construction and *checked* end to end (per-chunk digests, and the
/// root over the verified chunk list). A version-1 manifest (a whole-image
/// `sha256` line instead of `root`) is EFAULT.STORE.MANIFEST: re-put the
/// artifact.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_STORE_MANIFEST_H
#define ELFIE_STORE_MANIFEST_H

#include "support/Error.h"
#include "support/Sha256.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace elfie {
namespace store {

/// One chunk reference: artifact bytes [Offset, Offset+Size) live in the
/// pool chunk named by Digest.
struct ChunkRef {
  uint64_t Offset = 0;
  uint64_t Size = 0;
  Sha256Digest Digest;
};

struct Manifest {
  std::string Name;   ///< manifest file name; charset [A-Za-z0-9._-]
  std::string Kind;   ///< "elf" (section-aware chunking) or "raw"
  std::string Source; ///< ingestion path, for repair provenance (may be "")
  uint64_t Size = 0;  ///< total artifact bytes
  Sha256Digest Root;  ///< chunkListRoot(Chunks) when ingested
  std::vector<ChunkRef> Chunks; ///< offset-ordered, tiling [0, Size)

  /// Serializes to the sealed text form above.
  std::string render() const;

  /// Parses and validates: header, field grammar, seal, and chunk tiling
  /// (offset order, no gaps/overlap, sum == size). Errors carry
  /// EFAULT.STORE.MANIFEST (structure) or EFAULT.STORE.SEAL (tampering).
  static Expected<Manifest> parse(const std::string &Text);

  /// Checks that Chunks tile [0, Size) exactly in offset order, with no
  /// empty chunk: reassembly is a straight concatenation, so any gap,
  /// overlap or reorder is corruption (EFAULT.STORE.MANIFEST).
  Error checkTiling() const;

  /// True when \p Name is directory-safe ([A-Za-z0-9._-], non-empty, no
  /// leading dot).
  static bool validName(const std::string &Name);
};

/// The root of a chunk list: SHA-256 over one fixed-width record per
/// chunk, in list order -- the offset and the size as little-endian u64,
/// then the 32-byte digest. store::artifactRoot gives the root of a byte
/// string's own chunking, which is the artifact's identity.
Sha256Digest chunkListRoot(std::span<const ChunkRef> Chunks);

/// Feeds \p C's record to \p Root, for a root computed chunk by chunk.
void addRootRecord(Sha256 &Root, const ChunkRef &C);

} // namespace store
} // namespace elfie

#endif // ELFIE_STORE_MANIFEST_H
