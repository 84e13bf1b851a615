//===- store/Artifact.h - Whole-artifact ingest and reassembly -*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Artifact-level operations over the chunk pool: ingest a byte string
/// (chunked, pinned, manifested), reassemble it verified, or materialize
/// it back to a file byte-identical with the original.
///
/// Chunking is ELF-aware for cross-region dedup: emitted ELFies of the
/// same binary share most of their loadable page payloads (code pages,
/// read-only data) and differ mainly in the restoration tables. Splitting
/// PROGBITS section contents at 4 KiB boundaries *relative to the section
/// start* makes those shared page payloads hash to identical chunks no
/// matter where the section landed in each file, so N region checkpoints
/// of one workload cost roughly one copy of the shared pages plus the
/// per-region deltas. Everything else (headers, gaps, tables) falls into
/// fixed 4 KiB residue chunks. Non-ELF artifacts use fixed 4 KiB chunks
/// throughout.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_STORE_ARTIFACT_H
#define ELFIE_STORE_ARTIFACT_H

#include "store/ChunkStore.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace elfie {
namespace store {

/// The chunk granule. 4 KiB = the page size the ELFie loader maps at, so
/// one chunk is one restorable page payload.
constexpr uint64_t ChunkGranule = 4096;

/// loadArtifact reads an artifact of at least ParallelLoadMinChunks
/// distinct chunks on the calling thread plus up to LoadHelperThreads
/// helper threads (one fewer than the cores, at most). Fewer chunks, or an
/// installed IOFaultHook, load on the calling thread alone: starting and
/// joining the helpers costs about as much as reading 8-12 chunks of 4 KiB
/// (DESIGN.md §15.1).
constexpr unsigned LoadHelperThreads = 3;
constexpr size_t ParallelLoadMinChunks = 16;

/// SHA-256 of ChunkGranule zero bytes. Emitted ELFies carry zero pages
/// (untouched .bss, heap and stack), so a full chunk that compares all-zero
/// takes this digest instead of being hashed.
extern const Sha256Digest ZeroChunkDigest;

/// "elf" when \p Bytes carries the ELF magic and parses, else "raw".
std::string classifyArtifact(std::span<const uint8_t> Bytes);

/// Computes (offset, size) chunk boundaries tiling [0, Bytes.size())
/// exactly, using the \p Kind strategy described in the file comment.
std::vector<std::pair<uint64_t, uint64_t>>
chunkBoundaries(std::span<const uint8_t> Bytes, const std::string &Kind);

/// The artifact's identity: chunkListRoot over the chunks
/// chunkBoundaries(Bytes, classifyArtifact(Bytes)) gives, each chunk hashed
/// once (a zero chunk takes ZeroChunkDigest). It equals the Root
/// putArtifact records for \p Bytes, so a consumer holding the bytes can
/// check them against a manifest, or a sidecar's input digest, without a
/// whole-image hash.
Sha256Digest artifactRoot(std::span<const uint8_t> Bytes);

/// artifactRoot(Bytes), computed by several threads. The constructor
/// (which allocates) lays out the chunks; then any thread may call help(),
/// which hashes chunks no other thread has claimed, and one calls root(),
/// which helps too, waits for the chunks claimed elsewhere and returns the
/// root. esim starts root() on its digest thread and lets the simulating
/// thread help() once it has finished and needs the digest.
class ArtifactRootJob {
public:
  ArtifactRootJob(std::span<const uint8_t> Bytes, const std::string &Kind);
  explicit ArtifactRootJob(std::span<const uint8_t> Bytes)
      : ArtifactRootJob(Bytes, classifyArtifact(Bytes)) {}
  ArtifactRootJob(const ArtifactRootJob &) = delete;
  ArtifactRootJob &operator=(const ArtifactRootJob &) = delete;

  void help();
  Sha256Digest root();
  /// The hashed chunk list, in order (after root()).
  std::vector<ChunkRef> chunks() const;

private:
  std::span<const uint8_t> Bytes;
  std::vector<std::pair<uint64_t, uint64_t>> Bounds;
  std::vector<Sha256Digest> Digests;
  std::atomic<size_t> Next{0}; ///< the first unclaimed chunk
  std::atomic<size_t> Done{0}; ///< chunks hashed
};

/// Ingests \p Bytes as artifact \p Name: hashes each chunk once, records
/// the root (artifactRoot) without hashing the image again, pins the
/// artifact's distinct digests with one journal record (crash-safe GC
/// roots), puts each distinct chunk once, publishes the sealed manifest,
/// then retires the pins. A kill at any point leaves either no manifest
/// (pins keep the chunks; re-running converges) or the complete published
/// artifact. \p NewBytes, when given, receives the bytes of the chunks this
/// put added to the pool (0 for a re-put).
Expected<Manifest> putArtifact(ChunkStore &S, const std::string &Name,
                               std::span<const uint8_t> Bytes,
                               const std::string &Source = "",
                               uint64_t *NewBytes = nullptr);

/// Reassembles the artifact \p M describes with end-to-end verification:
/// a manifest whose chunks do not tile the artifact is
/// EFAULT.STORE.MANIFEST (Manifest::checkTiling), each distinct chunk is
/// read once straight into the output and digest-checked there (on helper
/// threads, see LoadHelperThreads), repeats are copied from that verified
/// copy (a repeat of the zero chunk is not copied: the output starts
/// zeroed), and the root of the verified chunk list must be the
/// manifest's Root (EFAULT.STORE.DIGEST). No pass hashes the reassembled
/// image. Corruption anywhere is a typed EFAULT.STORE.* error, that of the
/// first failing reference in manifest order, never silently wrong bytes.
Expected<std::vector<uint8_t>> loadArtifact(const ChunkStore &S,
                                            const Manifest &M);

/// loadArtifact of the manifest named \p Name.
Expected<std::vector<uint8_t>> loadArtifact(const ChunkStore &S,
                                            const std::string &Name);

/// loadArtifact + atomic write to \p OutPath (marked executable for
/// kind "elf"). The produced file is byte-identical with the ingested
/// original.
Error materializeArtifact(const ChunkStore &S, const std::string &Name,
                          const std::string &OutPath);

} // namespace store
} // namespace elfie

#endif // ELFIE_STORE_ARTIFACT_H
