//===- store/ChunkStore.h - Content-addressed chunk pool -------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The estore pool: an integrity-verified, content-addressed chunk store
/// with cross-region dedup (DESIGN.md §15). On disk:
///
///   <root>/estore.meta            format marker + version
///   <root>/chunks/<aa>/<sha256>   one file per chunk, named by its digest
///                                 (<aa> = first two hex chars, fanout)
///   <root>/manifests/<name>       artifact manifests (store/Manifest.h)
///   <root>/quarantine/            corrupt chunks moved aside by scrub,
///                                 each with a .evidence.txt verdict
///   <root>/gc.journal             fsync'd append-only pin/GC journal
///   <root>/trash/                 GC staging: dead chunks rename here
///                                 before unlink (recoverable mid-sweep)
///
/// Integrity invariants:
///  * every distinct chunk is re-hashed before any of its bytes are handed
///    out (readChunk, under openChunk and loadArtifact; a mismatch is a
///    typed EFAULT.STORE.DIGEST error, never bytes),
///  * chunk publication is atomic (writeFileAtomic: tmp + fsync + rename +
///    parent-dir fsync), so concurrent puts of the same digest from any
///    number of processes race benignly to an identical file,
///  * no chunk of an in-flight ingestion exists without a GC root:
///    putArtifact pins all the artifact's digests with one fsync'd journal
///    record before it puts any chunk,
///  * GC is journaled mark-and-sweep: SIGKILL at any instruction leaves a
///    pool that open() recovers to a consistent state — a live chunk is
///    never lost, a dead chunk never resurrects permanently (it is swept
///    by the recovery or the next GC).
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_STORE_CHUNKSTORE_H
#define ELFIE_STORE_CHUNKSTORE_H

#include "store/Manifest.h"
#include "support/Error.h"
#include "support/Sha256.h"

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace elfie {
namespace store {

/// Pool-wide accounting for `estore stats`.
struct StoreStats {
  uint64_t Chunks = 0;
  uint64_t ChunkBytes = 0;
  uint64_t Manifests = 0;
  /// Sum of manifest artifact sizes: what the artifacts would occupy
  /// stored naively, one full copy each. DedupRatio = ArtifactBytes /
  /// ChunkBytes.
  uint64_t ArtifactBytes = 0;
  uint64_t Quarantined = 0;
  uint64_t ActivePins = 0;
};

/// One corrupt chunk found by scrub.
struct ScrubFinding {
  Sha256Digest Expected;        ///< digest the file name claims
  std::string Actual;           ///< digest the bytes hash to, or "" (I/O)
  std::string Detail;           ///< human verdict ("flipped byte", sizes)
  bool Quarantined = false;     ///< moved to quarantine/ with evidence
  std::vector<std::string> ReferencingManifests;
};

struct ScrubResult {
  uint64_t ChunksScanned = 0;
  uint64_t BytesScanned = 0;
  std::vector<ScrubFinding> Corrupt;
  /// Digests referenced by a manifest but absent from the pool (also
  /// reported when the chunk sits in quarantine).
  std::vector<std::string> MissingRefs;
};

struct GcResult {
  uint64_t Live = 0;       ///< chunks kept (manifest-referenced or pinned)
  uint64_t Swept = 0;      ///< dead chunks deleted
  uint64_t SweptBytes = 0;
  uint64_t Restored = 0;   ///< trash entries restored by crash recovery
  bool RecoveredTornGc = false;
};

struct RepairResult {
  uint64_t Restored = 0;     ///< chunks re-fetched and digest-verified
  uint64_t Unrepairable = 0; ///< no replica had a good copy
  std::vector<std::string> RestoredDigests;
  std::vector<std::string> UnrepairableDigests;
};

/// The content-addressed pool. Open one per root; instances are cheap
/// (path bookkeeping only) and safe to use from concurrent processes —
/// all mutations go through atomic publication or the fsync'd journal.
class ChunkStore {
public:
  /// Empty store handle (Expected<T> support); use open() to get a real one.
  ChunkStore() = default;

  /// Opens (creating when \p Create) the pool at \p Root, validating the
  /// format marker and recovering any GC interrupted by a crash.
  static Expected<ChunkStore> open(const std::string &Root,
                                   bool Create = true);

  const std::string &root() const { return Root; }

  //===--- chunks --------------------------------------------------------===//

  /// Stores \p Bytes, returning its digest. Dedup: an existing chunk with
  /// the same digest is not rewritten (\p WasNew tells which). Atomic and
  /// multi-process safe.
  Expected<Sha256Digest> put(std::span<const uint8_t> Bytes,
                             bool *WasNew = nullptr);

  /// put() for bytes the caller has already hashed: \p D must be the
  /// digest of \p Bytes. Every read re-verifies it regardless.
  Error put(const Sha256Digest &D, std::span<const uint8_t> Bytes,
            bool *WasNew = nullptr);

  /// Reads chunk \p D whole and checks its digest: the one verification
  /// rule under openChunk and loadArtifact. The bytes land in \p Dst when
  /// the chunk is exactly Dst.size() bytes long, else in \p Spill; either
  /// way they are hashed in place and the call succeeds, returning the
  /// chunk's size, only when they match \p D. A mismatch is
  /// EFAULT.STORE.DIGEST, an absent chunk EFAULT.STORE.MISSING (the message
  /// notes when the chunk sits in quarantine instead of the pool). With an
  /// IOFaultHook installed the read goes through readFileBytes, so the hook
  /// sees it.
  Expected<uint64_t> readChunk(const Sha256Digest &D, std::span<uint8_t> Dst,
                               std::vector<uint8_t> &Spill) const;

  /// The verified bytes of chunk \p D (readChunk into a fresh buffer).
  Expected<std::vector<uint8_t>> openChunk(const Sha256Digest &D) const;

  bool hasChunk(const Sha256Digest &D) const;
  std::string chunkPath(const Sha256Digest &D) const;

  /// Moves a corrupt chunk to quarantine/ with a .evidence.txt verdict
  /// (PR 4 quarantine style: enough to debug offline, terminal until
  /// repaired or removed).
  Error quarantineChunk(const Sha256Digest &D, const std::string &Evidence);

  /// Every digest present in chunks/ (sorted by hex).
  Expected<std::vector<Sha256Digest>> listChunks() const;

  //===--- manifests (the refcount roots) --------------------------------===//

  /// Atomically publishes \p M under manifests/<M.Name>. The caller must
  /// have put (or pinned) every chunk the manifest references first.
  Error putManifest(const Manifest &M);

  Expected<Manifest> getManifest(const std::string &Name) const;
  Expected<std::vector<std::string>> listManifests() const;
  Error removeManifest(const std::string &Name);

  //===--- pins (journaled GC roots for in-flight ingestion) -------------===//

  /// Pins \p Digests against GC before their manifest exists. \p Owner
  /// names the in-flight operation (typically the manifest name); sealing
  /// the owner retires all its pins at once. One `pin <owner> <hex>` line
  /// per digest, written as one fsync'd append that is durable before
  /// return; a torn append leaves a prefix of the pins.
  Error pin(const std::string &Owner, std::span<const Sha256Digest> Digests);

  /// Retires every pin held by \p Owner (its manifest is published, or the
  /// ingestion was abandoned).
  Error sealPins(const std::string &Owner);

  /// Owner -> pinned digests, replayed from the journal.
  Expected<std::map<std::string, std::set<std::string>>> activePins() const;

  //===--- maintenance ---------------------------------------------------===//

  /// Journaled mark-and-sweep: sweeps chunks referenced by no manifest and
  /// covered by no active pin. Safe against SIGKILL at any point; the next
  /// open()/gc() completes or rolls back the interrupted sweep.
  Expected<GcResult> gc();

  /// Re-hashes every chunk in the pool and cross-checks manifests for
  /// missing references. When \p Quarantine, corrupt chunks are moved to
  /// quarantine/ with evidence.
  Expected<ScrubResult> scrub(bool Quarantine = true);

  /// Re-fetches missing/quarantined/corrupt manifest-referenced chunks
  /// from replica roots (tried in order). Every candidate byte string is
  /// digest-verified before it is admitted; a replica's corruption can
  /// never propagate.
  Expected<RepairResult> repair(const std::vector<std::string> &ReplicaRoots);

  Expected<StoreStats> stats() const;

private:
  explicit ChunkStore(std::string Root) : Root(std::move(Root)) {}

  std::string manifestPath(const std::string &Name) const;
  std::string quarantinePath(const Sha256Digest &D) const;
  /// The EFAULT.STORE.MISSING error for \p D, noting quarantine.
  Error missingChunk(const Sha256Digest &D) const;
  Error journalAppend(const std::string &Line);

  /// Finishes a GC interrupted between gc-begin and gc-end: restores trash
  /// entries that are live under the *current* manifests/pins, deletes the
  /// rest, then seals the journal epoch.
  Error recoverTornGc(GcResult *Out);

  /// The live set: every digest referenced by a manifest or an active pin.
  Expected<std::set<std::string>> liveDigests() const;

  std::string Root;
};

/// True when \p Dir looks like an estore root (estore.meta present).
bool isStoreRoot(const std::string &Dir);

} // namespace store
} // namespace elfie

#endif // ELFIE_STORE_CHUNKSTORE_H
