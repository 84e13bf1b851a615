//===- tests/store/StoreTest.cpp - estore unit tests ----------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// The in-process store suite: SHA-256 known-answer vectors (FIPS 180-4),
/// manifest grammar and seal, chunk pool put/dedup/verify semantics, pins
/// and mark-and-sweep GC, scrub/quarantine/repair, ELF-aware chunk
/// boundaries, and the multi-process concurrent-put race. The crash (kill
/// mid-GC) and tool-level sweeps live in StoreE2ETest.cpp.
///
//===----------------------------------------------------------------------===//

#include "store/Artifact.h"
#include "store/ChunkStore.h"
#include "support/FileIO.h"
#include "support/RNG.h"
#include "support/Sha256.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <set>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace elfie;
using namespace elfie::store;

namespace {

std::string tempDir(const std::string &Tag) {
  std::string Dir = testing::TempDir() + "/elfie_store_" + Tag + "." +
                    std::to_string(getpid());
  removeTree(Dir);
  EXPECT_FALSE(createDirectories(Dir).isError());
  return Dir;
}

std::vector<uint8_t> randomBytes(uint64_t Seed, size_t N) {
  RNG Rand(Seed);
  std::vector<uint8_t> Out(N);
  for (size_t I = 0; I < N; ++I)
    Out[I] = static_cast<uint8_t>(Rand.next());
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// SHA-256 known-answer tests (FIPS 180-4 / NIST CAVP vectors)
//===----------------------------------------------------------------------===//

TEST(Sha256, KnownAnswerVectors) {
  // Empty message.
  EXPECT_EQ(sha256Hex(nullptr, 0),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b78"
            "52b855");
  // "abc" (FIPS 180-4 Appendix B.1).
  EXPECT_EQ(sha256Hex("abc", 3),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f2"
            "0015ad");
  // 448-bit two-round message (Appendix B.2).
  std::string M2 = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                   "nopq";
  EXPECT_EQ(sha256Hex(M2.data(), M2.size()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419"
            "db06c1");
  // 896-bit message (NIST CAVP long-message vector).
  std::string M3 = "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghij"
                   "klmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrst"
                   "nopqrstu";
  EXPECT_EQ(sha256Hex(M3.data(), M3.size()),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037"
            "afee9d1");
  // One million 'a' (Appendix B.3) — exercises many compression rounds
  // and the 64-bit length padding path.
  std::string M4(1000000, 'a');
  EXPECT_EQ(sha256Hex(M4.data(), M4.size()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7"
            "112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::vector<uint8_t> Data = randomBytes(42, 10000);
  Sha256Digest OneShot = Sha256::digest(Data.data(), Data.size());
  // Feed in awkward piece sizes crossing every block boundary alignment.
  for (size_t Piece : {1u, 7u, 63u, 64u, 65u, 1000u}) {
    Sha256 H;
    for (size_t Off = 0; Off < Data.size(); Off += Piece)
      H.update(Data.data() + Off, std::min(Piece, Data.size() - Off));
    EXPECT_EQ(H.final().hex(), OneShot.hex()) << "piece " << Piece;
  }
}

TEST(Sha256, EmptyUpdatesAroundPartialBlock) {
  // Empty inputs (a null pointer included, as an empty file's bytes are)
  // must be no-ops, also while a partial block is buffered.
  Sha256 H;
  H.update(nullptr, 0);
  H.update("abc", 3);
  H.update(nullptr, 0);
  H.update(std::span<const uint8_t>());
  H.update("def", 3);
  H.update(nullptr, 0);
  EXPECT_EQ(H.final().hex(), Sha256::digest("abcdef", 6).hex());
}

TEST(Sha256, HexRoundTripAndErrors) {
  Sha256Digest D = Sha256::digest("abc", 3);
  auto Parsed = Sha256Digest::fromHex(D.hex());
  ASSERT_TRUE(Parsed.hasValue());
  EXPECT_EQ(*Parsed, D);

  EXPECT_FALSE(Sha256Digest::fromHex("abc").hasValue());
  EXPECT_FALSE(Sha256Digest::fromHex(std::string(64, 'g')).hasValue());
  auto Bad = Sha256Digest::fromHex(std::string(63, 'a'));
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.error().str().find("EFAULT.STORE.DIGEST"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Manifest
//===----------------------------------------------------------------------===//

namespace {

Manifest sampleManifest(const std::vector<uint8_t> &Bytes) {
  Manifest M;
  M.Name = "sample.elfie";
  M.Kind = "raw";
  M.Source = "/some/dir/sample.elfie";
  M.Size = Bytes.size();
  uint64_t Off = 0;
  while (Off < Bytes.size()) {
    uint64_t Len = std::min<uint64_t>(4096, Bytes.size() - Off);
    M.Chunks.push_back(
        {Off, Len, Sha256::digest(Bytes.data() + Off, Len)});
    Off += Len;
  }
  M.Root = chunkListRoot(M.Chunks);
  return M;
}

} // namespace

TEST(Manifest, RenderParseRoundTrip) {
  auto Bytes = randomBytes(7, 10000);
  Manifest M = sampleManifest(Bytes);
  auto P = Manifest::parse(M.render());
  ASSERT_TRUE(P.hasValue()) << P.message();
  EXPECT_EQ(P->Name, M.Name);
  EXPECT_EQ(P->Kind, M.Kind);
  EXPECT_EQ(P->Source, M.Source);
  EXPECT_EQ(P->Size, M.Size);
  EXPECT_EQ(P->Root, M.Root);
  ASSERT_EQ(P->Chunks.size(), M.Chunks.size());
  for (size_t I = 0; I < M.Chunks.size(); ++I) {
    EXPECT_EQ(P->Chunks[I].Offset, M.Chunks[I].Offset);
    EXPECT_EQ(P->Chunks[I].Size, M.Chunks[I].Size);
    EXPECT_EQ(P->Chunks[I].Digest, M.Chunks[I].Digest);
  }
}

TEST(Manifest, SealCatchesAnyBodyFlip) {
  auto Bytes = randomBytes(8, 5000);
  std::string Text = sampleManifest(Bytes).render();
  // Flip one character in the body (not the seal line) — must be caught.
  std::string Tampered = Text;
  size_t At = Text.find("size 5000");
  ASSERT_NE(At, std::string::npos);
  Tampered[At + 5] = '9'; // size 5000 -> size 9000
  auto P = Manifest::parse(Tampered);
  ASSERT_FALSE(P.hasValue());
  EXPECT_NE(P.error().str().find("EFAULT.STORE.SEAL"), std::string::npos);

  // Truncation loses the seal line entirely.
  auto T2 = Manifest::parse(Text.substr(0, Text.size() / 2));
  ASSERT_FALSE(T2.hasValue());
  EXPECT_NE(T2.error().str().find("EFAULT.STORE"), std::string::npos);
}

TEST(Manifest, TilingValidation) {
  auto Bytes = randomBytes(9, 9000);
  // A helper that re-seals after structural tampering, so the tiling
  // checks (not the seal) do the rejecting.
  auto Reseal = [](Manifest M) {
    std::string T = M.render();
    return Manifest::parse(T);
  };

  Manifest Gap = sampleManifest(Bytes);
  Gap.Chunks.erase(Gap.Chunks.begin() + 1);
  auto P = Reseal(Gap);
  ASSERT_FALSE(P.hasValue());
  EXPECT_NE(P.error().str().find("EFAULT.STORE.MANIFEST"), std::string::npos);

  Manifest Overlap = sampleManifest(Bytes);
  Overlap.Chunks[1].Offset = 100;
  P = Reseal(Overlap);
  ASSERT_FALSE(P.hasValue());

  Manifest Short = sampleManifest(Bytes);
  Short.Chunks.pop_back();
  P = Reseal(Short);
  ASSERT_FALSE(P.hasValue());

  Manifest Overrun = sampleManifest(Bytes);
  Overrun.Chunks.back().Size += 4096;
  P = Reseal(Overrun);
  ASSERT_FALSE(P.hasValue());
}

TEST(Manifest, VersionOneIsManifestError) {
  // A sealed version-1 manifest: the whole-image sha256 line where version
  // 2 has its root. There is no second read path for it.
  auto Bytes = randomBytes(10, 9000);
  std::string Text = sampleManifest(Bytes).render();
  ASSERT_EQ(Text.compare(0, 18, "estore-manifest 2\n"), 0);
  size_t RootAt = Text.find("\nroot ");
  ASSERT_NE(RootAt, std::string::npos);
  std::string Body = "estore-manifest 1\n" + Text.substr(18, RootAt + 1 - 18) +
                     "sha256 " + Sha256::digest(Bytes).hex() +
                     Text.substr(Text.find('\n', RootAt + 1),
                                 Text.rfind("seal ") -
                                     Text.find('\n', RootAt + 1));
  std::string V1 = Body + "seal " + sha256Hex(Body.data(), Body.size()) +
                   "\n";
  auto P = Manifest::parse(V1);
  ASSERT_FALSE(P.hasValue());
  EXPECT_EQ(P.error().code(), "EFAULT.STORE.MANIFEST") << P.error().str();
  EXPECT_NE(P.error().message().find("estore-manifest 1"), std::string::npos)
      << P.error().str();
}

TEST(Manifest, RootIsOverFixedWidthRecords) {
  // Two records of 8 + 8 + 32 bytes, little-endian, in list order.
  std::vector<ChunkRef> Chunks = {{0, 4096, Sha256::digest("a", 1)},
                                  {4096, 0x1234, Sha256::digest("b", 1)}};
  std::vector<uint8_t> Records;
  for (const ChunkRef &C : Chunks) {
    for (uint64_t V : {C.Offset, C.Size})
      for (int I = 0; I < 8; ++I)
        Records.push_back(static_cast<uint8_t>(V >> (8 * I)));
    Records.insert(Records.end(), C.Digest.Bytes.begin(),
                   C.Digest.Bytes.end());
  }
  ASSERT_EQ(Records.size(), 96u);
  EXPECT_EQ(chunkListRoot(Chunks), Sha256::digest(Records));
  std::swap(Chunks[0].Digest, Chunks[1].Digest);
  EXPECT_NE(chunkListRoot(Chunks), Sha256::digest(Records));
  EXPECT_EQ(chunkListRoot({}), Sha256::digest(nullptr, 0));
}

TEST(Manifest, NameValidation) {
  EXPECT_TRUE(Manifest::validName("region-7.elfie"));
  EXPECT_TRUE(Manifest::validName("a_b.c-d"));
  EXPECT_FALSE(Manifest::validName(""));
  EXPECT_FALSE(Manifest::validName(".hidden"));
  EXPECT_FALSE(Manifest::validName("a/b"));
  EXPECT_FALSE(Manifest::validName("a b"));
  EXPECT_FALSE(Manifest::validName(std::string(256, 'a')));
}

//===----------------------------------------------------------------------===//
// ChunkStore
//===----------------------------------------------------------------------===//

TEST(ChunkStore, PutDedupAndVerify) {
  std::string Dir = tempDir("put");
  auto S = ChunkStore::open(Dir + "/pool");
  ASSERT_TRUE(S.hasValue()) << S.message();

  auto Bytes = randomBytes(1, 4096);
  bool WasNew = false;
  auto D = S->put(Bytes, &WasNew);
  ASSERT_TRUE(D.hasValue()) << D.message();
  EXPECT_TRUE(WasNew);
  EXPECT_TRUE(S->hasChunk(*D));

  // Second put of identical bytes dedups.
  auto D2 = S->put(Bytes, &WasNew);
  ASSERT_TRUE(D2.hasValue());
  EXPECT_EQ(*D, *D2);
  EXPECT_FALSE(WasNew);

  // Verified open returns the bytes.
  auto V = S->openChunk(*D);
  ASSERT_TRUE(V.hasValue()) << V.message();
  ASSERT_EQ(V->size(), Bytes.size());
  EXPECT_EQ(0, std::memcmp(V->data(), Bytes.data(), Bytes.size()));

  removeTree(Dir);
}

TEST(ChunkStore, OpenChunkFailsClosedOnCorruption) {
  std::string Dir = tempDir("corrupt");
  auto S = ChunkStore::open(Dir + "/pool");
  ASSERT_TRUE(S.hasValue());
  auto Bytes = randomBytes(2, 8192);
  auto D = S->put(Bytes);
  ASSERT_TRUE(D.hasValue());

  // Flip one byte of the chunk file behind the pool's back.
  auto OnDisk = readFileBytes(S->chunkPath(*D));
  ASSERT_TRUE(OnDisk.hasValue());
  (*OnDisk)[100] ^= 0x01;
  ASSERT_FALSE(
      writeFile(S->chunkPath(*D), OnDisk->data(), OnDisk->size())
          .isError());

  auto V = S->openChunk(*D);
  ASSERT_FALSE(V.hasValue());
  EXPECT_NE(V.error().str().find("EFAULT.STORE.DIGEST"), std::string::npos);

  // Absent chunk: typed MISSING.
  auto Other = Sha256::digest("nope", 4);
  auto V2 = S->openChunk(Other);
  ASSERT_FALSE(V2.hasValue());
  EXPECT_NE(V2.error().str().find("EFAULT.STORE.MISSING"), std::string::npos);

  removeTree(Dir);
}

TEST(ChunkStore, ManifestRefusesDanglingChunks) {
  std::string Dir = tempDir("dangling");
  auto S = ChunkStore::open(Dir + "/pool");
  ASSERT_TRUE(S.hasValue());

  auto Bytes = randomBytes(3, 4096);
  Manifest M;
  M.Name = "dangling";
  M.Kind = "raw";
  M.Size = Bytes.size();
  M.Chunks.push_back({0, Bytes.size(), Sha256::digest(Bytes)});
  M.Root = chunkListRoot(M.Chunks);

  Error E = S->putManifest(M); // chunk was never put
  ASSERT_TRUE(E.isError());
  EXPECT_NE(E.str().find("EFAULT.STORE.MISSING"), std::string::npos);

  ASSERT_TRUE(S->put(Bytes).hasValue());
  EXPECT_FALSE(S->putManifest(M).isError());
  auto Back = S->getManifest("dangling");
  ASSERT_TRUE(Back.hasValue()) << Back.message();
  EXPECT_EQ(Back->Root, M.Root);

  removeTree(Dir);
}

TEST(ChunkStore, GcSweepsGarbageKeepsReferencedAndPinned) {
  std::string Dir = tempDir("gc");
  auto S = ChunkStore::open(Dir + "/pool");
  ASSERT_TRUE(S.hasValue());

  // One manifested artifact, one pinned orphan chunk, one plain orphan.
  auto A = randomBytes(10, 6000);
  auto M = putArtifact(*S, "kept", A);
  ASSERT_TRUE(M.hasValue()) << M.message();

  auto Pinned = randomBytes(11, 4096);
  auto PD = S->put(Pinned);
  ASSERT_TRUE(PD.hasValue());
  ASSERT_FALSE(S->pin("inflight", {&*PD, 1}).isError());

  auto Orphan = randomBytes(12, 4096);
  auto OD = S->put(Orphan);
  ASSERT_TRUE(OD.hasValue());

  auto G = S->gc();
  ASSERT_TRUE(G.hasValue()) << G.message();
  EXPECT_EQ(G->Swept, 1u); // only the unpinned orphan
  EXPECT_TRUE(S->hasChunk(*PD));
  EXPECT_FALSE(S->hasChunk(*OD));
  auto Loaded = loadArtifact(*S, "kept");
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  EXPECT_EQ(*Loaded, A);

  // Sealing the pin releases the orphan to the next sweep.
  ASSERT_FALSE(S->sealPins("inflight").isError());
  G = S->gc();
  ASSERT_TRUE(G.hasValue());
  EXPECT_EQ(G->Swept, 1u);
  EXPECT_FALSE(S->hasChunk(*PD));

  // Removing the manifest releases the artifact's chunks.
  ASSERT_FALSE(S->removeManifest("kept").isError());
  G = S->gc();
  ASSERT_TRUE(G.hasValue());
  EXPECT_EQ(G->Swept, M->Chunks.size());
  auto St = S->stats();
  ASSERT_TRUE(St.hasValue());
  EXPECT_EQ(St->Chunks, 0u);

  removeTree(Dir);
}

TEST(ChunkStore, ScrubQuarantinesExactlyTheCorruptChunkWithEvidence) {
  std::string Dir = tempDir("scrub");
  auto S = ChunkStore::open(Dir + "/pool");
  ASSERT_TRUE(S.hasValue());

  auto A = randomBytes(20, 20000);
  auto M = putArtifact(*S, "art", A);
  ASSERT_TRUE(M.hasValue());
  ASSERT_GE(M->Chunks.size(), 3u);

  // Corrupt exactly one chunk.
  Sha256Digest Bad = M->Chunks[1].Digest;
  auto OnDisk = readFileBytes(S->chunkPath(Bad));
  ASSERT_TRUE(OnDisk.hasValue());
  (*OnDisk)[0] ^= 0x80;
  ASSERT_FALSE(writeFile(S->chunkPath(Bad), OnDisk->data(),
                         OnDisk->size())
                   .isError());

  auto R = S->scrub();
  ASSERT_TRUE(R.hasValue()) << R.message();
  ASSERT_EQ(R->Corrupt.size(), 1u);
  EXPECT_EQ(R->Corrupt[0].Expected, Bad);
  EXPECT_TRUE(R->Corrupt[0].Quarantined);
  ASSERT_EQ(R->Corrupt[0].ReferencingManifests.size(), 1u);
  EXPECT_EQ(R->Corrupt[0].ReferencingManifests[0], "art");
  ASSERT_EQ(R->MissingRefs.size(), 1u);
  EXPECT_EQ(R->MissingRefs[0], Bad.hex());

  // Quarantine holds the bytes + evidence; the pool no longer serves it.
  EXPECT_FALSE(S->hasChunk(Bad));
  EXPECT_TRUE(fileExists(Dir + "/pool/quarantine/" + Bad.hex()));
  auto Evidence =
      readFileText(Dir + "/pool/quarantine/" + Bad.hex() + ".evidence.txt");
  ASSERT_TRUE(Evidence.hasValue());
  EXPECT_NE(Evidence->find("expected " + Bad.hex()), std::string::npos);
  EXPECT_NE(Evidence->find("art"), std::string::npos);

  // loadArtifact fails closed with the typed code.
  auto L = loadArtifact(*S, "art");
  ASSERT_FALSE(L.hasValue());
  EXPECT_NE(L.error().str().find("EFAULT.STORE.MISSING"), std::string::npos);

  // A second scrub is clean apart from the still-missing reference.
  auto R2 = S->scrub();
  ASSERT_TRUE(R2.hasValue());
  EXPECT_TRUE(R2->Corrupt.empty());
  EXPECT_EQ(R2->MissingRefs.size(), 1u);

  removeTree(Dir);
}

TEST(ChunkStore, RepairRestoresFromReplicaAndVerifies) {
  std::string Dir = tempDir("repair");
  auto S = ChunkStore::open(Dir + "/pool");
  auto Replica = ChunkStore::open(Dir + "/replica");
  ASSERT_TRUE(S.hasValue());
  ASSERT_TRUE(Replica.hasValue());

  auto A = randomBytes(30, 16000);
  auto M = putArtifact(*S, "art", A);
  ASSERT_TRUE(M.hasValue());
  ASSERT_TRUE(putArtifact(*Replica, "art", A).hasValue());

  // Corrupt one chunk in place (no scrub first: repair must also find
  // present-but-corrupt chunks) and delete another outright.
  Sha256Digest C0 = M->Chunks[0].Digest;
  Sha256Digest C1 = M->Chunks[1].Digest;
  auto OnDisk = readFileBytes(S->chunkPath(C0));
  ASSERT_TRUE(OnDisk.hasValue());
  (*OnDisk)[1] ^= 0x40;
  ASSERT_FALSE(writeFile(S->chunkPath(C0), OnDisk->data(),
                         OnDisk->size())
                   .isError());
  removeFile(S->chunkPath(C1));

  auto R = S->repair({Dir + "/replica"});
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->Restored, 2u);
  EXPECT_EQ(R->Unrepairable, 0u);

  auto L = loadArtifact(*S, "art");
  ASSERT_TRUE(L.hasValue()) << L.message();
  EXPECT_EQ(*L, A);

  // A corrupt replica can never propagate: poison the replica's copy of
  // C0, corrupt ours again, and repair must report unrepairable rather
  // than admit bad bytes.
  auto RepBytes = readFileBytes(Replica->chunkPath(C0));
  ASSERT_TRUE(RepBytes.hasValue());
  (*RepBytes)[2] ^= 0x20;
  ASSERT_FALSE(writeFile(Replica->chunkPath(C0), RepBytes->data(),
                         RepBytes->size())
                   .isError());
  removeFile(S->chunkPath(C0));
  removeFile(Dir + "/pool/quarantine/" + C0.hex());
  removeFile(Dir + "/pool/quarantine/" + C0.hex() + ".evidence.txt");

  R = S->repair({Dir + "/replica"});
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Restored, 0u);
  EXPECT_EQ(R->Unrepairable, 1u);
  ASSERT_EQ(R->UnrepairableDigests.size(), 1u);
  EXPECT_EQ(R->UnrepairableDigests[0], C0.hex());

  removeTree(Dir);
}

TEST(ChunkStore, ConcurrentPutFromTwoProcessesRaceBenignly) {
  // The satellite guarantee: two processes putting the same bytes at the
  // same instant both succeed and leave exactly one chunk file. Forked
  // children maximize overlap by spinning until a shared start file
  // appears.
  std::string Dir = tempDir("race");
  std::string PoolDir = Dir + "/pool";
  {
    auto S = ChunkStore::open(PoolDir);
    ASSERT_TRUE(S.hasValue());
  }
  auto Bytes = randomBytes(50, 64 * 1024);
  std::string Go = Dir + "/go";

  std::vector<pid_t> Kids;
  for (int I = 0; I < 4; ++I) {
    pid_t Pid = fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      while (!fileExists(Go))
        ; // spin: all children start the put as close together as possible
      auto S = ChunkStore::open(PoolDir, /*Create=*/false);
      if (!S.hasValue())
        _exit(2);
      for (int Round = 0; Round < 20; ++Round) {
        auto D = S->put(Bytes);
        if (!D.hasValue())
          _exit(3);
        auto V = S->openChunk(*D);
        if (!V.hasValue())
          _exit(4);
      }
      _exit(0);
    }
    Kids.push_back(Pid);
  }
  ASSERT_FALSE(writeFileText(Go, "go").isError());
  for (pid_t Pid : Kids) {
    int Status = 0;
    ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
    ASSERT_TRUE(WIFEXITED(Status));
    EXPECT_EQ(WEXITSTATUS(Status), 0);
  }

  auto S = ChunkStore::open(PoolDir, /*Create=*/false);
  ASSERT_TRUE(S.hasValue());
  auto Chunks = S->listChunks();
  ASSERT_TRUE(Chunks.hasValue());
  EXPECT_EQ(Chunks->size(), 1u); // exactly one chunk file, no temp litter
  auto V = S->openChunk(Sha256::digest(Bytes.data(), Bytes.size()));
  EXPECT_TRUE(V.hasValue()) << V.message();

  removeTree(Dir);
}

//===----------------------------------------------------------------------===//
// Artifact chunking and reassembly
//===----------------------------------------------------------------------===//

TEST(Artifact, BoundariesTileExactly) {
  for (size_t N : {0u, 1u, 4095u, 4096u, 4097u, 100000u}) {
    auto Bytes = randomBytes(N + 1, N);
    auto B = chunkBoundaries(Bytes, "raw");
    uint64_t Next = 0;
    for (auto [Off, Len] : B) {
      EXPECT_EQ(Off, Next);
      EXPECT_GT(Len, 0u);
      Next = Off + Len;
    }
    EXPECT_EQ(Next, N);
  }
}

TEST(Artifact, PutLoadRoundTripAndEmpty) {
  std::string Dir = tempDir("artifact");
  auto S = ChunkStore::open(Dir + "/pool");
  ASSERT_TRUE(S.hasValue());

  auto A = randomBytes(60, 33333);
  auto M = putArtifact(*S, "a.bin", A, "/src/a.bin");
  ASSERT_TRUE(M.hasValue()) << M.message();
  EXPECT_EQ(M->Kind, "raw");
  EXPECT_EQ(M->Source, "/src/a.bin");
  auto L = loadArtifact(*S, "a.bin");
  ASSERT_TRUE(L.hasValue());
  EXPECT_EQ(*L, A);

  // Ingestion pins are retired once the manifest is the GC root.
  auto Pins = S->activePins();
  ASSERT_TRUE(Pins.hasValue());
  EXPECT_TRUE(Pins->empty());

  // Zero-byte artifact round-trips (no chunks, manifest only).
  std::vector<uint8_t> Empty;
  auto ME = putArtifact(*S, "empty", Empty);
  ASSERT_TRUE(ME.hasValue()) << ME.message();
  auto LE = loadArtifact(*S, "empty");
  ASSERT_TRUE(LE.hasValue()) << LE.message();
  EXPECT_TRUE(LE->empty());

  removeTree(Dir);
}

TEST(Artifact, MaterializeIsByteIdentical) {
  std::string Dir = tempDir("materialize");
  auto S = ChunkStore::open(Dir + "/pool");
  ASSERT_TRUE(S.hasValue());
  auto A = randomBytes(70, 12345);
  ASSERT_TRUE(putArtifact(*S, "a", A).hasValue());
  ASSERT_FALSE(materializeArtifact(*S, "a", Dir + "/out").isError());
  auto Back = readFileBytes(Dir + "/out");
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(*Back, A);
  removeTree(Dir);
}

TEST(Artifact, CrossArtifactDedupSharesIdenticalPages) {
  std::string Dir = tempDir("dedup");
  auto S = ChunkStore::open(Dir + "/pool");
  ASSERT_TRUE(S.hasValue());

  // Two artifacts sharing 12 of 16 pages (aligned), differing in the rest
  // — the shape of two region ELFies of one workload.
  auto Shared = randomBytes(80, 12 * 4096);
  auto A = Shared, B = Shared;
  auto TailA = randomBytes(81, 4 * 4096);
  auto TailB = randomBytes(82, 4 * 4096);
  A.insert(A.end(), TailA.begin(), TailA.end());
  B.insert(B.end(), TailB.begin(), TailB.end());

  ASSERT_TRUE(putArtifact(*S, "a", A).hasValue());
  ASSERT_TRUE(putArtifact(*S, "b", B).hasValue());
  auto St = S->stats();
  ASSERT_TRUE(St.hasValue());
  EXPECT_EQ(St->ArtifactBytes, A.size() + B.size());
  // Pool carries one copy of the shared pages: 12 + 4 + 4 = 20 chunks,
  // not 32.
  EXPECT_EQ(St->ChunkBytes, (12 + 4 + 4) * 4096u);
  EXPECT_GT(St->ArtifactBytes, St->ChunkBytes);

  removeTree(Dir);
}

//===----------------------------------------------------------------------===//
// Artifact identity: the root over the chunk list
//===----------------------------------------------------------------------===//

namespace {

/// The root with every chunk hashed, no zero memo.
Sha256Digest hashedRoot(const std::vector<uint8_t> &Bytes) {
  std::vector<ChunkRef> Chunks;
  for (auto [Off, Len] : chunkBoundaries(Bytes, classifyArtifact(Bytes)))
    Chunks.push_back({Off, Len, Sha256::digest(Bytes.data() + Off, Len)});
  return chunkListRoot(Chunks);
}

} // namespace

TEST(ArtifactRoot, ZeroMemoGivesTheDigestOfTheActualBytes) {
  EXPECT_EQ(ZeroChunkDigest,
            Sha256::digest(std::vector<uint8_t>(ChunkGranule, 0)));
  // Raw artifacts: a zero chunk, a chunk zero but for its last byte (and
  // one but for its first), random chunks, and a short all-zero tail.
  std::vector<uint8_t> Bytes(3 * ChunkGranule, 0);
  Bytes[2 * ChunkGranule - 1] = 1;
  Bytes[2 * ChunkGranule] = 1;
  auto Random = randomBytes(100, 2 * ChunkGranule);
  Bytes.insert(Bytes.end(), Random.begin(), Random.end());
  Bytes.resize(Bytes.size() + 1000, 0);
  ASSERT_EQ(classifyArtifact(Bytes), "raw");
  EXPECT_EQ(artifactRoot(Bytes), hashedRoot(Bytes));

  std::vector<uint8_t> NearlyZero(ChunkGranule, 0);
  NearlyZero.back() = 0x80;
  EXPECT_EQ(artifactRoot(NearlyZero), hashedRoot(NearlyZero));
  EXPECT_NE(artifactRoot(NearlyZero),
            artifactRoot(std::vector<uint8_t>(ChunkGranule, 0)));

  for (size_t Tail : {1u, 100u, 4095u}) {
    std::vector<uint8_t> ShortZero(ChunkGranule + Tail, 0);
    EXPECT_EQ(artifactRoot(ShortZero), hashedRoot(ShortZero)) << Tail;
  }
  EXPECT_EQ(artifactRoot({}), chunkListRoot({}));
}

TEST(ArtifactRoot, HelpersShareOneJob) {
  // Zero, random, zero-but-one-byte and short chunks. Three threads help
  // while a fourth takes the root; the chunk list is the one every chunk
  // hashed gives.
  std::vector<uint8_t> Bytes;
  for (int I = 0; I < 64; ++I) {
    auto Chunk = I % 3 == 0 ? std::vector<uint8_t>(ChunkGranule, 0)
                            : randomBytes(200 + I, ChunkGranule);
    if (I % 7 == 0)
      Chunk[I] = 1;
    Bytes.insert(Bytes.end(), Chunk.begin(), Chunk.end());
  }
  Bytes.resize(Bytes.size() + 300, 0);
  ArtifactRootJob Job(Bytes);
  std::vector<std::thread> Helpers;
  for (int I = 0; I < 3; ++I)
    Helpers.emplace_back([&] { Job.help(); });
  std::thread Rooter([&] { EXPECT_EQ(Job.root(), hashedRoot(Bytes)); });
  for (std::thread &T : Helpers)
    T.join();
  Rooter.join();
  EXPECT_EQ(chunkListRoot(Job.chunks()), hashedRoot(Bytes));
  EXPECT_EQ(Job.root(), artifactRoot(Bytes)); // a second root() is the same
}

TEST(ArtifactRoot, PutRecordsTheRootOfTheBytes) {
  std::string Dir = tempDir("root");
  auto S = ChunkStore::open(Dir + "/pool");
  ASSERT_TRUE(S.hasValue());
  std::vector<uint8_t> Bytes(5 * ChunkGranule, 0);
  auto Random = randomBytes(101, 3 * ChunkGranule + 17);
  Bytes.insert(Bytes.begin() + ChunkGranule, Random.begin(), Random.end());
  auto M = putArtifact(*S, "mixed", Bytes);
  ASSERT_TRUE(M.hasValue()) << M.message();
  EXPECT_EQ(M->Root, artifactRoot(Bytes));
  EXPECT_EQ(M->Root, hashedRoot(Bytes));
  EXPECT_EQ(M->Root, chunkListRoot(M->Chunks));
  auto Back = S->getManifest("mixed");
  ASSERT_TRUE(Back.hasValue()) << Back.message();
  EXPECT_EQ(Back->Root, M->Root);
  auto L = loadArtifact(*S, "mixed");
  ASSERT_TRUE(L.hasValue()) << L.message();
  EXPECT_EQ(*L, Bytes);
  removeTree(Dir);
}

//===----------------------------------------------------------------------===//
// Reassembly of an artifact that references one chunk many times
//===----------------------------------------------------------------------===//
//
// Emitted ELFies reference the zero page and other shared payloads many
// times per artifact. These cases pin how loadArtifact fails closed when
// the repeated chunk, or one reference to it, is bad: every case returns a
// typed EFAULT.STORE.* error and no bytes.

namespace {

/// 16 pages: page R at nine offsets (the first is page 1), seven distinct
/// pages between them, and a 1000-byte distinct tail.
std::vector<uint8_t> repeatedPageArtifact() {
  auto R = randomBytes(90, 4096);
  std::vector<uint8_t> Out;
  const char Layout[] = "DRRADRRBRRCRDRDR";
  uint64_t Seed = 91;
  for (const char *P = Layout; *P; ++P) {
    auto Page = *P == 'R' ? R : randomBytes(Seed++, 4096);
    Out.insert(Out.end(), Page.begin(), Page.end());
  }
  auto Tail = randomBytes(Seed, 1000);
  Out.insert(Out.end(), Tail.begin(), Tail.end());
  return Out;
}

/// A pool holding repeatedPageArtifact() as "rep", with the repeated page's
/// digest.
struct RepeatedPool {
  std::string Dir;
  Expected<ChunkStore> S = makeError("unset");
  std::vector<uint8_t> Bytes;
  Manifest M;
  Sha256Digest Repeated;

  explicit RepeatedPool(const std::string &Tag)
      : Dir(tempDir(Tag)), S(ChunkStore::open(Dir + "/pool")),
        Bytes(repeatedPageArtifact()) {
    EXPECT_TRUE(S.hasValue()) << S.message();
    auto Put = putArtifact(*S, "rep", Bytes);
    EXPECT_TRUE(Put.hasValue()) << Put.message();
    M = *Put;
    Repeated = M.Chunks[1].Digest;
  }
  ~RepeatedPool() { removeTree(Dir); }

  std::string repeatedPath() const { return S->chunkPath(Repeated); }
};

/// Expects \p L to have failed with \p Code.
void expectLoadFails(const Expected<std::vector<uint8_t>> &L,
                     const std::string &Code) {
  ASSERT_FALSE(L.hasValue()) << "bytes returned; want " << Code;
  EXPECT_NE(L.error().str().find(Code), std::string::npos)
      << L.error().str();
}

/// Flips byte 7 of every read of a pool chunk file (manifests and other
/// files pass through untouched).
class ChunkFlipHook : public IOFaultHook {
public:
  Error onWrite(const std::string &, std::vector<uint8_t> &) override {
    return Error::success();
  }
  Error onRead(const std::string &Path, std::vector<uint8_t> &Data) override {
    if (Path.find("/chunks/") != std::string::npos && Data.size() > 7) {
      Data[7] ^= 0x04;
      ++Flips;
    }
    return Error::success();
  }
  unsigned Flips = 0;
};

} // namespace

TEST(ArtifactRepeats, LoadIsByteIdentical) {
  RepeatedPool P("rep_ok");
  ASSERT_TRUE(P.S.hasValue());
  ASSERT_EQ(P.M.Chunks.size(), 17u);
  unsigned Refs = 0;
  std::set<std::string> Distinct;
  for (const ChunkRef &C : P.M.Chunks) {
    Refs += C.Digest == P.Repeated;
    Distinct.insert(C.Digest.hex());
  }
  EXPECT_EQ(Refs, 9u);
  EXPECT_EQ(Distinct.size(), 9u);
  auto St = P.S->stats();
  ASSERT_TRUE(St.hasValue());
  EXPECT_EQ(St->Chunks, 9u);

  auto L = loadArtifact(*P.S, "rep");
  ASSERT_TRUE(L.hasValue()) << L.message();
  EXPECT_EQ(*L, P.Bytes);
}

// A chunk list rewritten and resealed: the digests of two same-sized
// chunks swapped. Every chunk still verifies against its recorded digest,
// and the seal holds; the root over the list is what catches it.
TEST(ArtifactRepeats, ResealedSwappedChunkDigestsIsDigestError) {
  RepeatedPool P("rep_swap");
  ASSERT_TRUE(P.S.hasValue());
  Manifest M = P.M;
  ASSERT_EQ(M.Chunks[0].Size, M.Chunks[3].Size);
  ASSERT_NE(M.Chunks[0].Digest, M.Chunks[3].Digest);
  std::swap(M.Chunks[0].Digest, M.Chunks[3].Digest);
  ASSERT_FALSE(
      writeFileText(P.S->root() + "/manifests/rep", M.render()).isError());
  auto Resealed = P.S->getManifest("rep");
  ASSERT_TRUE(Resealed.hasValue()) << Resealed.message();
  auto L = loadArtifact(*P.S, "rep");
  expectLoadFails(L, "EFAULT.STORE.DIGEST");
  EXPECT_NE(L.error().str().find(P.M.Root.hex()), std::string::npos)
      << L.error().str();
}

// An artifact that repeats the zero chunk reassembles byte-identical, and
// a flipped zero chunk file is a digest error like any other.
TEST(ArtifactRepeats, RepeatedZeroChunk) {
  std::string Dir = tempDir("rep_zero");
  auto S = ChunkStore::open(Dir + "/pool");
  ASSERT_TRUE(S.hasValue());
  std::vector<uint8_t> Bytes(9 * ChunkGranule, 0);
  auto Random = randomBytes(102, ChunkGranule);
  std::copy(Random.begin(), Random.end(), Bytes.begin() + 4 * ChunkGranule);
  ASSERT_TRUE(putArtifact(*S, "zeros", Bytes).hasValue());
  auto L = loadArtifact(*S, "zeros");
  ASSERT_TRUE(L.hasValue()) << L.message();
  EXPECT_EQ(*L, Bytes);

  std::string Path = S->chunkPath(ZeroChunkDigest);
  auto OnDisk = readFileBytes(Path);
  ASSERT_TRUE(OnDisk.hasValue()) << OnDisk.message();
  (*OnDisk)[100] = 1;
  ASSERT_FALSE(writeFile(Path, OnDisk->data(), OnDisk->size()).isError());
  expectLoadFails(loadArtifact(*S, "zeros"), "EFAULT.STORE.DIGEST");
  removeTree(Dir);
}

TEST(ArtifactRepeats, FlippedRepeatedChunkIsDigestError) {
  RepeatedPool P("rep_flip");
  ASSERT_TRUE(P.S.hasValue());
  auto OnDisk = readFileBytes(P.repeatedPath());
  ASSERT_TRUE(OnDisk.hasValue());
  (*OnDisk)[2049] ^= 0x10;
  ASSERT_FALSE(
      writeFile(P.repeatedPath(), OnDisk->data(), OnDisk->size()).isError());
  auto L = loadArtifact(*P.S, "rep");
  expectLoadFails(L, "EFAULT.STORE.DIGEST");
  // The chunk's own check caught it, not only the whole-artifact digest.
  EXPECT_NE(L.error().str().find("chunk " + P.Repeated.hex()),
            std::string::npos)
      << L.error().str();
}

TEST(ArtifactRepeats, DeletedRepeatedChunkIsMissing) {
  RepeatedPool P("rep_del");
  ASSERT_TRUE(P.S.hasValue());
  ASSERT_EQ(::unlink(P.repeatedPath().c_str()), 0);
  auto L = loadArtifact(*P.S, "rep");
  expectLoadFails(L, "EFAULT.STORE.MISSING");
  EXPECT_NE(L.error().str().find(P.Repeated.hex()), std::string::npos);
  EXPECT_EQ(L.error().str().find("quarantine"), std::string::npos);
}

TEST(ArtifactRepeats, QuarantinedRepeatedChunkIsMissingWithNote) {
  RepeatedPool P("rep_quar");
  ASSERT_TRUE(P.S.hasValue());
  ASSERT_FALSE(P.S->quarantineChunk(P.Repeated, "test verdict\n").isError());
  auto L = loadArtifact(*P.S, "rep");
  expectLoadFails(L, "EFAULT.STORE.MISSING");
  EXPECT_NE(L.error().str().find("quarantined"), std::string::npos)
      << L.error().str();
  EXPECT_NE(L.error().str().find("estore repair"), std::string::npos);
}

TEST(ArtifactRepeats, TruncatedRepeatedChunkIsDigestError) {
  RepeatedPool P("rep_trunc");
  ASSERT_TRUE(P.S.hasValue());
  auto OnDisk = readFileBytes(P.repeatedPath());
  ASSERT_TRUE(OnDisk.hasValue());
  ASSERT_FALSE(writeFile(P.repeatedPath(), OnDisk->data(), 4000).isError());
  auto L = loadArtifact(*P.S, "rep");
  expectLoadFails(L, "EFAULT.STORE.DIGEST");
  EXPECT_NE(L.error().str().find("chunk " + P.Repeated.hex()),
            std::string::npos)
      << L.error().str();
}

TEST(ArtifactRepeats, WrongRecordedSizeOfIntactChunkIsManifestError) {
  // Move the boundary between reference I and I+1 by 96 bytes and re-seal:
  // the tiling stays valid and every chunk file is intact, so only the
  // size recorded for reference I disagrees with its chunk. Case 1 is the
  // first reference to the repeated page, case 5 a later one, case 3 a
  // distinct page.
  for (size_t I : {1u, 5u, 3u}) {
    RepeatedPool P("rep_size" + std::to_string(I));
    ASSERT_TRUE(P.S.hasValue());
    Manifest Bad = P.M;
    Bad.Chunks[I].Size -= 96;
    Bad.Chunks[I + 1].Offset -= 96;
    Bad.Chunks[I + 1].Size += 96;
    auto Parsed = Manifest::parse(Bad.render());
    ASSERT_TRUE(Parsed.hasValue()) << Parsed.message();
    ASSERT_FALSE(P.S->putManifest(*Parsed).isError());
    auto L = loadArtifact(*P.S, "rep");
    expectLoadFails(L, "EFAULT.STORE.MANIFEST");
    EXPECT_NE(L.error().str().find(Bad.Chunks[I].Digest.hex()),
              std::string::npos)
        << "reference " << I << ": " << L.error().str();
  }
}

TEST(ArtifactRepeats, FaultHookFlippedReadIsDigestError) {
  RepeatedPool P("rep_hook");
  ASSERT_TRUE(P.S.hasValue());
  ChunkFlipHook Hook;
  setIOFaultHook(&Hook);
  auto L = loadArtifact(*P.S, "rep");
  setIOFaultHook(nullptr);
  expectLoadFails(L, "EFAULT.STORE.DIGEST");
  EXPECT_NE(L.error().str().find("chunk " + P.M.Chunks[0].Digest.hex()),
            std::string::npos)
      << L.error().str();
  EXPECT_GT(Hook.Flips, 0u);

  // Without the hook the same pool loads intact: the flips never reached
  // the files.
  auto Clean = loadArtifact(*P.S, "rep");
  ASSERT_TRUE(Clean.hasValue()) << Clean.message();
  EXPECT_EQ(*Clean, P.Bytes);
}

//===----------------------------------------------------------------------===//
// Reassembly of an artifact with hundreds of distinct chunks
//===----------------------------------------------------------------------===//
//
// Large enough that loadArtifact may spread the chunk reads over helper
// threads. Whatever the threads do, a load returns the ingested bytes or
// the error of the first failing reference in manifest order, and an
// installed IOFaultHook sees the reads of a sequential load.

namespace {

/// 384 pages: every third one the same repeated page, every seventh one
/// of the rest the zero page, all others distinct; then a 1000-byte tail.
std::vector<uint8_t> manyChunkArtifact() {
  auto R = randomBytes(200, 4096);
  std::vector<uint8_t> Zero(4096, 0);
  std::vector<uint8_t> Out;
  uint64_t Seed = 201;
  for (unsigned I = 0; I < 384; ++I) {
    auto Page = I % 3 == 1   ? R
                : I % 7 == 5 ? Zero
                             : randomBytes(Seed++, 4096);
    Out.insert(Out.end(), Page.begin(), Page.end());
  }
  auto Tail = randomBytes(Seed, 1000);
  Out.insert(Out.end(), Tail.begin(), Tail.end());
  return Out;
}

/// A pool holding manyChunkArtifact() as "many", with its distinct digests
/// in first-reference order.
struct ManyChunkPool {
  std::string Dir;
  Expected<ChunkStore> S = makeError("unset");
  std::vector<uint8_t> Bytes;
  Manifest M;
  std::vector<Sha256Digest> Distinct;

  explicit ManyChunkPool(const std::string &Tag)
      : Dir(tempDir(Tag)), S(ChunkStore::open(Dir + "/pool")),
        Bytes(manyChunkArtifact()) {
    EXPECT_TRUE(S.hasValue()) << S.message();
    auto Put = putArtifact(*S, "many", Bytes);
    EXPECT_TRUE(Put.hasValue()) << Put.message();
    M = *Put;
    std::set<Sha256Digest> Seen;
    for (const ChunkRef &C : M.Chunks)
      if (Seen.insert(C.Digest).second)
        Distinct.push_back(C.Digest);
  }
  ~ManyChunkPool() { removeTree(Dir); }

  /// Flips one byte of chunk \p D on disk.
  void flip(const Sha256Digest &D) {
    std::string Path = S->chunkPath(D);
    auto OnDisk = readFileBytes(Path);
    ASSERT_TRUE(OnDisk.hasValue());
    (*OnDisk)[OnDisk->size() / 2] ^= 0x20;
    ASSERT_FALSE(writeFile(Path, OnDisk->data(), OnDisk->size()).isError());
  }
};

/// Records the path of every chunk file read, in order.
class ChunkReadRecorder : public IOFaultHook {
public:
  Error onWrite(const std::string &, std::vector<uint8_t> &) override {
    return Error::success();
  }
  Error onRead(const std::string &Path, std::vector<uint8_t> &) override {
    if (Path.find("/chunks/") != std::string::npos)
      Paths.push_back(Path);
    return Error::success();
  }
  std::vector<std::string> Paths;
};

} // namespace

TEST(ArtifactParallel, LoadIsByteIdentical) {
  ManyChunkPool P("par_ok");
  ASSERT_TRUE(P.S.hasValue());
  ASSERT_EQ(P.M.Chunks.size(), 385u);
  EXPECT_GT(P.Distinct.size(), 200u);
  EXPECT_GE(P.Distinct.size(), 2 * ParallelLoadMinChunks)
      << "too few distinct chunks for the loader's helper threads";
  for (int I = 0; I < 3; ++I) {
    auto L = loadArtifact(*P.S, "many");
    ASSERT_TRUE(L.hasValue()) << L.message();
    EXPECT_EQ(*L, P.Bytes);
  }
}

TEST(ArtifactParallel, FlippedChunkIsDigestErrorNamingIt) {
  ManyChunkPool P("par_flip");
  ASSERT_TRUE(P.S.hasValue());
  // The first, a middle and the last distinct chunk, each corrupted alone.
  for (size_t I : {size_t(0), P.Distinct.size() / 2, P.Distinct.size() - 1}) {
    const Sha256Digest &D = P.Distinct[I];
    auto Good = readFileBytes(P.S->chunkPath(D));
    ASSERT_TRUE(Good.hasValue());
    P.flip(D);
    auto L = loadArtifact(*P.S, "many");
    expectLoadFails(L, "EFAULT.STORE.DIGEST");
    EXPECT_NE(L.error().str().find("chunk " + D.hex()), std::string::npos)
        << "distinct chunk " << I << ": " << L.error().str();
    ASSERT_FALSE(
        writeFile(P.S->chunkPath(D), Good->data(), Good->size()).isError());
  }
  auto Clean = loadArtifact(*P.S, "many");
  ASSERT_TRUE(Clean.hasValue()) << Clean.message();
  EXPECT_EQ(*Clean, P.Bytes);
}

TEST(ArtifactParallel, TwoCorruptChunksAlwaysNameTheEarlier) {
  ManyChunkPool P("par_two");
  ASSERT_TRUE(P.S.hasValue());
  // Neighbours in first-reference order, so concurrent readers are likely
  // to verify both at once.
  size_t Mid = P.Distinct.size() / 2;
  const Sha256Digest &Early = P.Distinct[Mid];
  const Sha256Digest &Late = P.Distinct[Mid + 1];
  P.flip(Early);
  P.flip(Late);
  for (int Run = 0; Run < 50; ++Run) {
    auto L = loadArtifact(*P.S, "many");
    expectLoadFails(L, "EFAULT.STORE.DIGEST");
    EXPECT_NE(L.error().str().find("chunk " + Early.hex()), std::string::npos)
        << "run " << Run << ": " << L.error().str();
    EXPECT_EQ(L.error().str().find(Late.hex()), std::string::npos)
        << "run " << Run << ": " << L.error().str();
  }
}

TEST(ArtifactParallel, DeletedChunkIsMissing) {
  ManyChunkPool P("par_del");
  ASSERT_TRUE(P.S.hasValue());
  const Sha256Digest &D = P.Distinct[P.Distinct.size() / 3];
  ASSERT_EQ(::unlink(P.S->chunkPath(D).c_str()), 0);
  auto L = loadArtifact(*P.S, "many");
  expectLoadFails(L, "EFAULT.STORE.MISSING");
  EXPECT_NE(L.error().str().find(D.hex()), std::string::npos)
      << L.error().str();
}

TEST(ArtifactParallel, FaultHookSeesEachDistinctChunkOnceInOrder) {
  ManyChunkPool P("par_hook");
  ASSERT_TRUE(P.S.hasValue());
  ChunkReadRecorder Hook;
  setIOFaultHook(&Hook);
  auto L = loadArtifact(*P.S, "many");
  setIOFaultHook(nullptr);
  ASSERT_TRUE(L.hasValue()) << L.message();
  EXPECT_EQ(*L, P.Bytes);
  std::vector<std::string> Want;
  for (const Sha256Digest &D : P.Distinct)
    Want.push_back(P.S->chunkPath(D));
  EXPECT_EQ(Hook.Paths, Want);
}

TEST(ArtifactParallel, NonTilingManifestIsManifestError) {
  ManyChunkPool P("par_tile");
  ASSERT_TRUE(P.S.hasValue());
  // A gap, an overlap and a short cover: each fails before any chunk read.
  for (int Case = 0; Case < 3; ++Case) {
    Manifest M = P.M;
    if (Case == 0)
      M.Chunks.erase(M.Chunks.begin() + 10);
    else if (Case == 1)
      M.Chunks[10].Offset -= 1;
    else
      M.Chunks.pop_back();
    ChunkReadRecorder Hook;
    setIOFaultHook(&Hook);
    auto L = loadArtifact(*P.S, M);
    setIOFaultHook(nullptr);
    expectLoadFails(L, "EFAULT.STORE.MANIFEST");
    EXPECT_TRUE(Hook.Paths.empty()) << "case " << Case;
  }
}
