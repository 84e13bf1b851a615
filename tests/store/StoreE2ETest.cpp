//===- tests/store/StoreE2ETest.cpp - estore end-to-end tests -------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Drives the store the way an operator would, as subprocesses: store-backed
/// pinball2elf emission byte-identical with direct emission, cross-region
/// dedup measured over two regions of one workload, a kill-mid-GC sweep
/// (ELFIE_FAULT_SPEC=write:K:kill over `estore gc` — a live chunk is never
/// lost, garbage never survives the follow-up sweep), a kill-mid-put sweep
/// (the same harness over `estore put`: every chunk keeps a GC root and a
/// re-run converges), the efault
/// chunk-corruption campaign (every consumer fails closed with a typed
/// EFAULT.STORE.* code — zero crashes, hangs, or uncoded rejections), and
/// the everify STORE.* pass.
///
/// The efault sweep runs 20 mutations by default; -DELFIE_SLOW_TESTS=ON
/// raises it to 200 (the ISSUE acceptance bar).
///
//===----------------------------------------------------------------------===//

#include "../common/TestHelpers.h"
#include "store/Artifact.h"
#include "store/ChunkStore.h"
#include "support/FileIO.h"
#include "support/Format.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <set>
#include <string>

using namespace elfie;
using namespace elfie::store;

#ifndef ELFIE_BIN_DIR
#define ELFIE_BIN_DIR ""
#endif

#ifdef ELFIE_SLOW_TESTS
static constexpr int FaultRuns = 200;
#else
static constexpr int FaultRuns = 20;
#endif

namespace {

using test::CmdResult;
using test::runCmd;

std::string binPath(const std::string &Tool) {
  return std::string(ELFIE_BIN_DIR) + "/" + Tool;
}

/// Extracts the integer after "\"Key\":" from a one-line JSON blob.
uint64_t jsonInt(const std::string &JSON, const std::string &Key) {
  size_t At = JSON.find("\"" + Key + "\":");
  if (At == std::string::npos)
    return ~0ull;
  return strtoull(JSON.c_str() + At + Key.size() + 3, nullptr, 10);
}

/// Shared fixture: one small workload, two recorded regions (same binary,
/// different instruction windows), built once per process.
class StoreE2E : public testing::Test {
protected:
  static void SetUpTestSuite() {
    Root = testing::TempDir() + "/elfie_store_e2e." +
           std::to_string(getpid());
    removeTree(Root);
    ASSERT_FALSE(createDirectories(Root).isError());

    std::string Src = R"(
_start:
  ldi r9, 0
loop:
  muli r2, r2, 13
  addi r2, r2, 7
  ldi r7, 10
  syscall
  addi r9, r9, 1
  slti r3, r9, 80000
  bnez r3, loop
  ldi r7, 1
  ldi r1, 0
  syscall
)";
    ASSERT_FALSE(writeFileText(Root + "/p.s", Src).isError());
    auto R = runCmd("", formatString("%s -o %s/p.elf %s/p.s",
                                     binPath("easm").c_str(), Root.c_str(),
                                     Root.c_str()));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;
    // Two regions of the same workload: the shape cross-region dedup is
    // built for (shared code/data pages, per-region restoration tables).
    R = runCmd("", formatString("%s -region:start 50000 -region:length "
                                "100000 -log:fat 1 -o %s/ra.pb %s/p.elf",
                                binPath("elogger").c_str(), Root.c_str(),
                                Root.c_str()));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;
    R = runCmd("", formatString("%s -region:start 150000 -region:length "
                                "100000 -log:fat 1 -o %s/rb.pb %s/p.elf",
                                binPath("elogger").c_str(), Root.c_str(),
                                Root.c_str()));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;
  }

  static void TearDownTestSuite() { removeTree(Root); }

  void SetUp() override {
    Dir = Root + "/" +
          testing::UnitTest::GetInstance()->current_test_info()->name();
    removeTree(Dir);
    ASSERT_FALSE(createDirectories(Dir).isError());
  }

  static std::string Root;
  std::string Dir;
};

std::string StoreE2E::Root;

} // namespace

/// Store-backed emission must be byte-identical with direct emission: the
/// pool is a storage detail, never a semantic one.
TEST_F(StoreE2E, StoreBackedEmissionIsByteIdentical) {
  auto R = runCmd("", formatString("%s -o %s/a.direct %s/ra.pb",
                                   binPath("pinball2elf").c_str(),
                                   Dir.c_str(), Root.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  R = runCmd("", formatString("%s -store %s/pool -store-name ra.elfie "
                              "-o %s/a.store %s/ra.pb",
                              binPath("pinball2elf").c_str(), Dir.c_str(),
                              Dir.c_str(), Root.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("via estore"), std::string::npos) << R.Output;

  auto Direct = readFileBytes(Dir + "/a.direct");
  auto Stored = readFileBytes(Dir + "/a.store");
  ASSERT_TRUE(Direct.hasValue());
  ASSERT_TRUE(Stored.hasValue());
  EXPECT_EQ(*Direct, *Stored);

  // And a later `estore get` reproduces the same bytes from chunks alone.
  R = runCmd("", formatString("%s get %s/pool ra.elfie -o %s/a.get",
                              binPath("estore").c_str(), Dir.c_str(),
                              Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  auto Got = readFileBytes(Dir + "/a.get");
  ASSERT_TRUE(Got.hasValue());
  EXPECT_EQ(*Got, *Direct);
}

/// Two regions of one workload into one pool: the pool must be measurably
/// smaller than the artifacts stored naively (the ISSUE acceptance bar for
/// cross-region dedup).
TEST_F(StoreE2E, CrossRegionEmissionDedups) {
  for (const char *PB : {"ra.pb", "rb.pb"}) {
    auto R = runCmd(
        "", formatString("%s -store %s/pool -o %s/%s.elfie %s/%s",
                         binPath("pinball2elf").c_str(), Dir.c_str(),
                         Dir.c_str(), PB, Root.c_str(), PB));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;
  }
  auto R = runCmd("", formatString("%s stats %s/pool -json",
                                   binPath("estore").c_str(), Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  uint64_t ChunkBytes = jsonInt(R.Output, "chunk_bytes");
  uint64_t ArtifactBytes = jsonInt(R.Output, "artifact_bytes");
  ASSERT_NE(ChunkBytes, ~0ull) << R.Output;
  ASSERT_NE(ArtifactBytes, ~0ull) << R.Output;
  EXPECT_GT(ArtifactBytes, 0u);
  // Measurable dedup: the pool holds strictly less than two full copies.
  EXPECT_LT(ChunkBytes, ArtifactBytes) << R.Output;
}

/// SIGKILL `estore gc` at every early journal write (the fault harness's
/// kill op lands on the pool's own fsync'd gc.journal appends). Invariants
/// after every kill point: reopening recovers; every surviving manifest
/// still loads byte-identical (a live chunk is NEVER lost); the next gc
/// sweeps the garbage fully (a dead chunk never survives recovery + one
/// sweep).
TEST_F(StoreE2E, KillMidGcNeverLosesLiveNeverLeaksDead) {
  // Pool with two live artifacts and garbage: an unreferenced orphan chunk
  // plus a whole retired artifact.
  std::string PoolDir = Dir + "/pool";
  auto Keep1 = readFileBytes(Root + "/p.elf");
  auto Keep2 = readFileBytes(Root + "/ra.pb/image.text");
  ASSERT_TRUE(Keep1.hasValue());
  ASSERT_TRUE(Keep2.hasValue());
  {
    auto S = ChunkStore::open(PoolDir);
    ASSERT_TRUE(S.hasValue()) << S.message();
    ASSERT_TRUE(putArtifact(*S, "keep1", *Keep1).hasValue());
    ASSERT_TRUE(putArtifact(*S, "keep2", *Keep2).hasValue());
    ASSERT_TRUE(putArtifact(*S, "dead", *Keep2).hasValue());
    // Retiring "dead" strands only chunks keep2 does not share — which is
    // none (same bytes), so add distinct orphans too.
    ASSERT_FALSE(S->removeManifest("dead").isError());
    std::vector<uint8_t> Orphan(8192, 0x5a);
    for (size_t I = 0; I < Orphan.size(); ++I)
      Orphan[I] ^= static_cast<uint8_t>(I);
    ASSERT_TRUE(S->put(Orphan).hasValue());
  }

  std::set<std::string> LiveHex;
  {
    auto S = ChunkStore::open(PoolDir, /*Create=*/false);
    ASSERT_TRUE(S.hasValue());
    for (const char *Name : {"keep1", "keep2"}) {
      auto M = S->getManifest(Name);
      ASSERT_TRUE(M.hasValue()) << M.message();
      for (const ChunkRef &C : M->Chunks)
        LiveHex.insert(C.Digest.hex());
    }
  }
  ASSERT_FALSE(LiveHex.empty());

  bool SawKill = false;
  for (int KillAt = 1; KillAt <= 12; ++KillAt) {
    std::string Copy = Dir + formatString("/pool.k%d", KillAt);
    auto R = runCmd("", formatString("cp -r %s %s", PoolDir.c_str(),
                                     Copy.c_str()));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;

    R = runCmd(formatString("ELFIE_FAULT_SPEC=write:%d:kill", KillAt),
               formatString("%s gc %s", binPath("estore").c_str(),
                            Copy.c_str()));
    // Either the kill landed (97) or the sweep finished under it.
    ASSERT_TRUE(R.ExitCode == 97 || R.ExitCode == 0)
        << "kill point " << KillAt << ": " << R.Output;
    SawKill |= R.ExitCode == 97;

    // Reopen (runs crash recovery) and check both invariants.
    auto S = ChunkStore::open(Copy, /*Create=*/false);
    ASSERT_TRUE(S.hasValue()) << "kill " << KillAt << ": " << S.message();
    auto L1 = loadArtifact(*S, "keep1");
    auto L2 = loadArtifact(*S, "keep2");
    ASSERT_TRUE(L1.hasValue()) << "kill " << KillAt << ": " << L1.message();
    ASSERT_TRUE(L2.hasValue()) << "kill " << KillAt << ": " << L2.message();
    EXPECT_EQ(*L1, *Keep1) << "kill " << KillAt;
    EXPECT_EQ(*L2, *Keep2) << "kill " << KillAt;

    // A clean follow-up sweep leaves exactly the live set — no orphaned
    // garbage, no trash litter.
    auto G = S->gc();
    ASSERT_TRUE(G.hasValue()) << "kill " << KillAt << ": " << G.message();
    auto Chunks = S->listChunks();
    ASSERT_TRUE(Chunks.hasValue());
    std::set<std::string> AfterHex;
    for (const Sha256Digest &D : *Chunks)
      AfterHex.insert(D.hex());
    EXPECT_EQ(AfterHex, LiveHex) << "kill " << KillAt;
    auto Trash = listDirectory(Copy + "/trash");
    ASSERT_TRUE(Trash.hasValue());
    EXPECT_TRUE(Trash->empty()) << "kill " << KillAt;

    removeTree(Copy);
  }
  EXPECT_TRUE(SawKill) << "no kill point landed — sweep tested nothing";
}

/// SIGKILL `estore put` at every write it makes (pin journal record, chunk
/// publication, manifest, seal) until one put completes. The artifact
/// shares chunks with the pool, references the zero page six times and
/// brings new chunks. Invariants after every kill point: reopening
/// recovers; every chunk the killed put left behind is referenced by a
/// manifest or covered by an active pin; every manifest published before
/// the put still loads byte-identical; re-running the put converges to the
/// manifest a clean put writes; one gc then keeps exactly the referenced
/// chunks.
TEST_F(StoreE2E, KillMidPutConvergesAndKeepsEveryChunkRooted) {
  std::string PoolDir = Dir + "/pool";
  auto Keep1 = readFileBytes(Root + "/p.elf");
  auto Keep2 = readFileBytes(Root + "/ra.pb/image.text");
  ASSERT_TRUE(Keep1.hasValue());
  ASSERT_TRUE(Keep2.hasValue());
  ASSERT_GE(Keep2->size(), 8192u);
  {
    auto S = ChunkStore::open(PoolDir);
    ASSERT_TRUE(S.hasValue()) << S.message();
    ASSERT_TRUE(putArtifact(*S, "keep1", *Keep1).hasValue());
    ASSERT_TRUE(putArtifact(*S, "keep2", *Keep2).hasValue());
  }

  std::vector<uint8_t> New(Keep2->begin(), Keep2->begin() + 8192);
  New.resize(New.size() + 6 * 4096, 0);
  for (uint32_t I = 0; I < 3 * 4096 + 100; ++I)
    New.push_back(static_cast<uint8_t>((I * 2654435761u) >> 13));
  New.insert(New.end() - 100, Keep2->begin(), Keep2->begin() + 4096);
  std::string NewPath = Dir + "/new.bin";
  ASSERT_FALSE(writeFile(NewPath, New.data(), New.size()).isError());
  std::string Put = formatString("%s put %%s %s -name new.bin",
                                 binPath("estore").c_str(), NewPath.c_str());

  // The manifest a clean put publishes.
  std::string Want;
  {
    std::string Clean = Dir + "/pool.clean";
    auto R = runCmd("", formatString("cp -r %s %s", PoolDir.c_str(),
                                     Clean.c_str()));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;
    R = runCmd("", formatString(Put.c_str(), Clean.c_str()));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;
    auto Text = readFileText(Clean + "/manifests/new.bin");
    ASSERT_TRUE(Text.hasValue());
    Want = *Text;
    removeTree(Clean);
  }

  bool SawKill = false, Completed = false;
  for (int KillAt = 1; KillAt <= 200 && !Completed; ++KillAt) {
    std::string Copy = Dir + formatString("/pool.k%d", KillAt);
    auto R = runCmd("", formatString("cp -r %s %s", PoolDir.c_str(),
                                     Copy.c_str()));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;

    R = runCmd(formatString("ELFIE_FAULT_SPEC=write:%d:kill", KillAt),
               formatString(Put.c_str(), Copy.c_str()));
    ASSERT_TRUE(R.ExitCode == 97 || R.ExitCode == 0)
        << "kill point " << KillAt << ": " << R.Output;
    SawKill |= R.ExitCode == 97;
    Completed = R.ExitCode == 0;

    auto S = ChunkStore::open(Copy, /*Create=*/false);
    ASSERT_TRUE(S.hasValue()) << "kill " << KillAt << ": " << S.message();

    // No chunk without a GC root, even mid-put.
    std::set<std::string> Rooted;
    auto Names = S->listManifests();
    ASSERT_TRUE(Names.hasValue());
    for (const std::string &Name : *Names) {
      auto M = S->getManifest(Name);
      ASSERT_TRUE(M.hasValue()) << "kill " << KillAt << ": " << M.message();
      for (const ChunkRef &C : M->Chunks)
        Rooted.insert(C.Digest.hex());
    }
    auto Pins = S->activePins();
    ASSERT_TRUE(Pins.hasValue());
    for (const auto &[Owner, Digests] : *Pins)
      Rooted.insert(Digests.begin(), Digests.end());
    auto Chunks = S->listChunks();
    ASSERT_TRUE(Chunks.hasValue());
    for (const Sha256Digest &D : *Chunks)
      EXPECT_TRUE(Rooted.count(D.hex()))
          << "kill " << KillAt << ": chunk " << D.hex() << " has no root";

    auto L1 = loadArtifact(*S, "keep1");
    auto L2 = loadArtifact(*S, "keep2");
    ASSERT_TRUE(L1.hasValue()) << "kill " << KillAt << ": " << L1.message();
    ASSERT_TRUE(L2.hasValue()) << "kill " << KillAt << ": " << L2.message();
    EXPECT_EQ(*L1, *Keep1) << "kill " << KillAt;
    EXPECT_EQ(*L2, *Keep2) << "kill " << KillAt;

    R = runCmd("", formatString(Put.c_str(), Copy.c_str()));
    ASSERT_EQ(R.ExitCode, 0) << "kill " << KillAt << ": " << R.Output;
    auto Text = readFileText(Copy + "/manifests/new.bin");
    ASSERT_TRUE(Text.hasValue());
    EXPECT_EQ(*Text, Want) << "kill " << KillAt;
    auto LN = loadArtifact(*S, "new.bin");
    ASSERT_TRUE(LN.hasValue()) << "kill " << KillAt << ": " << LN.message();
    EXPECT_EQ(*LN, New) << "kill " << KillAt;

    // The re-run sealed its pins: one sweep keeps exactly the chunks the
    // three manifests reference.
    auto G = S->gc();
    ASSERT_TRUE(G.hasValue()) << "kill " << KillAt << ": " << G.message();
    std::set<std::string> Referenced;
    for (const char *Name : {"keep1", "keep2", "new.bin"}) {
      auto M = S->getManifest(Name);
      ASSERT_TRUE(M.hasValue()) << M.message();
      for (const ChunkRef &C : M->Chunks)
        Referenced.insert(C.Digest.hex());
    }
    Chunks = S->listChunks();
    ASSERT_TRUE(Chunks.hasValue());
    std::set<std::string> AfterHex;
    for (const Sha256Digest &D : *Chunks)
      AfterHex.insert(D.hex());
    EXPECT_EQ(AfterHex, Referenced) << "kill " << KillAt;
    for (const char *Name : {"keep1", "keep2", "new.bin"})
      EXPECT_TRUE(loadArtifact(*S, Name).hasValue())
          << "kill " << KillAt << ": " << Name;

    removeTree(Copy);
  }
  EXPECT_TRUE(SawKill) << "no kill point landed: sweep tested nothing";
  EXPECT_TRUE(Completed) << "no put completed within 200 kill points";
}

/// The seeded chunk-corruption campaign: every mutation of the pool must be
/// rejected by every consumer with a typed EFAULT.STORE.* code — zero
/// crashes, zero hangs, zero uncoded failures (the fail-closed acceptance
/// bar). Runs 200 seeds under ELFIE_SLOW_TESTS, 20 by default.
TEST_F(StoreE2E, EfaultChunkCorruptionSweepFailsClosed) {
  std::string PoolDir = Dir + "/pool";
  for (const char *PB : {"ra.pb", "rb.pb"}) {
    auto R = runCmd(
        "", formatString("%s -store %s -o %s/%s.elfie %s/%s",
                         binPath("pinball2elf").c_str(), PoolDir.c_str(),
                         Dir.c_str(), PB, Root.c_str(), PB));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;
  }

  auto R = runCmd("",
                  formatString("%s -runs %d -seed 1 -json -scratch "
                               "%s/scratch %s",
                               binPath("efault").c_str(), FaultRuns,
                               Dir.c_str(), PoolDir.c_str()));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("\"kind\":\"store\""), std::string::npos)
      << R.Output;
  EXPECT_EQ(jsonInt(R.Output, "failures"), 0u) << R.Output;
  EXPECT_EQ(jsonInt(R.Output, "crashes"), 0u) << R.Output;
  EXPECT_EQ(jsonInt(R.Output, "hangs"), 0u) << R.Output;
  // The rejections actually exercised the store taxonomy: most seeds flip
  // a chunk byte (DIGEST), a minority a manifest byte (SEAL path).
  EXPECT_GT(jsonInt(R.Output, "digest"), 0u) << R.Output;
}

/// The everify STORE.* pass: green on a healthy pool, typed STORE.DIGEST
/// finding (exit 1) once a chunk is corrupted behind the pool's back.
TEST_F(StoreE2E, EverifyStorePassDetectsPoolCorruption) {
  std::string PoolDir = Dir + "/pool";
  auto R = runCmd("", formatString("%s -store %s -store-name r.elfie "
                                   "-o %s/r.elfie %s/ra.pb",
                                   binPath("pinball2elf").c_str(),
                                   PoolDir.c_str(), Dir.c_str(),
                                   Root.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;

  R = runCmd("", formatString("%s -store %s -store-name r.elfie "
                              "-pinball %s/ra.pb %s/r.elfie",
                              binPath("everify").c_str(), PoolDir.c_str(),
                              Root.c_str(), Dir.c_str()));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("STORE.SUMMARY"), std::string::npos) << R.Output;

  // Flip one byte of one chunk behind the pool's back.
  auto S = ChunkStore::open(PoolDir, /*Create=*/false);
  ASSERT_TRUE(S.hasValue());
  auto Chunks = S->listChunks();
  ASSERT_TRUE(Chunks.hasValue());
  ASSERT_FALSE(Chunks->empty());
  std::string Path = S->chunkPath((*Chunks)[Chunks->size() / 2]);
  auto Bytes = readFileBytes(Path);
  ASSERT_TRUE(Bytes.hasValue());
  (*Bytes)[Bytes->size() / 2] ^= 0x10;
  ASSERT_FALSE(writeFile(Path, Bytes->data(), Bytes->size()).isError());

  std::string Everify = formatString(
      "%s -store %s -store-name r.elfie -pinball %s/ra.pb %s/r.elfie",
      binPath("everify").c_str(), PoolDir.c_str(), Root.c_str(),
      Dir.c_str());
  R = runCmd("", Everify);
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("STORE.DIGEST"), std::string::npos) << R.Output;

  // The same chunk deleted instead: a missing chunk, not a bad digest.
  ASSERT_EQ(::unlink(Path.c_str()), 0);
  R = runCmd("", Everify);
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("error STORE.MISSING"), std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("STORE.DIGEST"), std::string::npos) << R.Output;
}

/// A put whose pin record is torn by a short write (the append returns
/// success with only a prefix on disk) must still retire its pins: the
/// seal record starts on a fresh line, so journal replay sees it.
TEST_F(StoreE2E, TornPinRecordDoesNotSwallowTheSeal) {
  std::string PoolDir = Dir + "/pool";
  {
    auto S = ChunkStore::open(PoolDir);
    ASSERT_TRUE(S.hasValue()) << S.message();
    auto Keep = readFileBytes(Root + "/p.elf");
    ASSERT_TRUE(Keep.hasValue());
    ASSERT_TRUE(putArtifact(*S, "keep", *Keep).hasValue());
  }
  // 120 distinct pages: a pin record long enough that the short write
  // keeps some whole pin lines.
  std::vector<uint8_t> New;
  for (uint32_t I = 0; I < 120 * 4096; ++I)
    New.push_back(static_cast<uint8_t>((I * 2654435761u) >> 11));
  std::string NewPath = Dir + "/new.bin";
  ASSERT_FALSE(writeFile(NewPath, New.data(), New.size()).isError());

  // In an existing pool the put's first write is its pin record.
  auto R = runCmd("ELFIE_FAULT_SPEC=write:1:short",
                  formatString("%s put %s %s -json",
                               binPath("estore").c_str(), PoolDir.c_str(),
                               NewPath.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  auto Journal = readFileText(PoolDir + "/gc.journal");
  ASSERT_TRUE(Journal.hasValue());
  std::vector<std::string> Lines = splitString(*Journal, '\n');
  size_t WholePins = 0;
  for (const std::string &L : Lines)
    WholePins += L.starts_with("pin new.bin ") && L.size() == 12 + 64;
  ASSERT_GT(WholePins, 0u) << *Journal;
  ASSERT_LT(WholePins, 120u) << "the pin record was not torn";
  ASSERT_GE(Lines.size(), 2u);
  EXPECT_EQ(Lines[Lines.size() - 2], "seal new.bin") << *Journal;

  R = runCmd("", formatString("%s stats %s -json", binPath("estore").c_str(),
                              PoolDir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(jsonInt(R.Output, "active_pins"), 0u) << R.Output;
  auto S = ChunkStore::open(PoolDir);
  ASSERT_TRUE(S.hasValue()) << S.message();
  auto L = loadArtifact(*S, "new.bin");
  ASSERT_TRUE(L.hasValue()) << L.message();
  EXPECT_EQ(*L, New);
}

/// `estore put` reports the chunk bytes the put added to the pool: all of
/// a new artifact's distinct bytes, none for a re-put.
TEST_F(StoreE2E, PutReportsNewBytesAndRePutReportsZero) {
  std::string PoolDir = Dir + "/pool";
  std::vector<uint8_t> A;
  for (uint32_t I = 0; I < 5 * 4096 + 100; ++I)
    A.push_back(static_cast<uint8_t>((I * 2654435761u) >> 9));
  std::string APath = Dir + "/a.bin";
  ASSERT_FALSE(writeFile(APath, A.data(), A.size()).isError());
  std::string Put = binPath("estore") + " put " + PoolDir + " " + APath +
                    " -json";
  auto R = runCmd("", Put);
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(jsonInt(R.Output, "new_bytes"), A.size()) << R.Output;
  R = runCmd("", Put);
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(jsonInt(R.Output, "new_bytes"), 0u) << R.Output;
  R = runCmd("", Put + " -name again");
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(jsonInt(R.Output, "new_bytes"), 0u) << R.Output;
  R = runCmd("", binPath("estore") + " put " + PoolDir + " " + APath);
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find(", 0 new pool bytes,"), std::string::npos)
      << R.Output;
}
