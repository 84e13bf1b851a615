//===- tests/sim/SimStateTest.cpp - warmup-checkpoint suite ---------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The warmup-checkpoint acceptance suite (ctest label `simstate`):
///
///  * per-component saveState/loadState round trips (LRU order, gshare
///    history, BTB entries, nested CoreState)
///  * the EFAULT.SIMSTATE.* fail-closed taxonomy on corrupted sidecars
///  * cold-vs-save-vs-resume SimStats **bit-identity** on every example
///    pipeline (single-thread ELFie, interp + JIT, clock syscalls, MT
///    ELFie, constrained + unconstrained pinball replay)
///  * a multi-threaded ELFie and free pinball on one core resume to the
///    cold run's SimStats (every run splits the engine at the boundary)
///  * the warm mirror: a warming model leaves every structure exactly as
///    a measuring one fed the same events does, charges nothing and runs
///    no synthetic kernel
///  * the checkpoint-index regression pin: the boundary lands on the same
///    global retired index across the interpreted save, JIT save, and
///    resume paths (the PR-6 fast-forward off-by-one class).
///
//===----------------------------------------------------------------------===//

#include "sim/SimState.h"

#include "../common/TestHelpers.h"
#include "WorkloadRegion.h"
#include "core/Pinball2Elf.h"
#include "easm/Assembler.h"
#include "sim/BranchPredictor.h"
#include "sim/Cache.h"
#include "sim/Frontend.h"
#include "store/Artifact.h"
#include "support/RNG.h"
#include "support/Sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

using namespace elfie;
using namespace elfie::sim;

namespace {

using test::renameAndReseal;

std::string tempDir(const std::string &Name) {
  std::string D = testing::TempDir() + "/elfie_simstate_" + Name;
  removeTree(D);
  createDirectories(D);
  return D;
}

template <class Component>
std::vector<uint8_t> componentBytes(const Component &C) {
  BinaryWriter W;
  StateWriter SW(W);
  C.saveState(SW);
  return W.bytes();
}

template <class Component>
Error componentLoad(Component &C, const std::vector<uint8_t> &Bytes) {
  BinaryReader R(Bytes.data(), Bytes.size());
  StateReader SR(R);
  if (Error E = C.loadState(SR))
    return E;
  if (R.hadError() || !R.atEnd())
    return makeError("payload size mismatch");
  return Error::success();
}

/// Canonical byte form of a SimStats value: the bit-identity comparator
/// for the cold-vs-resume suite.
std::vector<uint8_t> statsBytes(const SimStats &S) {
  BinaryWriter W;
  StateWriter SW(W);
  S.save(SW);
  return W.bytes();
}

// ---- Per-component round trips ----

TEST(SimComponentRoundTrip, CachePreservesLRUOrder) {
  // 2-way, 2 sets: lines 0/128/256 all map to set 0.
  Cache A(256, 2);
  A.access(0, false);
  A.access(128, false);
  A.access(0, false); // refresh 0: LRU victim is now 128

  Cache B(256, 2);
  ASSERT_FALSE(componentLoad(B, componentBytes(A)).isError());
  EXPECT_EQ(componentBytes(B), componentBytes(A));
  EXPECT_TRUE(B.contains(0));
  EXPECT_TRUE(B.contains(128));

  // The restored cache must evict the same victim the original would.
  EXPECT_EQ(B.access(256, false), A.access(256, false));
  EXPECT_TRUE(B.contains(0));
  EXPECT_FALSE(B.contains(128)) << "LRU order lost in the round trip";
  EXPECT_TRUE(B.contains(256));
  EXPECT_EQ(componentBytes(B), componentBytes(A))
      << "restored cache must re-serialize bit-identically";
}

TEST(SimComponentRoundTrip, CacheGeometryMismatchFailsClosed) {
  Cache A(256, 2);
  A.access(0, false);
  Cache Bigger(512, 2);
  Error E = componentLoad(Bigger, componentBytes(A));
  ASSERT_TRUE(E.isError());
  EXPECT_EQ(E.code(), "EFAULT.SIMSTATE.COMPONENT") << E.str();
  Cache WrongAssoc(256, 4);
  EXPECT_EQ(componentLoad(WrongAssoc, componentBytes(A)).code(),
            "EFAULT.SIMSTATE.COMPONENT");

  // Set 0's valid count (the u32 after line size, ways and sets) set to
  // one more than the ways.
  std::vector<uint8_t> Hostile = componentBytes(A);
  Hostile[12] = 3;
  Cache Same(256, 2);
  E = componentLoad(Same, Hostile);
  EXPECT_EQ(E.code(), "EFAULT.SIMSTATE.COMPONENT");
  EXPECT_NE(E.str().find("set 0 holds 3 lines, more than its 2 ways"),
            std::string::npos)
      << E.str();
}

TEST(SimComponentRoundTrip, TLBRoundTripAndPageMismatch) {
  Cache A(16 * TLBPageSize, TLBAssoc, TLBPageSize);
  A.access(0x1000, false);
  A.access(0x2000, false);
  A.access(0x1fff, false);
  Cache B(16 * TLBPageSize, TLBAssoc, TLBPageSize);
  ASSERT_FALSE(componentLoad(B, componentBytes(A)).isError());
  EXPECT_EQ(componentBytes(B), componentBytes(A));
  EXPECT_TRUE(B.access(0x1000, false)) << "restored translation must hit";
  EXPECT_TRUE(B.access(0x2000, false)) << "restored translation must hit";

  // The same number of entries over 2 MiB pages: a line-size mismatch.
  const uint32_t HugePage = 2 * 1024 * 1024;
  Cache HugePages(16ull * HugePage, TLBAssoc, HugePage);
  EXPECT_EQ(componentLoad(HugePages, componentBytes(A)).code(),
            "EFAULT.SIMSTATE.COMPONENT");
}

TEST(SimComponentRoundTrip, GShareHistoryAndCounters) {
  GSharePredictor A(10);
  // Alternating pattern builds non-trivial history + counter state.
  for (int I = 0; I < 200; ++I)
    A.predictAndUpdate(0x1000 + 8 * (I % 7), (I & 1) != 0);

  GSharePredictor B(10);
  ASSERT_FALSE(componentLoad(B, componentBytes(A)).isError());
  EXPECT_EQ(B.history(), A.history());
  EXPECT_EQ(componentBytes(B), componentBytes(A));
  // Both must predict identically from here on.
  for (int I = 0; I < 100; ++I) {
    bool Taken = (I % 3) == 0;
    EXPECT_EQ(B.predictAndUpdate(0x2000, Taken),
              A.predictAndUpdate(0x2000, Taken))
        << "divergence at post-restore branch " << I;
  }

  GSharePredictor WrongBits(11);
  EXPECT_EQ(componentLoad(WrongBits, componentBytes(A)).code(),
            "EFAULT.SIMSTATE.COMPONENT");
}

TEST(SimComponentRoundTrip, BTBEntries) {
  BTB A(8);
  A.predictAndUpdate(0x100, 0x500);
  A.predictAndUpdate(0x108, 0x900);
  BTB B(8);
  ASSERT_FALSE(componentLoad(B, componentBytes(A)).isError());
  EXPECT_EQ(componentBytes(B), componentBytes(A));
  EXPECT_TRUE(B.predictAndUpdate(0x100, 0x500));
  EXPECT_TRUE(B.predictAndUpdate(0x108, 0x900));
  EXPECT_FALSE(B.predictAndUpdate(0x100, 0x600)) << "a new target misses";

  BTB WrongBits(9);
  EXPECT_EQ(componentLoad(WrongBits, componentBytes(A)).code(),
            "EFAULT.SIMSTATE.COMPONENT");
}

TEST(SimComponentRoundTrip, CoreStateNestsAllParts) {
  CoreConfig Cfg;
  CoreState A(Cfg);
  // Touch every nested component plus the scalar bookkeeping.
  A.BP.predictAndUpdate(0x40, true);
  A.Btb.predictAndUpdate(0x48, 0x1000);
  A.L1I.access(0x2000, false);
  A.L1D.access(0x3000, true);
  A.L2.access(0x3000, true);
  A.Dtlb.access(0x3000, false);
  A.Itlb.access(0x2000, false);
  A.LastFetchLine = 0x2000 / CacheLineSize;

  CoreState B(Cfg);
  ASSERT_FALSE(componentLoad(B, componentBytes(A)).isError());
  EXPECT_EQ(B.LastFetchLine, A.LastFetchLine);
  EXPECT_EQ(componentBytes(B), componentBytes(A));
}

// ---- Sidecar format: fail-closed taxonomy ----

/// Puts a little state into every component, for container tests.
/// (TimingModel is non-movable, so the caller owns the instance.)
void trainModel(TimingModel &Model) {
  for (uint64_t I = 0; I < 64; ++I) {
    Model.instruction(0, 0x1000 + 8 * I);
    Model.memoryAccess(0, 0x8000 + 64 * I, 8, (I & 1) != 0);
    Model.controlTransfer(0, 0x1000 + 8 * I, 0x1000, (I & 3) != 0, false);
  }
}

SimStateMeta testMeta(const MachineConfig &M) {
  SimStateMeta Meta;
  Meta.ConfigName = M.Name;
  Meta.ConfigFP = configFingerprint(M);
  Meta.InputDigest = Sha256::digest("input", 5);
  Meta.WarmupInstructions = 64;
  Meta.CheckpointRetired = 164;
  Meta.DetailedBudget = 1000;
  return Meta;
}

/// Applies \p Fn to the sidecar bytes and writes them back.
void mutateFile(const std::string &Path,
                const std::function<void(std::vector<uint8_t> &)> &Fn) {
  auto Bytes = readFileBytes(Path);
  ASSERT_TRUE(Bytes.hasValue()) << Bytes.message();
  Fn(*Bytes);
  ASSERT_FALSE(
      writeFileAtomic(Path, Bytes->data(), Bytes->size()).isError());
}

/// Recomputes the trailing seal after an intentional header mutation, so
/// the test reaches the check *behind* the seal.
void reseal(std::vector<uint8_t> &Bytes) {
  ASSERT_GE(Bytes.size(), 32u);
  Sha256Digest Seal = Sha256::digest(Bytes.data(), Bytes.size() - 32);
  std::copy(Seal.Bytes.begin(), Seal.Bytes.end(), Bytes.end() - 32);
}

/// A sidecar of a trained model, written and read the way esim writes and
/// resumes one.
struct SidecarFixture {
  std::string Dir, Path;
  MachineConfig Machine = makeNehalemLike();
  SimStateMeta Meta;

  explicit SidecarFixture(const std::string &Name) {
    Dir = tempDir(Name);
    Path = Dir + "/region.elfie.esimstate";
    Meta = testMeta(Machine);
    TimingModel Model(Machine);
    trainModel(Model);
    Error E = writeSimState(Path, Meta, encodeSimStateComponents(Model));
    EXPECT_FALSE(E.isError()) << E.str();
  }

  /// The code of the first check that fails when the sidecar is opened,
  /// checked against \p M and \p Digest and applied; "" when none does.
  std::string loadCode(const MachineConfig &M, const Sha256Digest &Digest) {
    auto File = SimStateFile::open(Path);
    if (!File)
      return File.takeError().code();
    if (Error E = File->checkConfig(M))
      return E.code();
    if (Error E = File->checkInput(Digest))
      return E.code();
    TimingModel Fresh(M);
    Error E = File->apply(Fresh);
    return E ? E.code() : std::string();
  }
  std::string loadCode() { return loadCode(Machine, Meta.InputDigest); }
};

TEST(SimStateFile, RoundTripRestoresEveryComponent) {
  SidecarFixture F("roundtrip");
  auto File = SimStateFile::open(F.Path);
  ASSERT_TRUE(File.hasValue()) << File.message();
  ASSERT_FALSE(File->checkConfig(F.Machine).isError());
  ASSERT_FALSE(File->checkInput(F.Meta.InputDigest).isError());
  TimingModel Restored(F.Machine);
  Error E = File->apply(Restored);
  ASSERT_FALSE(E.isError()) << E.str();
  const SimStateMeta &Meta = File->meta();
  EXPECT_EQ(Meta.WarmupInstructions, 64u);
  EXPECT_EQ(Meta.CheckpointRetired, 164u);
  EXPECT_EQ(Meta.DetailedBudget, 1000u);

  // Re-serializing the restored model under the same meta must reproduce
  // the sidecar byte for byte.
  std::string Path2 = F.Dir + "/resaved.esimstate";
  ASSERT_FALSE(
      writeSimState(Path2, Meta, encodeSimStateComponents(Restored))
          .isError());
  auto A = readFileBytes(F.Path);
  auto B = readFileBytes(Path2);
  ASSERT_TRUE(A.hasValue() && B.hasValue());
  EXPECT_EQ(*A, *B);
}

TEST(SimStateFile, InspectReportsComponentTable) {
  SidecarFixture F("inspect");
  auto File = SimStateFile::open(F.Path);
  // open() succeeds only at this build's format version.
  ASSERT_TRUE(File.hasValue()) << File.message();
  EXPECT_EQ(File->meta().ConfigName, "nehalem");
  ASSERT_EQ(File->numComponents(), 2u) << "core0 + l3";
  EXPECT_EQ(File->componentId(0), "core0");
  EXPECT_EQ(File->componentId(1), "l3");
  for (size_t I = 0; I < File->numComponents(); ++I)
    EXPECT_GT(File->payloadBytes(I), 0u);
}

TEST(SimStateFile, BadMagicRejected) {
  SidecarFixture F("magic");
  mutateFile(F.Path, [](std::vector<uint8_t> &B) { B[0] ^= 0xFF; });
  EXPECT_EQ(F.loadCode(), "EFAULT.SIMSTATE.MAGIC");
}

TEST(SimStateFile, UnsupportedVersionRejected) {
  SidecarFixture F("version");
  mutateFile(F.Path, [](std::vector<uint8_t> &B) {
    B[8] = 99; // u32 format version sits right after the 8-byte magic
    reseal(B);
  });
  EXPECT_EQ(F.loadCode(), "EFAULT.SIMSTATE.VERSION");
}

TEST(SimStateFile, TruncationRejected) {
  SidecarFixture F("trunc");
  mutateFile(F.Path, [](std::vector<uint8_t> &B) { B.pop_back(); });
  EXPECT_EQ(F.loadCode(), "EFAULT.SIMSTATE.TRUNCATED");

  SidecarFixture F2("trunchalf");
  mutateFile(F2.Path,
             [](std::vector<uint8_t> &B) { B.resize(B.size() / 2); });
  EXPECT_EQ(F2.loadCode(), "EFAULT.SIMSTATE.TRUNCATED");
}

TEST(SimStateFile, TrailingGarbageRejected) {
  SidecarFixture F("trailing");
  mutateFile(F.Path, [](std::vector<uint8_t> &B) { B.push_back(0xAB); });
  EXPECT_EQ(F.loadCode(), "EFAULT.SIMSTATE.TRUNCATED");
}

TEST(SimStateFile, SealMismatchRejected) {
  SidecarFixture F("seal");
  mutateFile(F.Path, [](std::vector<uint8_t> &B) {
    B[B.size() / 2] ^= 0x01; // single bit flip in a component payload
  });
  EXPECT_EQ(F.loadCode(), "EFAULT.SIMSTATE.SEAL");
}

TEST(SimStateFile, ConfigMismatchRejected) {
  SidecarFixture F("config");
  EXPECT_EQ(F.loadCode(makeHaswellLike(), F.Meta.InputDigest),
            "EFAULT.SIMSTATE.CONFIG");
}

TEST(SimStateFile, InputDigestMismatchRejected) {
  SidecarFixture F("input");
  EXPECT_EQ(F.loadCode(F.Machine, Sha256::digest("other", 5)),
            "EFAULT.SIMSTATE.INPUT");
}

TEST(SimStateFile, ComponentIdMismatchRejected) {
  SidecarFixture F("component");
  mutateFile(F.Path, [](std::vector<uint8_t> &B) {
    // Corrupt the "core0" component id in place, then reseal so the load
    // reaches the component-table check.
    renameAndReseal(B, "core0", "xore0");
  });
  EXPECT_EQ(F.loadCode(), "EFAULT.SIMSTATE.COMPONENT");
}

// A sidecar written before the caches kept their tags in recency order
// carries payload version 1 for each core and the L3: it is refused, not
// read as the new arrays.
TEST(SimStateFile, VersionOnePayloadsRejected) {
  SidecarFixture F("payloadv1");
  auto Saved = readFileBytes(F.Path);
  ASSERT_TRUE(Saved.hasValue()) << Saved.message();
  for (auto [Id, Reads] : {std::pair<const char *, uint32_t>{
                               "core0", CoreState::StateVersion},
                           {"l3", Cache::StateVersion}}) {
    SCOPED_TRACE(Id);
    mutateFile(F.Path, [&](std::vector<uint8_t> &B) {
      test::resealU32After(B, Id, 0, 1);
    });
    auto File = SimStateFile::open(F.Path);
    ASSERT_TRUE(File.hasValue()) << File.message();
    TimingModel Fresh(F.Machine);
    Error E = File->apply(Fresh);
    EXPECT_EQ(E.code(), "EFAULT.SIMSTATE.VERSION");
    EXPECT_NE(E.str().find("component '" + std::string(Id) +
                           "' has payload version 1, this build reads " +
                           std::to_string(Reads)),
              std::string::npos)
        << E.str();
    ASSERT_FALSE(
        writeFileAtomic(F.Path, Saved->data(), Saved->size()).isError());
  }
}

TEST(SimStateFile, PathHelperStripsTrailingSlash) {
  EXPECT_EQ(simStatePathFor("region.elfie"), "region.elfie.esimstate");
  EXPECT_EQ(simStatePathFor("pb/"), "pb.esimstate");
}

// ---- End to end: cold vs save vs resume identity ----

struct ElfiePipeline {
  std::string Dir;
  std::vector<uint8_t> Image;
  uint64_t Region = 0;
};

/// Captures \p Src over [Start, Start+Len) and emits a guest ELFie, with
/// an embedded elfie_warmup_length when \p WarmupSym is non-zero.
ElfiePipeline makeElfie(const std::string &Name, const std::string &Src,
                        uint64_t Start, uint64_t Len,
                        uint64_t WarmupSym = 0) {
  ElfiePipeline P;
  P.Dir = tempDir(Name);
  P.Region = Len;
  auto PB = test::capture(P.Dir, Src, Start, Len,
                          pinball::LoggerOptions::fat());
  EXPECT_TRUE(PB.hasValue()) << PB.message();
  if (!PB)
    return P;
  core::Pinball2ElfOptions Opts;
  Opts.TargetKind = core::Pinball2ElfOptions::Target::Guest;
  Opts.WarmupLength = WarmupSym;
  auto Image = core::pinballToElf(*PB, Opts);
  EXPECT_TRUE(Image.hasValue()) << Image.message();
  if (Image)
    P.Image = std::move(*Image);
  return P;
}

/// Runs the cold / save / resume triple over \p Image and asserts
/// bit-identical SimStats plus matching checkpoint indices.
void expectColdSaveResumeIdentity(const std::vector<uint8_t> &Image,
                                  const MachineConfig &Machine,
                                  RunControls Controls,
                                  const std::string &StatePath,
                                  vm::VMConfig SaveCfg = {},
                                  vm::VMConfig LoadCfg = {}) {
  auto Cold = simulateBinaryImage(Image, Machine, Controls, SaveCfg);
  ASSERT_TRUE(Cold.hasValue()) << Cold.message();

  RunControls SaveCtl = Controls;
  SaveCtl.SaveStatePath = StatePath;
  auto Save = simulateBinaryImage(Image, Machine, SaveCtl, SaveCfg);
  ASSERT_TRUE(Save.hasValue()) << Save.message();
  EXPECT_TRUE(Save->StateSaved);
  EXPECT_EQ(statsBytes(Save->Stats), statsBytes(Cold->Stats))
      << "writing the checkpoint must not perturb the simulation";

  RunControls LoadCtl = Controls;
  LoadCtl.LoadStatePath = StatePath;
  auto Load = simulateBinaryImage(Image, Machine, LoadCtl, LoadCfg);
  ASSERT_TRUE(Load.hasValue()) << Load.message();
  EXPECT_TRUE(Load->StateLoaded);
  EXPECT_EQ(statsBytes(Load->Stats), statsBytes(Cold->Stats))
      << "resume must be bit-identical to the cold run";
  EXPECT_EQ(Load->RoiRetired, Cold->RoiRetired);
  EXPECT_EQ(Load->CheckpointRetired, Save->CheckpointRetired)
      << "resume landed on a different boundary instruction";
}

TEST(CheckpointIdentity, ComputeElfieWithEmbeddedWarmup) {
  ElfiePipeline P = makeElfie("compute", test::computeProgram(), 5000,
                              8000, /*WarmupSym=*/1000);
  ASSERT_FALSE(P.Image.empty());
  RunControls Controls; // warmup auto-detected from elfie_warmup_length
  expectColdSaveResumeIdentity(P.Image, makeNehalemLike(), Controls,
                               P.Dir + "/region.esimstate");

  // The warming split is exact: W warmed + (region - W) detailed.
  auto R = simulateBinaryImage(P.Image, makeNehalemLike());
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->WarmupRetired, 1000u);
  EXPECT_EQ(R->RoiRetired, 7000u);
  EXPECT_EQ(R->Stats.totalInstructions(), 7000u);
}

TEST(CheckpointIdentity, JitResumeMatchesInterpretedCold) {
  ElfiePipeline P =
      makeElfie("jit", test::computeProgram(), 5000, 8000);
  ASSERT_FALSE(P.Image.empty());
  RunControls Controls;
  Controls.WarmupInstructions = 1500;
  vm::VMConfig Jit;
  Jit.EnableJit = true;
  Jit.JitThreshold = 1;
  vm::VMConfig Interp;
  Interp.EnableJit = false;
  // Save interpreted, resume with the JIT fast-forwarding the warming
  // stretch: the detailed phase must still be bit-identical.
  expectColdSaveResumeIdentity(P.Image, makeNehalemLike(), Controls,
                               P.Dir + "/region.esimstate",
                               /*SaveCfg=*/Interp, /*LoadCfg=*/Jit);
}

TEST(CheckpointIdentity, ClockSyscallElfie) {
  ElfiePipeline P =
      makeElfie("clock", test::clockProgram(), 2000, 8000);
  ASSERT_FALSE(P.Image.empty());
  RunControls Controls;
  Controls.WarmupInstructions = 2000;
  expectColdSaveResumeIdentity(P.Image, makeSkylakeLike(false), Controls,
                               P.Dir + "/region.esimstate");
}

TEST(CheckpointIdentity, MultiThreadElfieOnGainestown) {
  std::string Dir = tempDir("mtelfie");
  auto PB = test::capture(Dir, test::multiThreadProgram(8, 4, 2000), 40000,
                          24000, pinball::LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  core::Pinball2ElfOptions Opts;
  Opts.TargetKind = core::Pinball2ElfOptions::Target::Guest;
  auto Image = core::pinballToElf(*PB, Opts);
  ASSERT_TRUE(Image.hasValue()) << Image.message();

  // Multicore: every phase runs on the cycle-ordered stepThread engine.
  RunControls Controls;
  Controls.WarmupInstructions = 2000;
  Controls.MaxInstructions = 20000;
  expectColdSaveResumeIdentity(*Image, makeGainestown8(), Controls,
                               Dir + "/region.esimstate");
}

void expectPinballIdentity(const pinball::Pinball &PB,
                           const MachineConfig &Machine, bool Constrained,
                           RunControls Controls,
                           const std::string &StatePath) {
  auto Cold = simulatePinball(PB, Machine, Constrained, Controls);
  ASSERT_TRUE(Cold.hasValue()) << Cold.message();

  RunControls SaveCtl = Controls;
  SaveCtl.SaveStatePath = StatePath;
  auto Save = simulatePinball(PB, Machine, Constrained, SaveCtl);
  ASSERT_TRUE(Save.hasValue()) << Save.message();
  EXPECT_TRUE(Save->StateSaved);
  EXPECT_EQ(statsBytes(Save->Stats), statsBytes(Cold->Stats));

  RunControls LoadCtl = Controls;
  LoadCtl.LoadStatePath = StatePath;
  auto Load = simulatePinball(PB, Machine, Constrained, LoadCtl);
  ASSERT_TRUE(Load.hasValue()) << Load.message();
  EXPECT_TRUE(Load->StateLoaded);
  EXPECT_EQ(statsBytes(Load->Stats), statsBytes(Cold->Stats));
  EXPECT_EQ(Load->CheckpointRetired, Save->CheckpointRetired);
}

TEST(CheckpointIdentity, PinballConstrainedMT) {
  std::string Dir = tempDir("pbcon");
  auto PB = test::capture(Dir, test::multiThreadProgram(8, 4, 2000), 40000,
                          24000, pinball::LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  RunControls Controls;
  Controls.WarmupInstructions = 4000;
  expectPinballIdentity(*PB, makeGainestown8(), /*Constrained=*/true,
                        Controls, Dir + "/pb.esimstate");
}

TEST(CheckpointIdentity, PinballUnconstrainedMT) {
  std::string Dir = tempDir("pbfree");
  auto PB = test::capture(Dir, test::multiThreadProgram(8, 4, 2000), 40000,
                          24000, pinball::LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  RunControls Controls;
  Controls.WarmupInstructions = 4000;
  expectPinballIdentity(*PB, makeGainestown8(), /*Constrained=*/false,
                        Controls, Dir + "/pb.esimstate");
}

// On one core the VM's round-robin scheduler picks a thread afresh
// whenever a run starts, so a multi-threaded region only resumes to the
// cold run's SimStats when cold, save and resume split the engine at the
// same instructions: the marker, then the warm-up boundary.
TEST(CheckpointIdentity, MultiThreadElfieOnOneCore) {
  for (const char *Name : {"bwaves_s_like", "nab_s_like"}) {
    std::string Dir = tempDir(std::string("mt1core_") + Name);
    auto PB = test::captureWorkloadRegion(Dir, Name);
    ASSERT_TRUE(PB.hasValue()) << PB.message();
    auto Image = test::guestElfie(*PB);
    ASSERT_TRUE(Image.hasValue()) << Image.message();
    for (uint64_t W : {37, 1013}) {
      SCOPED_TRACE(std::string(Name) + " W=" + std::to_string(W));
      RunControls Controls;
      Controls.WarmupInstructions = W;
      expectColdSaveResumeIdentity(*Image, makeNehalemLike(), Controls,
                                   Dir + "/region.esimstate");
      expectPinballIdentity(*PB, makeNehalemLike(), /*Constrained=*/false,
                            Controls, Dir + "/pb.esimstate");
    }
  }
}

TEST(CheckpointIdentity, ResumeRejectsDifferentInput) {
  ElfiePipeline P =
      makeElfie("crossinput", test::computeProgram(), 5000, 8000);
  ElfiePipeline Q =
      makeElfie("crossinput2", test::clockProgram(), 2000, 8000);
  ASSERT_FALSE(P.Image.empty());
  ASSERT_FALSE(Q.Image.empty());
  std::string StatePath = P.Dir + "/region.esimstate";
  RunControls SaveCtl;
  SaveCtl.WarmupInstructions = 1000;
  SaveCtl.SaveStatePath = StatePath;
  auto Save = simulateBinaryImage(P.Image, makeNehalemLike(), SaveCtl);
  ASSERT_TRUE(Save.hasValue()) << Save.message();

  RunControls LoadCtl;
  LoadCtl.WarmupInstructions = 1000;
  LoadCtl.LoadStatePath = StatePath;
  auto Load = simulateBinaryImage(Q.Image, makeNehalemLike(), LoadCtl);
  ASSERT_FALSE(Load.hasValue());
  EXPECT_EQ(Load.takeError().code(), "EFAULT.SIMSTATE.INPUT");

  // ...and a different machine config.
  auto Wrong = simulateBinaryImage(P.Image, makeHaswellLike(), LoadCtl);
  ASSERT_FALSE(Wrong.hasValue());
  EXPECT_EQ(Wrong.takeError().code(), "EFAULT.SIMSTATE.CONFIG");
}

TEST(CheckpointIdentity, WarmupBudgetMustFitRegion) {
  ElfiePipeline P =
      makeElfie("budget", test::computeProgram(), 5000, 8000);
  ASSERT_FALSE(P.Image.empty());
  RunControls Controls;
  Controls.WarmupInstructions = 8000; // == region: nothing left to measure
  auto R = simulateBinaryImage(P.Image, makeNehalemLike(), Controls);
  ASSERT_FALSE(R.hasValue());
  EXPECT_EQ(R.takeError().code(), "EFAULT.SIMSTATE.BUDGET");
}

// ---- The warm mirror ----
//
// A warm-up and the ROI feed the model the same entry points, and the
// model's phase decides what they charge. The state at the boundary is
// the one a measuring run would have left only if a warming model changes
// every structure exactly as a measuring one does, while it charges
// nothing and runs no synthetic kernel.

/// Feeds each of \p Models the same \p Count random events on
/// \p NumCores cores: per step an instruction, a data access, a control
/// transfer and now and then a syscall. The code and data working sets are
/// a little larger than the L2, so fills, evictions, prefetches and, on
/// several cores, coherence invalidations all happen.
void feedRandomEvents(std::initializer_list<TimingModel *> Models,
                      unsigned NumCores, int Count) {
  RNG R(0x5EED);
  for (int N = 0; N < Count; ++N) {
    unsigned Core = static_cast<unsigned>(R.nextBelow(NumCores));
    uint64_t PC = isa::TextBase + 8 * R.nextBelow(1 << 16);
    uint64_t Addr = 0x10000000 + 8 * R.nextBelow(1 << 17);
    bool IsWrite = R.nextBelow(3) == 0;
    uint64_t To = isa::TextBase + 8 * R.nextBelow(1 << 10);
    bool Taken = R.nextBelow(2) == 0, Indirect = R.nextBelow(8) == 0;
    bool Syscall = R.nextBelow(4096) == 0;
    for (TimingModel *M : Models) {
      M->instruction(Core, PC);
      M->memoryAccess(Core, Addr, 8, IsWrite);
      M->controlTransfer(Core, PC, To, Taken, Indirect);
      if (Syscall)
        M->syscall(Core, static_cast<uint64_t>(isa::Sys::Write));
    }
  }
}

TEST(WarmMirror, WarmingUpdatesStructuresAsMeasuringDoes) {
  for (const MachineConfig &Machine : {makeNehalemLike(), makeGainestown8()}) {
    SCOPED_TRACE(Machine.Name);
    ASSERT_FALSE(Machine.Kernel.Enabled);
    TimingModel Warm(Machine), Measured(Machine), Fresh(Machine);
    Warm.setWarming(true);
    feedRandomEvents({&Warm, &Measured}, Machine.NumCores, 50000);
    for (unsigned C = 0; C < Machine.NumCores; ++C)
      EXPECT_EQ(componentBytes(Warm.core(C)), componentBytes(Measured.core(C)))
          << "core " << C;
    EXPECT_EQ(componentBytes(Warm.l3()), componentBytes(Measured.l3()));
    EXPECT_EQ(statsBytes(Warm.stats()), statsBytes(Fresh.stats()))
        << "warming must charge no SimStats counter, cycle or page";
    EXPECT_EQ(Measured.stats().totalInstructions(), 50000u);
  }
}

TEST(WarmMirror, WarmingRunsNoKernelHandler) {
  // A stream past the timer interval with syscalls in it: a measuring
  // full-system model runs timer and syscall handlers on it.
  const int Count = 300000;
  MachineConfig FS = makeSkylakeLike(/*FullSystem=*/true);
  ASSERT_LT(FS.Kernel.TimerIntervalInsts, static_cast<uint64_t>(Count));
  TimingModel Warm(FS), MeasuredFS(FS), MeasuredUser(makeSkylakeLike());
  Warm.setWarming(true);
  feedRandomEvents({&Warm, &MeasuredFS, &MeasuredUser}, 1, Count);
  ASSERT_GT(MeasuredFS.stats().totalRing0Instructions(), 0u);
  ASSERT_NE(MeasuredFS.core(0).KernelCursor, 0u);

  // The same geometry without the kernel: any handler would have filled
  // kernel lines and moved the fetch line, so the bytes would differ.
  EXPECT_EQ(componentBytes(Warm.core(0)),
            componentBytes(MeasuredUser.core(0)));
  EXPECT_EQ(componentBytes(Warm.l3()), componentBytes(MeasuredUser.l3()));
  EXPECT_EQ(Warm.core(0).SinceTimer, 0u);
  EXPECT_EQ(Warm.core(0).KernelCursor, 0u);
  TimingModel Fresh(FS);
  EXPECT_EQ(statsBytes(Warm.stats()), statsBytes(Fresh.stats()));
}

// ---- The checkpoint-index regression pin (PR-6 interaction audit) ----
//
// The boundary must land on the same global retired index no matter how
// the pre-boundary stretch was executed: interpreted fast-forward,
// JIT-compiled fast-forward, or the -warmup-load resume path. A W=0
// checkpoint pins the marker itself; W>0 must sit exactly W past it.

TEST(CheckpointIndex, SameBoundaryAcrossAllPaths) {
  ElfiePipeline P =
      makeElfie("index", test::computeProgram(), 5000, 8000);
  ASSERT_FALSE(P.Image.empty());
  MachineConfig Machine = makeNehalemLike();
  vm::VMConfig Jit;
  Jit.EnableJit = true;
  Jit.JitThreshold = 1;
  vm::VMConfig Interp;
  Interp.EnableJit = false;

  auto boundary = [&](uint64_t W, bool Save, bool UseJit) -> uint64_t {
    RunControls C;
    C.WarmupInstructions = W;
    std::string Path = P.Dir + "/pin.esimstate";
    if (Save)
      C.SaveStatePath = Path;
    else
      C.LoadStatePath = Path;
    auto R = simulateBinaryImage(P.Image, Machine, C,
                                 UseJit ? Jit : Interp);
    EXPECT_TRUE(R.hasValue()) << R.message();
    return R ? R->CheckpointRetired : 0;
  };

  // W=0: the boundary is the first post-marker instruction, so the global
  // retired count equals the ELFie startup length including the marker.
  uint64_t Startup = boundary(0, /*Save=*/true, /*UseJit=*/false);
  EXPECT_GT(Startup, 0u);
  EXPECT_LT(Startup, 500u) << "startup stub is ~100 instructions";
  EXPECT_EQ(boundary(0, /*Save=*/true, /*UseJit=*/true), Startup)
      << "JIT fast-forward shifted the W=0 boundary";
  EXPECT_EQ(boundary(0, /*Save=*/false, /*UseJit=*/false), Startup)
      << "resume shifted the W=0 boundary";

  // W=1000: exactly 1000 past the marker on every path.
  EXPECT_EQ(boundary(1000, /*Save=*/true, /*UseJit=*/false),
            Startup + 1000)
      << "interpreted warming is off by one at the ROI marker";
  EXPECT_EQ(boundary(1000, /*Save=*/true, /*UseJit=*/true), Startup + 1000)
      << "JIT fast-forward warming is off by one at the ROI marker";
  EXPECT_EQ(boundary(1000, /*Save=*/false, /*UseJit=*/true),
            Startup + 1000)
      << "JIT resume is off by one at the ROI marker";
  EXPECT_EQ(boundary(1000, /*Save=*/false, /*UseJit=*/false),
            Startup + 1000)
      << "interpreted resume is off by one at the ROI marker";
}

// ---- The sidecar's input digest ----
//
// A checkpointing run digests its input image for the sidecar's
// InputDigest, and may do so while the engine runs. These cases pin what
// that must not change: the bytes a save writes, a run that ends before
// the boundary (or before any run), and the resume-side input check.

/// The SHA-256 of the version-1 rendering of a sidecar saved on
/// \p Image, which must record the image's artifact root.
std::string versionOneHex(const std::vector<uint8_t> &Bytes,
                          const std::vector<uint8_t> &Image) {
  Sha256Digest Root = store::artifactRoot(Image);
  Sha256Digest Whole = Sha256::digest(Image);
  std::vector<uint8_t> V1 = test::versionOneSidecar(Bytes, &Root, &Whole);
  return V1.empty() ? "not a version-2 sidecar recording the image's root"
                    : sha256Hex(V1.data(), V1.size());
}

TEST(SidecarDigest, ColdSaveWritesTheRecordedBytes) {
  ElfiePipeline P = makeElfie("digestsave", test::computeProgram(), 5000,
                              8000, /*WarmupSym=*/1000);
  ASSERT_FALSE(P.Image.empty());
  std::string StatePath = P.Dir + "/region.esimstate";
  RunControls SaveCtl;
  SaveCtl.SaveStatePath = StatePath;
  for (int Run = 0; Run < 3; ++Run) {
    removeFile(StatePath);
    auto Save = simulateBinaryImage(P.Image, makeNehalemLike(), SaveCtl);
    ASSERT_TRUE(Save.hasValue()) << Save.message();
    EXPECT_TRUE(Save->StateSaved);
    auto Bytes = readFileBytes(StatePath);
    ASSERT_TRUE(Bytes.hasValue()) << Bytes.message();
    // Recorded at format version 2, whose input digest is the root. Both
    // pins are of the bytes recorded before the core and l3 payloads
    // became recency-ordered tag arrays (payload version 2), converted to
    // that layout and then to the one without the "stats" component and
    // with core payloads that end at the fetch line (version 3).
    EXPECT_EQ(sha256Hex(Bytes->data(), Bytes->size()),
              "08189583c6b2eb3f5e89b9264c01bc0c81769409ce11560993aa5bbd7b81df9a")
        << "run " << Run;
    // The same bytes at format version 1, with the whole-image input
    // digest, as recorded before the digest moved off the critical path.
    EXPECT_EQ(versionOneHex(*Bytes, P.Image),
              "8a59f32b618bc27a9f1452ce00b37785bb0570640738a276fdfdc1c8783d12df")
        << "run " << Run;
  }
}

TEST(SidecarDigest, RunEndingBeforeTheBoundaryWritesNoSidecar) {
  auto Image = easm::assembleToELF(test::computeProgram(), "prog.s");
  ASSERT_TRUE(Image.hasValue()) << Image.message();
  std::string Dir = tempDir("digestexit");
  std::string StatePath = Dir + "/prog.esimstate";

  // The program exits 177,803 instructions in, inside the warm-up.
  RunControls Ctl;
  Ctl.WarmupInstructions = 1000000;
  Ctl.SaveStatePath = StatePath;
  auto R = simulateBinaryImage(*Image, makeNehalemLike(), Ctl);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->Reason, vm::StopReason::AllExited);
  EXPECT_EQ(R->WarmupRetired, 177803u);
  EXPECT_EQ(R->RoiRetired, 0u);
  EXPECT_EQ(R->CheckpointRetired, 0u);
  EXPECT_FALSE(R->StateSaved);
  EXPECT_FALSE(fileExists(StatePath));

  // A warm-up that does not fit the ELFie's region fails before any run.
  ElfiePipeline P = makeElfie("digestbudget", test::computeProgram(), 5000,
                              8000);
  ASSERT_FALSE(P.Image.empty());
  Ctl.WarmupInstructions = 8000;
  auto B = simulateBinaryImage(P.Image, makeNehalemLike(), Ctl);
  ASSERT_FALSE(B.hasValue());
  EXPECT_EQ(B.takeError().code(), "EFAULT.SIMSTATE.BUDGET");
  EXPECT_FALSE(fileExists(StatePath));
  removeTree(Dir);
}

TEST(SidecarDigest, ResumeOnImageDifferingInOneByteIsInputError) {
  ElfiePipeline P = makeElfie("digestinput", test::computeProgram(), 5000,
                              8000, /*WarmupSym=*/1000);
  ASSERT_FALSE(P.Image.empty());
  std::string StatePath = P.Dir + "/region.esimstate";
  RunControls SaveCtl;
  SaveCtl.SaveStatePath = StatePath;
  auto Save = simulateBinaryImage(P.Image, makeNehalemLike(), SaveCtl);
  ASSERT_TRUE(Save.hasValue()) << Save.message();

  // One byte past the ELF's last structure: the program is unchanged, the
  // image is not.
  std::vector<uint8_t> Other = P.Image;
  Other.push_back(0);
  RunControls LoadCtl;
  LoadCtl.LoadStatePath = StatePath;
  auto Cold = simulateBinaryImage(Other, makeNehalemLike());
  ASSERT_TRUE(Cold.hasValue()) << Cold.message();
  auto Load = simulateBinaryImage(Other, makeNehalemLike(), LoadCtl);
  ASSERT_FALSE(Load.hasValue());
  EXPECT_EQ(Load.takeError().code(), "EFAULT.SIMSTATE.INPUT");

  auto Same = simulateBinaryImage(P.Image, makeNehalemLike(), LoadCtl);
  ASSERT_TRUE(Same.hasValue()) << Same.message();
  EXPECT_TRUE(Same->StateLoaded);
}

} // namespace

namespace {

/// A plain program that runs \p Loop iterations of a two-instruction loop,
/// then faults on a load from the unmapped page at address 0.
std::vector<uint8_t> faultingProgram(int Loop) {
  std::string Src = "_start:\n  ldi r1, 0\n  ldi r2, " + std::to_string(Loop) +
                    "\nl:\n  addi r1, r1, 1\n  blt r1, r2, l\n"
                    "  ld8 r3, 0(r0)\n  halt\n";
  auto Image = easm::assembleToELF(Src, "fault.s");
  EXPECT_TRUE(Image.hasValue()) << Image.message();
  return Image ? *Image : std::vector<uint8_t>();
}

// A resume may check its input late, but never later than its result: a
// run on the wrong image reports INPUT even when the run itself fails.
TEST(SidecarDigest, ResumeOnDifferentImageWhoseRunFaultsIsInputError) {
  auto Good = easm::assembleToELF(test::computeProgram(), "prog.s");
  ASSERT_TRUE(Good.hasValue()) << Good.message();
  std::string Dir = tempDir("digestfault");
  std::string StatePath = Dir + "/prog.esimstate";
  RunControls SaveCtl;
  SaveCtl.WarmupInstructions = 500;
  SaveCtl.MaxInstructions = 5000;
  SaveCtl.SaveStatePath = StatePath;
  auto Save = simulateBinaryImage(*Good, makeNehalemLike(), SaveCtl);
  ASSERT_TRUE(Save.hasValue()) << Save.message();
  ASSERT_TRUE(Save->StateSaved);

  RunControls LoadCtl;
  LoadCtl.LoadStatePath = StatePath;
  // The first faults inside the 500-instruction skip, the second in the
  // detailed phase after it.
  for (int Loop : {50, 2000}) {
    std::vector<uint8_t> Bad = faultingProgram(Loop);
    ASSERT_FALSE(Bad.empty());
    auto Cold = simulateBinaryImage(Bad, makeNehalemLike());
    ASSERT_FALSE(Cold.hasValue());
    EXPECT_NE(Cold.message().find("faulted"), std::string::npos)
        << Cold.message();
    auto Load = simulateBinaryImage(Bad, makeNehalemLike(), LoadCtl);
    ASSERT_FALSE(Load.hasValue()) << "loop " << Loop;
    EXPECT_EQ(Load.takeError().code(), "EFAULT.SIMSTATE.INPUT")
        << "loop " << Loop;
  }
  removeTree(Dir);
}

// The checks ordered after INPUT (COMPONENT, BUDGET) report INPUT when the
// input is also wrong, and their own code when it is right.
TEST(SidecarDigest, WrongInputOutranksLaterChecks) {
  ElfiePipeline P = makeElfie("digestorder", test::computeProgram(), 5000,
                              8000, /*WarmupSym=*/1000);
  ASSERT_FALSE(P.Image.empty());
  std::string StatePath = P.Dir + "/region.esimstate";
  RunControls SaveCtl;
  SaveCtl.SaveStatePath = StatePath;
  auto Save = simulateBinaryImage(P.Image, makeNehalemLike(), SaveCtl);
  ASSERT_TRUE(Save.hasValue()) << Save.message();
  std::vector<uint8_t> Other = P.Image;
  Other.push_back(0);

  // An explicit warm-up that disagrees with the checkpoint.
  RunControls Budget;
  Budget.LoadStatePath = StatePath;
  Budget.WarmupInstructions = 999;
  auto SameB = simulateBinaryImage(P.Image, makeNehalemLike(), Budget);
  ASSERT_FALSE(SameB.hasValue());
  EXPECT_EQ(SameB.takeError().code(), "EFAULT.SIMSTATE.BUDGET");
  auto OtherB = simulateBinaryImage(Other, makeNehalemLike(), Budget);
  ASSERT_FALSE(OtherB.hasValue());
  EXPECT_EQ(OtherB.takeError().code(), "EFAULT.SIMSTATE.INPUT");

  // A sealed sidecar whose component table names "l4" instead of "l3".
  auto Bytes = readFileBytes(StatePath);
  ASSERT_TRUE(Bytes.hasValue()) << Bytes.message();
  renameAndReseal(*Bytes, "l3", "l4");
  std::string BadPath = P.Dir + "/component.esimstate";
  ASSERT_FALSE(writeFileAtomic(BadPath, Bytes->data(), Bytes->size())
                   .isError());
  RunControls Component;
  Component.LoadStatePath = BadPath;
  auto SameC = simulateBinaryImage(P.Image, makeNehalemLike(), Component);
  ASSERT_FALSE(SameC.hasValue());
  EXPECT_EQ(SameC.takeError().code(), "EFAULT.SIMSTATE.COMPONENT");
  auto OtherC = simulateBinaryImage(Other, makeNehalemLike(), Component);
  ASSERT_FALSE(OtherC.hasValue());
  EXPECT_EQ(OtherC.takeError().code(), "EFAULT.SIMSTATE.INPUT");
  removeTree(P.Dir);
}

TEST(SidecarDigest, ZeroWarmupSaveWritesTheRecordedBytes) {
  ElfiePipeline P = makeElfie("digestw0", test::computeProgram(), 5000, 8000,
                              /*WarmupSym=*/0);
  ASSERT_FALSE(P.Image.empty());
  std::string StatePath = P.Dir + "/region.esimstate";
  RunControls SaveCtl;
  SaveCtl.SaveStatePath = StatePath;
  for (int Run = 0; Run < 3; ++Run) {
    removeFile(StatePath);
    auto Save = simulateBinaryImage(P.Image, makeNehalemLike(), SaveCtl);
    ASSERT_TRUE(Save.hasValue()) << Save.message();
    EXPECT_TRUE(Save->StateSaved);
    EXPECT_EQ(Save->WarmupRetired, 0u);
    auto Bytes = readFileBytes(StatePath);
    ASSERT_TRUE(Bytes.hasValue()) << Bytes.message();
    // Recorded at format version 2, whose input digest is the root, and
    // converted like ColdSaveWritesTheRecordedBytes' pins.
    EXPECT_EQ(sha256Hex(Bytes->data(), Bytes->size()),
              "1afb9a2d072088411ab04471b1de3d179a7e9e680ac151c6547e10f077c26d2e")
        << "run " << Run;
    // The same bytes at format version 1, with the whole-image input
    // digest, as recorded while the digest was still joined at the
    // boundary.
    EXPECT_EQ(versionOneHex(*Bytes, P.Image),
              "a0d2786db6ba68160384d868f9e2b37d2cc87e977421d8e181a1c8b5a09f3828")
        << "run " << Run;
  }
  removeTree(P.Dir);
}

// A save that crossed the boundary keeps its sidecar when the detailed
// phase then faults, and resuming from it reproduces the cold run.
TEST(SidecarDigest, SaveWhoseDetailedPhaseFaultsWritesItsSidecar) {
  std::vector<uint8_t> Image = faultingProgram(2000);
  ASSERT_FALSE(Image.empty());
  std::string Dir = tempDir("digestdetailedfault");
  std::string StatePath = Dir + "/fault.esimstate";
  RunControls SaveCtl;
  SaveCtl.WarmupInstructions = 500;
  SaveCtl.SaveStatePath = StatePath;
  auto Save = simulateBinaryImage(Image, makeNehalemLike(), SaveCtl);
  ASSERT_FALSE(Save.hasValue());
  EXPECT_NE(Save.message().find("faulted"), std::string::npos)
      << Save.message();
  auto File = SimStateFile::open(StatePath);
  ASSERT_TRUE(File.hasValue()) << File.message();
  EXPECT_EQ(File->meta().WarmupInstructions, 500u);
  EXPECT_EQ(File->meta().CheckpointRetired, 500u);
  EXPECT_EQ(File->meta().DetailedBudget, 0u);

  RunControls ColdCtl;
  ColdCtl.WarmupInstructions = 500;
  ColdCtl.MaxInstructions = 1000;
  auto Cold = simulateBinaryImage(Image, makeNehalemLike(), ColdCtl);
  ASSERT_TRUE(Cold.hasValue()) << Cold.message();
  RunControls LoadCtl;
  LoadCtl.LoadStatePath = StatePath;
  LoadCtl.MaxInstructions = 1000;
  auto Load = simulateBinaryImage(Image, makeNehalemLike(), LoadCtl);
  ASSERT_TRUE(Load.hasValue()) << Load.message();
  EXPECT_TRUE(Load->StateLoaded);
  EXPECT_EQ(statsBytes(Load->Stats), statsBytes(Cold->Stats));
  removeTree(Dir);
}


// ---- One identity for an ELFie ----
//
// The store's root, the sidecar's input digest and store::artifactRoot are
// one function of the image bytes, so a pool read and a resume check the
// same identity.

TEST(ArtifactIdentity, StoreRootAndSidecarInputDigestAreTheArtifactRoot) {
  std::string Dir = tempDir("identity");
  auto Pool = store::ChunkStore::open(Dir + "/pool");
  ASSERT_TRUE(Pool.hasValue()) << Pool.message();
  std::vector<std::pair<std::string, std::vector<uint8_t>>> Elfies;
  ElfiePipeline P = makeElfie("identity_compute", test::computeProgram(),
                              5000, 8000, /*WarmupSym=*/1000);
  Elfies.emplace_back("compute.elfie", P.Image);
  auto MT = test::capture(Dir + "/mt", test::multiThreadProgram(8, 4, 2000),
                          40000, 24000, pinball::LoggerOptions::fat());
  ASSERT_TRUE(MT.hasValue()) << MT.message();
  auto MTImage = test::guestElfie(*MT);
  ASSERT_TRUE(MTImage.hasValue()) << MTImage.message();
  Elfies.emplace_back("mt.elfie", std::move(*MTImage));
  auto W = test::captureWorkloadRegion(Dir + "/w", "imagick_s_like");
  ASSERT_TRUE(W.hasValue()) << W.message();
  auto WImage = test::guestElfie(*W);
  ASSERT_TRUE(WImage.hasValue()) << WImage.message();
  Elfies.emplace_back("imagick.elfie", std::move(*WImage));

  for (const auto &[Name, Image] : Elfies) {
    SCOPED_TRACE(Name);
    ASSERT_FALSE(Image.empty());
    Sha256Digest Root = store::artifactRoot(Image);
    auto M = store::putArtifact(*Pool, Name, Image);
    ASSERT_TRUE(M.hasValue()) << M.message();
    EXPECT_EQ(M->Root, Root);
    auto Back = store::loadArtifact(*Pool, Name);
    ASSERT_TRUE(Back.hasValue()) << Back.message();
    EXPECT_EQ(*Back, Image);

    std::string StatePath = Dir + "/" + Name + ".esimstate";
    RunControls SaveCtl;
    SaveCtl.SaveStatePath = StatePath;
    SaveCtl.MaxInstructions = 1000;
    auto Save = simulateBinaryImage(*Back, makeNehalemLike(), SaveCtl);
    ASSERT_TRUE(Save.hasValue()) << Save.message();
    ASSERT_TRUE(Save->StateSaved);
    auto File = SimStateFile::open(StatePath);
    ASSERT_TRUE(File.hasValue()) << File.message();
    EXPECT_EQ(File->meta().InputDigest, Root);
  }
  removeTree(Dir);
  removeTree(P.Dir);
}

// A sidecar of format version 1 (whose input digest was the SHA-256 of the
// whole image) is refused with its typed code, not read another way.
TEST(SidecarDigest, VersionOneSidecarIsVersionError) {
  ElfiePipeline P = makeElfie("digestv1", test::computeProgram(), 5000, 8000,
                              /*WarmupSym=*/1000);
  ASSERT_FALSE(P.Image.empty());
  std::string StatePath = P.Dir + "/region.esimstate";
  RunControls SaveCtl;
  SaveCtl.SaveStatePath = StatePath;
  auto Save = simulateBinaryImage(P.Image, makeNehalemLike(), SaveCtl);
  ASSERT_TRUE(Save.hasValue()) << Save.message();
  auto Bytes = readFileBytes(StatePath);
  ASSERT_TRUE(Bytes.hasValue()) << Bytes.message();
  Sha256Digest Root = store::artifactRoot(P.Image);
  Sha256Digest Whole = Sha256::digest(P.Image);
  std::vector<uint8_t> V1 = test::versionOneSidecar(*Bytes, &Root, &Whole);
  ASSERT_FALSE(V1.empty());
  std::string V1Path = P.Dir + "/v1.esimstate";
  ASSERT_FALSE(writeFileAtomic(V1Path, V1.data(), V1.size()).isError());

  auto File = SimStateFile::open(V1Path);
  ASSERT_FALSE(File.hasValue());
  Error E = File.takeError();
  EXPECT_EQ(E.code(), "EFAULT.SIMSTATE.VERSION");
  EXPECT_NE(E.message().find("version 1"), std::string::npos) << E.message();
  RunControls LoadCtl;
  LoadCtl.LoadStatePath = V1Path;
  auto Load = simulateBinaryImage(P.Image, makeNehalemLike(), LoadCtl);
  ASSERT_FALSE(Load.hasValue());
  EXPECT_EQ(Load.takeError().code(), "EFAULT.SIMSTATE.VERSION");
  removeTree(P.Dir);
}

} // namespace
