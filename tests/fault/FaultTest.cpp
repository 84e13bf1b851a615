//===- tests/fault/FaultTest.cpp - fault injection + fail-closed loop -----===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// The robustness backbone: seeded I/O fault plans, deterministic artifact
/// mutators, the 200-seed fail-closed sweep through Pinball::load and the
/// replayer, and the crash-safety proof for the staged pinball save (a
/// process killed mid-write leaves the complete old artifact or nothing).
///
//===----------------------------------------------------------------------===//

#include "fault/FaultPlan.h"
#include "fault/Mutator.h"

#include "../common/TestHelpers.h"
#include "replay/Replayer.h"
#include "sim/SimState.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace elfie;
using namespace elfie::fault;
using pinball::LoggerOptions;
using pinball::Pinball;
using test::capture;
using test::computeProgram;

namespace {

std::string tempDir(const std::string &Name) {
  std::string D = testing::TempDir() + "/elfie_fault_" + Name;
  removeTree(D);
  createDirectories(D);
  return D;
}

TEST(FaultSpecParse, AcceptsTheGrammar) {
  auto S = parseFaultSpec("write:3:kill");
  ASSERT_TRUE(S.hasValue()) << S.message();
  EXPECT_EQ(S->O, FaultSpec::Op::Write);
  EXPECT_EQ(S->Nth, 3u);
  EXPECT_EQ(S->K, FaultSpec::Kind::Kill);

  S = parseFaultSpec("read:12:flip");
  ASSERT_TRUE(S.hasValue());
  EXPECT_EQ(S->O, FaultSpec::Op::Read);
  EXPECT_EQ(S->Nth, 12u);
  EXPECT_EQ(S->K, FaultSpec::Kind::Flip);
}

TEST(FaultSpecParse, RejectsWithStableCodes) {
  struct Case {
    const char *Text;
    const char *Code;
  } Cases[] = {
      {"write:1", "EFAULT.SPEC.SYNTAX"},
      {"nonsense", "EFAULT.SPEC.SYNTAX"},
      {"fsync:1:eio", "EFAULT.SPEC.OP"},
      {"write:0:eio", "EFAULT.SPEC.NTH"},
      {"write:x:eio", "EFAULT.SPEC.NTH"},
      {"write:1:melt", "EFAULT.SPEC.KIND"},
  };
  for (const Case &C : Cases) {
    auto S = parseFaultSpec(C.Text);
    ASSERT_FALSE(S.hasValue()) << C.Text;
    EXPECT_EQ(S.error().code(), C.Code) << C.Text;
  }
}

TEST(FaultPlanHook, FiresOnTheNthWriteOnly) {
  FaultPlan Plan(1);
  Plan.add({FaultSpec::Op::Write, 2, FaultSpec::Kind::Enospc});
  setIOFaultHook(&Plan);
  std::string Dir = tempDir("nth");
  uint8_t Byte = 0x5a;
  Error E1 = writeFile(Dir + "/a", &Byte, 1);
  EXPECT_FALSE(E1.isError()) << E1.str();
  Error E2 = writeFile(Dir + "/b", &Byte, 1);
  EXPECT_TRUE(E2.isError());
  EXPECT_EQ(E2.code(), "EFAULT.IO.WRITE");
  Error E3 = writeFile(Dir + "/c", &Byte, 1);
  EXPECT_FALSE(E3.isError());
  setIOFaultHook(nullptr);
  EXPECT_EQ(Plan.writesSeen(), 3u);
  removeTree(Dir);
}

TEST(FaultPlanHook, MutationsAreSeedDeterministic) {
  std::vector<uint8_t> Orig(256);
  for (size_t I = 0; I < Orig.size(); ++I)
    Orig[I] = static_cast<uint8_t>(I * 7);
  for (auto Kind : {FaultSpec::Kind::Flip, FaultSpec::Kind::Short}) {
    std::vector<uint8_t> A = Orig, B = Orig;
    FaultPlan P1(42), P2(42);
    P1.add({FaultSpec::Op::Write, 1, Kind});
    P2.add({FaultSpec::Op::Write, 1, Kind});
    EXPECT_FALSE(P1.onWrite("x", A).isError());
    EXPECT_FALSE(P2.onWrite("x", B).isError());
    EXPECT_EQ(A, B) << "same seed must mutate identically";
    EXPECT_NE(A, Orig) << "the mutation must actually change the data";
  }
}

TEST(Mutator, PinballMutationIsSeedDeterministic) {
  std::string Dir = tempDir("mutdet");
  auto PB = capture(Dir + "/cap", computeProgram(), 3000, 20000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_FALSE(PB->save(Dir + "/base").isError());

  for (std::string Copy : {Dir + "/m1", Dir + "/m2"}) {
    ASSERT_FALSE(copyTree(Dir + "/base", Copy).isError());
    auto What = mutatePinballDir(Copy, 1234);
    ASSERT_TRUE(What.hasValue()) << What.message();
  }
  auto Files = listDirectory(Dir + "/m1");
  ASSERT_TRUE(Files.hasValue());
  for (const std::string &Name : *Files) {
    auto A = readFileBytes(Dir + "/m1/" + Name);
    auto B = readFileBytes(Dir + "/m2/" + Name);
    if (!A.hasValue()) { // a directory entry (e.g. nothing here) — skip
      continue;
    }
    ASSERT_TRUE(B.hasValue()) << Name;
    EXPECT_EQ(*A, *B) << Name;
  }
  removeTree(Dir);
}

/// The acceptance sweep: 200 seeded corruptions of one pinball, each
/// driven through Pinball::load and (when it still loads) the constrained
/// replayer. Fail-closed means: never crash (the test process would die),
/// never hang (the replay is budget-bounded), and every rejection carries
/// a stable EFAULT.* code.
// Every kind changes a sidecar. At these seeds the hostile producer once
// wrote the format version the file already had.
TEST(Mutator, SidecarMutationChangesTheFile) {
  std::string Dir = tempDir("mutsidecar");
  std::string Path = Dir + "/s.esimstate";
  sim::MachineConfig Machine = sim::makeNehalemLike();
  sim::TimingModel Model(Machine);
  sim::SimStateMeta Meta;
  Meta.ConfigName = Machine.Name;
  Meta.ConfigFP = sim::configFingerprint(Machine);
  ASSERT_FALSE(
      sim::writeSimState(Path, Meta, sim::encodeSimStateComponents(Model))
          .isError());
  auto Saved = readFileBytes(Path);
  ASSERT_TRUE(Saved.hasValue()) << Saved.message();
  for (uint64_t Seed : {9459, 19438}) {
    ASSERT_FALSE(
        writeFileAtomic(Path, Saved->data(), Saved->size()).isError());
    auto What = mutateSimStateFile(Path, Seed);
    ASSERT_TRUE(What.hasValue()) << What.message();
    EXPECT_NE(What->find("format version"), std::string::npos) << *What;
    auto Mutated = readFileBytes(Path);
    ASSERT_TRUE(Mutated.hasValue()) << Mutated.message();
    EXPECT_NE(*Mutated, *Saved) << "seed " << Seed << ": " << *What;
  }
  removeTree(Dir);
}

TEST(FailClosed, TwoHundredSeededPinballCorruptions) {
  std::string Dir = tempDir("sweep");
  auto PB = capture(Dir + "/cap", computeProgram(), 3000, 20000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_FALSE(PB->save(Dir + "/base").isError());

  unsigned Rejected = 0, Loaded = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    std::string Mut = Dir + "/mut";
    removeTree(Mut);
    ASSERT_FALSE(copyTree(Dir + "/base", Mut).isError());
    auto What = mutatePinballDir(Mut, Seed);
    ASSERT_TRUE(What.hasValue()) << What.message();

    auto MPB = Pinball::load(Mut);
    if (!MPB.hasValue()) {
      ++Rejected;
      EXPECT_EQ(MPB.error().code().rfind("EFAULT.", 0), 0u)
          << "seed " << Seed << " (" << *What
          << "): uncoded rejection: " << MPB.message();
      continue;
    }
    ++Loaded;
    replay::ReplayOptions Opts;
    Opts.MaxInstructions = 100000; // bounded: corrupted logs cannot hang
    auto R = replay::replayPinball(*MPB, Opts);
    if (!R.hasValue())
      EXPECT_EQ(R.error().code().rfind("EFAULT.", 0), 0u)
          << "seed " << Seed << " (" << *What
          << "): uncoded replay error: " << R.message();
    // A successful replay of a mutated pinball is fine: either the
    // mutation was benign or the replayer recorded a divergence.
  }
  // The mutator must actually exercise both outcomes.
  EXPECT_GT(Rejected, 20u);
  EXPECT_GT(Loaded, 20u);
  removeTree(Dir);
}

/// A payload-free (zero) page record that claims a payload, or a length
/// that is neither 0 nor 4,096, must be rejected with a typed pinball
/// code, never loaded with misread framing.
TEST(FailClosed, ZeroPageRecordMutationsAreRejected) {
  std::string Dir = tempDir("zeropage");
  for (bool Fat : {true, false}) {
    auto PB = capture(Dir + "/cap", computeProgram(), 3000, 20000,
                      Fat ? LoggerOptions::fat() : LoggerOptions());
    ASSERT_TRUE(PB.hasValue()) << PB.message();
    ASSERT_FALSE(PB->save(Dir + "/base").isError());
    for (ZeroPageMut Kind :
         {ZeroPageMut::ClaimPayload, ZeroPageMut::BadLength}) {
      for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
        std::string Mut = Dir + "/mut";
        removeTree(Mut);
        ASSERT_FALSE(copyTree(Dir + "/base", Mut).isError());
        auto What = mutateZeroPageRecord(Mut, Kind, Seed);
        ASSERT_TRUE(What.hasValue()) << What.message();
        ASSERT_EQ(What->find("noop"), std::string::npos) << *What;
        auto MPB = Pinball::load(Mut);
        ASSERT_FALSE(MPB.hasValue()) << *What << " loaded";
        EXPECT_EQ(MPB.error().code().rfind("EFAULT.PINBALL.", 0), 0u)
            << *What << ": " << MPB.message();
      }
    }
    removeTree(Dir + "/base");
  }
  removeTree(Dir);
}

/// Crash-safety for the staged save: kill the process at every write
/// ordinal and require the destination to hold the complete old pinball
/// (or, when the kill lands after publication, the complete new one) —
/// never a partial directory.
TEST(FailClosed, KilledMidSaveLeavesOldArtifactOrNothing) {
  std::string Dir = tempDir("atomic");
  auto PB = capture(Dir + "/cap", computeProgram(), 3000, 20000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  std::string Dest = Dir + "/r.pb";
  ASSERT_FALSE(PB->save(Dest).isError());
  const uint64_t OldStart = PB->Meta.RegionStart;

  for (uint64_t Nth = 1; Nth <= 10; ++Nth) {
    pid_t Pid = fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      // Child: re-save with a changed header and die on the Nth write.
      FaultPlan Plan;
      Plan.add({FaultSpec::Op::Write, Nth, FaultSpec::Kind::Kill});
      setIOFaultHook(&Plan);
      Pinball Copy = *PB;
      Copy.Meta.RegionStart = OldStart + 1;
      Error E = Copy.save(Dest);
      setIOFaultHook(nullptr);
      ::_exit(E.isError() ? 1 : 0);
    }
    int Status = 0;
    ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
    ASSERT_TRUE(WIFEXITED(Status));
    int Code = WEXITSTATUS(Status);
    ASSERT_TRUE(Code == 97 || Code == 0) << "nth=" << Nth;

    auto After = Pinball::load(Dest);
    ASSERT_TRUE(After.hasValue())
        << "nth=" << Nth << ": destination must stay loadable: "
        << After.message();
    if (Code == 97)
      EXPECT_EQ(After->Meta.RegionStart, OldStart)
          << "nth=" << Nth << ": a killed save must not alter the old "
                              "artifact";
    else
      EXPECT_EQ(After->Meta.RegionStart, OldStart + 1)
          << "nth=" << Nth << ": past the last write the save completed";
  }
  removeTree(Dir);
}

} // namespace
