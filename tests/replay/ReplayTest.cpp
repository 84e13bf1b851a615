//===- tests/replay/ReplayTest.cpp - Constrained replay fidelity ----------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// The backbone differential test: constrained replay of a pinball must
/// reproduce the logged execution bit-exactly — same per-thread retired
/// counts, same final architectural state as a reference run of the
/// original program.
///
//===----------------------------------------------------------------------===//

#include "replay/Replayer.h"

#include "../common/TestHelpers.h"
#include "pinball/Logger.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace elfie;
using namespace elfie::replay;
using pinball::LoggerOptions;
using test::capture;
using test::computeProgram;

namespace {

std::string tempDir(const std::string &Name) {
  std::string D = testing::TempDir() + "/elfie_rp_" + Name;
  removeTree(D);
  createDirectories(D);
  return D;
}

/// Runs the original program to Start+Len and returns the final state of
/// thread 0 for comparison.
vm::ThreadState referenceState(const std::string &Src, uint64_t Start,
                               uint64_t Len,
                               vm::VMConfig Config = vm::VMConfig()) {
  auto M = test::makeVM(Src, nullptr, Config);
  EXPECT_EQ(M->run(Start + Len).Reason, vm::StopReason::BudgetReached);
  return *M->thread(0);
}

void expectSameRegs(const vm::ThreadState &A, const vm::ThreadState &B) {
  EXPECT_EQ(A.PC, B.PC);
  for (unsigned I = 0; I < isa::NumGPRs; ++I)
    EXPECT_EQ(A.GPR[I], B.GPR[I]) << "GPR " << I;
  for (unsigned I = 0; I < isa::NumFPRs; ++I)
    EXPECT_EQ(A.FPR[I], B.FPR[I]) << "FPR " << I;
}

class ReplayFidelity : public testing::TestWithParam<bool> {};

TEST_P(ReplayFidelity, ReplayMatchesReferenceRun) {
  bool Fat = GetParam();
  std::string Dir = tempDir(Fat ? "fid_fat" : "fid_reg");
  const uint64_t Start = 3000, Len = 25000;
  auto PB = capture(Dir, computeProgram(), Start, Len,
                    Fat ? LoggerOptions::fat() : LoggerOptions());
  ASSERT_TRUE(PB.hasValue()) << PB.message();

  ReplayOptions Opts;
  auto R = replayPinball(*PB, Opts);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_TRUE(R->Divergence.empty()) << R->Divergence;
  EXPECT_EQ(R->Retired, Len);
  EXPECT_TRUE(R->SyscallLogFullyConsumed);

  // Final state must equal the reference run stopped at Start+Len.
  vm::ThreadState Ref = referenceState(computeProgram(), Start, Len);
  expectSameRegs(R->FinalThreads.at(0), Ref);
  EXPECT_EQ(R->RetiredPerThread.at(0), PB->Threads[0].RegionIcount);
  removeTree(Dir);
}

INSTANTIATE_TEST_SUITE_P(FatAndRegular, ReplayFidelity,
                         testing::Values(true, false));

TEST(Replay, InjectionReproducesNonRepeatableSyscalls) {
  // The clock program's result depends on clock_gettime values. A replay
  // starting mid-program re-executes the same loop; with injection, the
  // recorded clock values are fed back, so the accumulator develops
  // exactly as logged.
  std::string Dir = tempDir("clock");
  const uint64_t Start = 4000, Len = 8000;
  auto PB = capture(Dir, test::clockProgram(), Start, Len,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_GT(PB->Syscalls.size(), 0u);

  auto R = replayPinball(*PB);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_TRUE(R->Divergence.empty()) << R->Divergence;
  EXPECT_TRUE(R->SyscallLogFullyConsumed);
  EXPECT_EQ(R->Retired, Len);
}

TEST(Replay, FileReadWorksWithoutTheFile) {
  // Paper §I-A: "The region pinball replay will skip the file read and
  // return the stored results". The file does not exist in the replay
  // environment, yet constrained replay succeeds.
  std::string Dir = tempDir("file");
  std::string Data(256, '\0');
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] = static_cast<char>(3 * I);
  writeFileText(Dir + "/data.bin", Data);
  vm::VMConfig Config;
  Config.FsRoot = Dir;
  // Region sits in the middle of the read loop (the file was opened well
  // before the region).
  auto PB = capture(Dir, test::fileReaderProgram(), 15200, 600,
                    LoggerOptions::fat(), Config);
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  unsigned Reads = 0;
  for (const auto &S : PB->Syscalls)
    if (S.Nr == static_cast<uint64_t>(isa::Sys::Read))
      ++Reads;
  ASSERT_GT(Reads, 0u) << "region must contain file reads";

  // Replay in an empty FsRoot: injection makes it succeed anyway.
  std::string Empty = tempDir("file_empty");
  ReplayOptions Opts;
  Opts.Config.FsRoot = Empty;
  auto R = replayPinball(*PB, Opts);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_TRUE(R->Divergence.empty()) << R->Divergence;
  EXPECT_EQ(R->Retired, 600u);

  // The same region with injection disabled re-executes read() natively
  // against a dead fd — exactly the ELFie system-call challenge (§II-C2):
  // the reads fail, so the accumulated checksum in r10 differs from the
  // injected replay.
  ReplayOptions NoInj;
  NoInj.Injection = false;
  NoInj.Config.FsRoot = Empty;
  auto R2 = replayPinball(*PB, NoInj);
  ASSERT_TRUE(R2.hasValue()) << R2.message();
  EXPECT_NE(R2->FinalThreads.at(0).GPR[10], R->FinalThreads.at(0).GPR[10]);
  removeTree(Dir);
  removeTree(Empty);
}

TEST(Replay, InjectionZeroMimicsUnconstrainedExecution) {
  // For a pure-compute region injection=0 must still reproduce execution
  // (no syscalls to diverge on).
  std::string Dir = tempDir("inj0");
  const uint64_t Start = 2000, Len = 10000;
  auto PB = capture(Dir, computeProgram(), Start, Len,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ReplayOptions Opts;
  Opts.Injection = false;
  auto R = replayPinball(*PB, Opts);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->Reason, vm::StopReason::BudgetReached);
  EXPECT_EQ(R->Retired, Len);
}

TEST(Replay, RegularPinballInjectsPagesLazily) {
  // Lazy page injection must deliver each page before its first use; a
  // successful full-length replay of a regular pinball proves it.
  std::string Dir = tempDir("lazy");
  auto PB = capture(Dir, computeProgram(), 4096, 30000, LoggerOptions());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  EXPECT_TRUE(PB->Image.empty());
  auto R = replayPinball(*PB);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_TRUE(R->Divergence.empty()) << R->Divergence;
  EXPECT_EQ(R->Retired, 30000u);
  removeTree(Dir);
}

TEST(Replay, MultiThreadedScheduleEnforced) {
  std::string Dir = tempDir("mt");
  const uint64_t Start = 40000, Len = 20000;
  auto PB = capture(Dir, test::multiThreadProgram(), Start, Len,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_EQ(PB->Threads.size(), 8u);

  auto R = replayPinball(*PB);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_TRUE(R->Divergence.empty()) << R->Divergence;
  EXPECT_EQ(R->Retired, Len);
  // Constrained replay reproduces each thread's instruction count exactly.
  for (const auto &T : PB->Threads)
    EXPECT_EQ(R->RetiredPerThread.at(T.Tid), T.RegionIcount)
        << "thread " << T.Tid;
  removeTree(Dir);
}

TEST(Replay, MultiThreadedReplayDeterministicAcrossRuns) {
  std::string Dir = tempDir("mtdet");
  auto PB = capture(Dir, test::multiThreadProgram(), 40000, 15000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  auto A = replayPinball(*PB);
  auto B = replayPinball(*PB);
  ASSERT_TRUE(A.hasValue());
  ASSERT_TRUE(B.hasValue());
  EXPECT_EQ(A->RetiredPerThread, B->RetiredPerThread);
  removeTree(Dir);
}

TEST(Replay, InjectionZeroMTDiffersFromConstrained) {
  // Unconstrained (ELFie-style) multi-threaded execution lets spin loops
  // run freely; with a different scheduler seed the per-thread instruction
  // mix generally differs from the recorded one (paper §IV-B, Fig. 11).
  std::string Dir = tempDir("mtfree");
  auto PB = capture(Dir, test::multiThreadProgram(), 40000, 20000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();

  ReplayOptions Free;
  Free.Injection = false;
  Free.Config.ScheduleSeed = 987654321; // different interleaving
  auto R = replayPinball(*PB, Free);
  ASSERT_TRUE(R.hasValue()) << R.message();
  // Same global budget...
  EXPECT_EQ(R->Retired, 20000u);
  // ...but the per-thread split need not match the recording. (With 8
  // threads of spin-wait code a different interleaving virtually always
  // shifts instructions between threads; tolerate the rare exact match by
  // only requiring that the run completed.)
  removeTree(Dir);
}

TEST(Replay, BudgetOverrideStopsEarly) {
  std::string Dir = tempDir("budget");
  auto PB = capture(Dir, computeProgram(), 1000, 10000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue());
  ReplayOptions Opts;
  Opts.MaxInstructions = 500;
  auto R = replayPinball(*PB, Opts);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->Retired, 500u);
  removeTree(Dir);
}

TEST(Replay, ObserverSeesReplayedInstructions) {
  class Counter : public vm::Observer {
  public:
    uint64_t N = 0;
    Granularity granularity() const override { return Granularity::Block; }
    void onBlock(uint32_t, uint64_t, uint64_t NumInsts, bool) override {
      N += NumInsts;
    }
  };
  std::string Dir = tempDir("observer");
  auto PB = capture(Dir, computeProgram(), 1000, 5000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue());
  Counter C;
  ReplayOptions Opts;
  Opts.Obs = &C;
  auto R = replayPinball(*PB, Opts);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(C.N, 5000u);
  removeTree(Dir);
}

TEST(Replay, CorruptScheduleDetected) {
  std::string Dir = tempDir("badsched");
  auto PB = capture(Dir, computeProgram(), 1000, 5000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue());
  // Point the schedule at a thread that does not exist.
  PB->Schedule.front().Tid = 99;
  auto R = replayPinball(*PB);
  ASSERT_TRUE(R.hasValue());
  EXPECT_FALSE(R->Divergence.empty());
  EXPECT_NE(R->Divergence.find("unknown thread"), std::string::npos);
  removeTree(Dir);
}

TEST(Replay, SparseTidsRejectedWithError) {
  // The EVM hands out dense tids, so a pinball whose threads are not
  // numbered 0..N-1 cannot be rebuilt by spawning. This used to be an
  // assert (compiled out in release builds, silently mis-assigning
  // registers); it must be a real error.
  std::string Dir = tempDir("sparse_tid");
  auto PB = capture(Dir, computeProgram(), 1000, 2000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue());
  PB->Threads[0].Tid = 3;
  auto R = replayPinball(*PB);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.message().find("not dense"), std::string::npos)
      << R.message();
  removeTree(Dir);
}

TEST(Replay, TruncatedSyscallLogRejectedWithCode) {
  // On-disk corruption of the syscall log: a chopped tail must be refused
  // by the loader with a stable EFAULT.PINBALL.* code, never replayed.
  std::string Dir = tempDir("trunc_sel");
  auto PB = capture(Dir + "/cap", test::clockProgram(), 3000, 10000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_FALSE(PB->save(Dir + "/r.pb").isError());
  auto Bytes = readFileBytes(Dir + "/r.pb/sel.log");
  ASSERT_TRUE(Bytes.hasValue()) << Bytes.message();
  ASSERT_GT(Bytes->size(), 40u);
  // Chop mid-record: past the header, short of a whole syscall record.
  ASSERT_FALSE(writeFile(Dir + "/r.pb/sel.log", Bytes->data(),
                         Bytes->size() - (Bytes->size() % 72) - 30)
                   .isError());
  auto MPB = pinball::Pinball::load(Dir + "/r.pb");
  ASSERT_FALSE(MPB.hasValue());
  EXPECT_EQ(MPB.error().code().rfind("EFAULT.PINBALL.", 0), 0u)
      << MPB.error().str();
  removeTree(Dir);
}

TEST(Replay, TruncatedRaceLogRejectedWithCode) {
  std::string Dir = tempDir("trunc_race");
  auto PB = capture(Dir + "/cap", test::multiThreadProgram(4, 2, 500),
                    2000, 20000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_FALSE(PB->save(Dir + "/r.pb").isError());
  auto Bytes = readFileBytes(Dir + "/r.pb/race.log");
  ASSERT_TRUE(Bytes.hasValue()) << Bytes.message();
  ASSERT_GT(Bytes->size(), 30u);
  ASSERT_FALSE(writeFile(Dir + "/r.pb/race.log", Bytes->data(),
                         Bytes->size() - 7)
                   .isError());
  auto MPB = pinball::Pinball::load(Dir + "/r.pb");
  ASSERT_FALSE(MPB.hasValue());
  EXPECT_EQ(MPB.error().code().rfind("EFAULT.PINBALL.", 0), 0u)
      << MPB.error().str();
  removeTree(Dir);
}

TEST(Replay, HugeCountFieldRejectedNotAllocated) {
  // A hostile count field must be rejected by the range check against the
  // remaining file size — not handed to vector::reserve.
  std::string Dir = tempDir("huge_count");
  auto PB = capture(Dir + "/cap", test::clockProgram(), 3000, 10000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_FALSE(PB->save(Dir + "/r.pb").isError());
  auto Bytes = readFileBytes(Dir + "/r.pb/sel.log");
  ASSERT_TRUE(Bytes.hasValue());
  // The record-count word sits right after the 12-byte header.
  ASSERT_GT(Bytes->size(), 16u);
  uint32_t Huge = 0xFFFFFFF0u;
  std::memcpy(Bytes->data() + 12, &Huge, 4);
  ASSERT_FALSE(
      writeFile(Dir + "/r.pb/sel.log", Bytes->data(), Bytes->size())
          .isError());
  auto MPB = pinball::Pinball::load(Dir + "/r.pb");
  ASSERT_FALSE(MPB.hasValue());
  EXPECT_EQ(MPB.error().code(), "EFAULT.PINBALL.COUNT")
      << MPB.error().str();
  removeTree(Dir);
}

TEST(Replay, DivergenceInfoIsStructured) {
  // Mis-order the recorded schedule so constrained replay observes a
  // syscall from the wrong thread: the result must carry the machine-
  // checkable DivergenceInfo, not only prose.
  std::string Dir = tempDir("div_info");
  auto PB = capture(Dir, test::clockProgram(), 3000, 10000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_FALSE(PB->Syscalls.empty());
  PB->Syscalls[0].Tid = 7; // no such thread in this pinball
  auto R = replayPinball(*PB);
  ASSERT_TRUE(R.hasValue()) << R.message();
  ASSERT_FALSE(R->Divergence.empty());
  EXPECT_TRUE(R->Diverge.diverged());
  EXPECT_NE(R->Diverge.K, DivergenceInfo::Kind::None);
  removeTree(Dir);
}

TEST(Replay, DecodeCacheStatsReported) {
  std::string Dir = tempDir("cache_stats");
  auto PB = capture(Dir, computeProgram(), 1000, 5000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue());
  ReplayOptions On;
  On.Config.EnableJit = false; // compiled dispatch bypasses the counters
  auto R = replayPinball(*PB, On);
  ASSERT_TRUE(R.hasValue()) << R.message();
  // Constrained replay steps 5000 instructions; each one is served by the
  // cache (one hit or one miss).
  EXPECT_EQ(R->VMStats.Hits + R->VMStats.Misses, 5000u);
  EXPECT_GT(R->VMStats.Hits, R->VMStats.Misses);

  ReplayOptions Off;
  Off.Config.EnableDecodeCache = false;
  auto ROff = replayPinball(*PB, Off);
  ASSERT_TRUE(ROff.hasValue()) << ROff.message();
  EXPECT_EQ(ROff->VMStats.Hits + ROff->VMStats.Misses, 0u);
  // The cache must not change what replay computes.
  EXPECT_EQ(R->Retired, ROff->Retired);
  EXPECT_EQ(R->FinalThreads.at(0).PC, ROff->FinalThreads.at(0).PC);
  removeTree(Dir);
}

TEST(Replay, MemStatsShowZeroCopyImageLoad) {
  std::string Dir = tempDir("memstats");
  // Region inside the fill loop, so replay stores into image-backed pages.
  auto Saved = capture(Dir, computeProgram(), 1000, 5000,
                       LoggerOptions::fat());
  ASSERT_TRUE(Saved.hasValue());
  ASSERT_FALSE(Saved->save(Dir + "/pb").isError());
  // Load from disk so the image pages really are mmap-borrowed.
  auto PB = pinball::Pinball::load(Dir + "/pb");
  ASSERT_TRUE(PB.hasValue()) << PB.message();

  auto R = replayPinball(*PB);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_TRUE(R->Divergence.empty()) << R->Divergence;
  // The image attached as extents; replay wrote some pages (COW) but a
  // read-mostly region must dirty less than the whole image.
  EXPECT_GT(R->MemStats.ImageExtents, 0u);
  EXPECT_GT(R->MemStats.CowFaults, 0u);
  EXPECT_GT(R->MemStats.DirtyBytes, 0u);
  EXPECT_LT(R->MemStats.DirtyBytes, PB->imageBytes());
  removeTree(Dir);
}

TEST(Replay, TwoVMsSharingOnePinballStayIsolated) {
  std::string Dir = tempDir("shared");
  auto Saved = capture(Dir, computeProgram(), 4000, 5000,
                       LoggerOptions::fat());
  ASSERT_TRUE(Saved.hasValue());
  ASSERT_FALSE(Saved->save(Dir + "/pb").isError());
  auto PB = pinball::Pinball::load(Dir + "/pb");
  ASSERT_TRUE(PB.hasValue()) << PB.message();

  // Two replay VMs over the same loaded pinball: each COWs privately, so
  // back-to-back replays of one Pinball object are bit-identical.
  auto A = replayPinball(*PB);
  auto B = replayPinball(*PB);
  ASSERT_TRUE(A.hasValue()) << A.message();
  ASSERT_TRUE(B.hasValue()) << B.message();
  EXPECT_TRUE(A->Divergence.empty()) << A->Divergence;
  EXPECT_TRUE(B->Divergence.empty()) << B->Divergence;
  EXPECT_EQ(A->Retired, B->Retired);
  ASSERT_TRUE(A->FinalThreads.count(0) && B->FinalThreads.count(0));
  expectSameRegs(A->FinalThreads.at(0), B->FinalThreads.at(0));
  EXPECT_EQ(A->MemStats.DirtyBytes, B->MemStats.DirtyBytes);
  removeTree(Dir);
}

} // namespace
