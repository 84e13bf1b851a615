//===- tests/pinball/PinballTest.cpp - Format + logger behaviour ----------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "pinball/Pinball.h"

#include "../common/TestHelpers.h"
#include "pinball/Logger.h"
#include "replay/Replayer.h"
#include "support/Sha256.h"

#include <gtest/gtest.h>

using namespace elfie;
using namespace elfie::pinball;
using test::capture;
using test::computeProgram;

namespace {

std::string tempDir(const std::string &Name) {
  std::string D = testing::TempDir() + "/elfie_pb_" + Name;
  removeTree(D);
  createDirectories(D);
  return D;
}

TEST(Logger, FatPinballCapturesRegion) {
  std::string Dir = tempDir("fat");
  auto PB = capture(Dir, computeProgram(), 1000, 20000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  EXPECT_TRUE(PB->isFat());
  EXPECT_EQ(PB->Meta.RegionStart, 1000u);
  EXPECT_EQ(PB->Meta.RegionLength, 20000u);
  ASSERT_EQ(PB->Threads.size(), 1u);
  EXPECT_EQ(PB->Threads[0].RegionIcount, 20000u);
  // Fat pinball: everything in the image, no lazy records.
  EXPECT_TRUE(PB->Injects.empty());
  EXPECT_GT(PB->Image.size(), 2u); // text + data + stack at least
  // The schedule covers exactly the region.
  uint64_t Total = 0;
  for (const auto &S : PB->Schedule)
    Total += S.NumInsts;
  EXPECT_EQ(Total, 20000u);
  removeTree(Dir);
}

TEST(Logger, RegularPinballUsesLazyInjection) {
  std::string Dir = tempDir("regular");
  auto PB = capture(Dir, computeProgram(), 1000, 20000, LoggerOptions());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  EXPECT_FALSE(PB->isFat());
  EXPECT_TRUE(PB->Image.empty());
  EXPECT_GT(PB->Injects.size(), 0u);
  // First injection must be at icount 0 (the first instruction fetch).
  uint64_t MinIcount = UINT64_MAX;
  for (const auto &I : PB->Injects)
    MinIcount = std::min(MinIcount, I.FirstUseIcount);
  EXPECT_EQ(MinIcount, 0u);
  removeTree(Dir);
}

TEST(Logger, WholeImageCapturesUntouchedPages) {
  std::string Dir = tempDir("whole");
  LoggerOptions OnlyWhole;
  OnlyWhole.WholeImage = true;
  auto Whole = capture(Dir, computeProgram(), 1000, 100, OnlyWhole);
  ASSERT_TRUE(Whole.hasValue()) << Whole.message();
  auto Regular = capture(Dir, computeProgram(), 1000, 100, LoggerOptions());
  ASSERT_TRUE(Regular.hasValue()) << Regular.message();
  // A 100-instruction region touches few pages; the whole image holds all
  // mapped pages (text + data + full stack), strictly more.
  EXPECT_GT(Whole->Image.size(), Regular->Injects.size());
  removeTree(Dir);
}

TEST(Logger, FatPinballLargerThanRegular) {
  // Paper §II-A: "a fat pinball can be much larger than a regular pinball".
  std::string Dir = tempDir("size");
  auto Fat =
      capture(Dir, computeProgram(), 1000, 100, LoggerOptions::fat());
  auto Regular = capture(Dir, computeProgram(), 1000, 100, LoggerOptions());
  ASSERT_TRUE(Fat.hasValue());
  ASSERT_TRUE(Regular.hasValue());
  EXPECT_GT(Fat->imageBytes(), Regular->imageBytes());
  removeTree(Dir);
}

TEST(Logger, CapturedPagesHoldRegionStartContents) {
  // The lazy capture must record page contents as of region start, not as
  // of first touch after later writes. We verify by comparing against a
  // reference run stopped at region start.
  std::string Dir = tempDir("contents");
  const uint64_t Start = 5000;
  auto PB = capture(Dir, computeProgram(), Start, 30000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();

  auto Ref = test::makeVM(computeProgram(), nullptr);
  ASSERT_NE(Ref, nullptr);
  ASSERT_EQ(Ref->run(Start).Reason, vm::StopReason::BudgetReached);
  for (const PageRecord &P : PB->Image) {
    const uint8_t *Page = Ref->mem().pageData(P.Addr);
    ASSERT_NE(Page, nullptr) << "page " << std::hex << P.Addr;
    // Content comparison via the collision-resistant content hash; the
    // old fnv1a comparison could in principle pass on differing pages.
    EXPECT_EQ(sha256Hex(P.Bytes.data(), P.Bytes.size()),
              sha256Hex(Page, vm::GuestPageSize))
        << "page contents differ at " << std::hex << P.Addr;
  }
  removeTree(Dir);
}

TEST(Logger, RegistersMatchReferenceRun) {
  std::string Dir = tempDir("regs");
  const uint64_t Start = 7777;
  auto PB =
      capture(Dir, computeProgram(), Start, 1000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();

  auto Ref = test::makeVM(computeProgram(), nullptr);
  ASSERT_EQ(Ref->run(Start).Reason, vm::StopReason::BudgetReached);
  const vm::ThreadState *T = Ref->thread(0);
  ASSERT_EQ(PB->Threads.size(), 1u);
  EXPECT_EQ(PB->Threads[0].PC, T->PC);
  for (unsigned I = 0; I < isa::NumGPRs; ++I)
    EXPECT_EQ(PB->Threads[0].GPR[I], T->GPR[I]) << "GPR " << I;
  removeTree(Dir);
}

TEST(Logger, SyscallsRecordedWithSideEffects) {
  std::string Dir = tempDir("syscalls");
  // Create the input file the program reads.
  std::string Data(256, '\0');
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] = static_cast<char>(I);
  writeFileText(Dir + "/data.bin", Data);
  vm::VMConfig Config;
  Config.FsRoot = Dir;
  // Region covers the read loop (starts after the padding loop).
  auto PB = capture(Dir, test::fileReaderProgram(), 16000, 2000,
                    LoggerOptions::fat(), Config);
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  // Region must contain read() records with memory side effects.
  unsigned Reads = 0;
  for (const SyscallRecord &S : PB->Syscalls) {
    if (S.Nr == static_cast<uint64_t>(isa::Sys::Read)) {
      ++Reads;
      ASSERT_EQ(S.MemWrites.size(), 1u);
      EXPECT_EQ(S.MemWrites[0].Bytes.size(),
                static_cast<size_t>(S.Result));
    }
  }
  EXPECT_GT(Reads, 0u);
  removeTree(Dir);
}

TEST(Logger, RegionTruncatedAtProgramExit) {
  std::string Dir = tempDir("trunc");
  // Ask for far more instructions than the program has.
  auto PB = capture(Dir, computeProgram(), 1000, 100000000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  EXPECT_LT(PB->Meta.RegionLength, 100000000u);
  EXPECT_GT(PB->Meta.RegionLength, 10000u);
  removeTree(Dir);
}

TEST(Logger, FailsWhenRegionStartBeyondExit) {
  std::string Dir = tempDir("beyond");
  auto PB = capture(Dir, computeProgram(), 100000000, 100,
                    LoggerOptions::fat());
  ASSERT_FALSE(PB.hasValue());
  EXPECT_NE(PB.message().find("before the region start"), std::string::npos);
  removeTree(Dir);
}

/// A loop whose body first touches a new data page in its middle, once
/// per iteration: a load from `rd` and a store to `wr`, 16 pages each.
std::string pageWalkProgram() {
  return R"(
_start:
  la   r1, rd
  la   r10, wr
  ldi  r2, 0
  ldi  r3, 16
  ldi  r6, 0
loop:
  addi r6, r6, 3
  xori r6, r6, 5
  shli r5, r2, 12
  add  r8, r5, r1
  ld8  r4, 8(r8)
  add  r6, r6, r4
  add  r9, r5, r10
  st8  r6, 24(r9)
  addi r2, r2, 1
  blt  r2, r3, loop
  mov  r1, r6
  ldi  r7, 1
  syscall
  .data
  .align 4096
rd:  .space 65536
wr:  .space 65536
)";
}

TEST(Logger, LazyFirstUseIcountExactInsideCompiledBlocks) {
  // With an eager JIT the loop runs compiled inside the region, so most
  // first touches of the `rd`/`wr` pages happen in the middle of a
  // compiled block. The helpers hand those accesses to the interpreter,
  // so each inject record must carry the interpreter's exact count.
  struct Capture {
    std::vector<InjectRecord> Injects;
    uint64_t JitHits = 0;
  };
  auto Run = [](bool Jit) {
    vm::VMConfig C;
    C.EnableJit = Jit;
    C.JitThreshold = 1;
    auto M = test::makeVM(pageWalkProgram(), nullptr, C);
    Capture Out;
    EXPECT_NE(M, nullptr);
    if (!M)
      return Out;
    EXPECT_EQ(M->run(12).Reason, vm::StopReason::BudgetReached);
    RegionLogger L(*M, LoggerOptions());
    L.beginRegion();
    M->setObserver(&L);
    uint64_t HitsBefore = M->jitStats().Hits;
    vm::RunResult R = M->run(150);
    M->setObserver(nullptr);
    EXPECT_EQ(R.Reason, vm::StopReason::BudgetReached)
        << R.FaultInfo.Message;
    Out.JitHits = M->jitStats().Hits - HitsBefore;
    Out.Injects = L.endRegion().Injects;
    return Out;
  };
  Capture Jit = Run(true), Interp = Run(false);
  EXPECT_GT(Jit.JitHits, 0u) << "the region must run compiled";
  EXPECT_EQ(Interp.JitHits, 0u);
  // Code page, plus most of the 2 x 16 data pages.
  ASSERT_GT(Interp.Injects.size(), 16u);
  ASSERT_EQ(Jit.Injects.size(), Interp.Injects.size());
  for (size_t I = 0; I < Interp.Injects.size(); ++I) {
    EXPECT_EQ(Jit.Injects[I].Page.Addr, Interp.Injects[I].Page.Addr) << I;
    EXPECT_EQ(Jit.Injects[I].FirstUseIcount, Interp.Injects[I].FirstUseIcount)
        << "page " << std::hex << Interp.Injects[I].Page.Addr;
    EXPECT_EQ(Jit.Injects[I].Page.Bytes, Interp.Injects[I].Page.Bytes) << I;
  }
}

TEST(Logger, MultiThreadedCapture) {
  std::string Dir = tempDir("mt");
  // Fast-forward past thread creation so all 8 threads exist at region
  // start, then capture a slice of the parallel phase.
  auto PB = capture(Dir, test::multiThreadProgram(), 40000, 30000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  EXPECT_EQ(PB->Threads.size(), 8u);
  // All threads should have executed in the region (active-wait spinning).
  std::set<uint32_t> Seen;
  for (const auto &S : PB->Schedule)
    Seen.insert(S.Tid);
  EXPECT_EQ(Seen.size(), 8u);
  uint64_t TotalPerThread = 0;
  for (const auto &T : PB->Threads)
    TotalPerThread += T.RegionIcount;
  EXPECT_EQ(TotalPerThread, PB->Meta.RegionLength);
  removeTree(Dir);
}

// ---- Serialization ----

TEST(PinballFormat, SaveLoadRoundTrip) {
  std::string Dir = tempDir("roundtrip");
  auto PB = capture(Dir, computeProgram(), 2000, 5000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  PB->Meta.ProgramName = "compute";

  std::string PBDir = Dir + "/region.pb";
  ASSERT_FALSE(PB->save(PBDir).isError());
  auto Loaded = Pinball::load(PBDir);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();

  EXPECT_EQ(Loaded->Meta.ProgramName, "compute");
  EXPECT_EQ(Loaded->Meta.RegionStart, PB->Meta.RegionStart);
  EXPECT_EQ(Loaded->Meta.RegionLength, PB->Meta.RegionLength);
  EXPECT_EQ(Loaded->Meta.StackTop, PB->Meta.StackTop);
  EXPECT_EQ(Loaded->Meta.BrkAtStart, PB->Meta.BrkAtStart);
  ASSERT_EQ(Loaded->Image.size(), PB->Image.size());
  for (size_t I = 0; I < PB->Image.size(); ++I) {
    EXPECT_EQ(Loaded->Image[I].Addr, PB->Image[I].Addr);
    EXPECT_EQ(Loaded->Image[I].Perm, PB->Image[I].Perm);
    EXPECT_EQ(Loaded->Image[I].Bytes, PB->Image[I].Bytes);
  }
  ASSERT_EQ(Loaded->Threads.size(), PB->Threads.size());
  EXPECT_EQ(Loaded->Threads[0].PC, PB->Threads[0].PC);
  EXPECT_EQ(Loaded->Threads[0].RegionIcount, PB->Threads[0].RegionIcount);
  ASSERT_EQ(Loaded->Syscalls.size(), PB->Syscalls.size());
  ASSERT_EQ(Loaded->Schedule.size(), PB->Schedule.size());
  EXPECT_EQ(Loaded->OutputLog, PB->OutputLog);
  removeTree(Dir);
}

TEST(PinballFormat, VersionOneFileRejected) {
  std::string Dir = tempDir("version1");
  auto PB = capture(Dir, computeProgram(), 100, 1000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  std::string PBDir = Dir + "/r.pb";
  ASSERT_FALSE(PB->save(PBDir).isError());
  auto Bytes = readFileBytes(PBDir + "/image.text");
  ASSERT_TRUE(Bytes.hasValue());
  uint32_t V1 = 1; // the dense format, before zero page records
  std::memcpy(Bytes->data() + 4, &V1, sizeof(V1));
  ASSERT_FALSE(
      writeFile(PBDir + "/image.text", Bytes->data(), Bytes->size())
          .isError());
  auto R = Pinball::load(PBDir);
  ASSERT_FALSE(R.hasValue());
  EXPECT_EQ(R.error().code(), "EFAULT.PINBALL.VERSION") << R.message();
  removeTree(Dir);
}

/// Reads every 8-byte word of the all-zero page `zeros` and of the
/// non-zero page `ones`, round after round, and exits with the sum.
std::string zeroPageProgram() {
  return R"(
_start:
  ldi  r3, 0
  ldi  r4, 3000
  ldi  r6, 0
loop:
  la   r1, zeros
  la   r2, ones
  andi r5, r3, 511
  shli r5, r5, 3
  add  r8, r1, r5
  ld8  r9, 0(r8)
  add  r6, r6, r9
  add  r8, r2, r5
  ld8  r9, 0(r8)
  add  r6, r6, r9
  addi r3, r3, 1
  blt  r3, r4, loop
  mov  r1, r6
  ldi  r7, 1
  syscall
  .data
  .align 4096
zeros: .space 4096
ones:  .quad 1, 2, 3, 4, 5, 6, 7, 8
       .space 4032
)";
}

TEST(PinballFormat, ZeroPagesRoundTripAndReplay) {
  // A zero page is saved as a payload-free record and loads as a borrow
  // of the shared zero page, yet stays a mapped page: the region's reads
  // of it succeed under the interpreter and the JIT, while the same reads
  // fault once its record is gone.
  std::string Dir = tempDir("zeropages");
  for (bool Fat : {true, false}) {
    auto PB = capture(Dir, zeroPageProgram(), 100, 20000,
                      Fat ? LoggerOptions::fat() : LoggerOptions());
    ASSERT_TRUE(PB.hasValue()) << PB.message();
    std::string PBDir = Dir + "/r.pb";
    ASSERT_FALSE(PB->save(PBDir).isError());
    auto Loaded = Pinball::load(PBDir);
    ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();

    // Two data pages: `zeros` first, then `ones`. Both are read inside
    // the region, so both are captured either way.
    std::vector<const PageRecord *> Pages = Loaded->allPages();
    size_t Zero = 0, Data = 0;
    for (const PageRecord *P : Pages) {
      ASSERT_EQ(P->Bytes.size(), vm::GuestPageSize);
      bool AllZero = std::all_of(P->Bytes.begin(), P->Bytes.end(),
                                 [](uint8_t B) { return B == 0; });
      EXPECT_EQ(P->Bytes.isZero(), AllZero) << std::hex << P->Addr;
      (P->Bytes.isZero() ? Zero : Data) += 1;
    }
    EXPECT_GT(Zero, 0u);
    EXPECT_GT(Data, 0u);
    // Each zero record costs its 13-byte framing, not 4 KiB.
    auto Size = readFileBytes(PBDir + (Fat ? "/image.text" : "/inject.pages"));
    ASSERT_TRUE(Size.hasValue());
    EXPECT_LT(Size->size(), (Data + 1) * (vm::GuestPageSize + 32));

    std::map<bool, uint64_t> Sum;
    for (bool Jit : {false, true}) {
      replay::ReplayOptions Opts;
      Opts.Config.EnableJit = Jit;
      Opts.Config.JitThreshold = 2;
      auto R = replay::replayPinball(*Loaded, Opts);
      ASSERT_TRUE(R.hasValue()) << R.message();
      EXPECT_NE(R->Reason, vm::StopReason::Faulted) << R->FaultInfo.Message;
      EXPECT_FALSE(R->Diverge.diverged()) << R->Divergence;
      EXPECT_EQ(R->Retired, PB->Meta.RegionLength);
      if (Jit)
        EXPECT_GT(R->JitStats.Hits, 0u);
      Sum[Jit] = R->FinalThreads.at(0).GPR[6];
    }
    EXPECT_EQ(Sum[true], Sum[false]);
    EXPECT_GT(Sum[false], 0u);

    // The lowest-addressed data zero page is `zeros`; without its record
    // its address is unmapped and the first read faults.
    uint64_t ZerosAddr = UINT64_MAX;
    for (const PageRecord *P : Pages)
      if (P->Bytes.isZero() && !(P->Perm & vm::PermExec) &&
          P->Addr < Loaded->Meta.StackBase)
        ZerosAddr = std::min(ZerosAddr, P->Addr);
    ASSERT_NE(ZerosAddr, UINT64_MAX);
    Pinball Unmapped = *Loaded;
    auto IsZeros = [&](const PageRecord &P) { return P.Addr == ZerosAddr; };
    std::erase_if(Unmapped.Image, IsZeros);
    std::erase_if(Unmapped.Injects, [&](const InjectRecord &I) {
      return IsZeros(I.Page);
    });
    for (bool Jit : {false, true}) {
      replay::ReplayOptions Opts;
      Opts.Config.EnableJit = Jit;
      auto R = replay::replayPinball(Unmapped, Opts);
      ASSERT_TRUE(R.hasValue()) << R.message();
      EXPECT_EQ(R->Reason, vm::StopReason::Faulted);
      EXPECT_EQ(vm::pageBase(R->FaultInfo.Addr), ZerosAddr)
          << R->FaultInfo.Message;
    }
    removeTree(PBDir);
  }
  removeTree(Dir);
}

TEST(PinballFormat, LoadMissingDirectoryFails) {
  auto R = Pinball::load("/nonexistent/pinball/dir");
  ASSERT_FALSE(R.hasValue());
}

TEST(PinballFormat, LoadRejectsCorruptMeta) {
  std::string Dir = tempDir("corrupt_meta");
  auto PB = capture(Dir, computeProgram(), 100, 100, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue());
  std::string PBDir = Dir + "/r.pb";
  ASSERT_FALSE(PB->save(PBDir).isError());
  writeFileText(PBDir + "/meta", "garbage");
  auto R = Pinball::load(PBDir);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.message().find("meta"), std::string::npos);
  removeTree(Dir);
}

TEST(PinballFormat, LoadRejectsTruncatedImage) {
  std::string Dir = tempDir("corrupt_image");
  auto PB = capture(Dir, computeProgram(), 100, 1000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue());
  std::string PBDir = Dir + "/r.pb";
  ASSERT_FALSE(PB->save(PBDir).isError());
  auto Bytes = readFileBytes(PBDir + "/image.text");
  ASSERT_TRUE(Bytes.hasValue());
  Bytes->resize(Bytes->size() / 2);
  ASSERT_FALSE(
      writeFile(PBDir + "/image.text", Bytes->data(), Bytes->size())
          .isError());
  auto R = Pinball::load(PBDir);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.message().find("truncated"), std::string::npos);
  removeTree(Dir);
}

TEST(PinballFormat, LoadRejectsMissingRegFile) {
  std::string Dir = tempDir("missing_reg");
  auto PB = capture(Dir, computeProgram(), 100, 1000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue());
  std::string PBDir = Dir + "/r.pb";
  ASSERT_FALSE(PB->save(PBDir).isError());
  removeFile(PBDir + "/t0.reg");
  EXPECT_FALSE(Pinball::load(PBDir).hasValue());
  removeTree(Dir);
}

TEST(PinballFormat, AllPagesCombinesImageAndInjects) {
  Pinball PB;
  PB.Image.resize(2);
  PB.Injects.resize(3);
  EXPECT_EQ(PB.allPages().size(), 5u);
  EXPECT_EQ(PB.imageBytes(), 5 * vm::GuestPageSize);
}

/// A minimal hand-built pinball with the given thread ids.
Pinball pinballWithTids(const std::vector<uint32_t> &Tids) {
  Pinball PB;
  PB.Meta.ProgramName = "sparse";
  PB.Meta.RegionLength = 100;
  for (uint32_t Tid : Tids) {
    ThreadRegs T;
    T.Tid = Tid;
    T.PC = 0x10000 + Tid * 8;
    T.GPR[1] = Tid * 100;
    T.RegionIcount = 10;
    PB.Threads.push_back(T);
  }
  return PB;
}

TEST(PinballFormat, SparseTidsRoundTrip) {
  // save() names register files t<Tid>.reg; load() used to guess
  // t0..t{N-1} from the thread count and fail on sparse tids (e.g. a
  // region captured after thread 1 exited).
  std::string Dir = tempDir("sparse_tids");
  Pinball PB = pinballWithTids({0, 2, 5});
  std::string PBDir = Dir + "/r.pb";
  ASSERT_FALSE(PB.save(PBDir).isError());

  auto Loaded = Pinball::load(PBDir);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  ASSERT_EQ(Loaded->Threads.size(), 3u);
  EXPECT_EQ(Loaded->Threads[0].Tid, 0u);
  EXPECT_EQ(Loaded->Threads[1].Tid, 2u);
  EXPECT_EQ(Loaded->Threads[2].Tid, 5u);
  EXPECT_EQ(Loaded->Threads[2].GPR[1], 500u);
  EXPECT_NE(Loaded->threadRegs(5), nullptr);
  removeTree(Dir);
}

TEST(PinballFormat, DuplicatePageRecordRejected) {
  // A page recorded twice, in image.text or across image.text and
  // inject.pages, would have two contents: load rejects it as a page
  // error.
  std::string Dir = tempDir("duplicate_page");
  std::vector<uint8_t> Bytes(vm::GuestPageSize, 0x5a);
  for (bool AcrossFiles : {false, true}) {
    Pinball PB = pinballWithTids({0});
    PageRecord P;
    P.Addr = 0x10000;
    P.Perm = vm::PermRX;
    P.Bytes.assign(Bytes.data(), Bytes.data() + Bytes.size());
    PB.Image.push_back(P);
    if (AcrossFiles)
      PB.Injects.push_back(InjectRecord{5, P});
    else
      PB.Image.push_back(P);
    std::string PBDir = Dir + (AcrossFiles ? "/across.pb" : "/image.pb");
    ASSERT_FALSE(PB.save(PBDir).isError());
    auto R = Pinball::load(PBDir);
    ASSERT_FALSE(R.hasValue()) << "across files: " << AcrossFiles;
    EXPECT_EQ(R.error().code(), "EFAULT.PINBALL.PAGE") << R.message();
    EXPECT_NE(R.message().find("0x10000"), std::string::npos) << R.message();
  }
  removeTree(Dir);
}

TEST(PinballFormat, RegFileCountMismatchReported) {
  std::string Dir = tempDir("reg_count");
  Pinball PB = pinballWithTids({0, 1, 2});
  std::string PBDir = Dir + "/r.pb";
  ASSERT_FALSE(PB.save(PBDir).isError());
  removeFile(PBDir + "/t1.reg");
  auto R = Pinball::load(PBDir);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.message().find("t*.reg"), std::string::npos);
  removeTree(Dir);
}

TEST(PinballFormat, TruncatedHeaderDistinctFromBadMagic) {
  std::string Dir = tempDir("header_diag");
  Pinball PB = pinballWithTids({0});
  std::string PBDir = Dir + "/r.pb";
  ASSERT_FALSE(PB.save(PBDir).isError());

  // A file shorter than the 12-byte header is "truncated", not "bad
  // magic" (the reader used to return zeros for the missing fields and
  // misreport the magic as wrong).
  writeFileText(PBDir + "/meta", "xy");
  auto Short = Pinball::load(PBDir);
  ASSERT_FALSE(Short.hasValue());
  EXPECT_NE(Short.message().find("truncated"), std::string::npos)
      << Short.message();
  EXPECT_EQ(Short.message().find("magic"), std::string::npos)
      << Short.message();

  // A full-length header with the wrong magic is "not a pinball".
  writeFileText(PBDir + "/meta", "this is not a pinball header");
  auto Bad = Pinball::load(PBDir);
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.message().find("magic"), std::string::npos)
      << Bad.message();
  removeTree(Dir);
}

} // namespace
