//===- tests/core/GuestElfieTest.cpp - guest-target ELFies ----------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Guest-target ELFies are EG64 executables that binary-driven tools run
/// unmodified. The tests load them into a fresh EVM (no Pin-style setup,
/// no replay machinery — exactly how a simulator would consume them) and
/// check that execution continues from the captured state.
///
//===----------------------------------------------------------------------===//

#include "core/Pinball2Elf.h"

#include "../common/TestHelpers.h"

#include <gtest/gtest.h>

using namespace elfie;
using namespace elfie::core;
using pinball::LoggerOptions;
using test::capture;
using test::computeProgram;

namespace {

std::string tempDir(const std::string &Name) {
  std::string D = testing::TempDir() + "/elfie_guest_" + Name;
  removeTree(D);
  createDirectories(D);
  return D;
}

/// Loads a guest ELFie into a fresh VM and starts its entry thread (an
/// ELFie brings its own state; no argv/stack setup).
std::unique_ptr<vm::VM> loadElfie(const std::vector<uint8_t> &Image,
                                  std::shared_ptr<std::string> Out) {
  auto Reader = elf::ELFReader::parse(Image);
  EXPECT_TRUE(Reader.hasValue()) << Reader.message();
  vm::VMConfig Config;
  if (Out)
    Config.StdoutSink = [Out](const char *P, size_t N) {
      Out->append(P, N);
    };
  auto M = std::make_unique<vm::VM>(Config);
  Error E = M->loadELF(*Reader);
  EXPECT_FALSE(E.isError()) << E.message();
  vm::ThreadState T;
  T.PC = M->entry();
  M->spawnThread(T);
  return M;
}

TEST(GuestElfie, ResumesAndMatchesRecordedOutput) {
  std::string Dir = tempDir("resume");
  auto PB = capture(Dir, computeProgram(), 5000, 100000000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  Pinball2ElfOptions Opts;
  Opts.TargetKind = Pinball2ElfOptions::Target::Guest;
  auto Image = pinballToElf(*PB, Opts);
  ASSERT_TRUE(Image.hasValue()) << Image.message();

  auto Reader = elf::ELFReader::parse(*Image);
  ASSERT_TRUE(Reader.hasValue());
  EXPECT_EQ(Reader->machine(), elf::EM_EG64);

  auto Out = std::make_shared<std::string>();
  auto M = loadElfie(*Image, Out);
  auto R = M->run(10000000);
  EXPECT_EQ(R.Reason, vm::StopReason::AllExited)
      << (R.Reason == vm::StopReason::Faulted ? R.FaultInfo.Message : "");
  EXPECT_EQ(*Out, PB->OutputLog);
  EXPECT_EQ(R.ExitCode, 0);
  removeTree(Dir);
}

TEST(GuestElfie, StartupRestoresFullRegisterState) {
  std::string Dir = tempDir("regs");
  const uint64_t Start = 7000;
  // Include FP state in the region by running the FP-heavy program first.
  std::string Src = R"(
_start:
  ldi  r9, 1000
  ldi  r1, 3
  fcvtid f1, r1
  ldi  r1, 7
  fcvtid f2, r1
loop:
  fadd f3, f1, f2
  fdiv f4, f3, f2
  fmul f1, f4, f1
  fsqrt f1, f1
  addi r9, r9, -1
  addi r2, r2, 3
  addi r3, r3, 5
  bnez r9, loop
  fcvtdi r1, f1
  ldi  r7, 1
  syscall
)";
  auto PB = capture(Dir, Src, Start, 100, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();

  Pinball2ElfOptions Opts;
  Opts.TargetKind = Pinball2ElfOptions::Target::Guest;
  Opts.EmitMarkers = false;
  auto Image = pinballToElf(*PB, Opts);
  ASSERT_TRUE(Image.hasValue()) << Image.message();

  // Run only the startup: stop at the captured pc, then compare the whole
  // register file against the pinball.
  auto M = loadElfie(*Image, nullptr);
  // Snapshot the register file the moment control first reaches the
  // captured pc: the startup code jumps there, so a block ends with it as
  // the next pc.
  class StopAtPC : public vm::Observer {
  public:
    vm::VM *M = nullptr;
    uint64_t Target = 0;
    bool Hit = false;
    vm::ThreadState Snapshot;
    Granularity granularity() const override {
      return Granularity::BlockAccesses;
    }
    void onRetiredBlock(const vm::ThreadState &T, uint64_t,
                        std::span<const isa::Inst>,
                        std::span<const vm::MemoryAccess>) override {
      if (T.PC == Target && !Hit) {
        Hit = true;
        Snapshot = T;
        M->requestStop();
      }
    }
  } Obs;
  Obs.M = M.get();
  Obs.Target = PB->Threads[0].PC;
  M->setObserver(&Obs);
  auto R = M->run(100000);
  ASSERT_EQ(R.Reason, vm::StopReason::Stopped);
  ASSERT_TRUE(Obs.Hit);
  EXPECT_EQ(Obs.Snapshot.PC, PB->Threads[0].PC);
  for (unsigned I = 1; I < isa::NumGPRs; ++I)
    EXPECT_EQ(Obs.Snapshot.GPR[I], PB->Threads[0].GPR[I]) << "GPR " << I;
  for (unsigned I = 0; I < isa::NumFPRs; ++I)
    EXPECT_EQ(Obs.Snapshot.FPR[I], PB->Threads[0].FPR[I]) << "FPR " << I;
  removeTree(Dir);
}

TEST(GuestElfie, MarkerVisibleToTools) {
  std::string Dir = tempDir("marker");
  auto PB = capture(Dir, computeProgram(), 2000, 1000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue());
  Pinball2ElfOptions Opts;
  Opts.TargetKind = Pinball2ElfOptions::Target::Guest;
  Opts.MarkerType = isa::MarkerKind::Sniper;
  Opts.MarkerTag = 42;
  auto Image = pinballToElf(*PB, Opts);
  ASSERT_TRUE(Image.hasValue()) << Image.message();

  auto M = loadElfie(*Image, nullptr);
  class MarkerWatch : public vm::Observer {
  public:
    std::vector<std::pair<isa::MarkerKind, int32_t>> Seen;
    Granularity granularity() const override { return Granularity::Events; }
    void onMarker(uint32_t, isa::MarkerKind K, int32_t Tag) override {
      Seen.push_back({K, Tag});
    }
  } Obs;
  M->setObserver(&Obs);
  M->run(100000);
  ASSERT_EQ(Obs.Seen.size(), 1u);
  EXPECT_EQ(Obs.Seen[0].first, isa::MarkerKind::Sniper);
  EXPECT_EQ(Obs.Seen[0].second, 42);
  removeTree(Dir);
}

TEST(GuestElfie, MultiThreadedStartupRecreatesThreads) {
  std::string Dir = tempDir("mt");
  auto PB = capture(Dir, test::multiThreadProgram(8, 4, 2000), 40000,
                    100000000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_EQ(PB->Threads.size(), 8u);

  Pinball2ElfOptions Opts;
  Opts.TargetKind = Pinball2ElfOptions::Target::Guest;
  auto Image = pinballToElf(*PB, Opts);
  ASSERT_TRUE(Image.hasValue()) << Image.message();

  auto Out = std::make_shared<std::string>();
  auto M = loadElfie(*Image, Out);
  auto R = M->run(50000000);
  EXPECT_EQ(R.Reason, vm::StopReason::AllExited)
      << (R.Reason == vm::StopReason::Faulted ? R.FaultInfo.Message : "");
  // The unconstrained rerun still produces the correct total (the atomics
  // and barriers are position-independent).
  ASSERT_EQ(Out->size(), 8u);
  uint64_t Total;
  memcpy(&Total, Out->data(), 8);
  EXPECT_EQ(Total, 8u * 4 * 2000);
  EXPECT_EQ(M->threadIds().size(), 8u);
  removeTree(Dir);
}

TEST(GuestElfie, SymbolsCarryBudgets) {
  std::string Dir = tempDir("syms");
  auto PB = capture(Dir, computeProgram(), 2000, 4000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue());
  Pinball2ElfOptions Opts;
  Opts.TargetKind = Pinball2ElfOptions::Target::Guest;
  auto Image = pinballToElf(*PB, Opts);
  ASSERT_TRUE(Image.hasValue());
  auto Reader = elf::ELFReader::parse(*Image);
  ASSERT_TRUE(Reader.hasValue());
  const auto *Sym = Reader->findSymbol(".t0.icount");
  ASSERT_NE(Sym, nullptr);
  EXPECT_EQ(Sym->Value, 4000u);
  const auto *Len = Reader->findSymbol("elfie_region_length");
  ASSERT_NE(Len, nullptr);
  EXPECT_EQ(Len->Value, 4000u);
  EXPECT_NE(Reader->findSymbol("elfie_t0_start"), nullptr);
  removeTree(Dir);
}

// ---- SysState unit tests (shared dir with core) ----

TEST(SysState, AnalyzeFileReads) {
  std::string Dir = tempDir("ss");
  std::string Data(128, '\0');
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] = static_cast<char>(I ^ 0x5a);
  writeFileText(Dir + "/data.bin", Data);
  vm::VMConfig Config;
  Config.FsRoot = Dir;
  auto PB = capture(Dir, test::fileReaderProgram(), 15200, 800,
                    LoggerOptions::fat(), Config);
  ASSERT_TRUE(PB.hasValue()) << PB.message();

  auto State = sysstate::analyze(*PB);
  ASSERT_EQ(State.Files.size(), 1u);
  const auto &F = State.Files[0];
  EXPECT_EQ(F.Fd, 3);
  EXPECT_TRUE(F.OpenedBeforeRegion);
  EXPECT_FALSE(F.Written);
  EXPECT_GT(F.Contents.size(), 0u);
  // The proxy is populated solely from the region's read() records
  // (paper Fig. 8): its contents are a contiguous chunk of the original
  // file data, relocated to offset 0.
  std::string Chunk(F.Contents.begin(), F.Contents.end());
  EXPECT_NE(Data.find(Chunk), std::string::npos);
  EXPECT_NE(State.report().find("FD_3"), std::string::npos);
  EXPECT_NE(State.report().find("BRK.log"), std::string::npos);
  removeTree(Dir);
}

TEST(SysState, WriteDirectoryLayout) {
  sysstate::SysState S;
  sysstate::FileProxy F;
  F.Fd = 3;
  F.ProxyName = "FD_3";
  F.OpenedBeforeRegion = true;
  F.Contents = {1, 2, 3};
  S.Files.push_back(F);
  S.BrkStart = 0x10000000;
  S.BrkEnd = 0x10002000;
  std::string Dir = tempDir("ssdir");
  ASSERT_FALSE(sysstate::writeSysstateDir(S, Dir + "/x.sysstate").isError());
  EXPECT_TRUE(fileExists(Dir + "/x.sysstate/workdir/FD_3"));
  EXPECT_TRUE(fileExists(Dir + "/x.sysstate/BRK.log"));
  auto Brk = readFileText(Dir + "/x.sysstate/BRK.log");
  ASSERT_TRUE(Brk.hasValue());
  EXPECT_NE(Brk->find("0x10000000"), std::string::npos);
  removeTree(Dir);
}

} // namespace
