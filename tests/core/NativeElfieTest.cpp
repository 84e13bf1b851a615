//===- tests/core/NativeElfieTest.cpp - run real ELFies -------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// The headline differential tests: pinball2elf emits a native x86-64
/// executable, the test runs it as a subprocess, and the observable
/// behaviour (stdout bytes, exit status, perfle instruction counts) must
/// match the EVM execution of the same region.
///
//===----------------------------------------------------------------------===//

#include "core/Pinball2Elf.h"

#include "../common/TestHelpers.h"
#include "support/Format.h"

#include <gtest/gtest.h>

using namespace elfie;
using namespace elfie::core;
using pinball::LoggerOptions;
using test::capture;
using test::computeProgram;
using test::runProcess;

namespace {

std::string tempDir(const std::string &Name) {
  std::string D = testing::TempDir() + "/elfie_native_" + Name;
  removeTree(D);
  createDirectories(D);
  return D;
}

TEST(NativeElfie, RunsRegionToCompletionAndMatchesOutput) {
  std::string Dir = tempDir("basic");
  // Region from mid-program through program exit: the ELFie re-executes
  // the remainder natively, so its stdout and exit code must match the
  // recorded region exactly.
  auto PB = capture(Dir, computeProgram(), 5000, 100000000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_FALSE(PB->OutputLog.empty()) << "region should cover the output";

  Pinball2ElfOptions Opts;
  Opts.Perfle = true;
  std::string Exe = Dir + "/region.elfie";
  Error E = pinballToElfFile(*PB, Opts, Exe);
  ASSERT_FALSE(E.isError()) << E.message();

  auto R = runProcess(Exe);
  ASSERT_TRUE(R.Wait.Exited) << "killed by signal " << R.Wait.Signal
                             << " stderr: " << R.Stderr;
  EXPECT_EQ(R.Wait.ExitCode, 0) << R.Stderr;
  EXPECT_EQ(R.Stdout, PB->OutputLog)
      << "native re-execution must reproduce the recorded region output";

  // perfle: thread 0 retired exactly the pinball's budget.
  auto Perf = parsePerfle(R.Stderr);
  ASSERT_EQ(Perf.size(), 1u) << R.Stderr;
  EXPECT_EQ(Perf[0].Thread, 0u);
  EXPECT_EQ(Perf[0].Retired, PB->Threads[0].RegionIcount);
  EXPECT_GT(Perf[0].Cycles, 0u);
  removeTree(Dir);
}

TEST(NativeElfie, GracefulExitAtInstructionBudget) {
  std::string Dir = tempDir("budget");
  // Mid-program region: the countdown must stop the thread after exactly
  // the captured number of instructions (paper §II-C1).
  const uint64_t Len = 12345;
  auto PB = capture(Dir, computeProgram(), 3000, Len, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_EQ(PB->Threads[0].RegionIcount, Len);

  Pinball2ElfOptions Opts;
  Opts.Perfle = true;
  std::string Exe = Dir + "/region.elfie";
  ASSERT_FALSE(pinballToElfFile(*PB, Opts, Exe).isError());

  auto R = runProcess(Exe);
  ASSERT_TRUE(R.Wait.Exited) << "signal " << R.Wait.Signal << " " << R.Stderr;
  EXPECT_EQ(R.Wait.ExitCode, 0);
  auto Perf = parsePerfle(R.Stderr);
  ASSERT_EQ(Perf.size(), 1u) << R.Stderr;
  EXPECT_EQ(Perf[0].Retired, Len)
      << "software retired-instruction counter must stop at the budget";
  removeTree(Dir);
}

TEST(NativeElfie, VerboseBannerAndSymbols) {
  std::string Dir = tempDir("banner");
  auto PB = capture(Dir, computeProgram(), 1000, 2000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue());
  PB->Meta.ProgramName = "compute";

  Pinball2ElfOptions Opts;
  Opts.Verbose = true;
  auto Image = pinballToElf(*PB, Opts);
  ASSERT_TRUE(Image.hasValue()) << Image.message();

  // Inspectable with our own ELF reader: sections and symbols per §II-B5.
  auto Reader = elf::ELFReader::parse(*Image);
  ASSERT_TRUE(Reader.hasValue()) << Reader.message();
  EXPECT_EQ(Reader->machine(), elf::EM_X86_64);
  EXPECT_NE(Reader->findSymbol("elfie_on_start"), nullptr);
  EXPECT_NE(Reader->findSymbol("elfie_on_thread_start"), nullptr);
  EXPECT_NE(Reader->findSymbol("elfie_on_exit"), nullptr);
  EXPECT_NE(Reader->findSymbol(".t0.ctx"), nullptr);
  EXPECT_NE(Reader->findSymbol(".t0.r7"), nullptr);
  const auto *ICount = Reader->findSymbol(".t0.icount");
  ASSERT_NE(ICount, nullptr);
  EXPECT_EQ(ICount->Value, 2000u);
  EXPECT_NE(Reader->findSection(".elfie.text"), nullptr);
  EXPECT_NE(Reader->findSection(".elfie.data"), nullptr);

  std::string Exe = Dir + "/region.elfie";
  ASSERT_FALSE(pinballToElfFile(*PB, Opts, Exe).isError());
  auto R = runProcess(Exe);
  ASSERT_TRUE(R.Wait.Exited) << "signal " << R.Wait.Signal;
  EXPECT_NE(R.Stderr.find("elfie: compute region @1000 len 2000"),
            std::string::npos)
      << R.Stderr;
  removeTree(Dir);
}

TEST(NativeElfie, StackPagesAreStashedAndRemapped) {
  std::string Dir = tempDir("stack");
  // Program that actively uses its stack in the region.
  std::string Src = R"(
_start:
  ldi  r9, 0
  ldi  r8, 200
outer:
  addi sp, sp, -64
  ldi  r2, 0
  ldi  r3, 8
fill:
  shli r4, r2, 3
  add  r4, r4, sp
  add  r5, r2, r9
  st8  r5, 0(r4)
  addi r2, r2, 1
  blt  r2, r3, fill
  ld8  r6, 0(sp)
  ld8  r7, 56(sp)
  add  r9, r9, r6
  add  r9, r9, r7
  addi sp, sp, 64
  addi r8, r8, -1
  bnez r8, outer
  la   r2, out
  st8  r9, 0(r2)
  ldi  r7, 2
  ldi  r1, 1
  ldi  r3, 8
  syscall
  ldi  r7, 1
  ldi  r1, 0
  syscall
  .data
  .align 8
out: .space 8
)";
  auto PB = capture(Dir, Src, 500, 100000000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_EQ(PB->OutputLog.size(), 8u);

  // The emitted image must have a stash section and no PT_LOAD covering
  // the guest stack range (the loader must not map it: §II-B3).
  Pinball2ElfOptions Opts;
  auto Image = pinballToElf(*PB, Opts);
  ASSERT_TRUE(Image.hasValue()) << Image.message();
  auto Reader = elf::ELFReader::parse(*Image);
  ASSERT_TRUE(Reader.hasValue());
  ASSERT_NE(Reader->findSection(".elfie.stash"), nullptr);
  for (const auto &Seg : Reader->segments()) {
    if (Seg.Type != elf::PT_LOAD)
      continue;
    bool InGuestStack = Seg.VAddr >= PB->Meta.StackBase &&
                        Seg.VAddr < PB->Meta.StackTop;
    EXPECT_FALSE(InGuestStack)
        << "checkpointed stack pages must not be loader-mapped";
  }

  std::string Exe = Dir + "/region.elfie";
  ASSERT_FALSE(pinballToElfFile(*PB, Opts, Exe).isError());
  auto R = runProcess(Exe);
  ASSERT_TRUE(R.Wait.Exited) << "signal " << R.Wait.Signal << " " << R.Stderr;
  EXPECT_EQ(R.Wait.ExitCode, 0);
  EXPECT_EQ(R.Stdout, PB->OutputLog)
      << "stack contents must survive the stash+remap";
  removeTree(Dir);
}

TEST(NativeElfie, WriteSyscallReexecutesNatively) {
  std::string Dir = tempDir("write");
  // Region fully covers a stdout write: the ELFie re-executes it for real.
  std::string Src = R"(
_start:
  ldi r9, 3000
pad:
  addi r9, r9, -1
  bnez r9, pad
  ldi r7, 2
  ldi r1, 1
  la  r2, msg
  ldi r3, 14
  syscall
  ldi r7, 1
  ldi r1, 0
  syscall
  .data
msg: .ascii "hello, native\n"
)";
  auto PB = capture(Dir, Src, 100, 100000000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  std::string Exe = Dir + "/region.elfie";
  ASSERT_FALSE(pinballToElfFile(*PB, Pinball2ElfOptions(), Exe).isError());
  auto R = runProcess(Exe);
  ASSERT_TRUE(R.Wait.Exited) << "signal " << R.Wait.Signal << " " << R.Stderr;
  EXPECT_EQ(R.Stdout, "hello, native\n");
  removeTree(Dir);
}

TEST(NativeElfie, MultiThreadedElfieRunsToCompletion) {
  std::string Dir = tempDir("mt");
  // Capture mid-parallel-phase; disable the budget so the program runs to
  // its natural end: all 8 threads are recreated natively and the spin
  // barriers must work under real concurrency.
  auto PB = capture(Dir, test::multiThreadProgram(8, 4, 2000), 40000,
                    100000000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_EQ(PB->Threads.size(), 8u);

  Pinball2ElfOptions Opts;
  Opts.EmitICountChecks = false; // run the remainder of the program
  std::string Exe = Dir + "/region.elfie";
  ASSERT_FALSE(pinballToElfFile(*PB, Opts, Exe).isError());
  auto R = runProcess(Exe);
  ASSERT_TRUE(R.Wait.Exited) << "signal " << R.Wait.Signal << " " << R.Stderr;
  // The program writes the final counter (8 threads * 4 rounds * 2000) as
  // 8 little-endian bytes before exiting.
  ASSERT_EQ(R.Stdout.size(), 8u) << R.Stderr;
  uint64_t Total;
  memcpy(&Total, R.Stdout.data(), 8);
  EXPECT_EQ(Total, 8u * 4 * 2000);
  EXPECT_EQ(R.Wait.ExitCode, static_cast<int>((8 * 4 * 2000) & 0xff));
  removeTree(Dir);
}

TEST(NativeElfie, MultiThreadedGracefulExitWithBudgets) {
  std::string Dir = tempDir("mtbudget");
  auto PB = capture(Dir, test::multiThreadProgram(8, 4, 2000), 40000, 24000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_EQ(PB->Threads.size(), 8u);

  Pinball2ElfOptions Opts;
  Opts.Perfle = true;
  std::string Exe = Dir + "/region.elfie";
  ASSERT_FALSE(pinballToElfFile(*PB, Opts, Exe).isError());
  auto R = runProcess(Exe);
  ASSERT_TRUE(R.Wait.Exited) << "signal " << R.Wait.Signal << " " << R.Stderr;
  EXPECT_EQ(R.Wait.ExitCode, 0);
  // Every thread reports; each retired exactly its budget (spin loops may
  // place the *cut* differently than the log, but the budget mechanism
  // stops each thread at its recorded count).
  auto Perf = parsePerfle(R.Stderr);
  ASSERT_EQ(Perf.size(), 8u) << R.Stderr;
  uint64_t Sum = 0;
  for (const auto &P : Perf)
    Sum += P.Retired;
  EXPECT_EQ(Sum, 24000u);
  removeTree(Dir);
}

TEST(NativeElfie, SysstateDescriptorPreopen) {
  std::string Dir = tempDir("sysstate");
  std::string Data(256, '\0');
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] = static_cast<char>(7 * I + 1);
  writeFileText(Dir + "/data.bin", Data);
  vm::VMConfig Config;
  Config.FsRoot = Dir;
  // Region covers reads through a descriptor opened before the region,
  // plus the program end (sum is exit code & output).
  std::string Src = R"(
_start:
  ldi  r7, 4
  la   r1, path
  ldi  r2, 0
  ldi  r3, 0
  syscall
  mov  r9, r1
  ldi  r2, 0
pad:
  addi r2, r2, 1
  slti r3, r2, 4000
  bnez r3, pad
rloop:
  ldi  r7, 3
  mov  r1, r9
  la   r2, buf
  ldi  r3, 4
  syscall
  beqz r1, done
  la   r2, buf
  ld1  r3, 0(r2)
  add  r10, r10, r3
  addi r11, r11, 1
  slti r3, r11, 32
  bnez r3, rloop
done:
  la   r2, out
  st8  r10, 0(r2)
  ldi  r7, 2
  ldi  r1, 1
  ldi  r3, 8
  syscall
  ldi  r7, 1
  mov  r1, r10
  syscall
  .data
path: .asciz "data.bin"
  .align 8
buf:  .space 8
out:  .space 8
)";
  auto PB = capture(Dir, Src, 12200, 100000000, LoggerOptions::fat(),
                    Config);
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  ASSERT_EQ(PB->OutputLog.size(), 8u);

  // Produce the sysstate directory and embed the preopen table.
  auto State = sysstate::analyze(*PB);
  ASSERT_EQ(State.Files.size(), 1u);
  EXPECT_TRUE(State.Files[0].OpenedBeforeRegion);
  EXPECT_EQ(State.Files[0].ProxyName, "FD_3");
  std::string SSDir = Dir + "/region.pb.sysstate";
  ASSERT_FALSE(sysstate::writeSysstateDir(State, SSDir).isError());

  Pinball2ElfOptions Opts;
  Opts.EmbedSysstate = true;
  std::string Exe = Dir + "/region.elfie";
  ASSERT_FALSE(pinballToElfFile(*PB, Opts, Exe).isError());

  // Run in the sysstate workdir: FD_3 must be preopened and dup()ed so
  // the re-executed reads return the recorded data (paper §II-C2).
  auto R = runProcess(Exe, SSDir + "/workdir");
  ASSERT_TRUE(R.Wait.Exited) << "signal " << R.Wait.Signal << " " << R.Stderr;
  EXPECT_EQ(R.Stdout, PB->OutputLog)
      << "reads through the preopened descriptor must reproduce the data";

  // Negative control: without the workdir the reads fail and the output
  // diverges.
  auto R2 = runProcess(Exe, Dir);
  if (R2.Wait.Exited)
    EXPECT_NE(R2.Stdout, PB->OutputLog);
  removeTree(Dir);
}

TEST(NativeElfie, DivergenceHitsAbortStub) {
  std::string Dir = tempDir("abort");
  // After the region, the program jumps through a pointer into a data
  // page. With the budget disabled, the native ELFie runs past the region
  // end and must die in the abort stub (ungraceful exit, §II-C1).
  std::string Src = R"(
_start:
  ldi  r9, 5000
loop:
  addi r9, r9, -1
  bnez r9, loop
  la   r1, not_code
  jalr r0, r1, 0
  halt
  .data
  .align 8
not_code: .quad 0
)";
  auto PB = capture(Dir, Src, 100, 9000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();

  Pinball2ElfOptions Opts;
  Opts.EmitICountChecks = false;
  std::string Exe = Dir + "/region.elfie";
  ASSERT_FALSE(pinballToElfFile(*PB, Opts, Exe).isError());
  auto R = runProcess(Exe);
  ASSERT_TRUE(R.Wait.Exited) << "signal " << R.Wait.Signal;
  EXPECT_EQ(R.Wait.ExitCode, 127);
  EXPECT_NE(R.Stderr.find("diverged"), std::string::npos) << R.Stderr;
  removeTree(Dir);
}

TEST(NativeElfie, MissingPageIsUngracefulExit) {
  std::string Dir = tempDir("segv");
  auto PB = capture(Dir, computeProgram(), 5000, 100000000,
                    LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();
  // Failure injection: drop the data page holding `table` from the image.
  uint64_t TableAddr = 0;
  for (const auto &P : PB->Image)
    if (!(P.Perm & vm::PermExec) && P.Addr >= 0x10000 &&
        P.Addr < PB->Meta.StackBase) {
      TableAddr = P.Addr;
      break;
    }
  ASSERT_NE(TableAddr, 0u);
  PB->Image.erase(std::remove_if(PB->Image.begin(), PB->Image.end(),
                                 [&](const pinball::PageRecord &P) {
                                   return P.Addr == TableAddr;
                                 }),
                  PB->Image.end());

  std::string Exe = Dir + "/region.elfie";
  ASSERT_FALSE(
      pinballToElfFile(*PB, Pinball2ElfOptions(), Exe).isError());
  auto R = runProcess(Exe);
  // Accessing the missing page is an ungraceful exit — but a *contained*
  // one: the runtime's SIGSEGV handler turns the raw signal into the
  // documented exit code and a structured elfie-fault report on stderr.
  EXPECT_TRUE(R.Wait.Exited);
  EXPECT_EQ(R.Wait.ExitCode, 126);
  EXPECT_NE(R.Stderr.find("elfie-fault: signal 11"), std::string::npos)
      << R.Stderr;
  EXPECT_NE(R.Stderr.find(" addr "), std::string::npos) << R.Stderr;
  EXPECT_NE(R.Stderr.find(" slot "), std::string::npos) << R.Stderr;
  removeTree(Dir);
}

TEST(NativeElfie, WatchdogContainsRunawayRegion) {
  std::string Dir = tempDir("watchdog");
  // A region that spins forever once the graceful-exit countdown is
  // disabled: only the alarm(2) watchdog can end it.
  std::string Src = R"(
_start:
  ldi  r9, 0
spin:
  addi r9, r9, 1
  jmp  spin
)";
  auto PB = capture(Dir, Src, 100, 9000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue()) << PB.message();

  Pinball2ElfOptions Opts;
  Opts.EmitICountChecks = false; // nothing ends the region gracefully
  Opts.WatchdogSecs = 1;
  std::string Exe = Dir + "/region.elfie";
  ASSERT_FALSE(pinballToElfFile(*PB, Opts, Exe).isError());
  auto R = runProcess(Exe);
  ASSERT_TRUE(R.Wait.Exited) << "signal " << R.Wait.Signal;
  EXPECT_EQ(R.Wait.ExitCode, 125);
  EXPECT_NE(R.Stderr.find("elfie-fault: signal 14"), std::string::npos)
      << R.Stderr;
  removeTree(Dir);
}

TEST(NativeElfie, RejectsRegularPinball) {
  std::string Dir = tempDir("reject");
  auto PB = capture(Dir, computeProgram(), 1000, 1000, LoggerOptions());
  ASSERT_TRUE(PB.hasValue());
  auto Image = pinballToElf(*PB, Pinball2ElfOptions());
  ASSERT_FALSE(Image.hasValue());
  EXPECT_NE(Image.message().find("fat pinball"), std::string::npos);
  removeTree(Dir);
}

TEST(NativeElfie, LayoutDescription) {
  std::string Dir = tempDir("layout");
  auto PB = capture(Dir, computeProgram(), 1000, 1000, LoggerOptions::fat());
  ASSERT_TRUE(PB.hasValue());
  std::string Script = describeLayout(*PB, Pinball2ElfOptions());
  EXPECT_NE(Script.find("SECTIONS"), std::string::npos);
  EXPECT_NE(Script.find(".text.0x10000"), std::string::npos);
  EXPECT_NE(Script.find("stashed + remapped"), std::string::npos);
  EXPECT_NE(Script.find(".elfie.text"), std::string::npos);
  removeTree(Dir);
}

} // namespace
