//===- tests/vm/VMTest.cpp - EVM interpreter behaviour --------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "easm/Assembler.h"
#include "elf/ELFReader.h"
#include "support/FileIO.h"

#include <gtest/gtest.h>

using namespace elfie;
using namespace elfie::vm;

namespace {

struct RunOutcome {
  RunResult Result;
  std::string Stdout;
  std::unique_ptr<VM> Machine;
};

/// Assembles, loads, and runs a guest program to completion.
RunOutcome runProgram(const std::string &Src, VMConfig Config = VMConfig(),
                      std::vector<std::string> Args = {},
                      uint64_t Budget = 10000000) {
  RunOutcome Out;
  auto Captured = std::make_shared<std::string>();
  Config.StdoutSink = [Captured](const char *P, size_t N) {
    Captured->append(P, N);
  };
  auto Image = easm::assembleToELF(Src, "test.s");
  EXPECT_TRUE(Image.hasValue()) << Image.message();
  if (!Image)
    return Out;
  auto Reader = elf::ELFReader::parse(*Image);
  EXPECT_TRUE(Reader.hasValue()) << Reader.message();
  Out.Machine = std::make_unique<VM>(Config);
  Error E = Out.Machine->loadELF(*Reader);
  EXPECT_FALSE(E.isError()) << E.message();
  E = Out.Machine->setupMainThread(Args);
  EXPECT_FALSE(E.isError()) << E.message();
  Out.Result = Out.Machine->run(Budget);
  Out.Stdout = *Captured;
  return Out;
}

/// exit_group with the value in r1 after running Body.
std::string exitWith(const std::string &Body) {
  // Switch back to .text in case the body ended inside a data section.
  return Body + "\n"
         "  .text\n"
         "  mov r1, r10\n"
         "  ldi r7, 1\n" // exit_group
         "  syscall\n";
}

TEST(VM, ArithmeticAndExitCode) {
  auto O = runProgram(exitWith("_start:\n"
                               "  ldi r1, 6\n"
                               "  ldi r2, 7\n"
                               "  mul r10, r1, r2\n"));
  EXPECT_EQ(O.Result.Reason, StopReason::AllExited);
  EXPECT_EQ(O.Result.ExitCode, 42);
}

TEST(VM, LoopComputesSum) {
  // sum 1..100 = 5050
  auto O = runProgram(exitWith("_start:\n"
                               "  ldi r1, 0\n"
                               "  ldi r2, 1\n"
                               "  ldi r3, 100\n"
                               "loop:\n"
                               "  add r1, r1, r2\n"
                               "  addi r2, r2, 1\n"
                               "  bge r3, r2, loop\n"
                               "  mov r10, r1\n"));
  EXPECT_EQ(O.Result.ExitCode, 5050);
}

TEST(VM, MemoryLoadsAndStores) {
  auto O = runProgram(exitWith("_start:\n"
                               "  la r1, buf\n"
                               "  ldi r2, 0x1122334455667788\n"
                               "  ldih r2, 0x11223344\n"
                               "  li r3, 0x1122334455667788\n"
                               "  st8 r3, 0(r1)\n"
                               "  ld4 r4, 0(r1)\n"   // 0x55667788
                               "  ld1 r5, 7(r1)\n"   // 0x11
                               "  ld2s r6, 0(r1)\n"  // sext(0x7788)
                               "  add r10, r4, r5\n"
                               "  add r10, r10, r6\n"
                               "  .data\n"
                               "  .align 8\n"
                               "buf: .space 16\n"));
  int64_t Expected = 0x55667788 + 0x11 + 0x7788;
  EXPECT_EQ(O.Result.ExitCode, Expected);
}

TEST(VM, SignExtendingLoads) {
  auto O = runProgram(exitWith("_start:\n"
                               "  la r1, v\n"
                               "  ld1s r10, 0(r1)\n"
                               "  .data\n"
                               "v: .byte 0xff\n"));
  EXPECT_EQ(O.Result.ExitCode, -1);
}

TEST(VM, DivisionSemantics) {
  // div by zero => all ones; rem by zero => dividend (RISC-V rules).
  auto O = runProgram(exitWith("_start:\n"
                               "  ldi r1, 17\n"
                               "  ldi r2, 0\n"
                               "  div r3, r1, r2\n"   // -1
                               "  rem r4, r1, r2\n"   // 17
                               "  add r10, r3, r4\n")); // 16
  EXPECT_EQ(O.Result.ExitCode, 16);
}

TEST(VM, FunctionCallAndReturn) {
  auto O = runProgram(exitWith("_start:\n"
                               "  ldi r1, 5\n"
                               "  call double_it\n"
                               "  mov r10, r1\n"
                               "  jmp end\n"
                               "double_it:\n"
                               "  add r1, r1, r1\n"
                               "  ret\n"
                               "end:\n"));
  EXPECT_EQ(O.Result.ExitCode, 10);
}

TEST(VM, FloatingPoint) {
  // (3.0 + 4.0) * 2.0 = 14.0 -> int
  auto O = runProgram(exitWith("_start:\n"
                               "  ldi r1, 3\n"
                               "  fcvtid f1, r1\n"
                               "  ldi r1, 4\n"
                               "  fcvtid f2, r1\n"
                               "  fadd f3, f1, f2\n"
                               "  fadd f3, f3, f3\n"
                               "  fcvtdi r10, f3\n"));
  EXPECT_EQ(O.Result.ExitCode, 14);
}

TEST(VM, FsqrtAndCompare) {
  auto O = runProgram(exitWith("_start:\n"
                               "  ldi r1, 16\n"
                               "  fcvtid f1, r1\n"
                               "  fsqrt f2, f1\n"
                               "  fcvtdi r10, f2\n"));
  EXPECT_EQ(O.Result.ExitCode, 4);
}

TEST(VM, WriteSyscallCapturesStdout) {
  auto O = runProgram("_start:\n"
                      "  ldi r7, 2\n" // write
                      "  ldi r1, 1\n"
                      "  la r2, msg\n"
                      "  ldi r3, 6\n"
                      "  syscall\n"
                      "  ldi r7, 1\n"
                      "  ldi r1, 0\n"
                      "  syscall\n"
                      "  .data\n"
                      "msg: .ascii \"hello\\n\"\n");
  EXPECT_EQ(O.Result.Reason, StopReason::AllExited);
  EXPECT_EQ(O.Stdout, "hello\n");
}

TEST(VM, ArgcArgvOnStack) {
  auto O = runProgram(exitWith("_start:\n"
                               "  ld8 r10, 0(sp)\n"), // argc
                      VMConfig(), {"prog", "a", "bc"});
  EXPECT_EQ(O.Result.ExitCode, 3);
}

TEST(VM, BrkGrowsHeap) {
  auto O = runProgram(exitWith("_start:\n"
                               "  ldi r7, 7\n" // brk(0) -> base
                               "  ldi r1, 0\n"
                               "  syscall\n"
                               "  mov r9, r1\n"
                               "  addi r1, r9, 8192\n" // grow
                               "  ldi r7, 7\n"
                               "  syscall\n"
                               "  st8 r9, 0(r9)\n"  // store into new heap
                               "  ld8 r10, 0(r9)\n"
                               "  sub r10, r10, r9\n")); // 0 if OK
  EXPECT_EQ(O.Result.ExitCode, 0);
}

TEST(VM, FileIO) {
  std::string Dir = testing::TempDir() + "/evm_fileio";
  createDirectories(Dir);
  writeFileText(Dir + "/in.txt", "ABCDEFGH");
  VMConfig C;
  C.FsRoot = Dir;
  auto O = runProgram(exitWith("_start:\n"
                               "  ldi r7, 4\n" // open
                               "  la r1, path\n"
                               "  ldi r2, 0\n" // O_RDONLY
                               "  ldi r3, 0\n"
                               "  syscall\n"
                               "  mov r9, r1\n" // fd
                               "  ldi r7, 6\n"  // lseek(fd, 4, SET)
                               "  mov r1, r9\n"
                               "  ldi r2, 4\n"
                               "  ldi r3, 0\n"
                               "  syscall\n"
                               "  ldi r7, 3\n" // read(fd, buf, 4)
                               "  mov r1, r9\n"
                               "  la r2, buf\n"
                               "  ldi r3, 4\n"
                               "  syscall\n"
                               "  ldi r7, 5\n" // close
                               "  mov r1, r9\n"
                               "  syscall\n"
                               "  la r2, buf\n"
                               "  ld1 r10, 0(r2)\n" // 'E'
                               "  .data\n"
                               "path: .asciz \"in.txt\"\n"
                               "buf: .space 8\n"),
                      C);
  EXPECT_EQ(O.Result.ExitCode, 'E');
  removeTree(Dir);
}

TEST(VM, OpenMissingFileReturnsNegativeErrno) {
  VMConfig C;
  C.FsRoot = testing::TempDir();
  auto O = runProgram(exitWith("_start:\n"
                               "  ldi r7, 4\n"
                               "  la r1, path\n"
                               "  ldi r2, 0\n"
                               "  ldi r3, 0\n"
                               "  syscall\n"
                               "  mov r10, r1\n"
                               "  .data\n"
                               "path: .asciz \"no_such_file_xyz\"\n"),
                      C);
  EXPECT_EQ(O.Result.ExitCode, -ENOENT);
}

TEST(VM, VirtualClockIsDeterministic) {
  std::string Src = exitWith("_start:\n"
                             "  ldi r7, 8\n"
                             "  syscall\n"
                             "  mov r10, r1\n");
  auto A = runProgram(Src);
  auto B = runProgram(Src);
  EXPECT_EQ(A.Result.ExitCode, B.Result.ExitCode);
  EXPECT_GT(A.Result.ExitCode, 0);
}

TEST(VM, CloneRunsChildThread) {
  // Parent spawns a child that stores 99 to a flag; parent spins on it.
  auto O = runProgram(exitWith("_start:\n"
                               "  ldi r7, 9\n" // clone
                               "  la r1, child\n"
                               "  la r2, childstack+4096\n"
                               "  ldi r3, 77\n" // arg
                               "  syscall\n"
                               "wait:\n"
                               "  la r4, flag\n"
                               "  ld8 r5, 0(r4)\n"
                               "  pause\n"
                               "  beqz r5, wait\n"
                               "  mov r10, r5\n"
                               "  jmp done\n"
                               "child:\n"
                               "  la r4, flag\n"
                               "  addi r2, r1, 22\n" // 77+22=99
                               "  st8 r2, 0(r4)\n"
                               "  ldi r7, 0\n" // exit
                               "  ldi r1, 0\n"
                               "  syscall\n"
                               "done:\n"
                               "  .bss\n"
                               "  .align 8\n"
                               "flag: .space 8\n"
                               "childstack: .space 4096\n"));
  EXPECT_EQ(O.Result.Reason, StopReason::AllExited);
  EXPECT_EQ(O.Result.ExitCode, 99);
}

TEST(VM, AtomicAmoAddAcrossThreads) {
  // 4 children each amoadd 1000x; parent waits for all.
  auto O = runProgram(exitWith(
      "_start:\n"
      "  ldi r9, 0\n" // spawned count
      "spawn:\n"
      "  ldi r7, 9\n"
      "  la r1, child\n"
      "  la r2, stacks\n"
      "  addi r3, r9, 1\n"
      "  muli r4, r3, 4096\n"
      "  add r2, r2, r4\n"
      "  ldi r3, 0\n"
      "  syscall\n"
      "  addi r9, r9, 1\n"
      "  slti r4, r9, 4\n"
      "  bnez r4, spawn\n"
      "waitall:\n"
      "  la r4, done_count\n"
      "  ld8 r5, 0(r4)\n"
      "  pause\n"
      "  slti r6, r5, 4\n"
      "  bnez r6, waitall\n"
      "  la r4, counter\n"
      "  ld8 r10, 0(r4)\n"
      "  jmp out\n"
      "child:\n"
      "  ldi r2, 0\n"
      "  la r3, counter\n"
      "cloop:\n"
      "  ldi r4, 1\n"
      "  amoadd r5, (r3), r4\n"
      "  addi r2, r2, 1\n"
      "  slti r6, r2, 1000\n"
      "  bnez r6, cloop\n"
      "  la r3, done_count\n"
      "  ldi r4, 1\n"
      "  amoadd r5, (r3), r4\n"
      "  ldi r7, 0\n"
      "  ldi r1, 0\n"
      "  syscall\n"
      "out:\n"
      "  .bss\n"
      "  .align 8\n"
      "counter: .space 8\n"
      "done_count: .space 8\n"
      "stacks: .space 20480\n"));
  EXPECT_EQ(O.Result.ExitCode, 4000);
}

TEST(VM, CasSemantics) {
  auto O = runProgram(exitWith("_start:\n"
                               "  la r1, v\n"
                               "  ldi r2, 10\n"
                               "  st8 r2, 0(r1)\n"
                               "  ldi r3, 10\n"  // expected (matches)
                               "  ldi r4, 20\n"  // new
                               "  cas r3, (r1), r4\n" // r3=old=10, v=20
                               "  ldi r5, 99\n"  // expected (mismatches)
                               "  ldi r6, 30\n"
                               "  cas r5, (r1), r6\n" // r5=old=20, v stays 20
                               "  ld8 r7, 0(r1)\n"
                               "  add r10, r3, r5\n"
                               "  add r10, r10, r7\n"
                               "  .bss\n"
                               "  .align 8\n"
                               "v: .space 8\n")); // 10+20+20=50
  EXPECT_EQ(O.Result.ExitCode, 50);
}

TEST(VM, FaultOnUnmappedLoad) {
  auto O = runProgram("_start:\n"
                      "  li r1, 0x5000000000\n"
                      "  ld8 r2, 0(r1)\n"
                      "  halt\n");
  EXPECT_EQ(O.Result.Reason, StopReason::Faulted);
  EXPECT_EQ(O.Result.FaultInfo.Addr, 0x5000000000ull);
  EXPECT_NE(O.Result.FaultInfo.Message.find("unmapped"), std::string::npos);
}

TEST(VM, FaultOnMisalignedJalr) {
  auto O = runProgram("_start:\n"
                      "  ldi r1, 0x10004\n"
                      "  jalr r2, r1, 0\n");
  EXPECT_EQ(O.Result.Reason, StopReason::Faulted);
  EXPECT_NE(O.Result.FaultInfo.Message.find("misaligned"),
            std::string::npos);
}

TEST(VM, FaultOnExecuteDataPage) {
  auto O = runProgram("_start:\n"
                      "  la r1, d\n"
                      "  jalr r2, r1, 0\n"
                      "  .data\n"
                      "  .align 8\n"
                      "d: .quad 0\n");
  EXPECT_EQ(O.Result.Reason, StopReason::Faulted);
}

TEST(VM, HaltStopsMachine) {
  auto O = runProgram("_start:\n  halt\n");
  EXPECT_EQ(O.Result.Reason, StopReason::Halted);
}

TEST(VM, BudgetStopsRun) {
  auto O = runProgram("_start:\n"
                      "loop: jmp loop\n",
                      VMConfig(), {}, /*Budget=*/1000);
  EXPECT_EQ(O.Result.Reason, StopReason::BudgetReached);
  EXPECT_EQ(O.Machine->globalRetired(), 1000u);
}

TEST(VM, RetiredCountsPerThread) {
  auto O = runProgram(exitWith("_start:\n"
                               "  nop\n"
                               "  nop\n"
                               "  ldi r10, 0\n"));
  // nop,nop,ldi,mov,ldi,syscall = 6
  EXPECT_EQ(O.Machine->thread(0)->Retired, 6u);
  EXPECT_EQ(O.Machine->globalRetired(), 6u);
}

// ---- Observer hooks ----

class CountingObserver : public Observer {
public:
  uint64_t Insts = 0, MemOps = 0, Transfers = 0, Syscalls = 0, Markers = 0;
  uint64_t Creates = 0, Exits = 0;
  int32_t LastMarkerTag = 0;
  Granularity granularity() const override {
    return Granularity::BlockAccesses;
  }
  void onRetiredBlock(const ThreadState &, uint64_t,
                      std::span<const isa::Inst> Block,
                      std::span<const MemoryAccess> Accesses) override {
    Insts += Block.size();
    MemOps += Accesses.size();
    Transfers += isa::isControlFlow(Block.back().Op);
  }
  void onSyscall(uint32_t, uint64_t, const uint64_t *, int64_t) override {
    ++Syscalls;
  }
  void onMarker(uint32_t, isa::MarkerKind, int32_t Tag) override {
    ++Markers;
    LastMarkerTag = Tag;
  }
  void onThreadCreate(uint32_t, uint32_t) override { ++Creates; }
  void onThreadExit(uint32_t, int64_t) override { ++Exits; }
};

TEST(VM, ObserverSeesEvents) {
  auto Image = easm::assembleToELF("_start:\n"
                                   "  marker 0, 1\n"
                                   "  la r1, d\n"
                                   "  ld8 r2, 0(r1)\n"
                                   "  st8 r2, 0(r1)\n"
                                   "  jmp next\n"
                                   "next:\n"
                                   "  ldi r7, 1\n"
                                   "  ldi r1, 0\n"
                                   "  syscall\n"
                                   "  .data\n"
                                   "  .align 8\n"
                                   "d: .quad 5\n",
                                   "obs.s");
  ASSERT_TRUE(Image.hasValue()) << Image.message();
  auto Reader = elf::ELFReader::parse(*Image);
  VM M;
  ASSERT_FALSE(M.loadELF(*Reader).isError());
  ASSERT_FALSE(M.setupMainThread().isError());
  CountingObserver Obs;
  M.setObserver(&Obs);
  auto R = M.run();
  EXPECT_EQ(R.Reason, StopReason::AllExited);
  EXPECT_EQ(Obs.Insts, M.globalRetired());
  EXPECT_EQ(Obs.MemOps, 2u);
  EXPECT_EQ(Obs.Transfers, 1u);
  EXPECT_EQ(Obs.Syscalls, 1u);
  EXPECT_EQ(Obs.Markers, 1u);
  EXPECT_EQ(Obs.LastMarkerTag, 1);
  EXPECT_EQ(Obs.Exits, 1u);
}

TEST(VM, ObserverStopRequestHonored) {
  class Stopper : public Observer {
  public:
    VM *M = nullptr;
    uint64_t Seen = 0;
    Granularity granularity() const override {
      return Granularity::BlockAccesses;
    }
    void onRetiredBlock(const ThreadState &, uint64_t,
                        std::span<const isa::Inst> Block,
                        std::span<const MemoryAccess>) override {
      Seen += Block.size();
      if (Seen >= 5)
        M->requestStop();
    }
  };
  auto Image = easm::assembleToELF("_start:\nloop: jmp loop\n", "s.s");
  auto Reader = elf::ELFReader::parse(*Image);
  VM M;
  ASSERT_FALSE(M.loadELF(*Reader).isError());
  ASSERT_FALSE(M.setupMainThread().isError());
  Stopper S;
  S.M = &M;
  M.setObserver(&S);
  auto R = M.run();
  EXPECT_EQ(R.Reason, StopReason::Stopped);
  EXPECT_EQ(M.globalRetired(), 5u);
}

// ---- Determinism ----

TEST(VM, SameSeedSameSchedule) {
  std::string Src = exitWith(
      "_start:\n"
      "  ldi r7, 9\n"
      "  la r1, child\n"
      "  la r2, cstack+4096\n"
      "  ldi r3, 0\n"
      "  syscall\n"
      "  ldi r2, 0\n"
      "ploop:\n"
      "  la r3, shared\n"
      "  ldi r4, 1\n"
      "  amoadd r5, (r3), r4\n"
      "  addi r2, r2, 1\n"
      "  slti r6, r2, 500\n"
      "  bnez r6, ploop\n"
      "  la r3, shared\n"
      "  ld8 r10, 0(r3)\n"
      "  jmp out\n"
      "child:\n"
      "  ldi r2, 0\n"
      "cloop:\n"
      "  la r3, shared\n"
      "  ldi r4, 3\n"
      "  amoadd r5, (r3), r4\n"
      "  addi r2, r2, 1\n"
      "  slti r6, r2, 500\n"
      "  bnez r6, cloop\n"
      "  ldi r7, 0\n"
      "  ldi r1, 0\n"
      "  syscall\n"
      "out:\n"
      "  .bss\n"
      "  .align 8\n"
      "shared: .space 8\n"
      "cstack: .space 4096\n");
  VMConfig C1;
  C1.ScheduleSeed = 42;
  VMConfig C2;
  C2.ScheduleSeed = 42;
  auto A = runProgram(Src, C1);
  auto B = runProgram(Src, C2);
  // Same seed: identical final state including the parent's observed value.
  EXPECT_EQ(A.Result.ExitCode, B.Result.ExitCode);
  EXPECT_EQ(A.Machine->globalRetired(), B.Machine->globalRetired());
}

TEST(VM, StepThreadGivesExactControl) {
  auto Image = easm::assembleToELF("_start:\n"
                                   "  addi r1, r1, 1\n"
                                   "  addi r1, r1, 1\n"
                                   "  halt\n",
                                   "s.s");
  auto Reader = elf::ELFReader::parse(*Image);
  VM M;
  ASSERT_FALSE(M.loadELF(*Reader).isError());
  ASSERT_FALSE(M.setupMainThread().isError());
  EXPECT_EQ(M.stepThread(0), StopReason::BudgetReached);
  EXPECT_EQ(M.thread(0)->GPR[1], 1u);
  EXPECT_EQ(M.stepThread(0), StopReason::BudgetReached);
  EXPECT_EQ(M.thread(0)->GPR[1], 2u);
  EXPECT_EQ(M.stepThread(0), StopReason::Halted);
}

TEST(VM, RunThreadCanEndAtAClone) {
  // clone(entry=child, stack, arg) is the eighth instruction (each `la`
  // is two); the child exits at once. With EndAtClone the batch ends
  // right after the clone.
  auto Image = easm::assembleToELF("_start:\n"
                                   "  ldi  r7, 9\n"
                                   "  la   r1, child\n"
                                   "  la   r2, cstack\n"
                                   "  addi r2, r2, 4096\n"
                                   "  ldi  r3, 0\n"
                                   "  syscall\n"
                                   "  addi r9, r9, 1\n"
                                   "  addi r9, r9, 1\n"
                                   "  halt\n"
                                   "child:\n"
                                   "  ldi  r7, 0\n"
                                   "  ldi  r1, 0\n"
                                   "  syscall\n"
                                   "  .bss\n"
                                   "cstack: .space 4096\n",
                                   "c.s");
  ASSERT_TRUE(Image.hasValue()) << Image.message();
  for (bool EndAtClone : {true, false}) {
    SCOPED_TRACE(EndAtClone);
    auto Reader = elf::ELFReader::parse(*Image);
    VM M;
    ASSERT_FALSE(M.loadELF(*Reader).isError());
    ASSERT_FALSE(M.setupMainThread().isError());
    VM::ThreadRunResult R = M.runThread(0, 100, EndAtClone);
    EXPECT_EQ(M.liveThreadCount(), 2u);
    if (EndAtClone) {
      EXPECT_EQ(R.Reason, StopReason::BudgetReached);
      EXPECT_EQ(R.Executed, 8u);
      EXPECT_EQ(M.thread(0)->GPR[9], 0u);
    } else {
      EXPECT_EQ(R.Reason, StopReason::Halted);
      EXPECT_EQ(M.thread(0)->GPR[9], 2u);
    }
  }
}

// ---- Memory subsystem unit tests ----

TEST(AddressSpace, MapReadWrite) {
  AddressSpace AS;
  AS.map(0x1000, 0x2000, PermRW);
  uint64_t V = 0xdead;
  EXPECT_EQ(AS.write(0x1ff8, &V, 8), MemFault::None); // page-crossing
  uint64_t Out = 0;
  EXPECT_EQ(AS.read(0x1ff8, &Out, 8), MemFault::None);
  EXPECT_EQ(Out, 0xdeadull);
}

TEST(AddressSpace, UnmappedFaults) {
  AddressSpace AS;
  uint64_t V;
  EXPECT_EQ(AS.read(0x5000, &V, 8), MemFault::Unmapped);
  AS.map(0x5000, 0x1000, PermRead);
  EXPECT_EQ(AS.read(0x5000, &V, 8), MemFault::None);
  EXPECT_EQ(AS.write(0x5000, &V, 8), MemFault::NoPermission);
  EXPECT_EQ(AS.fetch(0x5000, &V, 8), MemFault::NoPermission);
}

TEST(AddressSpace, FirstTouchHookFiresOncePerPage) {
  AddressSpace AS;
  AS.map(0x1000, 0x3000, PermRW);
  std::vector<uint64_t> Touched;
  AS.clearAccessTracking();
  AS.setFirstTouchHook(
      [&](uint64_t Addr, const uint8_t *) { Touched.push_back(Addr); });
  uint64_t V = 1;
  AS.write(0x1100, &V, 8);
  AS.write(0x1200, &V, 8); // same page: no second event
  AS.read(0x2f00, &V, 8);  // third page
  ASSERT_EQ(Touched.size(), 2u);
  EXPECT_EQ(Touched[0], 0x1000u);
  EXPECT_EQ(Touched[1], 0x2000u);
  // Hook sees pre-access contents.
  AS.clearAccessTracking();
  std::vector<uint8_t> Snapshot;
  AS.setFirstTouchHook([&](uint64_t, const uint8_t *Bytes) {
    Snapshot.assign(Bytes, Bytes + GuestPageSize);
  });
  uint64_t W = 0x42;
  AS.write(0x1100, &W, 8);
  uint64_t Prev;
  memcpy(&Prev, Snapshot.data() + 0x100, 8);
  EXPECT_EQ(Prev, 1u) << "hook must observe the value before the write";
}

TEST(AddressSpace, UnmapRemovesPages) {
  AddressSpace AS;
  AS.map(0x1000, 0x2000, PermRW);
  AS.unmap(0x1000, 0x1000);
  EXPECT_FALSE(AS.isMapped(0x1000));
  EXPECT_TRUE(AS.isMapped(0x2000));
}

TEST(AddressSpace, ReadCString) {
  AddressSpace AS;
  AS.map(0x1000, 0x1000, PermRW);
  AS.write(0x1000, "hi", 3);
  auto S = AS.readCString(0x1000);
  ASSERT_TRUE(S.hasValue());
  EXPECT_EQ(*S, "hi");
  EXPECT_FALSE(AS.readCString(0x9000).hasValue());
}

} // namespace
