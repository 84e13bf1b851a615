//===- tests/vm/JitTest.cpp - EVM JIT dispatch behaviour ------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// The JIT is a pure dispatch optimization: with `EnableJit` on or off the
/// EVM must retire the identical instruction stream, fire the same faults,
/// and count the same budgets. These tests pin that equivalence (the full
/// lockstep differential lives in tests/replay/JitDifferentialTest.cpp),
/// the promotion/invalidation machinery, compiled dispatch under an Events
/// observer, the (PC, count) stop condition (which interprets while
/// armed), and multi-threaded self-modifying-code coherence.
///
/// On non-x86-64 hosts EnableJit is silently inert, so the equivalence
/// tests still run (trivially); only the stats assertions are gated.
///
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "../common/TestHelpers.h"
#include "RawVM.h"
#include "isa/ISA.h"

#include <gtest/gtest.h>

#include <map>
#include <tuple>

using namespace elfie;
using namespace elfie::vm;
using test::CodeBase;
using test::computeProgram;
using test::I3;
using test::jitConfig;
using test::makeVM;
using test::multiThreadProgram;
using test::rawVM;

namespace {

TEST(Jit, HotLoopMatchesInterpreterAndPopulatesStats) {
  auto Run = [](bool EnableJit) {
    auto Out = std::make_shared<std::string>();
    auto M = makeVM(computeProgram(), Out, jitConfig(EnableJit));
    RunResult R = M->run();
    EXPECT_EQ(R.Reason, StopReason::AllExited);
#if defined(__x86_64__)
    if (EnableJit) {
      EXPECT_GT(R.Jit.Blocks, 0u);
      EXPECT_GT(R.Jit.Hits, 0u);
      EXPECT_GT(R.Jit.Dispatches, 0u);
      // The loop-heavy program retires the bulk of its instructions from
      // compiled code.
      EXPECT_GT(R.Jit.Hits, M->globalRetired() / 2);
    }
#endif
    if (!EnableJit) {
      EXPECT_EQ(R.Jit.Blocks, 0u);
      EXPECT_EQ(R.Jit.Hits, 0u);
    }
    return std::tuple(R.Reason, R.ExitCode, M->globalRetired(), *Out,
                      M->thread(0)->GPR[6]);
  };
  EXPECT_EQ(Run(true), Run(false));
}

TEST(Jit, MultiThreadedInterleavingIdentical) {
  for (uint64_t Seed : {0ull, 12345ull}) {
    auto Run = [&](bool EnableJit) {
      VMConfig C = jitConfig(EnableJit);
      C.ScheduleSeed = Seed;
      auto Out = std::make_shared<std::string>();
      auto M = makeVM(multiThreadProgram(4, 2, 300), Out, C);
      RunResult R = M->run();
      return std::tuple(R.Reason, M->globalRetired(), *Out);
    };
    EXPECT_EQ(Run(true), Run(false)) << "seed " << Seed;
  }
}

TEST(Jit, BudgetStopsAtExactInstructionBoundary) {
  // The dispatcher may only retire up to the budget even when a compiled
  // superblock chain could run further: both VMs must stop at exactly the
  // same (arbitrary) instruction with the same architectural state.
  const uint64_t Budget = 12345;
  auto MI = makeVM(computeProgram(), std::make_shared<std::string>(),
                   jitConfig(false));
  auto MJ = makeVM(computeProgram(), std::make_shared<std::string>(),
                   jitConfig(true));
  RunResult RI = MI->run(Budget);
  RunResult RJ = MJ->run(Budget);
  EXPECT_EQ(RI.Reason, StopReason::BudgetReached);
  EXPECT_EQ(RJ.Reason, StopReason::BudgetReached);
  EXPECT_EQ(MI->globalRetired(), Budget);
  EXPECT_EQ(MJ->globalRetired(), Budget);
  const ThreadState &TI = *MI->thread(0);
  const ThreadState &TJ = *MJ->thread(0);
  EXPECT_EQ(TI.PC, TJ.PC);
  for (unsigned K = 0; K < isa::NumGPRs; ++K)
    EXPECT_EQ(TI.GPR[K], TJ.GPR[K]) << "GPR " << K;
}

TEST(Jit, RunThreadBatchesMatchSingleStepping) {
  // runThread is the constrained replayer's batched hot path: driving a
  // thread in odd-sized batches must land on the same state as stepThread.
  auto MB = makeVM(computeProgram(), std::make_shared<std::string>(),
                   jitConfig(true));
  auto MS = makeVM(computeProgram(), std::make_shared<std::string>(),
                   jitConfig(false));
  uint64_t Stepped = 0;
  for (uint64_t Batch : {1ull, 7ull, 100ull, 999ull, 3000ull}) {
    VM::ThreadRunResult TR = MB->runThread(0, Batch);
    EXPECT_EQ(TR.Reason, StopReason::BudgetReached);
    EXPECT_EQ(TR.Executed, Batch);
    for (uint64_t K = 0; K < Batch; ++K)
      ASSERT_EQ(MS->stepThread(0), StopReason::BudgetReached);
    Stepped += Batch;
    const ThreadState &TB = *MB->thread(0);
    const ThreadState &TS = *MS->thread(0);
    EXPECT_EQ(TB.PC, TS.PC) << "after " << Stepped;
    EXPECT_EQ(TB.Retired, Stepped);
    for (unsigned K = 0; K < isa::NumGPRs; ++K)
      EXPECT_EQ(TB.GPR[K], TS.GPR[K]) << "GPR " << K << " after " << Stepped;
  }
}

TEST(Jit, FaultParityWithInterpreter) {
  // A compiled load that faults must bail with the instruction not retired
  // so the interpreter re-runs it and raises the *canonical* fault: same
  // PC, same address, same message, same retired count as interpretation.
  std::vector<isa::Inst> Prog = {
      I3(isa::Opcode::Ldi, 3, 0, 0, 50),
      I3(isa::Opcode::Ldi, 1, 0, 0, 0x500000), // unmapped
      I3(isa::Opcode::Addi, 3, 3, 0, -1),      // hot loop -> compiled
      I3(isa::Opcode::Bne, 0, 3, 0, -8),
      I3(isa::Opcode::Ld8, 2, 1, 0, 0), // faults
      I3(isa::Opcode::Halt, 0, 0, 0, 0),
  };
  auto Run = [&](bool EnableJit) {
    VMConfig C = jitConfig(EnableJit);
    C.JitThreshold = 1;
    auto M = rawVM(Prog, C);
    RunResult R = M->run();
    EXPECT_EQ(R.Reason, StopReason::Faulted);
    return std::tuple(R.FaultInfo.PC, R.FaultInfo.Addr, R.FaultInfo.Message,
                      M->globalRetired());
  };
  EXPECT_EQ(Run(true), Run(false));
}

TEST(Jit, SelfModifyingCodeDropsCompiledBlocks) {
  // Execute-modify-reexecute against a *hot* loop: six passes add 111 to
  // r5; on pass 4 the loop patches its own body to add 222. The loop block
  // is compiled by then, so the invalidation must drop real compiled code
  // and the remaining passes must execute the fresh bytes:
  // 4 * 111 + 2 * 222 == 888.
  uint64_t Target = CodeBase + 6 * isa::InstSize;
  uint64_t NewWord = isa::encode(I3(isa::Opcode::Addi, 5, 5, 0, 222));
  std::vector<isa::Inst> Prog = {
      I3(isa::Opcode::Ldi, 1, 0, 0, static_cast<int32_t>(Target)),
      I3(isa::Opcode::Ldi, 2, 0, 0,
         static_cast<int32_t>(NewWord & 0xffffffff)),
      I3(isa::Opcode::Ldih, 2, 0, 0, static_cast<int32_t>(NewWord >> 32)),
      I3(isa::Opcode::Ldi, 4, 0, 0, 4), // the pass that patches
      I3(isa::Opcode::Addi, 6, 6, 0, 1), // loop: pass counter
      I3(isa::Opcode::Nop, 0, 0, 0, 0),
      I3(isa::Opcode::Addi, 5, 5, 0, 111), // TARGET (becomes +222)
      I3(isa::Opcode::Seq, 8, 6, 4, 0),   // r8 = (pass == 4)
      I3(isa::Opcode::Beq, 0, 8, 0, 2 * 8), // skip the store unless pass 4
      I3(isa::Opcode::St8, 2, 1, 0, 0),     // the patch
      I3(isa::Opcode::Slti, 7, 6, 0, 6),
      I3(isa::Opcode::Bne, 0, 7, 0, -7 * 8), // back to loop
      I3(isa::Opcode::Halt, 0, 0, 0, 0),
  };
  auto Run = [&](bool EnableJit) {
    VMConfig C = jitConfig(EnableJit);
    C.JitThreshold = 1; // compile on the very first re-entry
    auto M = rawVM(Prog, C);
    RunResult R = M->run();
    EXPECT_EQ(R.Reason, StopReason::Halted);
    EXPECT_EQ(M->thread(0)->GPR[5], 888u)
        << (EnableJit ? "compiled code" : "the interpreter")
        << " executed stale bytes after self-modification";
#if defined(__x86_64__)
    if (EnableJit) {
      EXPECT_GT(R.Jit.Blocks, 0u);
      EXPECT_GE(R.Jit.Invalidations + R.Jit.Flushes, 1u);
    }
#endif
    return std::tuple(M->thread(0)->GPR[5], M->globalRetired());
  };
  EXPECT_EQ(Run(true), Run(false));
}

TEST(Jit, StoreInsideCompiledCodeBailsViaPending) {
  // A hot loop whose store targets a *different* executable page: every
  // compiled execution of the store must take the post-store Pending exit
  // (the stored-to page could hold compiled code), never run the rest of
  // the block natively, and still land the bytes.
  const uint64_t PageB = CodeBase + GuestPageSize;
  std::vector<isa::Inst> Prog = {
      I3(isa::Opcode::Ldi, 1, 0, 0, static_cast<int32_t>(PageB)),
      I3(isa::Opcode::Ldi, 3, 0, 0, 50),
      I3(isa::Opcode::Addi, 5, 5, 0, 1), // loop
      I3(isa::Opcode::St8, 5, 1, 0, 0),  // store into exec page B
      I3(isa::Opcode::Addi, 3, 3, 0, -1),
      I3(isa::Opcode::Bne, 0, 3, 0, -3 * 8),
      I3(isa::Opcode::Halt, 0, 0, 0, 0),
  };
  VMConfig C = jitConfig(true);
  C.JitThreshold = 1;
  auto M = rawVM(Prog, C);
  M->mem().map(PageB, GuestPageSize, PermRWX);
  RunResult R = M->run();
  EXPECT_EQ(R.Reason, StopReason::Halted);
  EXPECT_EQ(M->thread(0)->GPR[5], 50u);
  uint64_t Landed = 0;
  EXPECT_EQ(M->mem().peek(PageB, &Landed, 8), MemFault::None);
  EXPECT_EQ(Landed, 50u);
#if defined(__x86_64__)
  EXPECT_GT(R.Jit.Blocks, 0u);
  EXPECT_GE(R.Jit.Bailouts, 10u); // one Pending exit per compiled store
#endif
}

/// Satellite: multi-threaded SMC. Two threads execute the same worker loop
/// while a third patches the loop body mid-run. The scheduler is
/// deterministic, so the final counters are exactly reproducible — and
/// must be identical with the JIT on and off (compiled blocks on the
/// patched page are dropped synchronously with the store, like decoded
/// blocks).
TEST(Jit, MultiThreadedSelfModifyingCodeCoherent) {
  const uint64_t PokerBase = CodeBase + GuestPageSize;
  const uint64_t DataPage = CodeBase + 2 * GuestPageSize;
  const uint64_t Target = CodeBase; // the patched worker instruction
  const uint64_t NewWord = isa::encode(I3(isa::Opcode::Addi, 1, 1, 0, 2));
  std::vector<isa::Inst> Worker = {
      I3(isa::Opcode::Addi, 1, 1, 0, 1), // TARGET (patched to +2)
      I3(isa::Opcode::Addi, 2, 2, 0, 1),
      I3(isa::Opcode::Slt, 4, 2, 6, 0), // r6 = iteration bound (preset)
      I3(isa::Opcode::Bne, 0, 4, 0, -3 * 8),
      I3(isa::Opcode::St8, 1, 5, 0, 0), // r5 = result slot (preset)
      I3(isa::Opcode::Ldi, 7, 0, 0, 0), // exit(0)
      I3(isa::Opcode::Ldi, 1, 0, 0, 0),
      I3(isa::Opcode::Syscall, 0, 0, 0, 0),
  };
  std::vector<isa::Inst> Poker = {
      I3(isa::Opcode::Ldi, 1, 0, 0, static_cast<int32_t>(Target)),
      I3(isa::Opcode::Ldi, 2, 0, 0,
         static_cast<int32_t>(NewWord & 0xffffffff)),
      I3(isa::Opcode::Ldih, 2, 0, 0, static_cast<int32_t>(NewWord >> 32)),
      I3(isa::Opcode::Ldi, 3, 0, 0, 3000), // delay so workers get hot first
      I3(isa::Opcode::Addi, 3, 3, 0, -1),
      I3(isa::Opcode::Bne, 0, 3, 0, -8),
      I3(isa::Opcode::St8, 2, 1, 0, 0), // the poke
      I3(isa::Opcode::Ldi, 7, 0, 0, 0), // exit(0)
      I3(isa::Opcode::Ldi, 1, 0, 0, 0),
      I3(isa::Opcode::Syscall, 0, 0, 0, 0),
  };

  auto Run = [&](bool EnableJit) {
    VMConfig C = jitConfig(EnableJit);
    C.JitThreshold = 2;
    C.StdoutSink = [](const char *, size_t) {};
    auto M = std::make_unique<VM>(C);
    M->mem().map(CodeBase, 2 * GuestPageSize, PermRWX);
    M->mem().map(DataPage, GuestPageSize, PermRW);
    for (size_t K = 0; K < Worker.size(); ++K) {
      uint64_t W = isa::encode(Worker[K]);
      EXPECT_EQ(M->mem().poke(CodeBase + K * 8, &W, 8), MemFault::None);
    }
    for (size_t K = 0; K < Poker.size(); ++K) {
      uint64_t W = isa::encode(Poker[K]);
      EXPECT_EQ(M->mem().poke(PokerBase + K * 8, &W, 8), MemFault::None);
    }
    for (int W = 0; W < 2; ++W) {
      ThreadState T;
      T.PC = CodeBase;
      T.GPR[5] = DataPage + 8 * static_cast<uint64_t>(W);
      T.GPR[6] = 20000; // iterations
      M->spawnThread(T);
    }
    ThreadState P;
    P.PC = PokerBase;
    M->spawnThread(P);

    RunResult R = M->run();
    EXPECT_EQ(R.Reason, StopReason::AllExited);
    uint64_t Slot0 = 0, Slot1 = 0;
    EXPECT_EQ(M->mem().peek(DataPage, &Slot0, 8), MemFault::None);
    EXPECT_EQ(M->mem().peek(DataPage + 8, &Slot1, 8), MemFault::None);
    // The patch landed mid-run: some iterations counted 1, the rest 2.
    EXPECT_GT(Slot0, 20000u);
    EXPECT_LT(Slot0, 40000u);
#if defined(__x86_64__)
    if (EnableJit) {
      EXPECT_GT(R.Jit.Hits, 0u);
      EXPECT_GE(R.Jit.Invalidations + R.Jit.Flushes, 1u);
    }
#endif
    return std::tuple(Slot0, Slot1, M->globalRetired(),
                      M->thread(0)->Retired, M->thread(1)->Retired,
                      M->thread(2)->Retired);
  };
  EXPECT_EQ(Run(true), Run(false));
}

TEST(Jit, EventsObserverKeepsCompiledDispatch) {
  // An Events observer leaves compiled dispatch on and still sees
  // syscalls (they bail to the interpreter).
  struct Counting : Observer {
    uint64_t Syscalls = 0;
    Granularity granularity() const override { return Granularity::Events; }
    void onSyscall(uint32_t, uint64_t, const uint64_t *, int64_t) override {
      ++Syscalls;
    }
  } Obs;
  auto M = makeVM(computeProgram(), std::make_shared<std::string>(),
                  jitConfig(true));
  M->setObserver(&Obs);
  RunResult R = M->run();
  EXPECT_EQ(R.Reason, StopReason::AllExited);
  EXPECT_EQ(Obs.Syscalls, 2u); // write + exit_group
#if defined(__x86_64__)
  EXPECT_GT(R.Jit.Dispatches, 0u);
  EXPECT_GT(R.Jit.Hits, M->globalRetired() / 2);
#endif
}

// ---- The (PC, count) stop condition ----

/// A counting loop: the loop body is one four-instruction block, and
/// StopLoopPC sits in its middle.
std::vector<isa::Inst> stopLoop() {
  return {
      I3(isa::Opcode::Ldi, 1, 0, 0, 1000),
      I3(isa::Opcode::Addi, 2, 2, 0, 1), // loop
      I3(isa::Opcode::Addi, 3, 3, 0, 2), // StopLoopPC
      I3(isa::Opcode::Addi, 1, 1, 0, -1),
      I3(isa::Opcode::Bne, 0, 1, 0, -3 * 8),
      I3(isa::Opcode::Halt, 0, 0, 0, 0),
  };
}
constexpr uint64_t StopLoopPC = CodeBase + 2 * isa::InstSize;

/// stopLoop() with the JIT at threshold 1, run 50 instructions: the loop
/// block has compiled and dispatched, and after 12 passes and the next
/// pass's first addi the thread waits at StopLoopPC.
std::unique_ptr<VM> hotStopLoop(bool Jit) {
  VMConfig C;
  C.EnableJit = Jit;
  C.JitThreshold = 1;
  auto M = rawVM(stopLoop(), C);
  EXPECT_EQ(M->run(50).Reason, StopReason::BudgetReached);
  EXPECT_EQ(M->thread(0)->PC, StopLoopPC);
#if defined(__x86_64__)
  if (Jit) {
    EXPECT_GT(M->jitStats().Hits, 0u);
  }
#endif
  return M;
}

TEST(StopAt, StopsMidCompiledBlock) {
  for (bool Jit : {true, false}) {
    SCOPED_TRACE(Jit ? "jit" : "interpreted");
    auto M = hotStopLoop(Jit);
    uint64_t Hits = M->jitStats().Hits;
    M->stopAt(StopLoopPC, 10);
    RunResult R = M->run();
    EXPECT_EQ(R.Reason, StopReason::Stopped);
    // The tenth addi retired: it, then nine passes of four.
    EXPECT_EQ(M->globalRetired(), 50u + 1 + 9 * 4);
    EXPECT_EQ(M->thread(0)->PC, StopLoopPC + isa::InstSize);
    EXPECT_EQ(M->thread(0)->GPR[3], 2u * (12 + 10));
    EXPECT_EQ(R.Jit.Hits, Hits) << "an armed run dispatched compiled code";
  }
}

TEST(StopAt, CountIsGlobalAcrossThreads) {
  // Four threads under a seeded schedule share the work loop; the count
  // runs across them. The JIT-off run is the reference.
  const std::string Src = multiThreadProgram(4, 2, 300);
  auto Image = easm::assembleToELF(Src, "test.s");
  ASSERT_TRUE(Image.hasValue()) << Image.message();
  auto Reader = elf::ELFReader::parse(*Image);
  ASSERT_TRUE(Reader.hasValue()) << Reader.message();
  const auto *Work = Reader->findSymbol("work");
  ASSERT_NE(Work, nullptr);
  const uint64_t PC = Work->Value;

  struct HitCounter : Observer {
    uint64_t PC = 0;
    std::map<uint32_t, uint64_t> Hits;
    uint64_t LastNextPC = 0;
    Granularity granularity() const override {
      return Granularity::BlockAccesses;
    }
    void onRetiredBlock(const ThreadState &T, uint64_t EntryPC,
                        std::span<const isa::Inst> Insts,
                        std::span<const MemoryAccess>) override {
      if (PC >= EntryPC && PC < EntryPC + Insts.size() * isa::InstSize)
        ++Hits[T.Tid];
      LastNextPC = T.PC;
    }
  };
  auto Run = [&](bool Jit) {
    VMConfig C;
    C.EnableJit = Jit;
    C.JitThreshold = 1;
    C.ScheduleSeed = 7;
    auto M = makeVM(Src, std::make_shared<std::string>(), C);
    EXPECT_EQ(M->run(3000).Reason, StopReason::BudgetReached);
#if defined(__x86_64__)
    if (Jit) {
      EXPECT_GT(M->jitStats().Hits, 0u);
    }
#endif
    HitCounter Obs;
    Obs.PC = PC;
    M->setObserver(&Obs);
    M->stopAt(PC, 1000);
    EXPECT_EQ(M->run().Reason, StopReason::Stopped);
    uint64_t Total = 0;
    for (const auto &[Tid, N] : Obs.Hits)
      Total += N;
    EXPECT_EQ(Total, 1000u);
    EXPECT_GT(Obs.Hits.size(), 1u) << "one thread made every hit";
    EXPECT_EQ(Obs.LastNextPC, PC + isa::InstSize);
    std::vector<std::tuple<uint32_t, uint64_t, uint64_t>> State;
    for (uint32_t Tid : M->threadIds())
      State.emplace_back(Tid, M->thread(Tid)->PC, M->thread(Tid)->Retired);
    return std::make_pair(M->globalRetired(), State);
  };
  EXPECT_EQ(Run(true), Run(false));
}

TEST(StopAt, BudgetFirstGivesBudgetReached) {
  // The budget runs out before the count; the hits carry over into the
  // next run, which stops where one uninterrupted run stops.
  auto M = hotStopLoop(true);
  M->stopAt(StopLoopPC, 10);
  EXPECT_EQ(M->run(20).Reason, StopReason::BudgetReached);
  EXPECT_EQ(M->globalRetired(), 50u + 20);
  EXPECT_EQ(M->run().Reason, StopReason::Stopped);
  EXPECT_EQ(M->globalRetired(), 50u + 1 + 9 * 4);
}

TEST(StopAt, DisarmedRunDispatchesCompiledAgain) {
  auto M = hotStopLoop(true);
  M->stopAt(StopLoopPC, 10);
  ASSERT_EQ(M->run().Reason, StopReason::Stopped);
  uint64_t Hits = M->jitStats().Hits;
  M->stopAt(0, 0);
  RunResult R = M->run();
  EXPECT_EQ(R.Reason, StopReason::Halted);
  EXPECT_EQ(M->thread(0)->GPR[1], 0u);
#if defined(__x86_64__)
  EXPECT_GT(R.Jit.Hits, Hits);
#endif
}

TEST(Jit, StatsZeroWhenDisabled) {
  auto M = makeVM(computeProgram(), std::make_shared<std::string>(),
                  jitConfig(false));
  RunResult R = M->run();
  EXPECT_EQ(R.Reason, StopReason::AllExited);
  EXPECT_EQ(R.Jit.Blocks, 0u);
  EXPECT_EQ(R.Jit.Hits, 0u);
  EXPECT_EQ(R.Jit.Dispatches, 0u);
  EXPECT_EQ(M->jitStats().Blocks, 0u);
}

} // namespace
