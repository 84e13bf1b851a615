//===- tests/vm/JitBlockTest.cpp - chained dispatch under Block observers -===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// A Block observer keeps superblock chaining on: compiled blocks append
/// their ids to a per-dispatch block log, and the dispatcher replays it
/// into onBlock when the chain returns. These tests pin that the replay
/// gives exactly the calls one-block dispatch gave (a BlockAccesses
/// observer still dispatches one block at a time, so its stream is the
/// reference), that expanding those calls instruction by instruction gives
/// the interpreter's stream, and that the chain really ran. Carries the
/// ctest label `jit`.
///
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "../common/TestHelpers.h"
#include "RawVM.h"
#include "isa/ISA.h"
#include "pinball/Logger.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

using namespace elfie;
using namespace elfie::vm;
using isa::Opcode;
using test::CodeBase;
using test::I3;
using test::jitConfig;
using test::makeVM;
using test::multiThreadProgram;

namespace {

/// One onBlock call.
struct BlockCall {
  uint32_t Tid;
  uint64_t EntryPC;
  uint64_t NumInsts;
  bool EndsInControlFlow;
  bool operator==(const BlockCall &) const = default;
};

std::string show(const BlockCall &C) {
  return std::to_string(C.Tid) + " " + std::to_string(C.EntryPC) + " " +
         std::to_string(C.NumInsts) + " " +
         std::to_string(C.EndsInControlFlow);
}

/// A Block observer that records its calls.
struct BlockRecorder : Observer {
  std::vector<BlockCall> Calls;
  Granularity granularity() const override { return Granularity::Block; }
  void onBlock(uint32_t Tid, uint64_t EntryPC, uint64_t NumInsts,
               bool EndsInControlFlow) override {
    Calls.push_back({Tid, EntryPC, NumInsts, EndsInControlFlow});
  }
};

/// The calls one-block dispatch gave a Block observer, rebuilt from a
/// BlockAccesses observer (which still dispatches one block at a time): a
/// compiled block retired \p Insts, an interpreted instruction is a
/// one-instruction block.
struct OneBlockRecorder : Observer {
  std::vector<BlockCall> Calls;
  Granularity granularity() const override {
    return Granularity::BlockAccesses;
  }
  void onRetiredBlock(const ThreadState &T, uint64_t EntryPC,
                      std::span<const isa::Inst> Insts,
                      std::span<const MemoryAccess>) override {
    Calls.push_back({T.Tid, EntryPC, Insts.size(),
                     isa::isControlFlow(Insts.back().Op)});
  }
};

/// \p Calls split into one-instruction calls: only a block's last
/// instruction can carry EndsInControlFlow.
std::vector<BlockCall> expand(const std::vector<BlockCall> &Calls) {
  std::vector<BlockCall> Out;
  for (const BlockCall &C : Calls)
    for (uint64_t K = 0; K < C.NumInsts; ++K)
      Out.push_back({C.Tid, C.EntryPC + K * isa::InstSize, 1,
                     K + 1 == C.NumInsts && C.EndsInControlFlow});
  return Out;
}

void expectSameCalls(const std::vector<BlockCall> &Got,
                     const std::vector<BlockCall> &Want, const char *What) {
  ASSERT_EQ(Got.size(), Want.size()) << What;
  for (size_t K = 0; K < Want.size(); ++K)
    ASSERT_EQ(show(Got[K]), show(Want[K])) << What << ", call " << K;
}

using MakeVM = std::function<std::unique_ptr<VM>(bool Jit)>;

struct Streams {
  std::vector<BlockCall> Chained; ///< JIT on, Block observer
  JitStats Jit;                   ///< of the chained run
  uint64_t Retired = 0;           ///< of the chained run
};

/// Runs \p Make's program three ways (chained Block, one-block reference,
/// interpreter) and checks the chained calls against both references.
Streams checkStreams(const MakeVM &Make, StopReason Want, const char *Name,
                     uint64_t Budget = UINT64_MAX) {
  Streams S;
  BlockRecorder Chained;
  auto M = Make(true);
  M->setObserver(&Chained);
  RunResult R = M->run(Budget);
  EXPECT_EQ(R.Reason, Want) << Name;
  S.Chained = Chained.Calls;
  S.Jit = R.Jit;
  S.Retired = M->globalRetired();

  OneBlockRecorder OneBlock;
  auto MO = Make(true);
  MO->setObserver(&OneBlock);
  EXPECT_EQ(MO->run(Budget).Reason, Want) << Name;
  expectSameCalls(S.Chained, OneBlock.Calls, Name);

  BlockRecorder Interp;
  auto MI = Make(false);
  MI->setObserver(&Interp);
  EXPECT_EQ(MI->run(Budget).Reason, Want) << Name;
  expectSameCalls(expand(S.Chained), Interp.Calls, Name);
#if defined(__x86_64__)
  EXPECT_GT(S.Jit.Hits, 0u) << Name << ": nothing ran compiled";
#endif
  return S;
}

/// A VM over \p Pages RWX code pages at CodeBase holding \p Code (index
/// = instruction slot; unset slots halt), one thread at \p Entry.
std::unique_ptr<VM> codeVM(const std::vector<isa::Inst> &Code, unsigned Pages,
                           VMConfig Config, uint64_t Entry = CodeBase) {
  Config.StdoutSink = [](const char *, size_t) {};
  auto M = std::make_unique<VM>(Config);
  M->mem().map(CodeBase, Pages * GuestPageSize, PermRWX);
  for (size_t K = 0; K < Code.size(); ++K) {
    uint64_t Word = isa::encode(Code[K]);
    EXPECT_EQ(M->mem().poke(CodeBase + K * isa::InstSize, &Word, 8),
              MemFault::None);
  }
  ThreadState T;
  T.PC = Entry;
  M->spawnThread(T);
  return M;
}

constexpr size_t SlotsPerPage = GuestPageSize / isa::InstSize;

/// A loop whose body straddles the first page end: a three-instruction
/// block runs into the page end and falls through (a chain exit, no
/// control flow) to the loop's branch block on the next page.
std::vector<isa::Inst> pageEndLoop(int32_t Passes) {
  std::vector<isa::Inst> Code(2 * SlotsPerPage, I3(Opcode::Halt, 0, 0, 0, 0));
  const size_t Body = SlotsPerPage - 3;
  Code[0] = I3(Opcode::Ldi, 1, 0, 0, Passes);
  Code[1] = I3(Opcode::Jmp, 0, 0, 0, static_cast<int32_t>((Body - 1) * 8));
  Code[Body] = I3(Opcode::Addi, 2, 2, 0, 1);
  Code[Body + 1] = I3(Opcode::Addi, 3, 3, 0, 2);
  Code[Body + 2] = I3(Opcode::Addi, 4, 4, 0, 3);
  Code[Body + 3] = I3(Opcode::Addi, 1, 1, 0, -1); // next page
  Code[Body + 4] = I3(Opcode::Bne, 0, 1, 0, -4 * 8);
  return Code;
}

TEST(JitBlocks, ChainCrossesAPageEndFallThrough) {
  Streams S = checkStreams(
      [](bool Jit) { return codeVM(pageEndLoop(3000), 2, jitConfig(Jit)); },
      StopReason::Halted, "page-end loop");
  // Chaining really happened: a dispatch per block would make the two
  // counts about equal.
  EXPECT_GT(S.Chained.size(), 5000u);
#if defined(__x86_64__)
  EXPECT_LT(S.Jit.Dispatches * 20, S.Chained.size())
      << S.Jit.Dispatches << " dispatches for " << S.Chained.size()
      << " blocks";
#endif
  // The fall-through block is reported without control flow, the branch
  // block with it.
  size_t FallThrough = 0;
  for (const BlockCall &C : S.Chained)
    if (C.NumInsts == 3 && !C.EndsInControlFlow)
      ++FallThrough;
  EXPECT_GT(FallThrough, 2900u);
}

TEST(JitBlocks, StoreInvalidatesItsOwnPageMidChain) {
  // A hot loop that rewrites (with its own bytes) a word of its code page
  // on one pass: the running block is dropped in the middle of a chain,
  // and the log still names it.
  const uint64_t DataPage = CodeBase + GuestPageSize;
  std::vector<isa::Inst> Prog = {
      I3(Opcode::Ldi, 1, 0, 0, static_cast<int32_t>(DataPage)),
      I3(Opcode::Ldi, 3, 0, 0, 200),
      I3(Opcode::Ldi, 11, 0, 0, 120),
      I3(Opcode::Ldi, 13, 0, 0, static_cast<int32_t>(CodeBase - DataPage)),
      I3(Opcode::Ld8, 4, 1, 0, 0), // loop
      I3(Opcode::Addi, 4, 4, 0, 3),
      I3(Opcode::St8, 4, 1, 0, 8),
      I3(Opcode::Seq, 5, 3, 11, 0), // pass 120
      I3(Opcode::Mul, 6, 5, 13, 0),
      I3(Opcode::Add, 6, 6, 1, 0), // DataPage, or CodeBase on pass 120
      I3(Opcode::Ld4, 9, 6, 0, 0),
      I3(Opcode::St4, 9, 6, 0, 0), // into the code page on pass 120
      I3(Opcode::Addi, 3, 3, 0, -1),
      I3(Opcode::Bne, 0, 3, 0, -9 * 8),
      I3(Opcode::Halt, 0, 0, 0, 0),
  };
  Streams S = checkStreams(
      [&](bool Jit) {
        VMConfig C = jitConfig(Jit);
        C.JitThreshold = 1;
        auto M = test::rawVM(Prog, C);
        M->mem().map(DataPage, GuestPageSize, PermRW);
        return M;
      },
      StopReason::Halted, "self-invalidating store");
#if defined(__x86_64__)
  EXPECT_GT(S.Jit.Invalidations, 0u);
#endif
  // The store's block stops after the store.
  bool Cut = false;
  for (const BlockCall &C : S.Chained)
    Cut |= C.EntryPC == CodeBase + 4 * 8 && C.NumInsts == 8 &&
           !C.EndsInControlFlow;
  EXPECT_TRUE(Cut);
}

TEST(JitBlocks, MemRetryOnAnUnmappedPageEndsTheChain) {
  // Two blocks chained in a loop; on the last pass the second block's
  // first instruction loads from an unmapped page, so the chain's last
  // logged block retired nothing. The interpreter re-runs the load and
  // faults.
  const uint64_t DataPage = CodeBase + GuestPageSize;
  std::vector<isa::Inst> Prog = {
      I3(Opcode::Ldi, 1, 0, 0, static_cast<int32_t>(DataPage)),
      I3(Opcode::Ldi, 3, 0, 0, 300),
      I3(Opcode::Addi, 3, 3, 0, -1), // A
      I3(Opcode::Seq, 5, 3, 0, 0),
      I3(Opcode::Shli, 7, 5, 0, 40),
      I3(Opcode::Add, 7, 7, 1, 0),
      I3(Opcode::Jmp, 0, 0, 0, 8),
      I3(Opcode::Ld8, 8, 7, 0, 0), // B: unmapped on the last pass
      I3(Opcode::Bne, 0, 3, 0, -6 * 8),
      I3(Opcode::Halt, 0, 0, 0, 0),
  };
  Streams S = checkStreams(
      [&](bool Jit) {
        VMConfig C = jitConfig(Jit);
        C.JitThreshold = 1;
        auto M = test::rawVM(Prog, C);
        M->mem().map(DataPage, GuestPageSize, PermRW);
        return M;
      },
      StopReason::Faulted, "memory retry");
  ASSERT_FALSE(S.Chained.empty());
  // The faulting load is not reported, neither by the chain that handed it
  // back nor by the interpreter that re-ran it: the last block is A.
  EXPECT_EQ(show(S.Chained.back()), show({0, CodeBase + 2 * 8, 5, true}));
  EXPECT_EQ(expand(S.Chained).size(), S.Retired);
}

/// A Block observer that counts the instructions it is told of.
struct BlockCounter : Observer {
  uint64_t Insts = 0;
  Granularity granularity() const override { return Granularity::Block; }
  void onBlock(uint32_t, uint64_t, uint64_t NumInsts, bool) override {
    Insts += NumInsts;
  }
};

TEST(JitBlocks, FaultingRunReportsOnlyRetiredInstructions) {
  // A hot loop whose last pass stores to an unmapped page: the faulting
  // store retires nothing, so a Block observer must count exactly the
  // retired instructions, interpreted or compiled.
  std::vector<isa::Inst> Prog = {
      I3(Opcode::Ldi, 3, 0, 0, 100),
      I3(Opcode::Addi, 3, 3, 0, -1), // loop
      I3(Opcode::Bne, 0, 3, 0, -8),
      I3(Opcode::St8, 3, 0, 0, 0x40), // page 0 is unmapped
      I3(Opcode::Halt, 0, 0, 0, 0),
  };
  for (bool Jit : {false, true}) {
    BlockCounter Counter;
    auto M = test::rawVM(Prog, jitConfig(Jit));
    M->setObserver(&Counter);
    EXPECT_EQ(M->run().Reason, StopReason::Faulted);
    EXPECT_EQ(Counter.Insts, M->globalRetired()) << "jit " << Jit;
  }
}

/// A RegionLogger that also records the onBlock calls it gets.
class RecordingLogger : public pinball::RegionLogger {
public:
  using RegionLogger::RegionLogger;
  std::vector<BlockCall> Calls;
  void onBlock(uint32_t Tid, uint64_t EntryPC, uint64_t NumInsts,
               bool EndsInControlFlow) override {
    Calls.push_back({Tid, EntryPC, NumInsts, EndsInControlFlow});
    RegionLogger::onBlock(Tid, EntryPC, NumInsts, EndsInControlFlow);
  }
};

TEST(JitBlocks, FirstTouchRetryUnderRegionLoggerSeesExactCounts) {
  // A hot loop that first touches a new data page every eighth pass, from
  // inside a chain: the memory helper hands each first touch back, the log
  // is delivered, and the interpreter's re-run records the page at the
  // exact retired count.
  const uint64_t DataPage = CodeBase + GuestPageSize;
  std::vector<isa::Inst> Prog = {
      I3(Opcode::Ldi, 1, 0, 0, static_cast<int32_t>(DataPage)),
      I3(Opcode::Ldi, 3, 0, 0, 64),
      I3(Opcode::Ldi, 6, 0, 0, -512),
      I3(Opcode::Addi, 3, 3, 0, -1), // loop
      I3(Opcode::Addi, 6, 6, 0, 512),
      I3(Opcode::Add, 7, 6, 1, 0),
      I3(Opcode::St8, 3, 7, 0, 0),
      I3(Opcode::Bne, 0, 3, 0, -4 * 8),
      I3(Opcode::Halt, 0, 0, 0, 0),
  };
  struct Capture {
    pinball::Pinball PB;
    std::vector<BlockCall> Calls;
  };
  auto Run = [&](bool Jit) {
    VMConfig C = jitConfig(Jit);
    C.JitThreshold = 1;
    auto M = test::rawVM(Prog, C);
    M->mem().map(DataPage, 8 * GuestPageSize, PermRW);
    // Warm the loop up before the region so the region runs compiled.
    EXPECT_EQ(M->run(40).Reason, StopReason::BudgetReached);
    RecordingLogger L(*M, pinball::LoggerOptions());
    L.beginRegion();
    M->setObserver(&L);
    EXPECT_EQ(M->run().Reason, StopReason::Halted);
    M->setObserver(nullptr);
    Capture Out{L.endRegion(), L.Calls};
    return Out;
  };
  Capture Chained = Run(true);
  Capture Interp = Run(false);
  expectSameCalls(expand(Chained.Calls), Interp.Calls, "region");
  ASSERT_EQ(Chained.PB.Injects.size(), Interp.PB.Injects.size());
  // The code page and the eight data pages.
  EXPECT_EQ(Chained.PB.Injects.size(), 9u);
  for (size_t K = 0; K < Interp.PB.Injects.size(); ++K) {
    EXPECT_EQ(Chained.PB.Injects[K].Page.Addr, Interp.PB.Injects[K].Page.Addr)
        << K;
    EXPECT_EQ(Chained.PB.Injects[K].FirstUseIcount,
              Interp.PB.Injects[K].FirstUseIcount)
        << K;
  }
  ASSERT_EQ(Chained.PB.Schedule.size(), Interp.PB.Schedule.size());
  for (size_t K = 0; K < Interp.PB.Schedule.size(); ++K)
    EXPECT_EQ(Chained.PB.Schedule[K].NumInsts, Interp.PB.Schedule[K].NumInsts);
  // The region's passes after the first touches ran chained.
  EXPECT_LT(Chained.Calls.size(), Interp.Calls.size());
}

TEST(JitBlocks, MultiThreadedUnderTheQuantum) {
  // Four threads under the default 100-instruction quantum: every chain
  // stops at the quantum boundary the interpreter stops at.
  checkStreams(
      [](bool Jit) {
        return makeVM(multiThreadProgram(4, 2, 300),
                      std::make_shared<std::string>(), jitConfig(Jit));
      },
      StopReason::AllExited, "multi-threaded");
}

TEST(JitBlocks, ChainLongerThanTheLogCapacity) {
  // A one-instruction block that branches to itself forever: the chain
  // never ends on its own, so each dispatch ends at the quota that keeps
  // the block log from overflowing, one entry per instruction.
  std::vector<isa::Inst> Prog = {
      I3(Opcode::Ldi, 1, 0, 0, 1),
      I3(Opcode::Bne, 0, 1, 0, 0),
  };
  const uint64_t Budget = 50000;
  Streams S = checkStreams(
      [&](bool Jit) { return test::rawVM(Prog, jitConfig(Jit)); },
      StopReason::BudgetReached, "self-loop", Budget);
  EXPECT_EQ(S.Retired, Budget);
  EXPECT_GT(S.Chained.size(), Budget - 100);
#if defined(__x86_64__)
  // More than one dispatch per log capacity, far fewer than one per block.
  EXPECT_GE(S.Jit.Dispatches, Budget / 4096);
  EXPECT_LT(S.Jit.Dispatches, Budget / 1000);
#endif
}

} // namespace
