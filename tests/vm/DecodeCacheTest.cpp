//===- tests/vm/DecodeCacheTest.cpp - Decoded-block cache behaviour -------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// The decode cache is a pure interpreter optimization: with it on or off
/// the EVM must retire the identical instruction stream. These tests pin
/// the hit/miss accounting, the behavioural equivalence, and the
/// invalidation rules (stores into executable pages, self-modifying code).
///
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "../common/TestHelpers.h"
#include "RawVM.h"
#include "isa/ISA.h"

#include <gtest/gtest.h>

using namespace elfie;
using namespace elfie::vm;
using test::CodeBase;
using test::computeProgram;
using test::I3;
using test::makeVM;
using test::multiThreadProgram;
using test::rawVM;

namespace {

TEST(DecodeCache, HitMissAccountingCoversEveryInstruction) {
  auto Out = std::make_shared<std::string>();
  VMConfig C;
  C.EnableJit = false; // compiled dispatch bypasses the cache counters
  auto M = makeVM(computeProgram(), Out, C);
  ASSERT_TRUE(M);
  RunResult R = M->run();
  EXPECT_EQ(R.Reason, StopReason::AllExited);
  // Every retired instruction is dispatched from the cache: exactly one
  // hit (cursor or lookup) or one miss (block build) each.
  EXPECT_EQ(R.CacheStats.Hits + R.CacheStats.Misses, M->globalRetired());
  EXPECT_GT(R.CacheStats.Misses, 0u);
  // The program is loop-heavy, so hits dominate by orders of magnitude.
  EXPECT_GT(R.CacheStats.Hits, R.CacheStats.Misses * 100);
  EXPECT_EQ(R.CacheStats.Invalidations, 0u);
  EXPECT_GT(M->decodeCache().blockCount(), 0u);
}

TEST(DecodeCache, DisabledCacheCountsNothing) {
  VMConfig C;
  C.EnableDecodeCache = false;
  auto M = makeVM(computeProgram(), std::make_shared<std::string>(), C);
  ASSERT_TRUE(M);
  RunResult R = M->run();
  EXPECT_EQ(R.Reason, StopReason::AllExited);
  EXPECT_EQ(R.CacheStats.Hits, 0u);
  EXPECT_EQ(R.CacheStats.Misses, 0u);
  EXPECT_EQ(M->decodeCache().blockCount(), 0u);
}

TEST(DecodeCache, OnOffBehaviourIdentical) {
  auto Run = [](bool Enable) {
    VMConfig C;
    C.EnableDecodeCache = Enable;
    C.EnableJit = false;
    auto Out = std::make_shared<std::string>();
    auto M = makeVM(computeProgram(), Out, C);
    RunResult R = M->run();
    return std::tuple(R.Reason, R.ExitCode, M->globalRetired(), *Out,
                      M->thread(0)->GPR[6]);
  };
  EXPECT_EQ(Run(true), Run(false));
}

TEST(DecodeCache, OnOffBehaviourIdenticalMultiThreaded) {
  auto Run = [](bool Enable) {
    VMConfig C;
    C.EnableDecodeCache = Enable;
    C.EnableJit = false;
    auto Out = std::make_shared<std::string>();
    auto M = makeVM(multiThreadProgram(4, 2, 300), Out, C);
    RunResult R = M->run();
    return std::tuple(R.Reason, M->globalRetired(), *Out);
  };
  EXPECT_EQ(Run(true), Run(false));
}

TEST(DecodeCache, StoreToExecutablePageInvalidates) {
  // St8 into the code page itself (past the code) must flush the cached
  // blocks of that page even though no executed instruction changed.
  std::vector<isa::Inst> Prog = {
      I3(isa::Opcode::Ldi, 1, 0, 0,
         static_cast<int32_t>(CodeBase + 2048)),
      I3(isa::Opcode::St8, 2, 1, 0, 0),
      I3(isa::Opcode::Halt, 0, 0, 0, 0),
  };
  auto M = rawVM(Prog);
  RunResult R = M->run();
  EXPECT_EQ(R.Reason, StopReason::Halted);
  EXPECT_GE(R.CacheStats.Invalidations, 1u);
}

TEST(DecodeCache, StoreToDataPageDoesNotInvalidate) {
  uint64_t DataPage = CodeBase + GuestPageSize;
  std::vector<isa::Inst> Prog = {
      I3(isa::Opcode::Ldi, 1, 0, 0, static_cast<int32_t>(DataPage)),
      I3(isa::Opcode::St8, 2, 1, 0, 0),
      I3(isa::Opcode::Halt, 0, 0, 0, 0),
  };
  auto M = rawVM(Prog);
  M->mem().map(DataPage, GuestPageSize, PermRW);
  RunResult R = M->run();
  EXPECT_EQ(R.Reason, StopReason::Halted);
  EXPECT_EQ(R.CacheStats.Invalidations, 0u);
}

/// Execute-modify-reexecute: the loop body adds 111 to r5, then patches
/// itself to add 222 and runs once more. A stale cached block would add
/// 111 twice (r5 == 222); precise invalidation yields 111 + 222 == 333.
std::vector<isa::Inst> smcProgram() {
  uint64_t Target = CodeBase + 6 * isa::InstSize; // the patched Addi
  uint64_t NewWord =
      isa::encode(I3(isa::Opcode::Addi, 5, 5, 0, 222));
  return {
      // r1 = &target, r2 = encoding of "addi r5, r5, 222"
      I3(isa::Opcode::Ldi, 1, 0, 0, static_cast<int32_t>(Target)),
      I3(isa::Opcode::Ldi, 2, 0, 0,
         static_cast<int32_t>(NewWord & 0xffffffff)),
      I3(isa::Opcode::Ldih, 2, 0, 0,
         static_cast<int32_t>(NewWord >> 32)),
      I3(isa::Opcode::Ldi, 6, 0, 0, 0), // pass counter
      // loop: (CodeBase + 4*8)
      I3(isa::Opcode::Addi, 6, 6, 0, 1),
      I3(isa::Opcode::Nop, 0, 0, 0, 0),
      I3(isa::Opcode::Addi, 5, 5, 0, 111), // TARGET (patched after pass 1)
      I3(isa::Opcode::Slti, 7, 6, 0, 2),   // r7 = (passes < 2)
      I3(isa::Opcode::Beq, 0, 7, 0, 3 * 8), // r7 == r0 -> done
      I3(isa::Opcode::St8, 2, 1, 0, 0),     // patch the target
      I3(isa::Opcode::Jmp, 0, 0, 0, -6 * 8), // back to loop
      I3(isa::Opcode::Halt, 0, 0, 0, 0),
  };
}

TEST(DecodeCache, SelfModifyingCodeReexecutesFreshBytes) {
  for (bool Enable : {true, false}) {
    VMConfig C;
    C.EnableDecodeCache = Enable;
    C.EnableJit = false;
    auto M = rawVM(smcProgram(), C);
    RunResult R = M->run();
    EXPECT_EQ(R.Reason, StopReason::Halted);
    EXPECT_EQ(M->thread(0)->GPR[5], 333u)
        << "cache " << (Enable ? "on" : "off")
        << " executed stale bytes after self-modification";
    if (Enable) {
      EXPECT_GE(R.CacheStats.Invalidations, 1u);
    }
  }
}

TEST(DecodeCache, StepThreadUsesCacheToo) {
  // The constrained replayer's hot path is stepThread; the per-thread
  // cursor must serve it from the cache just like run().
  auto M = makeVM(computeProgram(), std::make_shared<std::string>());
  ASSERT_TRUE(M);
  for (int K = 0; K < 1000; ++K)
    ASSERT_EQ(M->stepThread(0), StopReason::BudgetReached);
  const DecodeCacheStats &S = M->decodeCacheStats();
  EXPECT_EQ(S.Hits + S.Misses, 1000u);
  EXPECT_GT(S.Hits, S.Misses);
}

TEST(DecodeCache, RebuildAtLivePCBumpsGeneration) {
  // Regression: insert() replacing a resident block at the same start PC
  // frees the old block. A per-thread cursor still holding the old pointer
  // must fail its generation check — before the fix the generation stayed
  // put and the cursor dereferenced freed memory (and the direct-mapped
  // slot kept serving the dangling pointer).
  DecodeCache DC;
  auto B1 = std::make_unique<DecodedBlock>();
  B1->StartPC = 0x1000;
  B1->Insts = {I3(isa::Opcode::Nop, 0, 0, 0, 0)};
  const DecodedBlock *Stale = DC.insert(std::move(B1));
  ASSERT_EQ(DC.lookup(0x1000), Stale); // cursor holds Stale at generation G
  uint64_t Gen = DC.generation();

  auto B2 = std::make_unique<DecodedBlock>();
  B2->StartPC = 0x1000;
  B2->Insts = {I3(isa::Opcode::Addi, 1, 1, 0, 1),
               I3(isa::Opcode::Halt, 0, 0, 0, 0)};
  const DecodedBlock *Fresh = DC.insert(std::move(B2));

  // The stale cursor's generation check must now fail...
  EXPECT_NE(DC.generation(), Gen);
  // ...and both lookup paths (slot and map) must serve the fresh decode,
  // never the freed block.
  const DecodedBlock *L = DC.lookup(0x1000);
  EXPECT_EQ(L, Fresh);
  EXPECT_EQ(L->Insts.size(), 2u);
  EXPECT_EQ(DC.blockCount(), 1u);
}

TEST(DecodeCache, BlockCapForcesFullFlush) {
  // Unit level: the 5th distinct block crosses MaxBlocks=4 and triggers a
  // cap flush — residency stays bounded and the new block survives.
  DecodeCache DC(4);
  for (uint64_t K = 0; K < 5; ++K) {
    auto B = std::make_unique<DecodedBlock>();
    B->StartPC = 0x1000 + K * 64;
    B->Insts = {I3(isa::Opcode::Nop, 0, 0, 0, 0)};
    DC.insert(std::move(B));
  }
  EXPECT_EQ(DC.stats().CapFlushes, 1u);
  EXPECT_EQ(DC.blockCount(), 1u);
  EXPECT_NE(DC.lookup(0x1000 + 4 * 64), nullptr);
  EXPECT_EQ(DC.lookup(0x1000), nullptr); // flushed
}

TEST(DecodeCache, CappedCacheBehaviourIdentical) {
  // VM level: an absurdly small cap thrashes the cache constantly but must
  // not change the executed stream, interpreted or compiled. A cap flush
  // drops the compiled code on the flushed blocks too.
  auto Run = [](size_t Cap, bool Jit) {
    VMConfig C;
    C.DecodeCacheMaxBlocks = Cap;
    C.EnableJit = Jit;
    C.JitThreshold = 1;
    auto Out = std::make_shared<std::string>();
    auto M = makeVM(computeProgram(), Out, C);
    RunResult R = M->run();
    if (Cap && Cap < 8) {
      EXPECT_GE(R.CacheStats.CapFlushes, 1u) << "cap " << Cap;
#if defined(__x86_64__)
      if (Jit) {
        EXPECT_GE(R.Jit.Flushes, 1u) << "cap " << Cap;
        EXPECT_GT(R.Jit.Hits, 0u) << "cap " << Cap;
      }
#endif
    }
    return std::tuple(R.Reason, R.ExitCode, M->globalRetired(), *Out,
                      M->thread(0)->GPR[6]);
  };
  auto Reference = Run(0, false); // 0 = default (effectively unbounded)
  for (bool Jit : {false, true}) {
    EXPECT_EQ(Run(2, Jit), Reference) << "jit " << Jit;
    EXPECT_EQ(Run(7, Jit), Reference) << "jit " << Jit;
  }
}

TEST(DecodeCache, BlockErasedDuringADispatchStaysReadableUntilReleased) {
  // A store inside compiled code can erase the block being dispatched; the
  // dispatcher still reads its instructions afterwards. Parked, the block
  // leaves the map and the generation moves (cursors miss it), but its
  // memory lives until releaseParked(). ASan checks the read.
  DecodeCache DC;
  auto B = std::make_unique<DecodedBlock>();
  B->StartPC = 0x1008;
  B->Insts = {I3(isa::Opcode::Addi, 1, 1, 0, 7),
              I3(isa::Opcode::Halt, 0, 0, 0, 0)};
  const DecodedBlock *Running = DC.insert(std::move(B));
  uint64_t Gen = DC.generation();

  DC.parkFrees();
  DC.invalidatePage(0x1000);
  EXPECT_NE(DC.generation(), Gen);
  EXPECT_EQ(DC.find(0x1008), nullptr);
  EXPECT_EQ(DC.blockCount(), 0u);
  ASSERT_EQ(Running->Insts.size(), 2u);
  EXPECT_EQ(Running->Insts[0].Imm, 7);
  EXPECT_EQ(Running->pcAt(1), 0x1010u);
  DC.releaseParked();

  // A flush during a dispatch parks every block.
  auto B2 = std::make_unique<DecodedBlock>();
  B2->StartPC = 0x2000;
  B2->Insts = {I3(isa::Opcode::Halt, 0, 0, 0, 0)};
  const DecodedBlock *Flushed = DC.insert(std::move(B2));
  DC.parkFrees();
  DC.flush();
  EXPECT_EQ(DC.lookup(0x2000), nullptr);
  EXPECT_EQ(Flushed->StartPC, 0x2000u);
  DC.releaseParked();
}

TEST(DecodeCache, UnmapOfExecutablePageInvalidates) {
  auto M = rawVM({I3(isa::Opcode::Halt, 0, 0, 0, 0)});
  RunResult R = M->run();
  EXPECT_EQ(R.Reason, StopReason::Halted);
  ASSERT_GT(M->decodeCache().blockCount(), 0u);
  M->mem().unmap(CodeBase, GuestPageSize);
  EXPECT_EQ(M->decodeCache().blockCount(), 0u);
  EXPECT_GE(M->decodeCacheStats().Invalidations, 1u);
}

} // namespace
