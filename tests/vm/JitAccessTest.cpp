//===- tests/vm/JitAccessTest.cpp - compiled blocks with their accesses ---===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// A BlockAccesses observer keeps the JIT on and receives each compiled
/// dispatch as its instructions, its retired memory accesses (recorded by
/// the load/store helpers) and the post-block registers. From those it
/// must be able to rebuild exactly the per-instruction event stream the
/// interpreter gives it as one-instruction blocks, through self-modifying
/// stores and faulting accesses. Carries the ctest label `jit`.
///
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "../common/TestHelpers.h"
#include "RawVM.h"
#include "isa/ISA.h"
#include "isa/Semantics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

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

/// Rebuilds the per-instruction event stream from what a BlockAccesses
/// observer sees: each block expanded from its instructions, recorded
/// accesses and post-block registers. One entry per event:
/// "i <tid> <pc>", "m <addr> <size> <w>", "t <from> <to> <taken>".
struct StreamRecorder : Observer {
  std::vector<std::string> Events;
  uint64_t LongestBlock = 0;
  Granularity granularity() const override {
    return Granularity::BlockAccesses;
  }

  void onRetiredBlock(const ThreadState &T, uint64_t EntryPC,
                      std::span<const isa::Inst> Insts,
                      std::span<const MemoryAccess> Accesses) override {
    LongestBlock = std::max<uint64_t>(LongestBlock, Insts.size());
    size_t A = 0;
    for (size_t K = 0; K < Insts.size(); ++K) {
      Events.push_back("i " + std::to_string(T.Tid) + " " +
                       std::to_string(EntryPC + 8 * K));
      if (isa::opInfo(Insts[K].Op).Mem != isa::Access::None) {
        EXPECT_LT(A, Accesses.size());
        if (A < Accesses.size())
          Events.push_back("m " + std::to_string(Accesses[A].Addr) + " " +
                           std::to_string(Accesses[A].Size) + " " +
                           std::to_string(Accesses[A].IsWrite));
        ++A;
      }
    }
    EXPECT_EQ(A, Accesses.size()) << "an access of no retired instruction";
    const isa::Inst &Last = Insts.back();
    if (isa::isControlFlow(Last.Op))
      Events.push_back(
          "t " + std::to_string(EntryPC + 8 * (Insts.size() - 1)) + " " +
          std::to_string(T.PC) + " " +
          std::to_string(!isa::isBranch(Last.Op) ||
                         isa::sem::branchTaken(Last.Op, T.GPR[Last.Rs1],
                                               T.GPR[Last.Rs2])));
  }
};

struct Stream {
  std::vector<std::string> Events;
  uint64_t LongestBlock = 0;
  uint64_t JitHits = 0;
};

/// Runs \p Make()'s VM under a StreamRecorder.
template <class MakeVM> Stream recordStream(MakeVM Make, StopReason Want) {
  StreamRecorder Rec;
  auto M = Make();
  M->setObserver(&Rec);
  RunResult R = M->run();
  EXPECT_EQ(R.Reason, Want);
  return {std::move(Rec.Events), Rec.LongestBlock, R.Jit.Hits};
}

TEST(JitAccesses, CompiledBlocksRebuildTheInterpretedStream) {
  // The JIT-off run is the reference: every block it reports is one
  // interpreted instruction. With the JIT on, the compiled blocks must
  // rebuild exactly that stream: every instruction, every access, every
  // transfer.
  auto Check = [](auto Make, StopReason Want, const char *Name) {
    Stream Ref = recordStream([&] { return Make(false); }, Want);
    Stream Got = recordStream([&] { return Make(true); }, Want);
    EXPECT_EQ(Ref.LongestBlock, 1u) << Name;
#if defined(__x86_64__)
    EXPECT_GT(Got.JitHits, 0u) << Name << ": nothing ran compiled";
    EXPECT_GT(Got.LongestBlock, 1u) << Name;
#endif
    ASSERT_EQ(Got.Events.size(), Ref.Events.size()) << Name;
    for (size_t K = 0; K < Ref.Events.size(); ++K)
      ASSERT_EQ(Got.Events[K], Ref.Events[K]) << Name << " event " << K;
  };
  Check(
      [](bool Jit) {
        return makeVM(computeProgram(), std::make_shared<std::string>(),
                      jitConfig(Jit));
      },
      StopReason::AllExited, "compute");
  Check(
      [](bool Jit) {
        return makeVM(multiThreadProgram(4, 2, 300),
                      std::make_shared<std::string>(), jitConfig(Jit));
      },
      StopReason::AllExited, "multi-threaded");

  // A hot loop that stores into its own code page on one pass (the block
  // running is dropped mid-dispatch), and whose last pass loads from an
  // unmapped page (a MemRetry exit with a recorded, unretired access).
  const uint64_t DataPage = CodeBase + GuestPageSize;
  std::vector<isa::Inst> Prog = {
      I3(isa::Opcode::Ldi, 1, 0, 0, static_cast<int32_t>(DataPage)),
      I3(isa::Opcode::Ldi, 3, 0, 0, 60),
      I3(isa::Opcode::Ldi, 11, 0, 0, 30),
      I3(isa::Opcode::Ldi, 12, 0, 0, 1),
      I3(isa::Opcode::Ldi, 13, 0, 0,
         static_cast<int32_t>(CodeBase - DataPage)),
      I3(isa::Opcode::Ld8, 4, 1, 0, 0), // loop
      I3(isa::Opcode::Addi, 4, 4, 0, 3),
      I3(isa::Opcode::St8, 4, 1, 0, 8),
      I3(isa::Opcode::Seq, 5, 3, 11, 0), // pass 30
      I3(isa::Opcode::Mul, 6, 5, 13, 0),
      I3(isa::Opcode::Seq, 5, 3, 12, 0), // the last pass
      I3(isa::Opcode::Shli, 7, 5, 0, 40),
      I3(isa::Opcode::Add, 7, 7, 1, 0),
      I3(isa::Opcode::Ld8, 8, 7, 0, 16), // faults on the last pass
      I3(isa::Opcode::Add, 6, 6, 1, 0),  // DataPage, or CodeBase on pass 30
      I3(isa::Opcode::Ld4, 9, 6, 0, 0),
      I3(isa::Opcode::St4, 9, 6, 0, 0),  // into the code page on pass 30
      I3(isa::Opcode::Addi, 3, 3, 0, -1),
      I3(isa::Opcode::Bne, 0, 3, 0, -13 * 8),
      I3(isa::Opcode::Halt, 0, 0, 0, 0),
  };
  Check([&](bool Jit) {
    VMConfig C = jitConfig(Jit);
    C.JitThreshold = 1;
    auto M = rawVM(Prog, C);
    M->mem().map(DataPage, GuestPageSize, PermRW);
    return M;
  },
        StopReason::Faulted, "self-modifying, faulting");
}

} // namespace
