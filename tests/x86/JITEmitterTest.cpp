//===- tests/x86/JITEmitterTest.cpp - template JIT block emitter ----------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Emitter-level tests for the EVM JIT (DESIGN.md §12), independent of the
/// VM: blocks are compiled against a fake context/thread-state pair whose
/// offsets feed the JitLayout, executed through the real trampoline in a
/// real W^X ExecBuffer, and checked for the exit-kind protocol — in
/// particular that every exit path subtracts *exactly* the instructions it
/// retired, which is what lets the dispatcher stop at any boundary.
///
//===----------------------------------------------------------------------===//

#include "x86/JITEmitter.h"

#include "isa/ISA.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <vector>

#if !defined(__x86_64__)

TEST(JITEmitter, SkippedOnNonX86Host) {
  GTEST_SKIP() << "the template JIT emits host x86-64 code";
}

#else // __x86_64__

using namespace elfie;
using namespace elfie::x86;

namespace {

isa::Inst I3(isa::Opcode Op, uint8_t Rd, uint8_t Rs1, uint8_t Rs2,
             int32_t Imm) {
  isa::Inst I;
  I.Op = Op;
  I.Rd = Rd;
  I.Rs1 = Rs1;
  I.Rs2 = Rs2;
  I.Imm = Imm;
  return I;
}

/// Mirrors vm::JitExecContext field-for-field; the layout is built from
/// offsetof() on *this* struct, so the emitter is tested against the same
/// mechanism the VM uses rather than hard-coded offsets.
struct FakeCtx {
  int64_t Countdown = 0;
  uint64_t NextPC = 0;
  uint64_t MemOk = 1;
  uint64_t Pending = 0;
  void *Cookie = nullptr;
  JitLoadFn LoadFn = nullptr;
  JitStoreFn StoreFn = nullptr;
  void *Thread = nullptr;
  uint32_t *LogPos = nullptr;
  uint64_t LogStride = 0;
};

struct FakeThread {
  uint64_t GPR[16] = {};
  double FPR[16] = {};
};

JitLayout testLayout() {
  JitLayout L;
  L.CountdownOff = offsetof(FakeCtx, Countdown);
  L.NextPCOff = offsetof(FakeCtx, NextPC);
  L.MemOkOff = offsetof(FakeCtx, MemOk);
  L.PendingOff = offsetof(FakeCtx, Pending);
  L.CookieOff = offsetof(FakeCtx, Cookie);
  L.LoadFnOff = offsetof(FakeCtx, LoadFn);
  L.StoreFnOff = offsetof(FakeCtx, StoreFn);
  L.ThreadOff = offsetof(FakeCtx, Thread);
  L.LogPosOff = offsetof(FakeCtx, LogPos);
  L.LogStrideOff = offsetof(FakeCtx, LogStride);
  L.GprOff = offsetof(FakeThread, GPR);
  L.FprOff = offsetof(FakeThread, FPR);
  return L;
}

constexpr uint64_t StartPC = 0x40000;
constexpr uint64_t MemBase = 0x100000;

/// Trampoline + blocks in one ExecBuffer, with a flat fake guest memory
/// behind the load/store helpers. Accesses outside the array report a
/// fault (clear MemOk); stores to PoisonAddr set Pending, standing in for
/// a store that invalidated compiled code.
struct Harness {
  ExecBuffer Buf;
  FakeCtx Ctx;
  FakeThread T;
  std::vector<uint8_t> Mem = std::vector<uint8_t>(1 << 16);
  uint64_t PoisonAddr = 0;
  /// The block log; addBlock numbers blocks 0, 1, ... in add order.
  uint32_t Log[16] = {};
  uint32_t NextId = 0;
  size_t logged() const { return static_cast<size_t>(Ctx.LogPos - Log); }

  bool init() {
    if (!Buf.init(1 << 20))
      return false;
    Encoder E;
    emitJitTrampoline(E, testLayout());
    if (Buf.append(E.code().data(), E.code().size()) == SIZE_MAX)
      return false;
    Ctx.Cookie = this;
    Ctx.LoadFn = &load;
    Ctx.StoreFn = &store;
    Ctx.Thread = &T;
    return true;
  }

  /// Compiles and appends a block; returns its entry offset and (optional)
  /// its exit sites globalized to buffer offsets.
  size_t addBlock(uint64_t PC, const std::vector<isa::Inst> &Insts,
                  JitBlockCode *Out = nullptr) {
    JitBlockCode BC;
    if (!emitJitBlock(PC, Insts.data(), Insts.size(), testLayout(), BC))
      return SIZE_MAX;
    Buf.beginWrite();
    size_t Off = Buf.append(BC.Code.data(), BC.Code.size());
    EXPECT_NE(Off, SIZE_MAX);
    Buf.patch32(Off + BC.LogIdOff, NextId++);
    if (Out) {
      for (JitChainExit &X : BC.Exits)
        X.JmpOff += Off;
      *Out = std::move(BC);
    }
    return Off;
  }

  uint32_t run(size_t Entry, int64_t Countdown) {
    Ctx.Countdown = Countdown;
    Ctx.NextPC = 0;
    Ctx.MemOk = 1;
    Ctx.Pending = 0;
    Ctx.LogPos = Log;
    Buf.endWrite();
    using Fn = uint64_t (*)(void *, const void *);
    auto F = reinterpret_cast<Fn>(
        reinterpret_cast<uintptr_t>(Buf.data()));
    return static_cast<uint32_t>(F(&Ctx, Buf.data() + Entry));
  }

  static uint64_t load(void *Cookie, uint64_t Addr, uint64_t Kind) {
    auto *H = static_cast<Harness *>(Cookie);
    static const uint32_t Sizes[7] = {1, 2, 4, 8, 1, 2, 4};
    uint32_t Size = Sizes[Kind];
    if (Addr < MemBase || Addr + Size > MemBase + H->Mem.size()) {
      H->Ctx.MemOk = 0;
      return 0;
    }
    uint64_t Raw = 0;
    std::memcpy(&Raw, H->Mem.data() + (Addr - MemBase), Size);
    switch (Kind) {
    case JitLoadS8:
      return static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int8_t>(Raw)));
    case JitLoadS16:
      return static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int16_t>(Raw)));
    case JitLoadS32:
      return static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int32_t>(Raw)));
    default:
      return Raw;
    }
  }

  static void store(void *Cookie, uint64_t Addr, uint64_t Value,
                    uint64_t Size) {
    auto *H = static_cast<Harness *>(Cookie);
    if (Addr < MemBase || Addr + Size > MemBase + H->Mem.size()) {
      H->Ctx.MemOk = 0;
      return;
    }
    std::memcpy(H->Mem.data() + (Addr - MemBase), &Value, Size);
    if (H->PoisonAddr && Addr == H->PoisonAddr)
      H->Ctx.Pending = 1;
  }
};

TEST(JITEmitter, AluBlockRetiresExactlyAndChains) {
  Harness H;
  ASSERT_TRUE(H.init());
  size_t Entry = H.addBlock(StartPC, {
      I3(isa::Opcode::Ldi, 1, 0, 0, 5),
      I3(isa::Opcode::Addi, 1, 1, 0, 7),
      I3(isa::Opcode::Add, 2, 1, 1, 0),
  });
  ASSERT_NE(Entry, SIZE_MAX);
  uint32_t Kind = H.run(Entry, 100);
  EXPECT_EQ(Kind, JitExitChain);
  EXPECT_EQ(H.T.GPR[1], 12u);
  EXPECT_EQ(H.T.GPR[2], 24u);
  EXPECT_EQ(H.Ctx.Countdown, 97); // exactly three instructions retired
  EXPECT_EQ(H.Ctx.NextPC, StartPC + 3 * 8);
}

TEST(JITEmitter, ShortCountdownExitsWithoutSideEffects) {
  Harness H;
  ASSERT_TRUE(H.init());
  size_t Entry = H.addBlock(StartPC, {
      I3(isa::Opcode::Ldi, 1, 0, 0, 42),
      I3(isa::Opcode::Ldi, 2, 0, 0, 43),
      I3(isa::Opcode::Ldi, 3, 0, 0, 44),
  });
  ASSERT_NE(Entry, SIZE_MAX);
  uint32_t Kind = H.run(Entry, 2); // block needs 3
  EXPECT_EQ(Kind, JitExitCountdown);
  EXPECT_EQ(H.Ctx.Countdown, 2); // nothing retired
  EXPECT_EQ(H.Ctx.NextPC, StartPC);
  EXPECT_EQ(H.T.GPR[1], 0u); // no partial architectural effects
}

TEST(JITEmitter, ZeroRegisterSlotIsNeverWritten) {
  Harness H;
  ASSERT_TRUE(H.init());
  size_t Entry = H.addBlock(StartPC, {
      I3(isa::Opcode::Ldi, 0, 0, 0, 99),   // rd == r0: must be dropped
      I3(isa::Opcode::Addi, 1, 0, 0, 1),   // reads the (still zero) slot
  });
  ASSERT_NE(Entry, SIZE_MAX);
  EXPECT_EQ(H.run(Entry, 10), JitExitChain);
  EXPECT_EQ(H.T.GPR[0], 0u);
  EXPECT_EQ(H.T.GPR[1], 1u);
  EXPECT_EQ(H.Ctx.Countdown, 8);
}

TEST(JITEmitter, BranchBothOutcomesSetNextPC) {
  Harness H;
  ASSERT_TRUE(H.init());
  size_t Entry = H.addBlock(StartPC, {
      I3(isa::Opcode::Beq, 0, 1, 2, 10 * 8),
  });
  ASSERT_NE(Entry, SIZE_MAX);

  H.T.GPR[1] = 7;
  H.T.GPR[2] = 7; // taken
  EXPECT_EQ(H.run(Entry, 5), JitExitChain);
  EXPECT_EQ(H.Ctx.NextPC, StartPC + 10 * 8);
  EXPECT_EQ(H.Ctx.Countdown, 4);

  H.T.GPR[2] = 8; // not taken
  EXPECT_EQ(H.run(Entry, 5), JitExitChain);
  EXPECT_EQ(H.Ctx.NextPC, StartPC + 8);
  EXPECT_EQ(H.Ctx.Countdown, 4);
}

TEST(JITEmitter, ChainPatchingThreadsBlocksWithoutReturning) {
  Harness H;
  ASSERT_TRUE(H.init());
  const uint64_t PCB = StartPC + 0x800;
  JitBlockCode CA;
  size_t EA = H.addBlock(StartPC, {
      I3(isa::Opcode::Ldi, 1, 0, 0, 5),
      I3(isa::Opcode::Jmp, 0, 0, 0,
         static_cast<int32_t>(PCB - (StartPC + 8))),
  }, &CA);
  ASSERT_NE(EA, SIZE_MAX);
  size_t EB = H.addBlock(PCB, {
      I3(isa::Opcode::Addi, 1, 1, 0, 100),
      I3(isa::Opcode::Jmp, 0, 0, 0, 0x400),
  });
  ASSERT_NE(EB, SIZE_MAX);
  ASSERT_EQ(CA.Exits.size(), 1u);
  EXPECT_EQ(CA.Exits[0].TargetPC, PCB);

  // Unpatched: block A returns a Chain exit at the jmp.
  EXPECT_EQ(H.run(EA, 100), JitExitChain);
  EXPECT_EQ(H.Ctx.NextPC, PCB);
  EXPECT_EQ(H.Ctx.Countdown, 98);

  // Patch A's chain exit to B's entry: one dispatch now runs both blocks.
  // With a zero stride every block logs into the first slot.
  H.Buf.beginWrite();
  H.Buf.patchJmp(CA.Exits[0].JmpOff, EB);
  EXPECT_EQ(H.run(EA, 100), JitExitChain);
  EXPECT_EQ(H.T.GPR[1], 105u);
  EXPECT_EQ(H.Ctx.NextPC, PCB + 8 + 0x400);
  EXPECT_EQ(H.Ctx.Countdown, 96); // 2 + 2 instructions across the chain
  EXPECT_EQ(H.logged(), 0u);
  EXPECT_EQ(H.Log[0], 1u);

  // With a 4-byte stride the log holds the chain's blocks in order.
  H.Ctx.LogStride = sizeof(uint32_t);
  EXPECT_EQ(H.run(EA, 100), JitExitChain);
  ASSERT_EQ(H.logged(), 2u);
  EXPECT_EQ(H.Log[0], 0u);
  EXPECT_EQ(H.Log[1], 1u);

  // A short countdown mid-chain stops at B's entry check with B's start
  // as the resume PC — the partial chain still retired exactly A, and B,
  // which failed its check, is not logged.
  EXPECT_EQ(H.run(EA, 3), JitExitCountdown);
  EXPECT_EQ(H.Ctx.NextPC, PCB);
  EXPECT_EQ(H.Ctx.Countdown, 1);
  EXPECT_EQ(H.logged(), 1u);
  H.Ctx.LogStride = 0;

  // Un-patch (rel32 back to 0): the Chain return stub is live again.
  H.Buf.beginWrite();
  H.Buf.patchJmp(CA.Exits[0].JmpOff, CA.Exits[0].JmpOff + 5);
  EXPECT_EQ(H.run(EA, 100), JitExitChain);
  EXPECT_EQ(H.Ctx.NextPC, PCB);
  EXPECT_EQ(H.Ctx.Countdown, 98);
}

TEST(JITEmitter, LoadsStoresAndSignExtension) {
  Harness H;
  ASSERT_TRUE(H.init());
  H.Mem[0] = 0x80; // -128 as i8
  H.Mem[2] = 0xff;
  H.Mem[3] = 0x7f; // 0x7fff as u16
  size_t Entry = H.addBlock(StartPC, {
      I3(isa::Opcode::Ld1s, 1, 5, 0, 0),
      I3(isa::Opcode::Ld2, 2, 5, 0, 2),
      I3(isa::Opcode::St8, 1, 5, 0, 8),
  });
  ASSERT_NE(Entry, SIZE_MAX);
  H.T.GPR[5] = MemBase;
  EXPECT_EQ(H.run(Entry, 50), JitExitChain);
  EXPECT_EQ(H.T.GPR[1], static_cast<uint64_t>(-128));
  EXPECT_EQ(H.T.GPR[2], 0x7fffu);
  uint64_t Stored = 0;
  std::memcpy(&Stored, H.Mem.data() + 8, 8);
  EXPECT_EQ(Stored, static_cast<uint64_t>(-128));
  EXPECT_EQ(H.Ctx.Countdown, 47);
}

TEST(JITEmitter, FaultingLoadExitsWithInstructionNotRetired) {
  Harness H;
  ASSERT_TRUE(H.init());
  size_t Entry = H.addBlock(StartPC, {
      I3(isa::Opcode::Addi, 1, 1, 0, 1),
      I3(isa::Opcode::Ld8, 2, 5, 0, 0), // r5 = 0 -> out of fake memory
  });
  ASSERT_NE(Entry, SIZE_MAX);
  EXPECT_EQ(H.run(Entry, 50), JitExitMemRetry);
  // The addi retired; the faulting load did NOT, and NextPC points at it
  // so the interpreter can re-run it and raise the canonical fault.
  EXPECT_EQ(H.Ctx.Countdown, 49);
  EXPECT_EQ(H.Ctx.NextPC, StartPC + 8);
  EXPECT_EQ(H.T.GPR[2], 0u);
  EXPECT_EQ(H.Ctx.MemOk, 0u);
}

TEST(JITEmitter, InvalidatingStoreStopsAfterTheStore) {
  Harness H;
  ASSERT_TRUE(H.init());
  H.PoisonAddr = MemBase + 64;
  size_t Entry = H.addBlock(StartPC, {
      I3(isa::Opcode::Ldi, 1, 0, 0, 7),
      I3(isa::Opcode::St8, 1, 5, 0, 64),
      I3(isa::Opcode::Addi, 1, 1, 0, 1), // must NOT run on invalidation
  });
  ASSERT_NE(Entry, SIZE_MAX);
  H.T.GPR[5] = MemBase;
  EXPECT_EQ(H.run(Entry, 50), JitExitInvalidate);
  // The store itself retired (its bytes landed), execution stopped before
  // the next instruction of the possibly-stale block.
  EXPECT_EQ(H.Ctx.Countdown, 48);
  EXPECT_EQ(H.Ctx.NextPC, StartPC + 2 * 8);
  EXPECT_EQ(H.T.GPR[1], 7u);
  uint64_t Stored = 0;
  std::memcpy(&Stored, H.Mem.data() + 64, 8);
  EXPECT_EQ(Stored, 7u);
}

TEST(JITEmitter, SyscallEndsThePrefixWithABail) {
  Harness H;
  ASSERT_TRUE(H.init());
  std::vector<isa::Inst> Insts = {
      I3(isa::Opcode::Addi, 1, 1, 0, 1),
      I3(isa::Opcode::Addi, 2, 2, 0, 2),
      I3(isa::Opcode::Syscall, 0, 0, 0, 0),
  };
  JitBlockCode BC;
  ASSERT_TRUE(emitJitBlock(StartPC, Insts.data(), Insts.size(), testLayout(),
                           BC));
  EXPECT_EQ(BC.NumInsts, 2u); // the syscall is not part of the prefix
  H.Buf.beginWrite();
  size_t Entry = H.Buf.append(BC.Code.data(), BC.Code.size());
  ASSERT_NE(Entry, SIZE_MAX);
  EXPECT_EQ(H.run(Entry, 50), JitExitBail);
  EXPECT_EQ(H.Ctx.Countdown, 48);
  EXPECT_EQ(H.Ctx.NextPC, StartPC + 2 * 8); // the syscall's own PC
  EXPECT_EQ(H.T.GPR[1], 1u);
  EXPECT_EQ(H.T.GPR[2], 2u);
}

TEST(JITEmitter, UncompilableFirstInstructionRefuses) {
  std::vector<isa::Inst> Insts = {I3(isa::Opcode::Syscall, 0, 0, 0, 0)};
  JitBlockCode BC;
  EXPECT_FALSE(emitJitBlock(StartPC, Insts.data(), Insts.size(),
                            testLayout(), BC));
  for (isa::Opcode Op : {isa::Opcode::AmoAdd, isa::Opcode::AmoSwap,
                         isa::Opcode::Cas, isa::Opcode::Pause,
                         isa::Opcode::Halt, isa::Opcode::Marker}) {
    std::vector<isa::Inst> One = {I3(Op, 1, 2, 3, 0)};
    EXPECT_FALSE(emitJitBlock(StartPC, One.data(), One.size(), testLayout(),
                              BC))
        << "opcode " << static_cast<int>(Op);
  }
}

TEST(JITEmitter, JalrLinksAndExitsIndirect) {
  Harness H;
  ASSERT_TRUE(H.init());
  size_t Entry = H.addBlock(StartPC, {
      I3(isa::Opcode::Jalr, 14, 5, 0, 8),
  });
  ASSERT_NE(Entry, SIZE_MAX);
  H.T.GPR[5] = 0x70000;
  EXPECT_EQ(H.run(Entry, 9), JitExitIndirect);
  EXPECT_EQ(H.Ctx.NextPC, 0x70008u); // r5 + imm
  EXPECT_EQ(H.T.GPR[14], StartPC + 8); // link
  EXPECT_EQ(H.Ctx.Countdown, 8);

  // Misaligned target: bail at the jalr itself, nothing retired, link not
  // written — the interpreter re-runs it and raises the canonical fault.
  H.T.GPR[5] = 0x70003;
  H.T.GPR[14] = 0;
  EXPECT_EQ(H.run(Entry, 9), JitExitBail);
  EXPECT_EQ(H.Ctx.NextPC, StartPC);
  EXPECT_EQ(H.Ctx.Countdown, 9);
  EXPECT_EQ(H.T.GPR[14], 0u);
}

TEST(JITEmitter, DivisionEdgeCasesMatchTheInterpreter) {
  Harness H;
  ASSERT_TRUE(H.init());
  size_t Entry = H.addBlock(StartPC, {
      I3(isa::Opcode::Div, 1, 5, 6, 0),
      I3(isa::Opcode::Rem, 2, 5, 6, 0),
      I3(isa::Opcode::Divu, 3, 5, 6, 0),
      I3(isa::Opcode::Remu, 4, 5, 6, 0),
  });
  ASSERT_NE(Entry, SIZE_MAX);

  // Division by zero: div -> all ones, rem -> dividend.
  H.T.GPR[5] = 1234;
  H.T.GPR[6] = 0;
  EXPECT_EQ(H.run(Entry, 50), JitExitChain);
  EXPECT_EQ(H.T.GPR[1], UINT64_MAX);
  EXPECT_EQ(H.T.GPR[2], 1234u);
  EXPECT_EQ(H.T.GPR[3], UINT64_MAX);
  EXPECT_EQ(H.T.GPR[4], 1234u);

  // INT64_MIN / -1 must not trap the host: div -> INT64_MIN, rem -> 0.
  H.T.GPR[5] = 0x8000000000000000ull;
  H.T.GPR[6] = static_cast<uint64_t>(-1);
  EXPECT_EQ(H.run(Entry, 50), JitExitChain);
  EXPECT_EQ(H.T.GPR[1], 0x8000000000000000ull);
  EXPECT_EQ(H.T.GPR[2], 0u);
}

} // namespace

#endif // __x86_64__
