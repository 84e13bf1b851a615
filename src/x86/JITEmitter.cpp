//===- x86/JITEmitter.cpp -------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "x86/JITEmitter.h"

#include "x86/Lowering.h"

#include <cstring>
#include <deque>

#include <sys/mman.h>

using namespace elfie;
using namespace elfie::x86;
using isa::Inst;
using isa::Opcode;

namespace {

/// Per-block emission state. Register conventions inside a block:
///   %r14 ThreadState base   %r15 JitExecContext base (both callee-saved)
///   %r13 block-log cursor   %r12 block-log stride (both callee-saved)
///   %rax/%rcx/%rdx          scratch (never live across a helper call)
///   %rsi/%rdi               helper arguments
class BlockEmitter {
public:
  BlockEmitter(uint64_t StartPC, const JitLayout &L, JitBlockCode &Out)
      : StartPC(StartPC), L(L), Thread{R14, L.GprOff, L.FprOff},
        Out(Out) {}

  bool emit(const Inst *Insts, size_t N);

private:
  // A cold exit stub: subtract the retired prefix, set NextPC, return Kind.
  struct Stub {
    Label Target;
    uint32_t Sub;
    uint64_t NextPC;
    uint32_t Kind;
  };

  Label &stub(uint32_t Sub, uint64_t NextPC, uint32_t Kind) {
    Stubs.push_back(Stub{Label(), Sub, NextPC, Kind});
    return Stubs.back().Target;
  }

  void setNextPC(uint64_t V) {
    if (V <= 0x7fffffffull) {
      E.movMemImm32(R15, L.NextPCOff, static_cast<int32_t>(V));
    } else {
      E.movRegImm64(RCX, V);
      E.movMemReg(R15, L.NextPCOff, RCX);
    }
  }

  void subCountdown(uint32_t N) {
    if (N)
      E.addMemImm32(R15, L.CountdownOff, -static_cast<int32_t>(N));
  }

  /// Retires \p N instructions and leaves through a patchable chain jmp to
  /// guest address \p Target (falls through to a Chain return until the
  /// block cache patches it).
  void chainExit(uint32_t N, uint64_t Target) {
    subCountdown(N);
    Out.Exits.push_back({E.here(), Target});
    E.emitBytes({0xE9, 0, 0, 0, 0});
    setNextPC(Target);
    E.movRegImm32(RAX, JitExitChain);
    E.ret();
  }

  /// Calls the load helper for Addr = r[Rs1] + Imm; result in RAX. Emits
  /// the fault check (exit with instruction \p Idx not retired).
  void emitLoadCall(size_t Idx, const Inst &I, JitLoadKind Kind) {
    loadGpr(E, Thread, RSI, I.Rs1);
    if (I.Imm != 0)
      E.leaRegMem(RSI, RSI, I.Imm);
    E.movRegMem(RDI, R15, L.CookieOff);
    E.movRegImm32(RDX, Kind);
    E.movRegMem(RAX, R15, L.LoadFnOff);
    E.callReg(RAX);
    E.cmpMemImm32(R15, L.MemOkOff, 0);
    E.jcc(CondE, stub(static_cast<uint32_t>(Idx), StartPC + 8 * Idx,
                      JitExitMemRetry));
  }

  /// Calls the store helper with the value in RDX. Emits the fault check
  /// and the invalidation-pending check (the store may have clobbered
  /// compiled code, including this block).
  void emitStoreCall(size_t Idx, const Inst &I, uint32_t Size) {
    E.movRegMem(RDI, R15, L.CookieOff);
    E.movRegImm32(RCX, Size);
    E.movRegMem(RAX, R15, L.StoreFnOff);
    E.callReg(RAX);
    E.cmpMemImm32(R15, L.MemOkOff, 0);
    E.jcc(CondE, stub(static_cast<uint32_t>(Idx), StartPC + 8 * Idx,
                      JitExitMemRetry));
    E.cmpMemImm32(R15, L.PendingOff, 0);
    E.jcc(CondNE, stub(static_cast<uint32_t>(Idx) + 1,
                       StartPC + 8 * (Idx + 1), JitExitInvalidate));
  }

  void emitInst(size_t Idx, const Inst &I, uint32_t Prefix);

  uint64_t StartPC;
  const JitLayout &L;
  const StateRef Thread; // the guest register file in the ThreadState
  JitBlockCode &Out;
  Encoder E;
  std::deque<Stub> Stubs; // deque: stable Label addresses across growth
};

bool BlockEmitter::emit(const Inst *Insts, size_t N) {
  // Compilable prefix: everything up to (exclusive) the first instruction
  // that needs the interpreter. Terminators other than those end the block
  // anyway, so the prefix is the whole block in the common case.
  uint32_t Prefix = 0;
  while (Prefix < N && !jitNeedsInterpreter(Insts[Prefix].Op))
    ++Prefix;
  if (Prefix == 0)
    return false;
  Out.NumInsts = Prefix;

  // Entry countdown check: every path below retires at most Prefix
  // instructions, so one signed compare up front replaces the AOT
  // translator's per-instruction dec/js pair.
  E.cmpMemImm32(R15, L.CountdownOff, static_cast<int32_t>(Prefix));
  E.jcc(CondL, stub(0, StartPC, JitExitCountdown));
  // The block runs: log its id (patched in by the block cache).
  E.movMem32Imm32(R13, 0, 0);
  Out.LogIdOff = E.here() - 4;
  E.addRegReg(R13, R12);

  bool Terminated = false;
  for (size_t Idx = 0; Idx < Prefix; ++Idx) {
    emitInst(Idx, Insts[Idx], Prefix);
    if (isa::isControlFlow(Insts[Idx].Op)) {
      Terminated = true;
      break; // control flow is last in a decoded block by construction
    }
  }

  if (!Terminated) {
    if (Prefix < N) {
      // Bail: the next instruction (syscall/marker/halt/pause/atomic) runs
      // in the interpreter; the prefix has retired.
      subCountdown(Prefix);
      setNextPC(StartPC + 8 * Prefix);
      E.movRegImm32(RAX, JitExitBail);
      E.ret();
    } else {
      // Page-end / max-length block: plain fallthrough.
      chainExit(Prefix, StartPC + 8 * Prefix);
    }
  }

  for (Stub &S : Stubs) {
    E.bind(S.Target);
    subCountdown(S.Sub);
    setNextPC(S.NextPC);
    E.movRegImm32(RAX, S.Kind);
    E.ret();
  }

  Out.Code = E.code();
  return true;
}

void BlockEmitter::emitInst(size_t Idx, const Inst &I, uint32_t Prefix) {
  // Register-only instructions lower as in the AOT translator.
  if (lowerDataOp(E, Thread, I))
    return;
  uint64_t PC = StartPC + 8 * Idx;
  auto Imm64 = [&]() { return static_cast<int64_t>(I.Imm); };

  const isa::OpInfo &Row = isa::opInfo(I.Op);
  switch (Row.Operands) {
  case isa::Form::Load:
  case isa::Form::FLoad:
    emitLoadCall(Idx, I, jitLoadKind(Row.Width, Row.Signed));
    if (Row.Operands == isa::Form::FLoad)
      storeFprBits(E, Thread, I.Rd, RAX);
    else
      storeGpr(E, Thread, I.Rd, RAX);
    return;
  case isa::Form::Store:
  case isa::Form::FStore:
    // Effective address into RSI (helper argument), value into RDX.
    loadGpr(E, Thread, RSI, I.Rs1);
    if (I.Imm != 0)
      E.leaRegMem(RSI, RSI, I.Imm);
    if (Row.Operands == isa::Form::FStore)
      loadFprBits(E, Thread, RDX, I.Rd);
    else
      loadGpr(E, Thread, RDX, I.Rd);
    emitStoreCall(Idx, I, Row.Width);
    return;
  case isa::Form::Branch: {
    // Branches are the block's last instruction: both outcomes leave
    // through chain exits, each retiring the whole prefix.
    loadGpr(E, Thread, RAX, I.Rs1);
    E.cmpRegMem(RAX, R14, Thread.gpr(I.Rs2));
    Label Taken;
    E.jcc(branchCond(I.Op), Taken);
    chainExit(Prefix, PC + 8);
    E.bind(Taken);
    chainExit(Prefix, PC + Imm64());
    return;
  }
  default:
    break;
  }

  auto StoreLink = [&](unsigned Rd) {
    if (Rd == isa::RegZero)
      return;
    E.movRegImm64(RAX, PC + 8);
    storeGpr(E, Thread, Rd, RAX);
  };

  switch (I.Op) {
  case Opcode::Jmp:
    chainExit(Prefix, PC + Imm64());
    break;
  case Opcode::Jal:
    StoreLink(I.Rd);
    chainExit(Prefix, PC + Imm64());
    break;
  case Opcode::Jalr:
    // Target from the *pre-link* register file; alignment check before the
    // link write (a misaligned jalr faults without writing rd).
    loadGpr(E, Thread, RCX, I.Rs1);
    if (I.Imm != 0)
      E.leaRegMem(RCX, RCX, I.Imm);
    E.testRegImm32(RCX, 7);
    E.jcc(CondNE, stub(static_cast<uint32_t>(Idx), PC, JitExitBail));
    StoreLink(I.Rd);
    E.movMemReg(R15, L.NextPCOff, RCX);
    subCountdown(Prefix);
    E.movRegImm32(RAX, JitExitIndirect);
    E.ret();
    break;
  default:
    // Register-only instructions went through lowerDataOp above; fence
    // only retires (the EVM runs on one host thread, as the interpreter
    // does); the jitNeedsInterpreter() set never reaches here (it ends the
    // prefix).
    break;
  }
}

} // namespace

/// Atomics bail so the EVM's sequential-consistency bookkeeping (and
/// exec-page invalidation on atomic stores) stays in one place; syscalls
/// and markers keep observer and interceptor callbacks working; pause must
/// end the scheduler quantum.
bool x86::jitNeedsInterpreter(Opcode Op) {
  switch (Op) {
  case Opcode::Syscall:
  case Opcode::Marker:
  case Opcode::Halt:
  case Opcode::Pause:
  case Opcode::AmoAdd:
  case Opcode::AmoSwap:
  case Opcode::Cas:
    return true;
  default:
    return false;
  }
}

bool x86::emitJitBlock(uint64_t StartPC, const Inst *Insts, size_t N,
                       const JitLayout &L, JitBlockCode &Out) {
  Out = JitBlockCode{};
  BlockEmitter BE(StartPC, L, Out);
  return BE.emit(Insts, N);
}

void x86::emitJitTrampoline(Encoder &E, const JitLayout &L) {
  // uint64_t trampoline(void *Ctx /*rdi*/, const void *Entry /*rsi*/)
  E.pushReg(RBP);
  E.pushReg(RBX);
  E.pushReg(R12);
  E.pushReg(R13);
  E.pushReg(R14);
  E.pushReg(R15);
  E.movRegReg(R15, RDI);
  E.movRegMem(R14, R15, L.ThreadOff);
  E.movRegMem(R13, R15, L.LogPosOff);
  E.movRegMem(R12, R15, L.LogStrideOff);
  E.callReg(RSI); // blocks chain among themselves and ret here when done
  E.movMemReg(R15, L.LogPosOff, R13);
  E.popReg(R15);
  E.popReg(R14);
  E.popReg(R13);
  E.popReg(R12);
  E.popReg(RBX);
  E.popReg(RBP);
  E.ret();
}

// ---------------------------------------------------------------------------
// ExecBuffer: one mmap'd region, RW only inside begin/endWrite (W^X).
// ---------------------------------------------------------------------------

ExecBuffer::~ExecBuffer() {
  if (Base)
    ::munmap(Base, Cap);
}

bool ExecBuffer::init(size_t Bytes) {
  void *P = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    return false;
  Base = static_cast<uint8_t *>(P);
  Cap = Bytes;
  Used = 0;
  Writable = true;
  return true;
}

void ExecBuffer::beginWrite() {
  if (!Writable) {
    ::mprotect(Base, Cap, PROT_READ | PROT_WRITE);
    Writable = true;
  }
}

void ExecBuffer::endWrite() {
  if (Writable) {
    ::mprotect(Base, Cap, PROT_READ | PROT_EXEC);
    Writable = false;
  }
}

size_t ExecBuffer::append(const uint8_t *Bytes, size_t N) {
  size_t Off = (Used + 15) & ~size_t(15);
  if (Off + N > Cap)
    return SIZE_MAX;
  std::memcpy(Base + Off, Bytes, N);
  Used = Off + N;
  return Off;
}

void ExecBuffer::patch32(size_t Off, uint32_t V) {
  std::memcpy(Base + Off, &V, 4);
}

void ExecBuffer::patchJmp(size_t JmpOff, size_t Target) {
  // rel32 of `E9 rel32` is relative to the end of the 5-byte jmp.
  int64_t Rel = static_cast<int64_t>(Target) -
                (static_cast<int64_t>(JmpOff) + 5);
  patch32(JmpOff + 1, static_cast<uint32_t>(static_cast<int32_t>(Rel)));
}
