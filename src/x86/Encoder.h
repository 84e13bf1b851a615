//===- x86/Encoder.h - x86-64 machine code emission -------------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hand-rolled x86-64 encoder covering exactly the instruction subset the
/// ELFie translator and runtime need. pinball2elf uses it to generate the
/// startup code, the per-thread bootstrap, the syscall stubs, and the
/// translated application code of native ELFies (paper §II-B).
///
/// Register naming follows the hardware: RAX..R15. Emission is positional;
/// forward references go through Label (rel32 fixups patched on bind).
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_X86_ENCODER_H
#define ELFIE_X86_ENCODER_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace elfie {
namespace x86 {

/// x86-64 general-purpose registers (hardware encoding order).
enum Reg : uint8_t {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

/// SSE registers.
enum XmmReg : uint8_t { XMM0 = 0, XMM1 = 1, XMM2 = 2, XMM3 = 3 };

/// Condition codes (the low nibble of the 0F 8x / 0F 9x opcodes).
enum Cond : uint8_t {
  CondO = 0x0,
  CondNO = 0x1,
  CondB = 0x2,  ///< below (unsigned <)
  CondAE = 0x3, ///< above-or-equal (unsigned >=)
  CondE = 0x4,  ///< equal
  CondNE = 0x5,
  CondBE = 0x6, ///< below-or-equal (unsigned <=)
  CondA = 0x7,  ///< above (unsigned >)
  CondS = 0x8,  ///< sign
  CondNS = 0x9,
  CondP = 0xa,  ///< parity
  CondNP = 0xb,
  CondL = 0xc,  ///< less (signed <)
  CondGE = 0xd,
  CondLE = 0xe,
  CondG = 0xf,
};

/// A branch target that may be bound after uses are emitted.
class Label {
public:
  bool isBound() const { return Bound; }
  size_t offset() const {
    assert(Bound && "label not bound");
    return Off;
  }

private:
  friend class Encoder;
  bool Bound = false;
  size_t Off = 0;
  std::vector<size_t> Fixups; // offsets of rel32 fields awaiting the bind
};

/// The encoder. All memory forms are [base + disp32] (the translator keeps
/// guest state at fixed offsets off a base register, so that is all we
/// need); loads/stores of guest memory use [reg] with disp.
class Encoder {
public:
  const std::vector<uint8_t> &code() const { return Code; }
  size_t size() const { return Code.size(); }

  /// Current offset (for building address tables).
  size_t here() const { return Code.size(); }

  // ---- Labels ----
  void bind(Label &L);
  void jmp(Label &L);
  void jcc(Cond C, Label &L);
  void call(Label &L);
  /// jmp rel32 to an already-emitted encoder offset.
  void jmpTo(size_t TargetOffset);

  // ---- Moves ----
  void movRegImm64(Reg Dst, uint64_t Imm); ///< movabs
  void movRegImm32(Reg Dst, uint32_t Imm); ///< 32-bit move (zero-extends)
  void movRegReg(Reg Dst, Reg Src);        ///< 64-bit
  /// mov Dst, [Base + Disp] (64-bit)
  void movRegMem(Reg Dst, Reg Base, int32_t Disp);
  /// mov [Base + Disp], Src (64-bit)
  void movMemReg(Reg Base, int32_t Disp, Reg Src);
  /// mov qword [Base + Disp], imm32 (sign-extended)
  void movMemImm32(Reg Base, int32_t Disp, int32_t Imm);
  /// mov dword [Base + Disp], imm32 (the immediate is the last 4 bytes)
  void movMem32Imm32(Reg Base, int32_t Disp, uint32_t Imm);
  /// Narrow stores: mov [Base+Disp], Src (8/16/32 bits of Src)
  void movMemReg8(Reg Base, int32_t Disp, Reg Src);
  void movMemReg16(Reg Base, int32_t Disp, Reg Src);
  void movMemReg32(Reg Base, int32_t Disp, Reg Src);
  /// Narrow zero-extending loads into a 64-bit register.
  void movzxRegMem8(Reg Dst, Reg Base, int32_t Disp);
  void movzxRegMem16(Reg Dst, Reg Base, int32_t Disp);
  void movRegMem32(Reg Dst, Reg Base, int32_t Disp); ///< 32-bit (zero-ext)
  /// Narrow sign-extending loads.
  void movsxRegMem8(Reg Dst, Reg Base, int32_t Disp);
  void movsxRegMem16(Reg Dst, Reg Base, int32_t Disp);
  void movsxRegMem32(Reg Dst, Reg Base, int32_t Disp);

  // ---- ALU (64-bit unless noted) ----
  void addRegReg(Reg Dst, Reg Src);
  void addRegImm32(Reg Dst, int32_t Imm);
  void addRegMem(Reg Dst, Reg Base, int32_t Disp);
  void subRegReg(Reg Dst, Reg Src);
  void subRegImm32(Reg Dst, int32_t Imm);
  void subRegMem(Reg Dst, Reg Base, int32_t Disp);
  void andRegReg(Reg Dst, Reg Src);
  void andRegImm32(Reg Dst, int32_t Imm);
  void andRegMem(Reg Dst, Reg Base, int32_t Disp);
  void orRegReg(Reg Dst, Reg Src);
  void orRegMem(Reg Dst, Reg Base, int32_t Disp);
  void xorRegReg(Reg Dst, Reg Src);
  void xorRegMem(Reg Dst, Reg Base, int32_t Disp);
  void imulRegReg(Reg Dst, Reg Src); ///< two-operand imul
  void imulRegMem(Reg Dst, Reg Base, int32_t Disp);
  void imulMem(Reg Base, int32_t Disp);  ///< one-operand: rdx:rax = rax * m64
  void idivReg(Reg Divisor); ///< rax = rdx:rax / r; rdx = rem (signed)
  void divReg(Reg Divisor);  ///< unsigned
  void cqo();                ///< sign-extend rax into rdx
  void negReg(Reg R);
  void notReg(Reg R);
  void shlRegCl(Reg R);
  void shrRegCl(Reg R);
  void sarRegCl(Reg R);
  void shlRegImm(Reg R, uint8_t Imm);
  void shrRegImm(Reg R, uint8_t Imm);
  void sarRegImm(Reg R, uint8_t Imm);
  void cmpRegReg(Reg A, Reg B);
  void cmpRegImm32(Reg A, int32_t Imm);
  void cmpRegMem(Reg A, Reg Base, int32_t Disp);
  void cmpMemImm32(Reg Base, int32_t Disp, int32_t Imm); ///< cmp qword
  void addMemImm32(Reg Base, int32_t Disp, int32_t Imm); ///< add qword
  void testRegReg(Reg A, Reg B);
  void testRegImm32(Reg A, int32_t Imm);
  void setcc(Cond C, Reg Dst); ///< set byte + movzx to 64-bit
  void leaRegMem(Reg Dst, Reg Base, int32_t Disp);
  /// dec qword [Base+Disp] (the graceful-exit countdown).
  void decMem(Reg Base, int32_t Disp);
  void incMem(Reg Base, int32_t Disp);

  // ---- Control ----
  void jmpReg(Reg R);
  void callReg(Reg R);
  void ret();
  void pushReg(Reg R);
  void popReg(Reg R);

  // ---- Atomics ----
  void lockXaddMemReg(Reg Base, int32_t Disp, Reg Src); ///< lock xadd [m],r
  void xchgMemReg(Reg Base, int32_t Disp, Reg Src);     ///< implicit lock
  void lockCmpxchgMemReg(Reg Base, int32_t Disp, Reg Src); ///< uses rax
  void mfence();
  void pause();
  /// rep movsb: copies rcx bytes from [rsi] to [rdi].
  void repMovsb();

  // ---- SSE2 scalar double ----
  void movsdXmmMem(XmmReg Dst, Reg Base, int32_t Disp);
  void movsdMemXmm(Reg Base, int32_t Disp, XmmReg Src);
  void addsd(XmmReg Dst, XmmReg Src);
  void subsd(XmmReg Dst, XmmReg Src);
  void mulsd(XmmReg Dst, XmmReg Src);
  void divsd(XmmReg Dst, XmmReg Src);
  void minsd(XmmReg Dst, XmmReg Src);
  void maxsd(XmmReg Dst, XmmReg Src);
  void sqrtsd(XmmReg Dst, XmmReg Src);
  void ucomisd(XmmReg A, XmmReg B);
  void cvtsi2sd(XmmReg Dst, Reg Src);  ///< int64 -> double
  void cvttsd2si(Reg Dst, XmmReg Src); ///< double -> int64 (truncating)
  void movqXmmReg(XmmReg Dst, Reg Src);
  void movqRegXmm(Reg Dst, XmmReg Src);

  // ---- System ----
  void syscall();
  void rdtsc(); ///< edx:eax = tsc
  void nop();
  void ud2();   ///< abort: guaranteed SIGILL
  void int3();

  /// Emits raw bytes (escape hatch for tests).
  void emitBytes(std::initializer_list<uint8_t> Bytes) {
    Code.insert(Code.end(), Bytes);
  }

  /// Patches a 32-bit little-endian value at \p Offset.
  void patch32(size_t Offset, uint32_t Value);

private:
  void byte(uint8_t B) { Code.push_back(B); }
  void dword(uint32_t V);
  void qword(uint64_t V);
  /// REX prefix for a reg-reg or reg-mem form. W=1 always unless stated.
  void rex(bool W, uint8_t RegField, uint8_t RmField);
  /// ModRM for register-direct.
  void modrmReg(uint8_t RegField, uint8_t Rm);
  /// ModRM + disp for [base + disp32] (always uses disp32 form except RSP
  /// base which needs a SIB byte).
  void modrmMem(uint8_t RegField, uint8_t Base, int32_t Disp);
  void emitRel32To(Label &L);

  std::vector<uint8_t> Code;
};

} // namespace x86
} // namespace elfie

#endif // ELFIE_X86_ENCODER_H
