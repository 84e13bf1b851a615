//===- isa/Semantics.h - EG64 scalar integer semantics ----------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The EG64 integer operations whose result is more than one C++ operator:
/// RISC-V division edge cases, the signed high multiply, shift-amount
/// masking, signed/unsigned compares and branch conditions, immediate sign
/// extension, and Ldih's high-half merge. Every evaluator of EG64 on the
/// host calls these — the interpreter (VM::execDecoded), the
/// constant-propagation evaluator (analyze/cfg/Dataflow) and esim's warm
/// feed, which reads a compiled block's branch outcome off the registers —
/// so a value the static analysis calls known is the value the EVM
/// computes. The x86 lowering (x86/Lowering) emits the
/// same rules as host instructions and is checked against the interpreter
/// by the translator and JIT differential tests.
///
/// Header-only and inline: the interpreter's per-opcode cases compile to
/// the same code as the expressions written out in place.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_ISA_SEMANTICS_H
#define ELFIE_ISA_SEMANTICS_H

#include "isa/ISA.h"

#include <cstdint>

namespace elfie {
namespace isa {
namespace sem {

/// The 64-bit value of an instruction's signed imm32 operand.
inline uint64_t sext(int32_t Imm) {
  return static_cast<uint64_t>(static_cast<int64_t>(Imm));
}

/// High 64 bits of the signed 128-bit product.
inline uint64_t mulh(uint64_t A, uint64_t B) {
  __int128 P = static_cast<__int128>(static_cast<int64_t>(A)) *
               static_cast<int64_t>(B);
  return static_cast<uint64_t>(P >> 64);
}

/// Signed division: x / 0 == all ones, INT64_MIN / -1 == INT64_MIN.
inline uint64_t div(uint64_t A, uint64_t B) {
  int64_t SA = static_cast<int64_t>(A), SB = static_cast<int64_t>(B);
  if (SB == 0)
    return UINT64_MAX;
  if (SA == INT64_MIN && SB == -1)
    return static_cast<uint64_t>(INT64_MIN);
  return static_cast<uint64_t>(SA / SB);
}

/// Signed remainder: x % 0 == x, INT64_MIN % -1 == 0.
inline uint64_t rem(uint64_t A, uint64_t B) {
  int64_t SA = static_cast<int64_t>(A), SB = static_cast<int64_t>(B);
  if (SB == 0)
    return A;
  if (SA == INT64_MIN && SB == -1)
    return 0;
  return static_cast<uint64_t>(SA % SB);
}

/// Unsigned division: x / 0 == all ones.
inline uint64_t divu(uint64_t A, uint64_t B) {
  return B == 0 ? UINT64_MAX : A / B;
}

/// Unsigned remainder: x % 0 == x.
inline uint64_t remu(uint64_t A, uint64_t B) { return B == 0 ? A : A % B; }

/// Shifts use the low six bits of the amount (register or immediate).
inline uint64_t shl(uint64_t A, uint64_t B) { return A << (B & 63); }
inline uint64_t shr(uint64_t A, uint64_t B) { return A >> (B & 63); }
inline uint64_t sar(uint64_t A, uint64_t B) {
  return static_cast<uint64_t>(static_cast<int64_t>(A) >> (B & 63));
}

/// Signed and unsigned less-than (Slt/Sltu, Blt/Bge, Bltu/Bgeu).
inline bool slt(uint64_t A, uint64_t B) {
  return static_cast<int64_t>(A) < static_cast<int64_t>(B);
}
inline bool sltu(uint64_t A, uint64_t B) { return A < B; }

/// Whether the conditional branch \p Op (isa::isBranch) is taken on
/// r[rs1] = \p A, r[rs2] = \p B.
inline bool branchTaken(Opcode Op, uint64_t A, uint64_t B) {
  switch (Op) {
  case Opcode::Beq: return A == B;
  case Opcode::Bne: return A != B;
  case Opcode::Blt: return slt(A, B);
  case Opcode::Bge: return !slt(A, B);
  case Opcode::Bltu: return sltu(A, B);
  case Opcode::Bgeu: return !sltu(A, B);
  default: return false;
  }
}

/// A loaded value of \p Width bytes (1, 2, 4 or 8, zero-extended in
/// \p Raw), sign-extended to 64 bits when \p Signed.
inline uint64_t extendLoad(uint64_t Raw, unsigned Width, bool Signed) {
  if (!Signed || Width >= 8)
    return Raw;
  unsigned Shift = 64 - 8 * Width;
  return static_cast<uint64_t>(static_cast<int64_t>(Raw << Shift) >> Shift);
}

/// Ldih: imm32 becomes the high half, the low half of rd is kept.
inline uint64_t ldih(uint64_t Rd, int32_t Imm) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(Imm)) << 32) |
         (Rd & 0xffffffffull);
}

} // namespace sem
} // namespace isa
} // namespace elfie

#endif // ELFIE_ISA_SEMANTICS_H
