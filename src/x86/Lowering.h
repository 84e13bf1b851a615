//===- x86/Lowering.h - shared EG64 -> x86-64 data-op lowering --*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction selection both x86 code generators share: the AOT
/// Translator (native ELFies) and the EVM's template JIT. Every EG64
/// instruction that only reads and writes guest registers — integer ALU,
/// the division guards, FP arithmetic/compare/convert/move — lowers to
/// the same host sequence in both; the two differ only in where the guest
/// register file lives, which StateRef describes (%r15 + CtxLayout for
/// the AOT context block, %r14 + JitLayout for the VM's ThreadState).
///
/// Memory access, control flow and atomics stay in each generator, apart
/// from the branch-to-condition map, because they share no instruction
/// sequences: the AOT code touches guest memory directly and branches to
/// labels and an abort stub, while the JIT calls the VM's software-TLB
/// helpers with MemOk/Pending checks and leaves through chain/indirect
/// exits (DESIGN.md §12).
///
/// Register use: %rax, %rcx, %rdx, %xmm0 and %xmm1 are scratch.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_X86_LOWERING_H
#define ELFIE_X86_LOWERING_H

#include "isa/ISA.h"
#include "x86/Encoder.h"

#include <cstdint>

namespace elfie {
namespace x86 {

/// Where emitted code finds the guest register file: a base register and
/// the offsets of GPR slot 0 and FPR slot 0 from it (8 bytes per slot).
struct StateRef {
  Reg Base;
  int32_t GprOff;
  int32_t FprOff;

  int32_t gpr(unsigned R) const { return GprOff + 8 * static_cast<int>(R); }
  int32_t fpr(unsigned R) const { return FprOff + 8 * static_cast<int>(R); }
};

inline void loadGpr(Encoder &E, const StateRef &S, Reg Dst, unsigned R) {
  E.movRegMem(Dst, S.Base, S.gpr(R));
}

/// Writes to r0 are dropped: its slot starts at zero and is never written.
inline void storeGpr(Encoder &E, const StateRef &S, unsigned R, Reg Src) {
  if (R == isa::RegZero)
    return;
  E.movMemReg(S.Base, S.gpr(R), Src);
}

inline void loadFprBits(Encoder &E, const StateRef &S, Reg Dst, unsigned R) {
  E.movRegMem(Dst, S.Base, S.fpr(R));
}

inline void storeFprBits(Encoder &E, const StateRef &S, unsigned R,
                         Reg Src) {
  E.movMemReg(S.Base, S.fpr(R), Src);
}

/// The condition under which EG64 branch \p Op (isa::isBranch) is taken
/// after `cmp rs1, rs2`.
Cond branchCond(isa::Opcode Op);

/// Emits \p I when it only reads and writes guest registers (including
/// Nop, which emits nothing) and returns true; returns false, emitting
/// nothing, for memory, control-flow, atomic and system instructions.
bool lowerDataOp(Encoder &E, const StateRef &S, const isa::Inst &I);

} // namespace x86
} // namespace elfie

#endif // ELFIE_X86_LOWERING_H
