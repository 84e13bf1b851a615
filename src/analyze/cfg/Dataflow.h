//===- analyze/cfg/Dataflow.h - intra-block constant propagation -*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small abstract interpreter over EG64 GPRs: each register is either a
/// known 64-bit constant or unknown. The transfer function evaluates the
/// integer ALU with the functions in isa/Semantics.h (shift masking,
/// RISC-V division edge cases, Ldih's high-half merge) — the same ones the
/// interpreter calls — so a value the analysis calls "known" is the value
/// the EVM computes. State is tracked within a basic block only — block
/// entry is all-unknown (except r0) — which keeps the analysis
/// conservative without fixpoint iteration: the pass catalog in DESIGN.md
/// §13 documents what that gives up.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_ANALYZE_CFG_DATAFLOW_H
#define ELFIE_ANALYZE_CFG_DATAFLOW_H

#include "isa/ISA.h"

#include <cstdint>

namespace elfie {
namespace analyze {
namespace cfg {

/// Per-register constant lattice: known value or unknown (top).
struct RegState {
  uint16_t KnownMask = 1; ///< bit r set => Vals[r] is exact; r0 always known
  uint64_t Vals[isa::NumGPRs] = {};

  bool known(unsigned R) const { return (KnownMask >> R) & 1; }
  uint64_t get(unsigned R) const { return Vals[R]; }
  void set(unsigned R, uint64_t V) {
    if (R == isa::RegZero)
      return; // r0 is hardwired zero; the VM resets it after every inst
    Vals[R] = V;
    KnownMask |= static_cast<uint16_t>(1u << R);
  }
  void kill(unsigned R) {
    if (R == isa::RegZero)
      return;
    KnownMask &= static_cast<uint16_t>(~(1u << R));
  }
};

/// Applies \p I (at address \p PC) to \p S. Loads, atomics, FP-to-GPR
/// moves, and syscall results make the destination unknown; everything
/// else computes the exact VM result when the inputs are known.
void applyInst(const isa::Inst &I, uint64_t PC, RegState &S);

/// A memory access an instruction performs, in address-register + offset
/// form (atomics have no displacement; Fld/Fst access 8 bytes).
struct MemRef {
  bool IsLoad = false;
  bool IsStore = false; ///< atomics set both
  uint8_t AddrReg = 0;
  int64_t Disp = 0;
  uint32_t Size = 0;
};

/// True (filling \p Out) when \p I accesses guest memory.
bool memRef(const isa::Inst &I, MemRef &Out);

} // namespace cfg
} // namespace analyze
} // namespace elfie

#endif // ELFIE_ANALYZE_CFG_DATAFLOW_H
