//===- analyze/cfg/Dataflow.cpp -------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analyze/cfg/Dataflow.h"

#include "isa/Semantics.h"

#include <functional>

using namespace elfie;
using namespace elfie::analyze;
using namespace elfie::analyze::cfg;
using isa::Opcode;
namespace sem = isa::sem;

void cfg::applyInst(const isa::Inst &I, uint64_t PC, RegState &S) {
  // rd = Op(rs1, rs2) and rd = Op(rs1, sext(imm)), known when the inputs are.
  auto RegOp = [&](auto Op) {
    if (S.known(I.Rs1) && S.known(I.Rs2))
      S.set(I.Rd, Op(S.get(I.Rs1), S.get(I.Rs2)));
    else
      S.kill(I.Rd);
  };
  auto ImmOp = [&](auto Op) {
    if (S.known(I.Rs1))
      S.set(I.Rd, Op(S.get(I.Rs1), sem::sext(I.Imm)));
    else
      S.kill(I.Rd);
  };

  switch (I.Op) {
  // No GPR effect.
  case Opcode::Nop:
  case Opcode::Fence:
  case Opcode::Pause:
  case Opcode::Halt:
  case Opcode::Marker:
  case Opcode::St1:
  case Opcode::St2:
  case Opcode::St4:
  case Opcode::St8:
  case Opcode::Beq:
  case Opcode::Bne:
  case Opcode::Blt:
  case Opcode::Bge:
  case Opcode::Bltu:
  case Opcode::Bgeu:
  case Opcode::Jmp:
  // FPR-only effects (FPRs are not tracked).
  case Opcode::Fadd:
  case Opcode::Fsub:
  case Opcode::Fmul:
  case Opcode::Fdiv:
  case Opcode::Fmin:
  case Opcode::Fmax:
  case Opcode::Fsqrt:
  case Opcode::Fneg:
  case Opcode::Fabs:
  case Opcode::Fmov:
  case Opcode::Fld:
  case Opcode::Fst:
  case Opcode::Fcvtid:
  case Opcode::FmvToF:
    return;

  case Opcode::Syscall:
    S.kill(isa::SysRetReg);
    return;

  // Register ALU.
  case Opcode::Add: RegOp(std::plus<uint64_t>()); return;
  case Opcode::Sub: RegOp(std::minus<uint64_t>()); return;
  case Opcode::Mul: RegOp(std::multiplies<uint64_t>()); return;
  case Opcode::Mulh: RegOp(sem::mulh); return;
  case Opcode::Div: RegOp(sem::div); return;
  case Opcode::Divu: RegOp(sem::divu); return;
  case Opcode::Rem: RegOp(sem::rem); return;
  case Opcode::Remu: RegOp(sem::remu); return;
  case Opcode::And: RegOp(std::bit_and<uint64_t>()); return;
  case Opcode::Or: RegOp(std::bit_or<uint64_t>()); return;
  case Opcode::Xor: RegOp(std::bit_xor<uint64_t>()); return;
  case Opcode::Shl: RegOp(sem::shl); return;
  case Opcode::Shr: RegOp(sem::shr); return;
  case Opcode::Sar: RegOp(sem::sar); return;
  case Opcode::Slt: RegOp(sem::slt); return;
  case Opcode::Sltu: RegOp(sem::sltu); return;
  case Opcode::Seq: RegOp(std::equal_to<uint64_t>()); return;
  case Opcode::Mov:
    if (S.known(I.Rs1))
      S.set(I.Rd, S.get(I.Rs1));
    else
      S.kill(I.Rd);
    return;

  // Immediate ALU.
  case Opcode::Addi: ImmOp(std::plus<uint64_t>()); return;
  case Opcode::Muli: ImmOp(std::multiplies<uint64_t>()); return;
  case Opcode::Andi: ImmOp(std::bit_and<uint64_t>()); return;
  case Opcode::Ori: ImmOp(std::bit_or<uint64_t>()); return;
  case Opcode::Xori: ImmOp(std::bit_xor<uint64_t>()); return;
  case Opcode::Shli: ImmOp(sem::shl); return;
  case Opcode::Shri: ImmOp(sem::shr); return;
  case Opcode::Sari: ImmOp(sem::sar); return;
  case Opcode::Slti: ImmOp(sem::slt); return;
  case Opcode::Sltui: ImmOp(sem::sltu); return;
  case Opcode::Ldi:
    S.set(I.Rd, sem::sext(I.Imm));
    return;
  case Opcode::Ldih:
    if (S.known(I.Rd))
      S.set(I.Rd, sem::ldih(S.get(I.Rd), I.Imm));
    else
      S.kill(I.Rd);
    return;

  // Loads and atomics produce memory-dependent values.
  case Opcode::Ld1:
  case Opcode::Ld2:
  case Opcode::Ld4:
  case Opcode::Ld8:
  case Opcode::Ld1s:
  case Opcode::Ld2s:
  case Opcode::Ld4s:
  case Opcode::AmoAdd:
  case Opcode::AmoSwap:
  case Opcode::Cas:
  // FP-to-GPR writes (FPRs are not tracked).
  case Opcode::Feq:
  case Opcode::Flt:
  case Opcode::Fle:
  case Opcode::Fcvtdi:
  case Opcode::FmvToI:
    S.kill(I.Rd);
    return;

  // Link writes: rd = PC + 8.
  case Opcode::Jal:
  case Opcode::Jalr:
    S.set(I.Rd, PC + isa::InstSize);
    return;
  }
}

bool cfg::memRef(const isa::Inst &I, MemRef &Out) {
  switch (I.Op) {
  case Opcode::Ld1:
  case Opcode::Ld1s:
    Out = {true, false, I.Rs1, static_cast<int64_t>(I.Imm), 1};
    return true;
  case Opcode::Ld2:
  case Opcode::Ld2s:
    Out = {true, false, I.Rs1, static_cast<int64_t>(I.Imm), 2};
    return true;
  case Opcode::Ld4:
  case Opcode::Ld4s:
    Out = {true, false, I.Rs1, static_cast<int64_t>(I.Imm), 4};
    return true;
  case Opcode::Ld8:
    Out = {true, false, I.Rs1, static_cast<int64_t>(I.Imm), 8};
    return true;
  case Opcode::St1:
    Out = {false, true, I.Rs1, static_cast<int64_t>(I.Imm), 1};
    return true;
  case Opcode::St2:
    Out = {false, true, I.Rs1, static_cast<int64_t>(I.Imm), 2};
    return true;
  case Opcode::St4:
    Out = {false, true, I.Rs1, static_cast<int64_t>(I.Imm), 4};
    return true;
  case Opcode::St8:
    Out = {false, true, I.Rs1, static_cast<int64_t>(I.Imm), 8};
    return true;
  case Opcode::Fld:
    Out = {true, false, I.Rs1, static_cast<int64_t>(I.Imm), 8};
    return true;
  case Opcode::Fst:
    Out = {false, true, I.Rs1, static_cast<int64_t>(I.Imm), 8};
    return true;
  // Atomics address mem[rs1] directly (no displacement), read + write.
  case Opcode::AmoAdd:
  case Opcode::AmoSwap:
  case Opcode::Cas:
    Out = {true, true, I.Rs1, 0, 8};
    return true;
  default:
    return false;
  }
}
