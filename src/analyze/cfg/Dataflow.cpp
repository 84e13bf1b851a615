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
  default:
    break;
  }

  // Everything else computes no tracked value: link writes set rd to the
  // return address; loads, atomics and FP-to-GPR moves make rd unknown;
  // the rest (stores, branches, FPR-only effects) leave the GPRs alone.
  isa::Form F = isa::opInfo(I.Op).Operands;
  if (F == isa::Form::Jal || F == isa::Form::Jalr)
    S.set(I.Rd, PC + isa::InstSize);
  else if (isa::writesGpr(F))
    S.kill(I.Rd);
}

bool cfg::memRef(const isa::Inst &I, MemRef &Out) {
  const isa::OpInfo &Row = isa::opInfo(I.Op);
  if (Row.Mem == isa::Access::None)
    return false;
  // Atomics address mem[rs1] directly (no displacement), read + write.
  bool Atomic = Row.Mem == isa::Access::Atomic;
  Out = {Row.Mem != isa::Access::Store, Row.Mem != isa::Access::Load, I.Rs1,
         Atomic ? 0 : static_cast<int64_t>(I.Imm), Row.Width};
  return true;
}
