//===- x86/Lowering.cpp ---------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "x86/Lowering.h"

#include <cassert>

using namespace elfie;
using namespace elfie::x86;
using isa::Inst;
using isa::Opcode;

Cond x86::branchCond(Opcode Op) {
  switch (Op) {
  case Opcode::Beq: return CondE;
  case Opcode::Bne: return CondNE;
  case Opcode::Blt: return CondL;
  case Opcode::Bge: return CondGE;
  case Opcode::Bltu: return CondB;
  case Opcode::Bgeu: return CondAE;
  default:
    assert(false && "not a conditional branch");
    return CondE;
  }
}

bool x86::lowerDataOp(Encoder &E, const StateRef &S, const Inst &I) {
  auto Imm64 = [&]() { return static_cast<int64_t>(I.Imm); };

  // rd = rs1 <op> rs2 with a simple reg-mem ALU op.
  auto BinOp = [&](void (Encoder::*Op)(Reg, Reg, int32_t)) {
    loadGpr(E, S, RAX, I.Rs1);
    (E.*Op)(RAX, S.Base, S.gpr(I.Rs2));
    storeGpr(E, S, I.Rd, RAX);
  };
  // rd = rs1 <op> imm.
  auto BinOpImm = [&](void (Encoder::*Op)(Reg, int32_t)) {
    loadGpr(E, S, RAX, I.Rs1);
    (E.*Op)(RAX, I.Imm);
    storeGpr(E, S, I.Rd, RAX);
  };
  auto ShiftOp = [&](void (Encoder::*Op)(Reg)) {
    loadGpr(E, S, RAX, I.Rs1);
    loadGpr(E, S, RCX, I.Rs2);
    (E.*Op)(RAX);
    storeGpr(E, S, I.Rd, RAX);
  };
  auto ShiftOpImm = [&](void (Encoder::*Op)(Reg, uint8_t)) {
    loadGpr(E, S, RAX, I.Rs1);
    (E.*Op)(RAX, static_cast<uint8_t>(I.Imm & 63));
    storeGpr(E, S, I.Rd, RAX);
  };
  auto CmpSet = [&](Cond C) {
    loadGpr(E, S, RAX, I.Rs1);
    E.cmpRegMem(RAX, S.Base, S.gpr(I.Rs2));
    E.setcc(C, RAX);
    storeGpr(E, S, I.Rd, RAX);
  };
  auto FBinOp = [&](void (Encoder::*Op)(XmmReg, XmmReg)) {
    E.movsdXmmMem(XMM0, S.Base, S.fpr(I.Rs1));
    E.movsdXmmMem(XMM1, S.Base, S.fpr(I.Rs2));
    (E.*Op)(XMM0, XMM1);
    E.movsdMemXmm(S.Base, S.fpr(I.Rd), XMM0);
  };

  switch (I.Op) {
  case Opcode::Nop:
    return true;

  case Opcode::Add: BinOp(&Encoder::addRegMem); return true;
  case Opcode::Sub: BinOp(&Encoder::subRegMem); return true;
  case Opcode::Mul: BinOp(&Encoder::imulRegMem); return true;
  case Opcode::Mulh:
    loadGpr(E, S, RAX, I.Rs1);
    E.imulMem(S.Base, S.gpr(I.Rs2)); // rdx:rax = rax * m64
    storeGpr(E, S, I.Rd, RDX);
    return true;
  case Opcode::Div:
  case Opcode::Rem: {
    bool IsRem = I.Op == Opcode::Rem;
    Label Done, DoDiv, ZeroDiv;
    loadGpr(E, S, RAX, I.Rs1);
    loadGpr(E, S, RCX, I.Rs2);
    E.testRegReg(RCX, RCX);
    E.jcc(CondE, ZeroDiv);
    // INT64_MIN / -1 overflow guard (RISC-V defined result).
    E.cmpRegImm32(RCX, -1);
    E.jcc(CondNE, DoDiv);
    E.movRegImm64(RDX, 0x8000000000000000ull);
    E.cmpRegReg(RAX, RDX);
    E.jcc(CondNE, DoDiv);
    if (IsRem)
      E.xorRegReg(RAX, RAX); // INT64_MIN % -1 == 0
    E.jmp(Done);             // div: rax already INT64_MIN
    E.bind(DoDiv);
    E.cqo();
    E.idivReg(RCX);
    if (IsRem)
      E.movRegReg(RAX, RDX);
    E.jmp(Done);
    E.bind(ZeroDiv);
    if (!IsRem)
      E.movRegImm64(RAX, UINT64_MAX); // div by zero -> all ones
    E.bind(Done);                     // rem by zero -> dividend (in rax)
    storeGpr(E, S, I.Rd, RAX);
    return true;
  }
  case Opcode::Divu:
  case Opcode::Remu: {
    bool IsRem = I.Op == Opcode::Remu;
    Label Done, ZeroDiv;
    loadGpr(E, S, RAX, I.Rs1);
    loadGpr(E, S, RCX, I.Rs2);
    E.testRegReg(RCX, RCX);
    E.jcc(CondE, ZeroDiv);
    E.xorRegReg(RDX, RDX);
    E.divReg(RCX);
    if (IsRem)
      E.movRegReg(RAX, RDX);
    E.jmp(Done);
    E.bind(ZeroDiv);
    if (!IsRem)
      E.movRegImm64(RAX, UINT64_MAX);
    E.bind(Done);
    storeGpr(E, S, I.Rd, RAX);
    return true;
  }
  case Opcode::And: BinOp(&Encoder::andRegMem); return true;
  case Opcode::Or: BinOp(&Encoder::orRegMem); return true;
  case Opcode::Xor: BinOp(&Encoder::xorRegMem); return true;
  case Opcode::Shl: ShiftOp(&Encoder::shlRegCl); return true;
  case Opcode::Shr: ShiftOp(&Encoder::shrRegCl); return true;
  case Opcode::Sar: ShiftOp(&Encoder::sarRegCl); return true;
  case Opcode::Slt: CmpSet(CondL); return true;
  case Opcode::Sltu: CmpSet(CondB); return true;
  case Opcode::Seq: CmpSet(CondE); return true;
  case Opcode::Mov:
    loadGpr(E, S, RAX, I.Rs1);
    storeGpr(E, S, I.Rd, RAX);
    return true;

  case Opcode::Addi: BinOpImm(&Encoder::addRegImm32); return true;
  case Opcode::Muli:
    loadGpr(E, S, RAX, I.Rs1);
    E.movRegImm64(RCX, static_cast<uint64_t>(Imm64()));
    E.imulRegReg(RAX, RCX);
    storeGpr(E, S, I.Rd, RAX);
    return true;
  case Opcode::Andi: BinOpImm(&Encoder::andRegImm32); return true;
  case Opcode::Ori:
    loadGpr(E, S, RAX, I.Rs1);
    E.movRegImm64(RCX, static_cast<uint64_t>(Imm64()));
    E.orRegReg(RAX, RCX);
    storeGpr(E, S, I.Rd, RAX);
    return true;
  case Opcode::Xori:
    loadGpr(E, S, RAX, I.Rs1);
    E.movRegImm64(RCX, static_cast<uint64_t>(Imm64()));
    E.xorRegReg(RAX, RCX);
    storeGpr(E, S, I.Rd, RAX);
    return true;
  case Opcode::Shli: ShiftOpImm(&Encoder::shlRegImm); return true;
  case Opcode::Shri: ShiftOpImm(&Encoder::shrRegImm); return true;
  case Opcode::Sari: ShiftOpImm(&Encoder::sarRegImm); return true;
  case Opcode::Slti:
    loadGpr(E, S, RAX, I.Rs1);
    E.cmpRegImm32(RAX, I.Imm);
    E.setcc(CondL, RAX);
    storeGpr(E, S, I.Rd, RAX);
    return true;
  case Opcode::Sltui:
    loadGpr(E, S, RAX, I.Rs1);
    E.cmpRegImm32(RAX, I.Imm);
    E.setcc(CondB, RAX);
    storeGpr(E, S, I.Rd, RAX);
    return true;
  case Opcode::Ldi:
    E.movRegImm64(RAX, static_cast<uint64_t>(Imm64()));
    storeGpr(E, S, I.Rd, RAX);
    return true;
  case Opcode::Ldih:
    // rd = (imm32 << 32) | (rd & 0xffffffff)
    loadGpr(E, S, RAX, I.Rd);
    E.movRegImm64(RDX, 0xffffffffull);
    E.andRegReg(RAX, RDX);
    E.movRegImm64(RDX, static_cast<uint64_t>(static_cast<uint32_t>(I.Imm))
                           << 32);
    E.orRegReg(RAX, RDX);
    storeGpr(E, S, I.Rd, RAX);
    return true;

  case Opcode::Fadd: FBinOp(&Encoder::addsd); return true;
  case Opcode::Fsub: FBinOp(&Encoder::subsd); return true;
  case Opcode::Fmul: FBinOp(&Encoder::mulsd); return true;
  case Opcode::Fdiv: FBinOp(&Encoder::divsd); return true;
  case Opcode::Fmin: FBinOp(&Encoder::minsd); return true;
  case Opcode::Fmax: FBinOp(&Encoder::maxsd); return true;
  case Opcode::Fsqrt:
    E.movsdXmmMem(XMM0, S.Base, S.fpr(I.Rs1));
    E.sqrtsd(XMM0, XMM0);
    E.movsdMemXmm(S.Base, S.fpr(I.Rd), XMM0);
    return true;
  case Opcode::Fneg:
    loadFprBits(E, S, RAX, I.Rs1);
    E.movRegImm64(RDX, 0x8000000000000000ull);
    E.xorRegReg(RAX, RDX);
    storeFprBits(E, S, I.Rd, RAX);
    return true;
  case Opcode::Fabs:
    loadFprBits(E, S, RAX, I.Rs1);
    E.movRegImm64(RDX, 0x7fffffffffffffffull);
    E.andRegReg(RAX, RDX);
    storeFprBits(E, S, I.Rd, RAX);
    return true;
  case Opcode::Fmov:
    loadFprBits(E, S, RAX, I.Rs1);
    storeFprBits(E, S, I.Rd, RAX);
    return true;
  case Opcode::Feq:
    E.movsdXmmMem(XMM0, S.Base, S.fpr(I.Rs1));
    E.movsdXmmMem(XMM1, S.Base, S.fpr(I.Rs2));
    E.ucomisd(XMM0, XMM1);
    E.setcc(CondE, RAX);
    E.setcc(CondNP, RDX);
    E.andRegReg(RAX, RDX);
    storeGpr(E, S, I.Rd, RAX);
    return true;
  case Opcode::Flt:
    // a < b  <=>  ucomisd(b, a) sets "above" (NaN-safe).
    E.movsdXmmMem(XMM0, S.Base, S.fpr(I.Rs2));
    E.movsdXmmMem(XMM1, S.Base, S.fpr(I.Rs1));
    E.ucomisd(XMM0, XMM1);
    E.setcc(CondA, RAX);
    storeGpr(E, S, I.Rd, RAX);
    return true;
  case Opcode::Fle:
    E.movsdXmmMem(XMM0, S.Base, S.fpr(I.Rs2));
    E.movsdXmmMem(XMM1, S.Base, S.fpr(I.Rs1));
    E.ucomisd(XMM0, XMM1);
    E.setcc(CondAE, RAX);
    storeGpr(E, S, I.Rd, RAX);
    return true;
  case Opcode::Fcvtid:
    loadGpr(E, S, RAX, I.Rs1);
    E.cvtsi2sd(XMM0, RAX);
    E.movsdMemXmm(S.Base, S.fpr(I.Rd), XMM0);
    return true;
  case Opcode::Fcvtdi:
    E.movsdXmmMem(XMM0, S.Base, S.fpr(I.Rs1));
    E.cvttsd2si(RAX, XMM0);
    storeGpr(E, S, I.Rd, RAX);
    return true;
  case Opcode::FmvToF:
    loadGpr(E, S, RAX, I.Rs1);
    storeFprBits(E, S, I.Rd, RAX);
    return true;
  case Opcode::FmvToI:
    loadFprBits(E, S, RAX, I.Rs1);
    storeGpr(E, S, I.Rd, RAX);
    return true;

  default:
    return false;
  }
}
