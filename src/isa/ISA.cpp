//===- isa/ISA.cpp --------------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "isa/ISA.h"

#include "support/Format.h"

#include <array>
#include <cstring>

using namespace elfie;
using namespace elfie::isa;

namespace {

using F = Form;
using enum Flow;
using enum Access;

// Every valid opcode, exactly once, with all of its static facts:
// {opcode, mnemonic, form[, flow[, access, width[, signed]]]}. The decoder,
// the assembler and disassembler, the interpreter's memory paths, the
// dataflow analysis and both x86 code generators read these rows.
constexpr OpInfo OpTable[] = {
    {Opcode::Nop, "nop", F::None},
    {Opcode::Halt, "halt", F::None, ControlFlow},
    {Opcode::Marker, "marker", F::Marker, Terminator},
    {Opcode::Syscall, "syscall", F::None, Terminator},
    {Opcode::Fence, "fence", F::None},
    {Opcode::Pause, "pause", F::None},
    {Opcode::Add, "add", F::RRR},
    {Opcode::Sub, "sub", F::RRR},
    {Opcode::Mul, "mul", F::RRR},
    {Opcode::Mulh, "mulh", F::RRR},
    {Opcode::Div, "div", F::RRR},
    {Opcode::Divu, "divu", F::RRR},
    {Opcode::Rem, "rem", F::RRR},
    {Opcode::Remu, "remu", F::RRR},
    {Opcode::And, "and", F::RRR},
    {Opcode::Or, "or", F::RRR},
    {Opcode::Xor, "xor", F::RRR},
    {Opcode::Shl, "shl", F::RRR},
    {Opcode::Shr, "shr", F::RRR},
    {Opcode::Sar, "sar", F::RRR},
    {Opcode::Slt, "slt", F::RRR},
    {Opcode::Sltu, "sltu", F::RRR},
    {Opcode::Seq, "seq", F::RRR},
    {Opcode::Mov, "mov", F::RR},
    {Opcode::Addi, "addi", F::RRI},
    {Opcode::Muli, "muli", F::RRI},
    {Opcode::Andi, "andi", F::RRI},
    {Opcode::Ori, "ori", F::RRI},
    {Opcode::Xori, "xori", F::RRI},
    {Opcode::Shli, "shli", F::RRI},
    {Opcode::Shri, "shri", F::RRI},
    {Opcode::Sari, "sari", F::RRI},
    {Opcode::Slti, "slti", F::RRI},
    {Opcode::Sltui, "sltui", F::RRI},
    {Opcode::Ldi, "ldi", F::RI},
    {Opcode::Ldih, "ldih", F::RI},
    {Opcode::Ld1, "ld1", F::Load, Straight, Load, 1},
    {Opcode::Ld2, "ld2", F::Load, Straight, Load, 2},
    {Opcode::Ld4, "ld4", F::Load, Straight, Load, 4},
    {Opcode::Ld8, "ld8", F::Load, Straight, Load, 8},
    {Opcode::Ld1s, "ld1s", F::Load, Straight, Load, 1, true},
    {Opcode::Ld2s, "ld2s", F::Load, Straight, Load, 2, true},
    {Opcode::Ld4s, "ld4s", F::Load, Straight, Load, 4, true},
    {Opcode::St1, "st1", F::Store, Straight, Store, 1},
    {Opcode::St2, "st2", F::Store, Straight, Store, 2},
    {Opcode::St4, "st4", F::Store, Straight, Store, 4},
    {Opcode::St8, "st8", F::Store, Straight, Store, 8},
    {Opcode::Beq, "beq", F::Branch, Branch},
    {Opcode::Bne, "bne", F::Branch, Branch},
    {Opcode::Blt, "blt", F::Branch, Branch},
    {Opcode::Bge, "bge", F::Branch, Branch},
    {Opcode::Bltu, "bltu", F::Branch, Branch},
    {Opcode::Bgeu, "bgeu", F::Branch, Branch},
    {Opcode::Jmp, "jmp", F::Jmp, ControlFlow},
    {Opcode::Jal, "jal", F::Jal, ControlFlow},
    {Opcode::Jalr, "jalr", F::Jalr, ControlFlow},
    {Opcode::AmoAdd, "amoadd", F::Atomic, Straight, Atomic, 8},
    {Opcode::AmoSwap, "amoswap", F::Atomic, Straight, Atomic, 8},
    {Opcode::Cas, "cas", F::Atomic, Straight, Atomic, 8},
    {Opcode::Fadd, "fadd", F::FFF},
    {Opcode::Fsub, "fsub", F::FFF},
    {Opcode::Fmul, "fmul", F::FFF},
    {Opcode::Fdiv, "fdiv", F::FFF},
    {Opcode::Fmin, "fmin", F::FFF},
    {Opcode::Fmax, "fmax", F::FFF},
    {Opcode::Fsqrt, "fsqrt", F::FF},
    {Opcode::Fneg, "fneg", F::FF},
    {Opcode::Fabs, "fabs", F::FF},
    {Opcode::Fmov, "fmov", F::FF},
    {Opcode::Feq, "feq", F::RFF},
    {Opcode::Flt, "flt", F::RFF},
    {Opcode::Fle, "fle", F::RFF},
    {Opcode::Fld, "fld", F::FLoad, Straight, Load, 8},
    {Opcode::Fst, "fst", F::FStore, Straight, Store, 8},
    {Opcode::Fcvtid, "fcvtid", F::FR},
    {Opcode::Fcvtdi, "fcvtdi", F::RF},
    {Opcode::FmvToF, "fmvtof", F::FR},
    {Opcode::FmvToI, "fmvtoi", F::RF},
};

constexpr std::array<OpInfo, 256> indexByCode() {
  std::array<OpInfo, 256> T{};
  for (const OpInfo &Row : OpTable)
    T[static_cast<uint8_t>(Row.Op)] = Row;
  return T;
}

} // namespace

// Constant-initialised: readable from any static constructor.
constinit const std::array<OpInfo, 256> isa::OpInfoByCode = indexByCode();

uint64_t isa::encode(const Inst &I) {
  uint64_t W = 0;
  W |= static_cast<uint64_t>(static_cast<uint8_t>(I.Op));
  W |= static_cast<uint64_t>(I.Rd) << 8;
  W |= static_cast<uint64_t>(I.Rs1) << 16;
  W |= static_cast<uint64_t>(I.Rs2) << 24;
  W |= static_cast<uint64_t>(static_cast<uint32_t>(I.Imm)) << 32;
  return W;
}

bool isa::isValidOpcode(uint8_t Op) {
  return OpInfoByCode[Op].Name != nullptr;
}

bool isa::decode(uint64_t Word, Inst &Out) {
  uint8_t Op = static_cast<uint8_t>(Word & 0xff);
  if (!isValidOpcode(Op))
    return false;
  Inst I;
  I.Op = static_cast<Opcode>(Op);
  I.Rd = static_cast<uint8_t>((Word >> 8) & 0xff);
  I.Rs1 = static_cast<uint8_t>((Word >> 16) & 0xff);
  I.Rs2 = static_cast<uint8_t>((Word >> 24) & 0xff);
  I.Imm = static_cast<int32_t>(static_cast<uint32_t>(Word >> 32));
  // Marker reuses Rd as the marker kind; everything else must name real
  // registers.
  if (I.Op != Opcode::Marker &&
      (I.Rd >= NumGPRs || I.Rs1 >= NumGPRs || I.Rs2 >= NumGPRs))
    return false;
  Out = I;
  return true;
}

bool isa::decode(const uint8_t *Bytes, Inst &Out) {
  uint64_t W;
  std::memcpy(&W, Bytes, 8);
  return decode(W, Out);
}

const char *isa::opcodeName(Opcode Op) {
  const char *Name = opInfo(Op).Name;
  return Name ? Name : "<bad>";
}

bool isa::opcodeFromName(const std::string &Name, Opcode &Out) {
  for (const OpInfo &Row : OpTable) {
    if (Name == Row.Name) {
      Out = Row.Op;
      return true;
    }
  }
  return false;
}

std::string isa::gprName(unsigned Reg) {
  if (Reg == RegZero)
    return "r0";
  if (Reg == RegSP)
    return "sp";
  if (Reg == RegLR)
    return "lr";
  return formatString("r%u", Reg);
}

std::string isa::fprName(unsigned Reg) { return formatString("f%u", Reg); }

std::string isa::disassemble(const Inst &I, uint64_t PC) {
  const OpInfo &Row = opInfo(I.Op);
  if (!Row.Name)
    return "<bad>";
  const char *Name = Row.Name;
  const std::string Rd = gprName(I.Rd), Rs1 = gprName(I.Rs1),
                    Rs2 = gprName(I.Rs2), Fd = fprName(I.Rd),
                    Fs1 = fprName(I.Rs1), Fs2 = fprName(I.Rs2);
  const std::string Target = toHex(PC + static_cast<int64_t>(I.Imm));

  switch (Row.Operands) {
  case Form::None:
    return Name;
  case Form::Marker:
    return formatString("%s %u, %d", Name, I.Rd, I.Imm);
  case Form::RRR:
    return formatString("%s %s, %s, %s", Name, Rd.c_str(), Rs1.c_str(),
                        Rs2.c_str());
  case Form::RR:
    return formatString("%s %s, %s", Name, Rd.c_str(), Rs1.c_str());
  case Form::RRI:
  case Form::Jalr:
    return formatString("%s %s, %s, %d", Name, Rd.c_str(), Rs1.c_str(),
                        I.Imm);
  case Form::RI:
    if (I.Op == Opcode::Ldih) {
      // The assembler keeps the high half of ldih's 64-bit operand, so
      // print imm32 << 32. Negative values go in decimal: the assembler
      // rejects hex above INT64_MAX.
      int64_t V = static_cast<int64_t>(
          static_cast<uint64_t>(static_cast<uint32_t>(I.Imm)) << 32);
      std::string Value = V < 0
                              ? formatString("%lld", static_cast<long long>(V))
                              : toHex(static_cast<uint64_t>(V));
      return formatString("%s %s, %s", Name, Rd.c_str(), Value.c_str());
    }
    return formatString("%s %s, %d", Name, Rd.c_str(), I.Imm);
  case Form::Load:
  case Form::Store:
    return formatString("%s %s, %d(%s)", Name, Rd.c_str(), I.Imm,
                        Rs1.c_str());
  case Form::Branch:
    return formatString("%s %s, %s, %s", Name, Rs1.c_str(), Rs2.c_str(),
                        Target.c_str());
  case Form::Jmp:
    return formatString("%s %s", Name, Target.c_str());
  case Form::Jal:
    return formatString("%s %s, %s", Name, Rd.c_str(), Target.c_str());
  case Form::Atomic:
    return formatString("%s %s, (%s), %s", Name, Rd.c_str(), Rs1.c_str(),
                        Rs2.c_str());
  case Form::FFF:
    return formatString("%s %s, %s, %s", Name, Fd.c_str(), Fs1.c_str(),
                        Fs2.c_str());
  case Form::FF:
    return formatString("%s %s, %s", Name, Fd.c_str(), Fs1.c_str());
  case Form::RFF:
    return formatString("%s %s, %s, %s", Name, Rd.c_str(), Fs1.c_str(),
                        Fs2.c_str());
  case Form::FLoad:
  case Form::FStore:
    return formatString("%s %s, %d(%s)", Name, Fd.c_str(), I.Imm,
                        Rs1.c_str());
  case Form::FR:
    return formatString("%s %s, %s", Name, Fd.c_str(), Rs1.c_str());
  case Form::RF:
    return formatString("%s %s, %s", Name, Rd.c_str(), Fs1.c_str());
  }
  return "<bad>";
}
