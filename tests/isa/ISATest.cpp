//===- tests/isa/ISATest.cpp - EG64 encode/decode properties --------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "isa/ISA.h"

#include "support/RNG.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace elfie;
using namespace elfie::isa;

namespace {

TEST(ISA, EncodeDecodeRoundTrip) {
  Inst I;
  I.Op = Opcode::Add;
  I.Rd = 1;
  I.Rs1 = 2;
  I.Rs2 = 3;
  I.Imm = -12345;
  Inst Out;
  ASSERT_TRUE(decode(encode(I), Out));
  EXPECT_EQ(I, Out);
}

TEST(ISA, DecodeRejectsUnknownOpcode) {
  Inst Out;
  EXPECT_FALSE(decode(uint64_t(0xff), Out));
  EXPECT_FALSE(decode(uint64_t(0x06), Out)); // gap after Pause
}

TEST(ISA, DecodeRejectsBadRegisters) {
  Inst I;
  I.Op = Opcode::Add;
  I.Rd = 16; // out of range
  Inst Out;
  EXPECT_FALSE(decode(encode(I), Out));
}

TEST(ISA, MarkerAllowsKindInRdField) {
  Inst I;
  I.Op = Opcode::Marker;
  I.Rd = 200; // marker kind field, not a register
  I.Imm = 42;
  Inst Out;
  EXPECT_TRUE(decode(encode(I), Out));
  EXPECT_EQ(Out.Rd, 200);
}

TEST(ISA, OpcodeNamesRoundTrip) {
  // Every named opcode must map back to itself through the mnemonic table.
  for (unsigned V = 0; V < 256; ++V) {
    if (!isValidOpcode(static_cast<uint8_t>(V)))
      continue;
    Opcode Op = static_cast<Opcode>(V);
    std::string Name = opcodeName(Op);
    ASSERT_NE(Name, "<bad>");
    Opcode Back;
    ASSERT_TRUE(opcodeFromName(Name, Back)) << Name;
    EXPECT_EQ(Back, Op) << Name;
  }
}

TEST(ISA, Classification) {
  EXPECT_TRUE(isBranch(Opcode::Beq));
  EXPECT_FALSE(isBranch(Opcode::Jmp));
  EXPECT_TRUE(isControlFlow(Opcode::Jalr));
  EXPECT_TRUE(isControlFlow(Opcode::Halt));
  EXPECT_FALSE(isControlFlow(Opcode::Add));
  EXPECT_TRUE(isBlockTerminator(Opcode::Syscall));
  EXPECT_TRUE(isBlockTerminator(Opcode::Marker));
  EXPECT_TRUE(isBlockTerminator(Opcode::Bgeu));
  EXPECT_FALSE(isBlockTerminator(Opcode::Pause));
  EXPECT_EQ(opInfo(Opcode::Ld4s).Mem, Access::Load);
  EXPECT_EQ(opInfo(Opcode::Ld4s).Width, 4);
  EXPECT_TRUE(opInfo(Opcode::Ld4s).Signed);
  EXPECT_FALSE(opInfo(Opcode::Ld4).Signed);
  EXPECT_EQ(opInfo(Opcode::Fld).Mem, Access::Load);
  EXPECT_EQ(opInfo(Opcode::Fst).Mem, Access::Store);
  EXPECT_EQ(opInfo(Opcode::St2).Width, 2);
  EXPECT_EQ(opInfo(Opcode::Cas).Mem, Access::Atomic);
  EXPECT_EQ(opInfo(Opcode::Mov).Mem, Access::None);
  EXPECT_TRUE(writesGpr(opInfo(Opcode::Jal).Operands));
  EXPECT_TRUE(writesGpr(opInfo(Opcode::Fcvtdi).Operands));
  EXPECT_FALSE(writesGpr(opInfo(Opcode::Fcvtid).Operands));
  EXPECT_FALSE(writesGpr(opInfo(Opcode::St8).Operands));
}

// The rows agree with themselves: each is filed under its own opcode byte,
// the branch form and the branch class coincide, and only memory rows
// carry a width (sign extension only on loads).
TEST(ISA, OpTableRowsAreConsistent) {
  unsigned Valid = 0;
  for (unsigned V = 0; V < 256; ++V) {
    const OpInfo &Row = OpInfoByCode[V];
    if (!Row.Name)
      continue;
    ++Valid;
    EXPECT_EQ(static_cast<unsigned>(Row.Op), V) << Row.Name;
    EXPECT_EQ(Row.Operands == Form::Branch, Row.Control == Flow::Branch)
        << Row.Name;
    if (Row.Mem == Access::None) {
      EXPECT_EQ(Row.Width, 0) << Row.Name;
    } else {
      EXPECT_TRUE(Row.Width == 1 || Row.Width == 2 || Row.Width == 4 ||
                  Row.Width == 8)
          << Row.Name;
    }
    if (Row.Signed) {
      EXPECT_EQ(Row.Mem, Access::Load) << Row.Name;
    }
  }
  EXPECT_EQ(Valid, 78u);
}

TEST(ISA, RegisterNames) {
  EXPECT_EQ(gprName(0), "r0");
  EXPECT_EQ(gprName(15), "sp");
  EXPECT_EQ(gprName(14), "lr");
  EXPECT_EQ(gprName(7), "r7");
  EXPECT_EQ(fprName(3), "f3");
}

TEST(ISA, DisassembleBasics) {
  Inst I;
  I.Op = Opcode::Addi;
  I.Rd = 1;
  I.Rs1 = 2;
  I.Imm = -4;
  EXPECT_EQ(disassemble(I, 0x10000), "addi r1, r2, -4");

  I = Inst();
  I.Op = Opcode::Beq;
  I.Rs1 = 3;
  I.Rs2 = 0;
  I.Imm = 16;
  EXPECT_EQ(disassemble(I, 0x10000), "beq r3, r0, 0x10010");

  I = Inst();
  I.Op = Opcode::Ld8;
  I.Rd = 4;
  I.Rs1 = 15;
  I.Imm = 8;
  EXPECT_EQ(disassemble(I, 0), "ld8 r4, 8(sp)");

  I = Inst();
  I.Op = Opcode::Fadd;
  I.Rd = 1;
  I.Rs1 = 2;
  I.Rs2 = 3;
  EXPECT_EQ(disassemble(I, 0), "fadd f1, f2, f3");
}

// Oracle: the disassembly of every opcode, in opcode order, with fixed
// operands (rd = 1, rs1 = lr, rs2 = sp, imm = -24 at pc 0x10040). The text
// is what edisasm prints and what pinball2elf's listings show, so a change
// to any line is a visible format change.
TEST(ISA, DisassemblyGoldenEveryOpcode) {
  static const char *const Golden[] = {
      "nop",
      "halt",
      "marker 1, -24",
      "syscall",
      "fence",
      "pause",
      "add r1, lr, sp",
      "sub r1, lr, sp",
      "mul r1, lr, sp",
      "mulh r1, lr, sp",
      "div r1, lr, sp",
      "divu r1, lr, sp",
      "rem r1, lr, sp",
      "remu r1, lr, sp",
      "and r1, lr, sp",
      "or r1, lr, sp",
      "xor r1, lr, sp",
      "shl r1, lr, sp",
      "shr r1, lr, sp",
      "sar r1, lr, sp",
      "slt r1, lr, sp",
      "sltu r1, lr, sp",
      "seq r1, lr, sp",
      "mov r1, lr",
      "addi r1, lr, -24",
      "muli r1, lr, -24",
      "andi r1, lr, -24",
      "ori r1, lr, -24",
      "xori r1, lr, -24",
      "shli r1, lr, -24",
      "shri r1, lr, -24",
      "sari r1, lr, -24",
      "slti r1, lr, -24",
      "sltui r1, lr, -24",
      "ldi r1, -24",
      // ldih prints imm32 << 32: the assembler keeps the operand's high half.
      "ldih r1, -103079215104",
      "ld1 r1, -24(lr)",
      "ld2 r1, -24(lr)",
      "ld4 r1, -24(lr)",
      "ld8 r1, -24(lr)",
      "ld1s r1, -24(lr)",
      "ld2s r1, -24(lr)",
      "ld4s r1, -24(lr)",
      "st1 r1, -24(lr)",
      "st2 r1, -24(lr)",
      "st4 r1, -24(lr)",
      "st8 r1, -24(lr)",
      "beq lr, sp, 0x10028",
      "bne lr, sp, 0x10028",
      "blt lr, sp, 0x10028",
      "bge lr, sp, 0x10028",
      "bltu lr, sp, 0x10028",
      "bgeu lr, sp, 0x10028",
      "jmp 0x10028",
      "jal r1, 0x10028",
      "jalr r1, lr, -24",
      "amoadd r1, (lr), sp",
      "amoswap r1, (lr), sp",
      "cas r1, (lr), sp",
      "fadd f1, f14, f15",
      "fsub f1, f14, f15",
      "fmul f1, f14, f15",
      "fdiv f1, f14, f15",
      "fmin f1, f14, f15",
      "fmax f1, f14, f15",
      "fsqrt f1, f14",
      "fneg f1, f14",
      "fabs f1, f14",
      "fmov f1, f14",
      "feq r1, f14, f15",
      "flt r1, f14, f15",
      "fle r1, f14, f15",
      "fld f1, -24(lr)",
      "fst f1, -24(lr)",
      "fcvtid f1, lr",
      "fcvtdi r1, f14",
      "fmvtof f1, lr",
      "fmvtoi r1, f14",
  };
  size_t K = 0;
  for (unsigned V = 0; V < 256; ++V) {
    if (!isValidOpcode(static_cast<uint8_t>(V)))
      continue;
    ASSERT_LT(K, std::size(Golden));
    Inst I;
    I.Op = static_cast<Opcode>(V);
    I.Rd = 1;
    I.Rs1 = RegLR;
    I.Rs2 = RegSP;
    I.Imm = -24;
    EXPECT_EQ(disassemble(I, 0x10040), Golden[K]) << opcodeName(I.Op);
    ++K;
  }
  EXPECT_EQ(K, std::size(Golden));
}

// Property: random valid instructions survive an encode/decode round trip.
class ISARoundTrip : public testing::TestWithParam<uint64_t> {};

TEST_P(ISARoundTrip, RandomInstructions) {
  RNG R(GetParam());
  // Collect the valid opcode values once.
  std::vector<uint8_t> Valid;
  for (unsigned V = 0; V < 256; ++V)
    if (isValidOpcode(static_cast<uint8_t>(V)))
      Valid.push_back(static_cast<uint8_t>(V));

  for (int N = 0; N < 2000; ++N) {
    Inst I;
    I.Op = static_cast<Opcode>(Valid[R.nextBelow(Valid.size())]);
    I.Rd = static_cast<uint8_t>(R.nextBelow(NumGPRs));
    I.Rs1 = static_cast<uint8_t>(R.nextBelow(NumGPRs));
    I.Rs2 = static_cast<uint8_t>(R.nextBelow(NumGPRs));
    I.Imm = static_cast<int32_t>(R.next());
    Inst Out;
    ASSERT_TRUE(decode(encode(I), Out));
    EXPECT_EQ(I, Out);
    // Disassembly of a valid instruction never says "<bad>".
    EXPECT_EQ(disassemble(Out, 0x10000).find("<bad>"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ISARoundTrip,
                         testing::Values(1ull, 42ull, 0xdeadbeefull));

} // namespace
