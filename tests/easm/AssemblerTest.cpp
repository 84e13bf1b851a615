//===- tests/easm/AssemblerTest.cpp - Assembler behaviour -----------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "easm/Assembler.h"

#include "elf/ELFReader.h"
#include "isa/ISA.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <iterator>
#include <utility>

using namespace elfie;
using namespace elfie::easm;
using isa::Inst;
using isa::Opcode;

namespace {

/// Assembles and decodes the .text section into instructions.
std::vector<Inst> assembleText(const std::string &Src) {
  auto P = assembleString(Src, "test.s");
  EXPECT_TRUE(P.hasValue()) << P.message();
  if (!P)
    return {};
  for (const AssembledSection &S : P->Sections) {
    if (S.Name != ".text")
      continue;
    std::vector<Inst> Out;
    for (size_t Off = 0; Off + 8 <= S.Data.size(); Off += 8) {
      Inst I;
      EXPECT_TRUE(isa::decode(S.Data.data() + Off, I));
      Out.push_back(I);
    }
    return Out;
  }
  return {};
}

TEST(Assembler, BasicInstructions) {
  auto Insts = assembleText("  addi r1, r0, 5\n"
                            "  add  r2, r1, r1\n"
                            "  halt\n");
  ASSERT_EQ(Insts.size(), 3u);
  EXPECT_EQ(Insts[0].Op, Opcode::Addi);
  EXPECT_EQ(Insts[0].Rd, 1);
  EXPECT_EQ(Insts[0].Imm, 5);
  EXPECT_EQ(Insts[1].Op, Opcode::Add);
  EXPECT_EQ(Insts[2].Op, Opcode::Halt);
}

TEST(Assembler, CommentsAndBlankLines) {
  auto Insts = assembleText("# full comment\n"
                            "\n"
                            "  nop  # trailing\n"
                            "  nop  ; alt comment\n");
  EXPECT_EQ(Insts.size(), 2u);
}

TEST(Assembler, BranchTargetsResolve) {
  auto Insts = assembleText("start:\n"
                            "  addi r1, r1, 1\n"
                            "  bne r1, r2, start\n"
                            "  jmp done\n"
                            "done:\n"
                            "  halt\n");
  ASSERT_EQ(Insts.size(), 4u);
  // bne at TextBase+8 -> start at TextBase: displacement -8.
  EXPECT_EQ(Insts[1].Imm, -8);
  // jmp at +16 -> done at +24: displacement +8.
  EXPECT_EQ(Insts[2].Imm, 8);
}

TEST(Assembler, MemoryOperands) {
  auto Insts = assembleText("  ld8 r1, 16(sp)\n"
                            "  st4 r2, -8(r3)\n"
                            "  ld1 r4, (r5)\n");
  ASSERT_EQ(Insts.size(), 3u);
  EXPECT_EQ(Insts[0].Rs1, isa::RegSP);
  EXPECT_EQ(Insts[0].Imm, 16);
  EXPECT_EQ(Insts[1].Imm, -8);
  EXPECT_EQ(Insts[2].Imm, 0);
}

TEST(Assembler, LiExpandsToTwoInstructions) {
  auto Insts = assembleText("  li r1, 0x123456789abcdef0\n");
  ASSERT_EQ(Insts.size(), 2u);
  EXPECT_EQ(Insts[0].Op, Opcode::Ldi);
  EXPECT_EQ(Insts[1].Op, Opcode::Ldih);
  // ldi sign-extends the low 32 bits; ldih replaces the high 32.
  uint64_t Lo = static_cast<uint64_t>(static_cast<int64_t>(Insts[0].Imm));
  uint64_t V = (static_cast<uint64_t>(static_cast<uint32_t>(Insts[1].Imm))
                << 32) |
               (Lo & 0xffffffffull);
  EXPECT_EQ(V, 0x123456789abcdef0ull);
}

TEST(Assembler, LaLoadsLabelAddress) {
  auto P = assembleString("  la r1, value\n"
                          "  halt\n"
                          "  .data\n"
                          "value: .quad 7\n",
                          "test.s");
  ASSERT_TRUE(P.hasValue()) << P.message();
  uint64_t ValueAddr = P->Symbols.at("value");
  const AssembledSection &Text = P->Sections[0];
  Inst Lo, Hi;
  ASSERT_TRUE(isa::decode(Text.Data.data(), Lo));
  ASSERT_TRUE(isa::decode(Text.Data.data() + 8, Hi));
  uint64_t V =
      (static_cast<uint64_t>(static_cast<uint32_t>(Hi.Imm)) << 32) |
      (static_cast<uint64_t>(static_cast<int64_t>(Lo.Imm)) & 0xffffffffull);
  EXPECT_EQ(V, ValueAddr);
}

TEST(Assembler, PseudoInstructions) {
  auto Insts = assembleText("f:\n"
                            "  push r1\n"
                            "  pop r1\n"
                            "  call f\n"
                            "  ret\n"
                            "  mv r2, r3\n"
                            "  beqz r1, f\n"
                            "  bnez r1, f\n");
  // push=2, pop=2, call=1, ret=1, mv=1, beqz=1, bnez=1.
  ASSERT_EQ(Insts.size(), 9u);
  EXPECT_EQ(Insts[4].Op, Opcode::Jal);
  EXPECT_EQ(Insts[4].Rd, isa::RegLR);
  EXPECT_EQ(Insts[5].Op, Opcode::Jalr);
  EXPECT_EQ(Insts[5].Rs1, isa::RegLR);
  EXPECT_EQ(Insts[7].Op, Opcode::Beq);
  EXPECT_EQ(Insts[7].Rs2, isa::RegZero);
}

TEST(Assembler, DataDirectives) {
  auto P = assembleString("  .data\n"
                          "a: .byte 1, 2, 3\n"
                          "b: .half 0x1234\n"
                          "c: .word 0xdeadbeef\n"
                          "d: .quad 0x0102030405060708\n"
                          "s: .asciz \"hi\\n\"\n"
                          "z: .space 5\n",
                          "test.s");
  ASSERT_TRUE(P.hasValue()) << P.message();
  const AssembledSection *Data = nullptr;
  for (const auto &S : P->Sections)
    if (S.Name == ".data")
      Data = &S;
  ASSERT_NE(Data, nullptr);
  EXPECT_EQ(Data->Data.size(), 3u + 2 + 4 + 8 + 4 + 5);
  EXPECT_EQ(Data->Data[0], 1);
  EXPECT_EQ(Data->Data[3], 0x34);
  EXPECT_EQ(Data->Data[5], 0xef);
  // "hi\n\0"
  size_t SOff = 3 + 2 + 4 + 8;
  EXPECT_EQ(Data->Data[SOff], 'h');
  EXPECT_EQ(Data->Data[SOff + 2], '\n');
  EXPECT_EQ(Data->Data[SOff + 3], '\0');
}

TEST(Assembler, QuadWithSymbol) {
  auto P = assembleString("  .data\n"
                          "ptr: .quad target\n"
                          "target: .quad 0\n",
                          "test.s");
  ASSERT_TRUE(P.hasValue()) << P.message();
  const AssembledSection *Data = nullptr;
  for (const auto &S : P->Sections)
    if (S.Name == ".data")
      Data = &S;
  ASSERT_NE(Data, nullptr);
  uint64_t V;
  memcpy(&V, Data->Data.data(), 8);
  EXPECT_EQ(V, P->Symbols.at("target"));
}

TEST(Assembler, EquConstants) {
  auto Insts = assembleText("  .equ N, 17\n"
                            "  addi r1, r0, N\n");
  ASSERT_EQ(Insts.size(), 1u);
  EXPECT_EQ(Insts[0].Imm, 17);
}

TEST(Assembler, BssAllocatesWithoutBytes) {
  auto P = assembleString("  .bss\n"
                          "buf: .space 4096\n"
                          "  .align 8\n"
                          "v:   .space 8\n",
                          "test.s");
  ASSERT_TRUE(P.hasValue()) << P.message();
  const AssembledSection *Bss = nullptr;
  for (const auto &S : P->Sections)
    if (S.Name == ".bss")
      Bss = &S;
  ASSERT_NE(Bss, nullptr);
  EXPECT_TRUE(Bss->IsNoBits);
  EXPECT_EQ(Bss->Size, 4104u);
  EXPECT_TRUE(Bss->Data.empty());
}

TEST(Assembler, EntryIsStartSymbol) {
  auto P = assembleString("  nop\n"
                          "_start: halt\n",
                          "test.s");
  ASSERT_TRUE(P.hasValue()) << P.message();
  EXPECT_EQ(P->Entry, isa::TextBase + 8);
}

TEST(Assembler, OrgSetsSectionBase) {
  auto P = assembleString("  .text\n"
                          "  .org 0x40000\n"
                          "_start: halt\n",
                          "test.s");
  ASSERT_TRUE(P.hasValue()) << P.message();
  EXPECT_EQ(P->Entry, 0x40000u);
}

TEST(Assembler, MarkerInstruction) {
  auto Insts = assembleText("  marker 1, 42\n");
  ASSERT_EQ(Insts.size(), 1u);
  EXPECT_EQ(Insts[0].Op, Opcode::Marker);
  EXPECT_EQ(Insts[0].Rd, 1);
  EXPECT_EQ(Insts[0].Imm, 42);
}

TEST(Assembler, FloatingPointForms) {
  auto Insts = assembleText("  fadd f1, f2, f3\n"
                            "  fsqrt f4, f1\n"
                            "  flt r1, f1, f2\n"
                            "  fld f5, 8(r2)\n"
                            "  fst f5, 16(r2)\n"
                            "  fcvtid f0, r3\n"
                            "  fcvtdi r3, f0\n"
                            "  fmvtof f1, r1\n"
                            "  fmvtoi r1, f1\n");
  ASSERT_EQ(Insts.size(), 9u);
  EXPECT_EQ(Insts[0].Op, Opcode::Fadd);
  EXPECT_EQ(Insts[3].Imm, 8);
}

// ---- Error cases ----

TEST(AssemblerErrors, UnknownMnemonic) {
  auto P = assembleString("  frobnicate r1\n", "bad.s");
  ASSERT_FALSE(P.hasValue());
  EXPECT_NE(P.message().find("bad.s:1"), std::string::npos);
  EXPECT_NE(P.message().find("unknown mnemonic"), std::string::npos);
}

TEST(AssemblerErrors, UndefinedSymbol) {
  auto P = assembleString("  jmp nowhere\n", "bad.s");
  ASSERT_FALSE(P.hasValue());
  EXPECT_NE(P.message().find("undefined symbol"), std::string::npos);
}

TEST(AssemblerErrors, RedefinedLabel) {
  auto P = assembleString("x: nop\nx: nop\n", "bad.s");
  ASSERT_FALSE(P.hasValue());
  EXPECT_NE(P.message().find("redefined"), std::string::npos);
}

TEST(AssemblerErrors, WrongOperandCount) {
  EXPECT_FALSE(assembleString("  add r1, r2\n", "bad.s").hasValue());
  EXPECT_FALSE(assembleString("  halt r1\n", "bad.s").hasValue());
}

TEST(AssemblerErrors, BadRegister) {
  EXPECT_FALSE(assembleString("  add r1, r99, r2\n", "bad.s").hasValue());
}

TEST(AssemblerErrors, FpIntMismatch) {
  EXPECT_FALSE(assembleString("  fadd r1, f1, f2\n", "bad.s").hasValue());
  EXPECT_FALSE(assembleString("  add f1, f2, f3\n", "bad.s").hasValue());
}

// Oracle: the diagnostic for every mnemonic given four register operands,
// which no instruction takes, in opcode order.
TEST(AssemblerErrors, DiagnosticGoldenEveryMnemonic) {
  static const char *const Golden[] = {
      "t.s:1: nop takes no operands",
      "t.s:1: halt takes no operands",
      "t.s:1: marker expects: kind, tag",
      "t.s:1: syscall takes no operands",
      "t.s:1: fence takes no operands",
      "t.s:1: pause takes no operands",
      "t.s:1: add expects: rd, rs1, rs2",
      "t.s:1: sub expects: rd, rs1, rs2",
      "t.s:1: mul expects: rd, rs1, rs2",
      "t.s:1: mulh expects: rd, rs1, rs2",
      "t.s:1: div expects: rd, rs1, rs2",
      "t.s:1: divu expects: rd, rs1, rs2",
      "t.s:1: rem expects: rd, rs1, rs2",
      "t.s:1: remu expects: rd, rs1, rs2",
      "t.s:1: and expects: rd, rs1, rs2",
      "t.s:1: or expects: rd, rs1, rs2",
      "t.s:1: xor expects: rd, rs1, rs2",
      "t.s:1: shl expects: rd, rs1, rs2",
      "t.s:1: shr expects: rd, rs1, rs2",
      "t.s:1: sar expects: rd, rs1, rs2",
      "t.s:1: slt expects: rd, rs1, rs2",
      "t.s:1: sltu expects: rd, rs1, rs2",
      "t.s:1: seq expects: rd, rs1, rs2",
      "t.s:1: mov expects: rd, rs",
      "t.s:1: addi expects: rd, rs1, imm",
      "t.s:1: muli expects: rd, rs1, imm",
      "t.s:1: andi expects: rd, rs1, imm",
      "t.s:1: ori expects: rd, rs1, imm",
      "t.s:1: xori expects: rd, rs1, imm",
      "t.s:1: shli expects: rd, rs1, imm",
      "t.s:1: shri expects: rd, rs1, imm",
      "t.s:1: sari expects: rd, rs1, imm",
      "t.s:1: slti expects: rd, rs1, imm",
      "t.s:1: sltui expects: rd, rs1, imm",
      "t.s:1: ldi expects: rd, imm",
      "t.s:1: ldih expects: rd, imm",
      "t.s:1: ld1 expects: reg, disp(base)",
      "t.s:1: ld2 expects: reg, disp(base)",
      "t.s:1: ld4 expects: reg, disp(base)",
      "t.s:1: ld8 expects: reg, disp(base)",
      "t.s:1: ld1s expects: reg, disp(base)",
      "t.s:1: ld2s expects: reg, disp(base)",
      "t.s:1: ld4s expects: reg, disp(base)",
      "t.s:1: st1 expects: reg, disp(base)",
      "t.s:1: st2 expects: reg, disp(base)",
      "t.s:1: st4 expects: reg, disp(base)",
      "t.s:1: st8 expects: reg, disp(base)",
      "t.s:1: beq expects: rs1, rs2, target",
      "t.s:1: bne expects: rs1, rs2, target",
      "t.s:1: blt expects: rs1, rs2, target",
      "t.s:1: bge expects: rs1, rs2, target",
      "t.s:1: bltu expects: rs1, rs2, target",
      "t.s:1: bgeu expects: rs1, rs2, target",
      "t.s:1: jmp expects a target",
      "t.s:1: jal expects: rd, target",
      "t.s:1: jalr expects: rd, rs1[, imm]",
      "t.s:1: amoadd expects: rd, (addr), rs2",
      "t.s:1: amoswap expects: rd, (addr), rs2",
      "t.s:1: cas expects: rd, (addr), rs2",
      "t.s:1: fadd expects: fd, fs1, fs2",
      "t.s:1: fsub expects: fd, fs1, fs2",
      "t.s:1: fmul expects: fd, fs1, fs2",
      "t.s:1: fdiv expects: fd, fs1, fs2",
      "t.s:1: fmin expects: fd, fs1, fs2",
      "t.s:1: fmax expects: fd, fs1, fs2",
      "t.s:1: fsqrt expects: fd, fs",
      "t.s:1: fneg expects: fd, fs",
      "t.s:1: fabs expects: fd, fs",
      "t.s:1: fmov expects: fd, fs",
      "t.s:1: feq expects: rd, fs1, fs2",
      "t.s:1: flt expects: rd, fs1, fs2",
      "t.s:1: fle expects: rd, fs1, fs2",
      "t.s:1: fld expects: freg, disp(base)",
      "t.s:1: fst expects: freg, disp(base)",
      "t.s:1: fcvtid expects: fd, rs",
      "t.s:1: fcvtdi expects: rd, fs",
      "t.s:1: fmvtof expects: fd, rs",
      "t.s:1: fmvtoi expects: rd, fs",
  };
  size_t K = 0;
  for (unsigned V = 0; V < 256; ++V) {
    if (!isa::isValidOpcode(static_cast<uint8_t>(V)))
      continue;
    ASSERT_LT(K, std::size(Golden));
    std::string Name = isa::opcodeName(static_cast<Opcode>(V));
    auto P = assembleString("  " + Name + " r1, r2, r3, r4\n", "t.s");
    ASSERT_FALSE(P.hasValue()) << Name;
    EXPECT_EQ(P.message(), Golden[K]);
    ++K;
  }
  EXPECT_EQ(K, std::size(Golden));
}

// Oracle: one operand of the wrong kind for each operand form, plus the
// atomic displacement rule and a mnemonic in capitals.
TEST(AssemblerErrors, DiagnosticGoldenPerForm) {
  static const std::pair<const char *, const char *> Golden[] = {
      {"fence r1", "t.s:1: fence takes no operands"},
      {"marker r1, 2", "t.s:1: marker expects: kind, tag"},
      {"add r1, r2, 3", "t.s:1: add expects: rd, rs1, rs2"},
      {"mov r1, 5", "t.s:1: mov expects: rd, rs"},
      {"addi r1, r2, r3", "t.s:1: addi expects: rd, rs1, imm"},
      {"ldi f1, 5", "t.s:1: ldi expects: rd, imm"},
      {"ld8 r1, r2", "t.s:1: ld8 expects: reg, disp(base)"},
      {"st4 f1, 0(r2)", "t.s:1: st4 expects: reg, disp(base)"},
      {"beq r1, f2, 16", "t.s:1: beq expects: rs1, rs2, target"},
      {"jmp r1", "t.s:1: jmp expects a target"},
      {"jal f1, 16", "t.s:1: jal expects: rd, target"},
      {"jalr r1, 4", "t.s:1: jalr expects: rd, rs1[, imm]"},
      {"cas r1, r2, r3", "t.s:1: cas expects: rd, (addr), rs2"},
      {"amoadd r1, 8(r2), r3",
       "t.s:1: atomic operations take an undisplaced (reg) address"},
      {"fadd f1, f2, r3", "t.s:1: fadd expects: fd, fs1, fs2"},
      {"fsqrt r1, f2", "t.s:1: fsqrt expects: fd, fs"},
      {"feq f1, f2, f3", "t.s:1: feq expects: rd, fs1, fs2"},
      {"fld r1, 0(r2)", "t.s:1: fld expects: freg, disp(base)"},
      {"fst f1, r2", "t.s:1: fst expects: freg, disp(base)"},
      {"fcvtid r1, r2", "t.s:1: fcvtid expects: fd, rs"},
      {"fmvtoi f1, f2", "t.s:1: fmvtoi expects: rd, fs"},
      {"FADD r1, f2, f3", "t.s:1: fadd expects: fd, fs1, fs2"},
  };
  for (const auto &[Line, Message] : Golden) {
    auto P = assembleString(std::string("  ") + Line + "\n", "t.s");
    ASSERT_FALSE(P.hasValue()) << Line;
    EXPECT_EQ(P.message(), Message) << Line;
  }
}

// ---- Disassembly round trip ----

/// A canonical instruction of \p Op: random values in the fields its
/// operand form uses, zero in the others, and 8-aligned branch and jump
/// displacements.
Inst canonicalInst(Opcode Op, RNG &R) {
  auto Reg = [&] { return static_cast<uint8_t>(R.nextBelow(isa::NumGPRs)); };
  auto Imm = [&] {
    return static_cast<int32_t>(static_cast<uint32_t>(R.next()));
  };
  Inst I;
  I.Op = Op;
  switch (isa::opInfo(Op).Operands) {
  case isa::Form::None:
    break;
  case isa::Form::Marker:
    I.Rd = static_cast<uint8_t>(R.nextBelow(256));
    I.Imm = Imm();
    break;
  case isa::Form::RRR:
  case isa::Form::Atomic:
  case isa::Form::FFF:
  case isa::Form::RFF:
    I.Rd = Reg();
    I.Rs1 = Reg();
    I.Rs2 = Reg();
    break;
  case isa::Form::RR:
  case isa::Form::FF:
  case isa::Form::FR:
  case isa::Form::RF:
    I.Rd = Reg();
    I.Rs1 = Reg();
    break;
  case isa::Form::RRI:
  case isa::Form::Jalr:
  case isa::Form::Load:
  case isa::Form::Store:
  case isa::Form::FLoad:
  case isa::Form::FStore:
    I.Rd = Reg();
    I.Rs1 = Reg();
    I.Imm = Imm();
    break;
  case isa::Form::RI:
    I.Rd = Reg();
    I.Imm = Imm();
    break;
  case isa::Form::Branch:
    I.Rs1 = Reg();
    I.Rs2 = Reg();
    I.Imm = Imm() & ~7;
    break;
  case isa::Form::Jmp:
    I.Imm = Imm() & ~7;
    break;
  case isa::Form::Jal:
    I.Rd = Reg();
    I.Imm = Imm() & ~7;
    break;
  }
  return I;
}

// edisasm output is assembler input: every canonical instruction of every
// opcode reassembles to itself. The code sits at 4 GiB so that every
// branch target pc + imm32 is a positive address.
class DisassemblyRoundTrip : public testing::TestWithParam<uint64_t> {};

TEST_P(DisassemblyRoundTrip, AssembleOfDisassembleIsIdentity) {
  constexpr uint64_t Base = 0x100000000;
  RNG R(GetParam());
  std::vector<Inst> Insts;
  std::string Src = ".org 0x100000000\n";
  for (unsigned V = 0; V < 256; ++V) {
    if (!isa::isValidOpcode(static_cast<uint8_t>(V)))
      continue;
    for (int N = 0; N < 16; ++N) {
      Inst I = canonicalInst(static_cast<Opcode>(V), R);
      Src += "  " + isa::disassemble(I, Base + 8 * Insts.size()) + "\n";
      Insts.push_back(I);
    }
  }
  std::vector<Inst> Back = assembleText(Src);
  ASSERT_EQ(Back.size(), Insts.size());
  for (size_t K = 0; K < Insts.size(); ++K)
    EXPECT_EQ(Back[K], Insts[K])
        << isa::disassemble(Insts[K], Base + 8 * K) << " reassembles as "
        << isa::disassemble(Back[K], Base + 8 * K);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisassemblyRoundTrip,
                         testing::Values(1ull, 7ull, 42ull, 0xdeadbeefull));

// ---- ELF output ----

TEST(AssemblerELF, ProducesLoadableGuestExecutable) {
  auto Image = assembleToELF("_start:\n"
                             "  .global _start\n"
                             "  halt\n"
                             "  .data\n"
                             "msg: .ascii \"x\"\n",
                             "prog.s");
  ASSERT_TRUE(Image.hasValue()) << Image.message();
  auto R = elf::ELFReader::parse(*Image);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->machine(), elf::EM_EG64);
  EXPECT_EQ(R->fileType(), elf::ET_EXEC);
  EXPECT_EQ(R->entry(), isa::TextBase);
  ASSERT_NE(R->findSection(".text"), nullptr);
  ASSERT_NE(R->findSection(".data"), nullptr);
  ASSERT_NE(R->findSymbol("_start"), nullptr);
}

} // namespace
