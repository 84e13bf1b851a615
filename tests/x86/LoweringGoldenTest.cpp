//===- tests/x86/LoweringGoldenTest.cpp - emitted-byte golden digests -----===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Pins the exact bytes both x86 code generators emit. One code page that
/// holds every EG64 opcode in several operand variants goes through the
/// AOT Translator, and every opcode the JIT compiles goes through
/// emitJitBlock, each against a fixed layout; the SHA-256 of each output
/// must equal a recorded constant. The differential tests only check that
/// the emitted code computes the right values; this test checks that the
/// code itself does not change, so a refactor of the lowering (for
/// example moving shared lowering into x86/Lowering) must keep it
/// byte-identical.
///
/// A deliberate lowering change must update the constants below: rerun
/// this test and copy the digests it reports.
///
//===----------------------------------------------------------------------===//

#include "x86/JITEmitter.h"
#include "x86/Translator.h"

#include "isa/ISA.h"
#include "support/Sha256.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace elfie;
using namespace elfie::x86;

namespace {

constexpr const char *AotDigest =
    "75aef06c2de4bb9d05aa71d39a35430518f1f64e5a8fcadd6cd8c99832385419";
constexpr const char *JitDigest =
    "41cea3d5d4cbc37d966da415543372f49d1a6f88d90f0660be9a9cfd652258cc";

/// Operand variants each opcode is lowered with: r0 as destination and as
/// source, zero and non-zero displacements, in-page, misaligned and
/// out-of-page branch offsets, negative and wide immediates.
struct Variant {
  uint8_t Rd, Rs1, Rs2;
  int32_t Imm;
};
constexpr Variant Variants[] = {
    {3, 1, 2, 0},     {0, 4, 5, -8},          {7, 0, 9, 16},
    {15, 14, 13, 4},  {9, 9, 0, 0x12345678},  {1, 15, 15, -100000},
};

std::vector<isa::Inst> variantsOf(isa::Opcode Op) {
  std::vector<isa::Inst> Out;
  for (const Variant &V : Variants) {
    isa::Inst I;
    I.Op = Op;
    I.Rd = V.Rd;
    I.Rs1 = V.Rs1;
    I.Rs2 = V.Rs2;
    I.Imm = V.Imm;
    Out.push_back(I);
  }
  return Out;
}

std::vector<isa::Opcode> allOpcodes() {
  std::vector<isa::Opcode> Out;
  for (unsigned B = 0; B < 256; ++B)
    if (isa::isValidOpcode(static_cast<uint8_t>(B)))
      Out.push_back(static_cast<isa::Opcode>(B));
  return Out;
}

std::string hexDigest(const std::vector<uint8_t> &Bytes) {
  return Sha256::digest(Bytes.data(), Bytes.size()).hex();
}

void appendU64(std::vector<uint8_t> &Out, uint64_t V) {
  uint8_t B[8];
  std::memcpy(B, &V, 8);
  Out.insert(Out.end(), B, B + 8);
}

} // namespace

TEST(LoweringGolden, TranslatorBytesMatchRecordedDigest) {
  // One page: every opcode in every variant, the rest undecodable words
  // (the decode-failure path jumps to the abort stub).
  constexpr uint64_t PageAddr = 0x10000;
  std::vector<uint8_t> Page(4096, 0xff);
  size_t Off = 0;
  for (isa::Opcode Op : allOpcodes())
    for (const isa::Inst &I : variantsOf(Op)) {
      ASSERT_LE(Off + 8, Page.size());
      uint64_t W = isa::encode(I);
      std::memcpy(Page.data() + Off, &W, 8);
      Off += 8;
    }

  Encoder E;
  TranslatorConfig TC;
  TC.HostCodeBase = 0x400000;
  TC.TableBase = 0x600000;
  Translator T(E, TC);
  T.addCodePage(PageAddr, Page.data(), Page.size());
  Label Sys, Cd, Hl, Ab;
  Translator::RuntimeLabels RT{&Sys, &Cd, &Hl, &Ab};
  E.bind(Sys);
  E.ret();
  E.bind(Cd);
  E.ret();
  E.bind(Hl);
  E.ret();
  E.bind(Ab);
  E.ud2();
  ASSERT_FALSE(T.translateAll(RT).isError());

  std::vector<uint8_t> Bytes = E.code();
  std::vector<uint8_t> Table = T.buildAddressTable();
  Bytes.insert(Bytes.end(), Table.begin(), Table.end());
  EXPECT_EQ(hexDigest(Bytes), AotDigest)
      << "AOT lowering changed; if deliberate, update AotDigest";
}

TEST(LoweringGolden, JitBytesMatchRecordedDigest) {
  JitLayout L;
  L.CountdownOff = 0;
  L.NextPCOff = 8;
  L.MemOkOff = 16;
  L.PendingOff = 24;
  L.CookieOff = 32;
  L.LoadFnOff = 40;
  L.StoreFnOff = 48;
  L.ThreadOff = 56;
  // GPR slots straddle the disp8/disp32 boundary; FPR slots are disp32.
  L.GprOff = 80;
  L.FprOff = 208;

  std::vector<uint8_t> Bytes;
  auto Emit = [&](uint64_t StartPC, const std::vector<isa::Inst> &Insts) {
    JitBlockCode Out;
    bool Ok = emitJitBlock(StartPC, Insts.data(), Insts.size(), L, Out);
    Bytes.push_back(Ok ? 1 : 0);
    appendU64(Bytes, Out.NumInsts);
    for (const JitChainExit &X : Out.Exits) {
      appendU64(Bytes, X.JmpOff);
      appendU64(Bytes, X.TargetPC);
    }
    Bytes.insert(Bytes.end(), Out.Code.begin(), Out.Code.end());
  };

  // Every compiled opcode, one single-instruction block per variant, at a
  // low and a high (beyond imm32) start address.
  std::vector<isa::Inst> Straight;
  for (isa::Opcode Op : allOpcodes()) {
    if (jitNeedsInterpreter(Op))
      continue;
    for (const isa::Inst &I : variantsOf(Op)) {
      Emit(0x10000, {I});
      Emit(0x123456789000ull, {I});
      if (!isa::isControlFlow(Op))
        Straight.push_back(I);
    }
  }
  // One long straight-line block ending in a bailout instruction.
  isa::Inst Sys;
  Sys.Op = isa::Opcode::Syscall;
  Straight.push_back(Sys);
  Emit(0x20000, Straight);

  EXPECT_EQ(hexDigest(Bytes), JitDigest)
      << "JIT lowering changed; if deliberate, update JitDigest";
}
