//===- tests/x86/TranslatorTest.cpp - differential translator tests -------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Property-based differential testing of the EG64 -> x86-64 translator:
/// randomly generated guest programs run (a) interpreted in the EVM and
/// (b) AOT-translated inside a native ELFie; both dump their final
/// register file to stdout, which must match bit-for-bit. This covers the
/// translator's instruction semantics — including the division edge
/// cases, shift masking, sign/zero extension, NaN-safe FP compares, and
/// the ldi/ldih immediate composition — against the interpreter as the
/// reference model.
///
//===----------------------------------------------------------------------===//

#include "x86/Translator.h"

#include "../common/TestHelpers.h"
#include "core/Pinball2Elf.h"
#include "support/Format.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace elfie;

namespace {

/// Generates a random straight-line compute program (no control flow other
/// than the generated loops' absence — pure dataflow), ending with a dump
/// of all 16 GPRs and 16 FPR bit patterns to stdout.
std::string randomProgram(uint64_t Seed, unsigned NumOps) {
  RNG R(Seed);
  std::string S = "_start:\n";
  // Seed registers r1..r9 with random values and r10..r13 with the
  // division/overflow edge operands, f0..f15 from ints.
  static const int64_t Edges[] = {INT64_MIN, -1, INT64_MAX, 0};
  for (unsigned I = 1; I <= 13; ++I) {
    int64_t V = static_cast<int64_t>(R.next() >> 1);
    S += formatString("  li r%u, %lld\n", I,
                      static_cast<long long>(I >= 10 ? Edges[I - 10] : V));
  }
  for (unsigned I = 0; I < 16; ++I)
    S += formatString("  fcvtid f%u, r%u\n", I, 1 + I % 13);

  static const char *IntOps3[] = {"add", "sub", "mul",  "mulh", "div",
                                  "divu", "rem", "remu", "and",  "or",
                                  "xor", "shl", "shr",  "sar",  "slt",
                                  "sltu", "seq"};
  static const char *IntOpsImm[] = {"addi", "muli", "andi", "ori", "xori",
                                    "slti", "sltui"};
  static const char *ShiftImm[] = {"shli", "shri", "sari"};
  static const char *FpOps3[] = {"fadd", "fsub", "fmul", "fdiv", "fmin",
                                 "fmax"};
  static const char *FpOps2[] = {"fneg", "fabs", "fmov", "fsqrt"};
  static const char *FpCmp[] = {"feq", "flt", "fle"};

  auto Gpr = [&](bool Dst) {
    // Destinations avoid r0 (hardwired zero) and r14/r15 (lr/sp used by
    // the dump epilogue); sources may include r0.
    return Dst ? 1 + R.nextBelow(13) : R.nextBelow(14);
  };
  auto Fpr = [&] { return R.nextBelow(16); };

  for (unsigned I = 0; I < NumOps; ++I) {
    switch (R.nextBelow(8)) {
    case 0:
    case 1:
    case 2:
      S += formatString("  %s r%llu, r%llu, r%llu\n",
                        IntOps3[R.nextBelow(std::size(IntOps3))],
                        (unsigned long long)Gpr(true),
                        (unsigned long long)Gpr(false),
                        (unsigned long long)Gpr(false));
      break;
    case 3:
      S += formatString("  %s r%llu, r%llu, %lld\n",
                        IntOpsImm[R.nextBelow(std::size(IntOpsImm))],
                        (unsigned long long)Gpr(true),
                        (unsigned long long)Gpr(false),
                        static_cast<long long>(R.nextInRange(-100000,
                                                             100000)));
      break;
    case 4:
      S += formatString("  %s r%llu, r%llu, %llu\n",
                        ShiftImm[R.nextBelow(std::size(ShiftImm))],
                        (unsigned long long)Gpr(true),
                        (unsigned long long)Gpr(false),
                        (unsigned long long)R.nextBelow(64));
      break;
    case 5:
      S += formatString("  %s f%llu, f%llu, f%llu\n",
                        FpOps3[R.nextBelow(std::size(FpOps3))],
                        (unsigned long long)Fpr(), (unsigned long long)Fpr(),
                        (unsigned long long)Fpr());
      break;
    case 6:
      S += formatString("  %s f%llu, f%llu\n",
                        FpOps2[R.nextBelow(std::size(FpOps2))],
                        (unsigned long long)Fpr(),
                        (unsigned long long)Fpr());
      break;
    case 7:
      if (R.nextBelow(2))
        S += formatString("  %s r%llu, f%llu, f%llu\n",
                          FpCmp[R.nextBelow(std::size(FpCmp))],
                          (unsigned long long)Gpr(true),
                          (unsigned long long)Fpr(),
                          (unsigned long long)Fpr());
      else
        S += formatString("  fcvtdi r%llu, f%llu\n",
                          (unsigned long long)Gpr(true),
                          (unsigned long long)Fpr());
      break;
    }
  }

  // The random ops rarely pair the edge operands, so run every division
  // edge case once on r14/r15 and fold each result into a dumped register
  // (xor keeps the random result visible too).
  static const struct {
    const char *Op;
    int64_t A, B;
  } EdgeOps[] = {
      {"div", INT64_MIN, -1},         {"rem", INT64_MIN, -1},
      {"div", INT64_MAX, 0},          {"rem", INT64_MIN, 0},
      {"divu", -1, 0},                {"remu", INT64_MIN, 0},
      {"div", INT64_MIN, INT64_MAX},  {"rem", -1, INT64_MIN},
      {"divu", INT64_MIN, -1},        {"remu", -1, INT64_MIN},
      {"mulh", INT64_MIN, INT64_MIN}, {"mulh", INT64_MIN, -1},
  };
  for (unsigned K = 0; K < std::size(EdgeOps); ++K)
    S += formatString("  li r14, %lld\n  li r15, %lld\n  %s r14, r14, r15\n"
                      "  xor r%u, r%u, r14\n",
                      static_cast<long long>(EdgeOps[K].A),
                      static_cast<long long>(EdgeOps[K].B), EdgeOps[K].Op,
                      K + 1, K + 1);

  // Dump: store r1..r13 and all FPR bit patterns into a buffer, write it.
  S += "  la r14, dump\n";
  for (unsigned I = 1; I <= 13; ++I)
    S += formatString("  st8 r%u, %u(r14)\n", I, 8 * (I - 1));
  for (unsigned I = 0; I < 16; ++I) {
    S += formatString("  fmvtoi r1, f%u\n  st8 r1, %u(r14)\n", I,
                      104 + 8 * I);
  }
  S += R"(
  ldi r7, 2
  ldi r1, 1
  la  r2, dump
  ldi r3, 232
  syscall
  ldi r7, 1
  ldi r1, 0
  syscall
  .data
  .align 8
dump: .space 232
)";
  return S;
}

/// Runs a program's whole execution as a native ELFie and returns stdout.
bool runNativeWhole(const std::string &Dir, const std::string &Src,
                    std::string &Out, std::string &Err) {
  pinball::CaptureRequest Req;
  Req.ProgramPath = Dir + "/prog.elf";
  Error E = easm::assembleToFile(Src, "prog.s", Req.ProgramPath);
  EXPECT_FALSE(E.isError()) << E.message();
  Req.RegionStart = 0;
  Req.RegionLength = UINT64_MAX / 2;
  Req.Opts = pinball::LoggerOptions::fat();
  auto PB = pinball::captureRegion(Req);
  EXPECT_TRUE(PB.hasValue()) << PB.message();
  if (!PB)
    return false;
  std::string Exe = Dir + "/prog.elfie";
  E = core::pinballToElfFile(*PB, core::Pinball2ElfOptions(), Exe);
  EXPECT_FALSE(E.isError()) << E.message();
  auto R = test::runProcess(Exe);
  EXPECT_TRUE(R.Wait.Exited) << "signal " << R.Wait.Signal << " " << R.Stderr;
  Err = R.Stderr;
  Out = R.Stdout;
  return R.Wait.Exited && R.Wait.ExitCode == 0;
}

class TranslatorDifferential : public testing::TestWithParam<uint64_t> {};

TEST_P(TranslatorDifferential, RandomProgramsMatchInterpreter) {
  std::string Dir =
      testing::TempDir() + "/elfie_xlate_" + std::to_string(GetParam());
  removeTree(Dir);
  createDirectories(Dir);

  for (unsigned Round = 0; Round < 4; ++Round) {
    std::string Src = randomProgram(GetParam() * 97 + Round, 120);

    // Reference: EVM interpretation.
    auto Captured = std::make_shared<std::string>();
    auto M = test::makeVM(Src, Captured);
    ASSERT_NE(M, nullptr);
    auto VR = M->run(10000000);
    ASSERT_EQ(VR.Reason, vm::StopReason::AllExited)
        << (VR.Reason == vm::StopReason::Faulted ? VR.FaultInfo.Message
                                                 : "no exit");
    ASSERT_EQ(Captured->size(), 232u);

    // Native translation.
    std::string NativeOut, NativeErr;
    ASSERT_TRUE(runNativeWhole(Dir, Src, NativeOut, NativeErr))
        << NativeErr;
    ASSERT_EQ(NativeOut.size(), 232u);

    // Bit-exact register-file equality.
    for (size_t I = 0; I < 232; I += 8) {
      uint64_t A, B;
      memcpy(&A, Captured->data() + I, 8);
      memcpy(&B, NativeOut.data() + I, 8);
      EXPECT_EQ(A, B) << "round " << Round << ", dump word " << I / 8
                      << (I < 104 ? " (GPR)" : " (FPR bits)");
    }
  }
  removeTree(Dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TranslatorDifferential,
                         testing::Values(1ull, 2ull, 3ull, 4ull, 5ull,
                                         6ull));

TEST(TranslatorUnit, AddressTableCoversAllInstructions) {
  x86::Encoder E;
  x86::TranslatorConfig TC;
  TC.HostCodeBase = 0x1000;
  TC.TableBase = 0x2000;
  x86::Translator T(E, TC);
  // Two pages with a gap.
  std::vector<uint8_t> Page(4096, 0);
  for (size_t Off = 0; Off + 8 <= Page.size(); Off += 8) {
    isa::Inst I;
    I.Op = isa::Opcode::Nop;
    uint64_t W = isa::encode(I);
    memcpy(Page.data() + Off, &W, 8);
  }
  T.addCodePage(0x10000, Page.data(), Page.size());
  T.addCodePage(0x12000, Page.data(), Page.size());
  x86::Label Sys, Cd, Hl, Ab;
  x86::Translator::RuntimeLabels RT{&Sys, &Cd, &Hl, &Ab};
  E.bind(Sys);
  E.ret();
  E.bind(Cd);
  E.ret();
  E.bind(Hl);
  E.ret();
  E.bind(Ab);
  E.ud2();
  // Bind order: runtime first here, then translate.
  ASSERT_FALSE(T.translateAll(RT).isError());
  EXPECT_EQ(T.codeLo(), 0x10000u);
  EXPECT_EQ(T.codeHi(), 0x13000u);
  EXPECT_EQ(T.translatedCount(), 2 * 512u);

  auto Table = T.buildAddressTable();
  EXPECT_EQ(Table.size(), (T.codeHi() - T.codeLo()) / 8 * 8);
  // Translated slots are nonzero; the gap page's slots are zero.
  auto EntryAt = [&](uint64_t Guest) {
    uint64_t V;
    memcpy(&V, Table.data() + (Guest - T.codeLo()), 8);
    return V;
  };
  EXPECT_NE(EntryAt(0x10000), 0u);
  EXPECT_NE(EntryAt(0x12ff8), 0u);
  EXPECT_EQ(EntryAt(0x11000), 0u) << "gap pages are not code";
  size_t Off;
  ASSERT_TRUE(T.hostOffsetFor(0x10008, Off));
  EXPECT_EQ(EntryAt(0x10008), TC.HostCodeBase + Off);
  EXPECT_FALSE(T.hostOffsetFor(0x11000, Off));
}

} // namespace
