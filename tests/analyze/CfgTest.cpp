//===- tests/analyze/CfgTest.cpp - CFG recovery + dataflow pass tests -----===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the analyze/cfg subsystem (DESIGN.md §13): the shared block
/// walker recovers the loop structure of hand-assembled programs, the
/// constant-propagation lattice resolves syscall numbers and memory
/// addresses, clean emitted ELFies analyze with zero CODE.* errors, a
/// deliberately corrupted branch target is detected both standalone and
/// through the everify pipeline, and the static JIT-translatability
/// percentage agrees with the EVM's measured dispatch statistics on a
/// uniformly executing workload. The JSON report shape is locked by a
/// golden file.
///
//===----------------------------------------------------------------------===//

#include "analyze/Passes.h"
#include "analyze/cfg/CodePasses.h"
#include "analyze/cfg/Dataflow.h"
#include "core/Pinball2Elf.h"
#include "isa/ISA.h"
#include "isa/Semantics.h"
#include "vm/VM.h"

#include "../common/TestHelpers.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <span>
#include <tuple>
#include <unistd.h>

using namespace elfie;
using namespace elfie::analyze;
using namespace elfie::test;
using isa::Opcode;
using pinball::LoggerOptions;

namespace {

constexpr uint64_t Base = 0x10000;

isa::Inst I4(Opcode Op, uint8_t Rd, uint8_t Rs1, uint8_t Rs2, int32_t Imm) {
  isa::Inst I;
  I.Op = Op;
  I.Rd = Rd;
  I.Rs1 = Rs1;
  I.Rs2 = Rs2;
  I.Imm = Imm;
  return I;
}

std::vector<uint8_t> encodeProgram(const std::vector<isa::Inst> &Prog) {
  std::vector<uint8_t> Bytes(Prog.size() * isa::InstSize);
  for (size_t K = 0; K < Prog.size(); ++K) {
    uint64_t Word = isa::encode(Prog[K]);
    std::memcpy(Bytes.data() + K * isa::InstSize, &Word, 8);
  }
  return Bytes;
}

/// Walks \p Prog placed at Base as one flat R+X span.
cfg::CFG walkProgram(const std::vector<isa::Inst> &Prog,
                     std::vector<uint8_t> &Storage,
                     cfg::CFGOptions Opts = {}) {
  Storage = encodeProgram(Prog);
  cfg::SpanCodeSource CS(Base, Storage, vm::PermRead | vm::PermExec);
  uint64_t Seeds[1] = {Base};
  return cfg::buildCFG(CS, Seeds, Opts);
}

//===--------------------------------------------------------------------===//
// The walker itself.
//===--------------------------------------------------------------------===//

TEST(CfgWalk, RecoversLoopGraph) {
  // ldi r2, 4 / loop: addi r2, r2, -1 / bne r2, r0, loop / halt
  std::vector<isa::Inst> Prog = {
      I4(Opcode::Ldi, 2, 0, 0, 4),
      I4(Opcode::Addi, 2, 2, 0, -1),
      I4(Opcode::Bne, 0, 2, 0, -8),
      I4(Opcode::Halt, 0, 0, 0, 0),
  };
  std::vector<uint8_t> Storage;
  cfg::CFG G = walkProgram(Prog, Storage);
  ASSERT_TRUE(G.Issues.empty());
  EXPECT_EQ(G.Blocks.size(), 3u); // entry, loop body, halt
  EXPECT_EQ(G.InstPCs.size(), 4u);
  // The loop body branches back to itself and falls through to the halt.
  const cfg::CFGBlock *Body = G.block(Base + 8);
  ASSERT_NE(Body, nullptr);
  ASSERT_EQ(Body->Succs.size(), 2u);
  EXPECT_EQ(Body->Succs[0], Base + 8);
  EXPECT_EQ(Body->Succs[1], Base + 24);
  const cfg::CFGBlock *Tail = G.block(Base + 24);
  ASSERT_NE(Tail, nullptr);
  EXPECT_TRUE(Tail->Succs.empty()); // halt ends the walk
}

TEST(CfgWalk, FlagsMisalignedAndEscapingTargets) {
  // jmp +4 lands mid-instruction; the fall path jumps out of the span.
  std::vector<isa::Inst> Prog = {
      I4(Opcode::Beq, 0, 0, 0, 12), // always taken... but also walks fall
      I4(Opcode::Jmp, 0, 0, 0, 0x7000),
  };
  // Target Base+12 is misaligned; Base+8+0x7000 is outside the span.
  std::vector<uint8_t> Storage;
  cfg::CFG G = walkProgram(Prog, Storage);
  bool SawMisaligned = false, SawUnmapped = false;
  for (const cfg::CFGIssue &I : G.Issues) {
    SawMisaligned |= I.K == cfg::CFGIssue::TargetMisaligned;
    SawUnmapped |= I.K == cfg::CFGIssue::TargetUnmapped;
  }
  EXPECT_TRUE(SawMisaligned);
  EXPECT_TRUE(SawUnmapped);
}

TEST(CfgWalk, ReportsUndecodableReachableWord) {
  std::vector<isa::Inst> Prog = {
      I4(Opcode::Nop, 0, 0, 0, 0),
      I4(Opcode::Nop, 0, 0, 0, 0),
  };
  std::vector<uint8_t> Storage = encodeProgram(Prog);
  Storage[8] = 0xff; // second word: invalid opcode
  cfg::SpanCodeSource CS(Base, Storage, vm::PermRead | vm::PermExec);
  uint64_t Seeds[1] = {Base};
  cfg::CFG G = cfg::buildCFG(CS, Seeds, {});
  ASSERT_EQ(G.Issues.size(), 1u);
  EXPECT_EQ(G.Issues[0].K, cfg::CFGIssue::BadInst);
  EXPECT_EQ(G.Issues[0].PC, Base + 8);
}

TEST(CfgWalk, IndirectBranchesAreCountedNotFollowed) {
  std::vector<isa::Inst> Prog = {
      I4(Opcode::Jalr, 0, 5, 0, 0), // target in r5: unknown
  };
  std::vector<uint8_t> Storage;
  cfg::CFG G = walkProgram(Prog, Storage);
  EXPECT_EQ(G.IndirectSites, 1u);
  EXPECT_EQ(G.Blocks.size(), 1u);
  EXPECT_TRUE(G.Issues.empty());
}

//===--------------------------------------------------------------------===//
// Dataflow: syscall-number and address constant propagation.
//===--------------------------------------------------------------------===//

TEST(CfgDataflow, ExitSyscallEndsThePath) {
  // A provably-exiting syscall must not fall through into the data that
  // commonly follows it.
  std::vector<isa::Inst> Prog = {
      I4(Opcode::Ldi, isa::SysNrReg, 0, 0, 0), // Sys::Exit
      I4(Opcode::Syscall, 0, 0, 0, 0),
      I4(Opcode::Halt, 0, 0, 0, 0), // unreachable
  };
  std::vector<uint8_t> Storage;
  cfg::CFG G = walkProgram(Prog, Storage);
  ASSERT_EQ(G.Blocks.size(), 1u);
  EXPECT_TRUE(G.block(Base)->Succs.empty());
  EXPECT_EQ(G.InstPCs.size(), 2u);
}

TEST(CfgDataflow, NonExitSyscallFallsThrough) {
  std::vector<isa::Inst> Prog = {
      I4(Opcode::Ldi, isa::SysNrReg, 0, 0, 2), // Sys::Write
      I4(Opcode::Syscall, 0, 0, 0, 0),
      I4(Opcode::Halt, 0, 0, 0, 0),
  };
  std::vector<uint8_t> Storage;
  cfg::CFG G = walkProgram(Prog, Storage);
  EXPECT_EQ(G.Blocks.size(), 2u);
  EXPECT_EQ(G.InstPCs.size(), 3u);
}

TEST(CfgDataflow, ResolvesSyscallNumbersAndAddresses) {
  std::vector<isa::Inst> Prog = {
      I4(Opcode::Ldi, isa::SysNrReg, 0, 0, 2),  // write
      I4(Opcode::Syscall, 0, 0, 0, 0),
      I4(Opcode::Ldi, 5, 0, 0, 0x20000),
      I4(Opcode::Ld8, 3, 5, 0, 8),  // load from 0x20008: known address
      I4(Opcode::St8, 0, 6, 3, 0),  // store via r6: unknown address
      I4(Opcode::Ldi, isa::SysNrReg, 0, 0, 1), // exit_group
      I4(Opcode::Syscall, 0, 0, 0, 0),
  };
  std::vector<uint8_t> Storage = encodeProgram(Prog);
  cfg::SpanCodeSource CS(Base, Storage, vm::PermRead | vm::PermExec);
  uint64_t Seeds[1] = {Base};
  cfg::CodeAnalysis A = cfg::analyzeCode(CS, Seeds);
  EXPECT_EQ(A.Report.SyscallSites.at(2), 1u);
  EXPECT_EQ(A.Report.SyscallSites.at(1), 1u);
  EXPECT_EQ(A.Report.UnknownSyscallSites, 0u);
  // The known-address load targets unmapped memory (only code is mapped),
  // which the footprint pass reports.
  EXPECT_EQ(A.Report.ResolvedLoads + A.Report.UnknownLoads, 1u);
  EXPECT_EQ(A.Report.UnknownStores, 1u);
  bool SawUnmapped = false;
  for (const Finding &F : A.Findings)
    SawUnmapped |= F.Code == "CODE.MEM_UNMAPPED";
  EXPECT_TRUE(SawUnmapped);
}

TEST(CfgDataflow, KnownConstantsMatchInterpreterOnEdgeOperands) {
  // Every integer ALU opcode (register forms 0x10-0x21, immediate forms
  // 0x30-0x3b, Ldi and Ldih included) over edge operands: wherever
  // applyInst calls rd known, it must hold what the EVM computes for the
  // same instruction. rs1 = r1, rs2 = r2, rd = r3 (Ldih also reads rd).
  const uint64_t Operands[] = {0, 1, UINT64_MAX,
                               static_cast<uint64_t>(INT64_MIN), INT64_MAX};
  const uint64_t ShiftAmounts[] = {0, 63, 64, UINT64_MAX};
  const int32_t Imms[] = {0, 1, -1, INT32_MIN, INT32_MAX};
  const int32_t ShiftImms[] = {0, 63, 64, -1};

  struct Case {
    isa::Inst I;
    uint64_t A, B;
  };
  std::vector<Case> Cases;
  for (unsigned Byte = 0x10; Byte <= 0x3b; ++Byte) {
    if (!isa::isValidOpcode(static_cast<uint8_t>(Byte)))
      continue;
    Opcode Op = static_cast<Opcode>(Byte);
    bool Shift = Op == Opcode::Shl || Op == Opcode::Shr ||
                 Op == Opcode::Sar || Op == Opcode::Shli ||
                 Op == Opcode::Shri || Op == Opcode::Sari;
    for (uint64_t A : Operands) {
      if (Byte < 0x30) {
        for (uint64_t B : Shift ? std::span<const uint64_t>(ShiftAmounts)
                                : std::span<const uint64_t>(Operands))
          Cases.push_back({I4(Op, 3, 1, 2, 0), A, B});
      } else {
        for (int32_t Imm : Shift ? std::span<const int32_t>(ShiftImms)
                                 : std::span<const int32_t>(Imms))
          Cases.push_back({I4(Op, 3, 1, 2, Imm), A, 0});
      }
    }
  }
  ASSERT_EQ(Cases.size(), (15 * 5 + 3 * 4) * 5 + (9 * 5 + 3 * 4) * 5u);

  // All cases sit side by side in one code range; each runs as one step of
  // its own thread.
  std::vector<isa::Inst> Code;
  for (const Case &C : Cases)
    Code.push_back(C.I);
  std::vector<uint8_t> Bytes = encodeProgram(Code);
  vm::VM M;
  M.mem().map(Base, Bytes.size(), vm::PermRead | vm::PermExec);
  ASSERT_EQ(M.mem().poke(Base, Bytes.data(), Bytes.size()),
            vm::MemFault::None);

  for (size_t K = 0; K < Cases.size(); ++K) {
    const Case &C = Cases[K];
    uint64_t PC = Base + K * isa::InstSize;
    vm::ThreadState T;
    T.PC = PC;
    T.GPR[1] = T.GPR[3] = C.A;
    T.GPR[2] = C.B;
    uint32_t Tid = M.spawnThread(T);
    ASSERT_EQ(M.stepThread(Tid), vm::StopReason::BudgetReached);

    cfg::RegState S;
    S.set(1, C.A);
    S.set(3, C.A);
    S.set(2, C.B);
    cfg::applyInst(C.I, PC, S);
    ASSERT_TRUE(S.known(3)) << isa::disassemble(C.I, PC);
    EXPECT_EQ(S.get(3), M.thread(Tid)->GPR[3])
        << isa::disassemble(C.I, PC) << " with r1=" << C.A
        << " r2=" << C.B;
  }
}

TEST(CfgDataflow, MemRefMatchesInterpreterAccesses) {
  // Every load, store and atomic opcode (the opcode-table rows with a
  // memory access), run once by the interpreter: the access it reports
  // must be the one memRef predicts (address register + displacement,
  // width, write), and memRef's read must show as the old memory value
  // landing in rd. rs1 = r1, rs2 = r2, rd = r3 (or f3), imm = -24, which
  // atomics ignore.
  struct Recorder : vm::Observer {
    std::vector<std::tuple<uint64_t, uint32_t, bool>> Seen;
    Granularity granularity() const override {
      return Granularity::BlockAccesses;
    }
    void onRetiredBlock(const vm::ThreadState &, uint64_t,
                        std::span<const isa::Inst>,
                        std::span<const vm::MemoryAccess> Accesses) override {
      for (const vm::MemoryAccess &A : Accesses)
        Seen.emplace_back(A.Addr, A.Size, A.IsWrite);
    }
  };
  std::vector<isa::Inst> Code;
  for (unsigned Byte = 0; Byte < 256; ++Byte) {
    Opcode Op = static_cast<Opcode>(Byte);
    if (isa::isValidOpcode(static_cast<uint8_t>(Byte)) &&
        isa::opInfo(Op).Mem != isa::Access::None)
      Code.push_back(I4(Op, 3, 1, 2, -24));
  }
  ASSERT_EQ(Code.size(), 16u); // 7 loads, fld, 4 stores, fst, 3 atomics

  constexpr uint64_t Data = 0x200000;
  std::vector<uint8_t> Pattern(vm::GuestPageSize);
  for (size_t B = 0; B < Pattern.size(); ++B)
    Pattern[B] = static_cast<uint8_t>(0xc0 + B % 61); // sign bits set
  std::vector<uint8_t> Bytes = encodeProgram(Code);
  vm::VMConfig C;
  C.EnableJit = false;
  vm::VM M(C);
  M.mem().map(Base, Bytes.size(), vm::PermRead | vm::PermExec);
  ASSERT_EQ(M.mem().poke(Base, Bytes.data(), Bytes.size()),
            vm::MemFault::None);
  M.mem().map(Data, Pattern.size(), vm::PermRW);
  ASSERT_EQ(M.mem().poke(Data, Pattern.data(), Pattern.size()),
            vm::MemFault::None);
  Recorder Obs;
  M.setObserver(&Obs);

  for (size_t K = 0; K < Code.size(); ++K) {
    const isa::Inst &I = Code[K];
    const isa::OpInfo &Row = isa::opInfo(I.Op);
    uint64_t PC = Base + K * isa::InstSize;
    std::string What = isa::disassemble(I, PC);
    vm::ThreadState T;
    T.PC = PC;
    T.GPR[1] = Data + 256 + 64 * K; // each case has its own bytes
    T.GPR[2] = 5;
    T.GPR[3] = 0x1122334455667788;
    Obs.Seen.clear();
    uint32_t Tid = M.spawnThread(T);
    ASSERT_EQ(M.stepThread(Tid), vm::StopReason::BudgetReached) << What;

    cfg::MemRef Ref;
    ASSERT_TRUE(cfg::memRef(I, Ref)) << What;
    ASSERT_EQ(Obs.Seen.size(), 1u) << What;
    auto [Addr, Size, IsWrite] = Obs.Seen[0];
    EXPECT_EQ(T.GPR[Ref.AddrReg] + Ref.Disp, Addr) << What;
    EXPECT_EQ(Ref.Size, Size) << What;
    EXPECT_EQ(Ref.IsStore, IsWrite) << What;
    uint64_t Old = 0;
    std::memcpy(&Old, Pattern.data() + (Addr - Data), Size);
    uint64_t Rd = M.thread(Tid)->GPR[3];
    if (Row.Operands == isa::Form::FLoad)
      std::memcpy(&Rd, &M.thread(Tid)->FPR[3], 8);
    EXPECT_EQ(Ref.IsLoad,
              Rd == isa::sem::extendLoad(Old, Size, Row.Signed))
        << What;
  }
}

//===--------------------------------------------------------------------===//
// Whole-ELFie analysis over the emitted corpus.
//===--------------------------------------------------------------------===//

std::string tempDir(const std::string &Name) {
  std::string D = testing::TempDir() + "/elfie_cfg_" + Name + "_" +
                  std::to_string(getpid());
  removeTree(D);
  createDirectories(D);
  return D;
}

struct Corpus {
  pinball::Pinball PB;
  std::vector<uint8_t> Native, Guest;
  bool OK = false;
};

const Corpus &corpus() {
  static Corpus C = [] {
    Corpus X;
    std::string Dir = tempDir("corpus");
    auto PB = capture(Dir, computeProgram(), 2000, 4000, LoggerOptions::fat());
    EXPECT_TRUE(PB.hasValue()) << PB.message();
    if (!PB)
      return X;
    X.PB = std::move(*PB);
    core::Pinball2ElfOptions Opts;
    auto N = core::emitNativeElfie(X.PB, Opts);
    EXPECT_TRUE(N.hasValue()) << N.message();
    auto G = core::emitGuestElfie(X.PB, Opts);
    EXPECT_TRUE(G.hasValue()) << G.message();
    if (!N || !G)
      return X;
    X.Native = std::move(*N);
    X.Guest = std::move(*G);
    removeTree(Dir);
    X.OK = true;
    return X;
  }();
  return C;
}

cfg::CodeAnalysis analyzeImage(const std::vector<uint8_t> &Image,
                               const pinball::Pinball *PB) {
  auto Elf = elf::ELFReader::parse(Image);
  EXPECT_TRUE(Elf.hasValue()) << Elf.message();
  cfg::ElfCodeSource CS(*Elf);
  ElfKind Kind = AnalysisInput::classify(*Elf);
  std::vector<uint64_t> Seeds = cfg::elfieSeeds(*Elf, Kind, PB);
  EXPECT_FALSE(Seeds.empty());
  cfg::Provisioning Prov;
  const cfg::Provisioning *ProvPtr = nullptr;
  if (PB) {
    Prov = cfg::provisioningFromPinball(*PB);
    ProvPtr = &Prov;
  }
  return cfg::analyzeCode(CS, Seeds, {}, ProvPtr);
}

TEST(CfgCode, CleanNativeElfieHasZeroErrors) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  cfg::CodeAnalysis A = analyzeImage(C.Native, &C.PB);
  EXPECT_EQ(A.count(Severity::Error), 0u) << cfg::renderCodeText(A);
  EXPECT_GT(A.Report.Blocks, 0u);
  EXPECT_TRUE(A.Report.ProvisioningKnown);
  // The short capture region ends before the program's output syscalls,
  // but the fat image still carries that code: the footprint diff must
  // flag the statically reachable file-io family as unprovisioned, with a
  // matching warning per family — and never an error.
  unsigned UnprovWarnings = 0;
  for (const Finding &F : A.Findings)
    if (F.Code == "CODE.SYSCALL_UNPROVISIONED")
      UnprovWarnings += F.Sev == Severity::Warning;
  EXPECT_EQ(UnprovWarnings, A.Report.Unprovisioned.size());
  EXPECT_GT(A.Report.translatablePct(), 0.0);
}

TEST(CfgCode, CleanGuestElfieHasZeroErrors) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  cfg::CodeAnalysis A = analyzeImage(C.Guest, &C.PB);
  EXPECT_EQ(A.count(Severity::Error), 0u) << cfg::renderCodeText(A);
  // The guest walk also covers the EG64 startup stub.
  cfg::CodeAnalysis N = analyzeImage(C.Native, &C.PB);
  EXPECT_GT(A.Report.Insts, N.Report.Insts);
}

TEST(CfgCode, PinballImageMatchesEmittedElfie) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  cfg::PinballCodeSource CS(C.PB);
  std::vector<uint64_t> Seeds;
  for (const pinball::ThreadRegs &T : C.PB.Threads)
    Seeds.push_back(T.PC);
  cfg::AnalyzeOptions Opts;
  Opts.CompleteImage = C.PB.isFat();
  cfg::Provisioning Prov = cfg::provisioningFromPinball(C.PB);
  cfg::CodeAnalysis A = cfg::analyzeCode(CS, Seeds, Opts, &Prov);
  EXPECT_EQ(A.count(Severity::Error), 0u) << cfg::renderCodeText(A);
  // Pinball pages and the emitted region sections hold identical code, so
  // the recovered footprint is identical.
  cfg::CodeAnalysis N = analyzeImage(C.Native, &C.PB);
  EXPECT_EQ(A.Report.Insts, N.Report.Insts);
  EXPECT_EQ(A.Report.Blocks, N.Report.Blocks);
  EXPECT_EQ(A.Report.SyscallSites, N.Report.SyscallSites);
}

TEST(CfgCode, RendersTextJSONAndDot) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  cfg::CodeAnalysis A = analyzeImage(C.Native, &C.PB);
  std::string Text = cfg::renderCodeText(A);
  EXPECT_NE(Text.find("blocks:"), std::string::npos);
  std::string JSON = cfg::renderCodeJSON(A);
  EXPECT_EQ(JSON.find("{\"schema\":1,\"tool\":\"ecfg\""), 0u);
  EXPECT_NE(JSON.find("\"errors\":0"), std::string::npos);
  std::string Dot = cfg::renderCodeDot(A);
  EXPECT_EQ(Dot.find("digraph cfg {"), 0u);
  EXPECT_NE(Dot.find("->"), std::string::npos);
}

//===--------------------------------------------------------------------===//
// Corruption: a patched-out branch target must surface as a CODE.* error,
// standalone and through the everify pipeline.
//===--------------------------------------------------------------------===//

/// Finds a block ending in an unconditional `jmp` inside the region code
/// and returns the terminator's vaddr (0 when none).
uint64_t findJmpTerminator(const cfg::CodeAnalysis &A) {
  for (const auto &[PC, B] : A.Graph.Blocks)
    if (!B.Insts.empty() && B.Insts.back().Op == Opcode::Jmp)
      return B.lastPC();
  return 0;
}

TEST(CfgCode, DetectsBranchTargetPatchedOutOfImage) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  cfg::CodeAnalysis Clean = analyzeImage(C.Native, &C.PB);
  uint64_t JmpPC = findJmpTerminator(Clean);
  ASSERT_NE(JmpPC, 0u);

  // Repoint the jump's imm32 far outside every mapped page.
  std::vector<uint8_t> B = C.Native;
  auto Elf = elf::ELFReader::parse(B);
  ASSERT_TRUE(Elf.hasValue());
  const auto *Sec = Elf->sectionContaining(JmpPC);
  ASSERT_NE(Sec, nullptr);
  int32_t FarOff = 0x40000000;
  std::memcpy(B.data() + Sec->Offset + (JmpPC - Sec->Addr) + 4, &FarOff, 4);

  // Standalone analysis reports the corrupted direct edge as an error.
  cfg::CodeAnalysis Bad = analyzeImage(B, &C.PB);
  bool Saw = false;
  for (const Finding &F : Bad.Findings)
    Saw |= F.Code == "CODE.TARGET_UNMAPPED" && F.Sev == Severity::Error;
  EXPECT_TRUE(Saw) << cfg::renderCodeText(Bad);

  // And so does the full everify pipeline.
  auto Elf2 = elf::ELFReader::parse(B);
  ASSERT_TRUE(Elf2.hasValue());
  AnalysisInput In;
  In.Elf = &*Elf2;
  In.PB = &C.PB;
  In.Kind = AnalysisInput::classify(*Elf2);
  In.ExpectMarkers = -1;
  PassManager PM;
  addStandardPasses(PM);
  Report R;
  PM.runAll(In, R);
  bool SawPipeline = false;
  for (const Finding &F : R.findings())
    SawPipeline |=
        F.Code == "CODE.TARGET_UNMAPPED" && F.Sev == Severity::Error;
  EXPECT_TRUE(SawPipeline) << R.renderText();
}

//===--------------------------------------------------------------------===//
// Static JIT translatability vs. measured dispatch statistics.
//===--------------------------------------------------------------------===//

TEST(CfgCode, JitTranslatabilityAgreesWithMeasuredStats) {
  // A loop that executes every site uniformly, with its sole bailout op
  // (pause) directly before the backedge so static site classification
  // and dynamic retirement counts measure the same thing.
  std::vector<isa::Inst> Prog;
  Prog.push_back(I4(Opcode::Ldi, 2, 0, 0, 3000)); // counter
  size_t LoopStart = Prog.size();
  for (int K = 0; K < 20; ++K)
    Prog.push_back(I4(Opcode::Addi, 3, 3, 0, 1));
  Prog.push_back(I4(Opcode::Addi, 2, 2, 0, -1));
  Prog.push_back(I4(Opcode::Pause, 0, 0, 0, 0));
  int32_t Back = -static_cast<int32_t>((Prog.size() - LoopStart) *
                                       isa::InstSize);
  Prog.push_back(I4(Opcode::Bne, 0, 2, 0, Back));
  Prog.push_back(I4(Opcode::Ldi, isa::SysNrReg, 0, 0, 1)); // exit_group
  Prog.push_back(I4(Opcode::Syscall, 0, 0, 0, 0));

  // Static side.
  std::vector<uint8_t> Storage = encodeProgram(Prog);
  cfg::SpanCodeSource CS(Base, Storage, vm::PermRead | vm::PermExec);
  uint64_t Seeds[1] = {Base};
  cfg::CodeAnalysis A = cfg::analyzeCode(CS, Seeds);
  EXPECT_EQ(A.Report.Insts, Prog.size());
  double StaticPct = A.Report.translatablePct();
  EXPECT_GT(StaticPct, 80.0);
  EXPECT_LT(StaticPct, 100.0);

#if defined(__x86_64__)
  // Dynamic side: the same program under compiled dispatch.
  vm::VMConfig Config;
  Config.EnableJit = true;
  Config.JitThreshold = 4;
  vm::VM M(Config);
  M.mem().map(Base, vm::GuestPageSize, vm::PermRWX);
  for (size_t K = 0; K < Prog.size(); ++K) {
    uint64_t Word = isa::encode(Prog[K]);
    ASSERT_EQ(M.mem().poke(Base + K * isa::InstSize, &Word, 8),
              vm::MemFault::None);
  }
  vm::ThreadState T;
  T.PC = Base;
  M.spawnThread(T);
  vm::RunResult R = M.run();
  EXPECT_EQ(R.Reason, vm::StopReason::AllExited);
  ASSERT_GT(R.Jit.Hits, 0u);
  double DynamicPct = 100.0 * static_cast<double>(R.Jit.Hits) /
                      static_cast<double>(M.globalRetired());
  EXPECT_NEAR(StaticPct, DynamicPct, 5.0);
#endif
}

//===--------------------------------------------------------------------===//
// The machine interface: golden file locks the everify JSON shape.
//===--------------------------------------------------------------------===//

TEST(CfgReport, EverifyJSONMatchesGoldenFile) {
  Report R;
  R.add(Severity::Error, "CODE.TARGET_UNMAPPED", 0x1a2b3c,
        "direct branch targets unmapped memory");
  R.add(Severity::Warning, "CODE.SYSCALL_UNPROVISIONED", 0,
        "family \"file-io\" has no recorded syscalls");
  R.add(Severity::Note, "PASS.SKIPPED", 0, "sysstate: inapplicable: no dir");
  std::string Got = R.renderJSON();

  std::ifstream In(std::string(ELFIE_ANALYZE_GOLDEN_DIR) +
                   "/everify_report.json");
  ASSERT_TRUE(In.good()) << "golden file missing";
  std::string Want((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(Got, Want)
      << "everify -json output shape changed; bump "
         "analyze::ReportSchemaVersion and regenerate the golden file";
}

} // namespace
