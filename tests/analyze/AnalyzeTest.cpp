//===- tests/analyze/AnalyzeTest.cpp - everify pass tests -----------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Verifies the everify static-analysis passes: clean ELFies produce zero
/// error findings, and each pass detects a deliberately corrupted input
/// with its documented finding code (DESIGN.md §"Static verification").
/// Corruptions are byte patches on the emitted image (headers, context
/// blocks, startup code) or mutations of a copied pinball.
///
//===----------------------------------------------------------------------===//

#include "analyze/Passes.h"
#include "core/Pinball2Elf.h"
#include "elf/ELFTypes.h"
#include "isa/ISA.h"
#include "sysstate/SysState.h"
#include "vm/VM.h"
#include "x86/Translator.h"

#include "../common/TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <unistd.h>

using namespace elfie;
using namespace elfie::test;
using pinball::LoggerOptions;

namespace {

std::string tempDir(const std::string &Name) {
  // ctest runs each test case as its own parallel process, and corpus() is
  // rebuilt in every one of them — the path must be per-process or sibling
  // processes race on removeTree/capture in the same directory.
  std::string D = testing::TempDir() + "/elfie_analyze_" + Name + "_" +
                  std::to_string(getpid());
  removeTree(D);
  createDirectories(D);
  return D;
}

//===--------------------------------------------------------------------===//
// Shared corpus: one captured pinball, emitted to all three targets.
//===--------------------------------------------------------------------===//

struct Corpus {
  pinball::Pinball PB;
  std::vector<uint8_t> Native, Guest, Object;
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
    auto O = core::emitElfieObject(X.PB, Opts);
    EXPECT_TRUE(O.hasValue()) << O.message();
    if (!N || !G || !O)
      return X;
    X.Native = std::move(*N);
    X.Guest = std::move(*G);
    X.Object = std::move(*O);
    removeTree(Dir);
    X.OK = true;
    return X;
  }();
  return C;
}

/// Runs the standard pass pipeline over an in-memory image.
analyze::Report runOn(const std::vector<uint8_t> &Image,
                      const pinball::Pinball *PB,
                      const std::string &SysstateDir = "",
                      int ExpectMarkers = -1) {
  auto Elf = elf::ELFReader::parse(Image);
  EXPECT_TRUE(Elf.hasValue()) << Elf.message();
  analyze::Report R;
  if (!Elf)
    return R;
  analyze::AnalysisInput In;
  In.Elf = &*Elf;
  In.PB = PB;
  In.SysstateDir = SysstateDir;
  In.Kind = analyze::AnalysisInput::classify(*Elf);
  In.ExpectMarkers = ExpectMarkers;
  analyze::PassManager PM;
  analyze::addStandardPasses(PM);
  PM.runAll(In, R);
  return R;
}

bool hasFinding(const analyze::Report &R, const std::string &Code,
                analyze::Severity Sev = analyze::Severity::Error) {
  for (const analyze::Finding &F : R.findings())
    if (F.Code == Code && F.Sev == Sev)
      return true;
  return false;
}

std::vector<analyze::Finding> findingsWithCode(const analyze::Report &R,
                                              const std::string &Code) {
  std::vector<analyze::Finding> Out;
  for (const analyze::Finding &F : R.findings())
    if (F.Code == Code)
      Out.push_back(F);
  return Out;
}

/// Offset of the first non-zero byte of \p P; GuestPageSize when none.
size_t firstNonZero(const pinball::PageRecord &P) {
  const uint8_t *B = P.Bytes.data();
  return std::find_if(B, B + vm::GuestPageSize,
                      [](uint8_t X) { return X != 0; }) -
         B;
}

/// Replaces \p Bytes with a copy whose byte \p I is inverted.
void flipByte(pinball::PageBytes &Bytes, size_t I) {
  std::vector<uint8_t> Copy(Bytes.begin(), Bytes.end());
  Copy[I] ^= 0xff;
  Bytes.assign(Copy.data(), Copy.data() + Copy.size());
}

//===--------------------------------------------------------------------===//
// Raw header patching (corrupting emitted images in place).
//===--------------------------------------------------------------------===//

elf::Elf64_Ehdr readEhdr(const std::vector<uint8_t> &B) {
  elf::Elf64_Ehdr H;
  std::memcpy(&H, B.data(), sizeof(H));
  return H;
}

elf::Elf64_Shdr readShdr(const std::vector<uint8_t> &B, size_t Index) {
  elf::Elf64_Shdr S;
  std::memcpy(&S, B.data() + readEhdr(B).e_shoff + Index * sizeof(S),
              sizeof(S));
  return S;
}

void writeShdr(std::vector<uint8_t> &B, size_t Index,
               const elf::Elf64_Shdr &S) {
  std::memcpy(B.data() + readEhdr(B).e_shoff + Index * sizeof(S), &S,
              sizeof(S));
}

elf::Elf64_Phdr readPhdr(const std::vector<uint8_t> &B, size_t Index) {
  elf::Elf64_Phdr P;
  std::memcpy(&P, B.data() + readEhdr(B).e_phoff + Index * sizeof(P),
              sizeof(P));
  return P;
}

void writePhdr(std::vector<uint8_t> &B, size_t Index,
               const elf::Elf64_Phdr &P) {
  std::memcpy(B.data() + readEhdr(B).e_phoff + Index * sizeof(P), &P,
              sizeof(P));
}

/// Index of the section named \p Name, or SIZE_MAX.
size_t sectionIndex(const std::vector<uint8_t> &B, const std::string &Name) {
  elf::Elf64_Ehdr E = readEhdr(B);
  elf::Elf64_Shdr Str = readShdr(B, E.e_shstrndx);
  for (size_t I = 0; I < E.e_shnum; ++I) {
    elf::Elf64_Shdr S = readShdr(B, I);
    const char *N =
        reinterpret_cast<const char *>(B.data() + Str.sh_offset + S.sh_name);
    if (Name == N)
      return I;
  }
  return SIZE_MAX;
}

/// Patches \p Size bytes of loaded memory at virtual address \p VAddr in
/// the file image, resolving the address through section \p SecName.
void patchAtVAddr(std::vector<uint8_t> &B, const std::string &SecName,
                  uint64_t VAddr, const void *Data, size_t Size) {
  size_t Index = sectionIndex(B, SecName);
  ASSERT_NE(Index, SIZE_MAX) << SecName;
  elf::Elf64_Shdr S = readShdr(B, Index);
  ASSERT_GE(VAddr, S.sh_addr);
  ASSERT_LE(VAddr + Size, S.sh_addr + S.sh_size);
  std::memcpy(B.data() + S.sh_offset + (VAddr - S.sh_addr), Data, Size);
}

uint64_t stackPageCount(const pinball::Pinball &PB) {
  uint64_t N = 0;
  for (const auto &P : PB.Image)
    if (P.Addr >= PB.Meta.StackBase && P.Addr < PB.Meta.StackTop)
      ++N;
  return N;
}

//===--------------------------------------------------------------------===//
// Clean ELFies verify with zero errors.
//===--------------------------------------------------------------------===//

// Satellite: the stack-collision workaround (§II-B3) holds on a pinball
// that actually captured stack pages — they travel in .elfie.stash at the
// stash base, and no PT_LOAD touches the checkpointed stack range.
TEST(Analyze, NativeCleanVerifiesWithStashedStack) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  ASSERT_GT(stackPageCount(C.PB), 0u);

  analyze::Report R = runOn(C.Native, &C.PB, "", 1);
  EXPECT_EQ(R.errorCount(), 0u) << R.renderText();

  auto Elf = elf::ELFReader::parse(C.Native);
  ASSERT_TRUE(Elf.hasValue());
  const auto *Stash = Elf->findSection(".elfie.stash");
  ASSERT_NE(Stash, nullptr);
  EXPECT_EQ(Stash->Addr, core::NativeLayout::StashBase);
  EXPECT_EQ(Stash->Size, stackPageCount(C.PB) * vm::GuestPageSize);
  for (const auto &Seg : Elf->segments())
    if (Seg.Type == elf::PT_LOAD)
      EXPECT_FALSE(Seg.VAddr < C.PB.Meta.StackTop &&
                   Seg.VAddr + Seg.MemSize > C.PB.Meta.StackBase)
          << "PT_LOAD overlaps the checkpointed stack";
}

TEST(Analyze, GuestCleanVerifies) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  analyze::Report R = runOn(C.Guest, &C.PB, "", 1);
  EXPECT_EQ(R.errorCount(), 0u) << R.renderText();
}

// Satellite: Target::Object goes through everify cleanly — the passes that
// need a loader view or startup code declare themselves inapplicable
// instead of reporting bogus errors.
TEST(Analyze, ObjectSkipsInapplicablePasses) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  analyze::Report R = runOn(C.Object, &C.PB);
  EXPECT_EQ(R.errorCount(), 0u) << R.renderText();

  std::vector<std::string> Skipped;
  for (const analyze::Finding &F : R.findings())
    if (F.Code == "PASS.SKIPPED")
      Skipped.push_back(F.Message);
  ASSERT_GE(Skipped.size(), 3u);
  auto SkippedPass = [&](const std::string &Name) {
    for (const std::string &M : Skipped)
      if (M.compare(0, Name.size(), Name) == 0)
        return true;
    return false;
  };
  EXPECT_TRUE(SkippedPass("layout"));
  EXPECT_TRUE(SkippedPass("context"));
  EXPECT_TRUE(SkippedPass("reach"));
  // Budget/perm cross-checks still run: objects carry pages and symbols.
  EXPECT_FALSE(SkippedPass("budget"));
  EXPECT_FALSE(SkippedPass("perm"));
}

//===--------------------------------------------------------------------===//
// LayoutPass corruption tests.
//===--------------------------------------------------------------------===//

TEST(Analyze, DetectsOverlappingLoadSegments) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  std::vector<uint8_t> B = C.Native;
  elf::Elf64_Ehdr E = readEhdr(B);
  size_t First = SIZE_MAX, Second = SIZE_MAX;
  for (size_t I = 0; I < E.e_phnum; ++I) {
    if (readPhdr(B, I).p_type != elf::PT_LOAD)
      continue;
    if (First == SIZE_MAX)
      First = I;
    else if (Second == SIZE_MAX)
      Second = I;
  }
  ASSERT_NE(Second, SIZE_MAX);
  elf::Elf64_Phdr P = readPhdr(B, Second);
  P.p_vaddr = readPhdr(B, First).p_vaddr;
  writePhdr(B, Second, P);

  analyze::Report R = runOn(B, nullptr);
  EXPECT_TRUE(hasFinding(R, "LAYOUT.OVERLAP")) << R.renderText();
  // The structured JSON report carries the same code.
  std::string JSON = R.renderJSON();
  EXPECT_NE(JSON.find("\"code\":\"LAYOUT.OVERLAP\""), std::string::npos);
  EXPECT_NE(JSON.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_EQ(JSON.find("\"errors\":0"), std::string::npos);
}

// Satellite (negative half): hand-break the ELFie so the stashed stack is
// an ordinary loadable range inside the checkpointed stack — the exact
// collision of paper Fig. 4 — and the verifier must flag it.
TEST(Analyze, DetectsAllocStackSection) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  ASSERT_GT(stackPageCount(C.PB), 0u);
  std::vector<uint8_t> B = C.Native;

  size_t StashIndex = sectionIndex(B, ".elfie.stash");
  ASSERT_NE(StashIndex, SIZE_MAX);
  elf::Elf64_Shdr S = readShdr(B, StashIndex);
  uint64_t OldAddr = S.sh_addr;
  S.sh_addr = C.PB.Meta.StackBase;
  writeShdr(B, StashIndex, S);
  elf::Elf64_Ehdr E = readEhdr(B);
  bool PatchedSegment = false;
  for (size_t I = 0; I < E.e_phnum; ++I) {
    elf::Elf64_Phdr P = readPhdr(B, I);
    if (P.p_type == elf::PT_LOAD && P.p_vaddr == OldAddr) {
      P.p_vaddr = C.PB.Meta.StackBase;
      writePhdr(B, I, P);
      PatchedSegment = true;
    }
  }
  ASSERT_TRUE(PatchedSegment);

  analyze::Report R = runOn(B, &C.PB);
  EXPECT_TRUE(hasFinding(R, "LAYOUT.STACK_LOADED")) << R.renderText();
  EXPECT_TRUE(hasFinding(R, "LAYOUT.STASH_ADDR")) << R.renderText();
}

//===--------------------------------------------------------------------===//
// ContextPass corruption tests.
//===--------------------------------------------------------------------===//

TEST(Analyze, DetectsCorruptContextPC) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  std::vector<uint8_t> B = C.Native;
  auto Elf = elf::ELFReader::parse(B);
  ASSERT_TRUE(Elf.hasValue());
  const auto *Ctx = Elf->findSymbol(".t0.ctx");
  ASSERT_NE(Ctx, nullptr);
  uint64_t BadPC = 0xdeadbeef;
  patchAtVAddr(B, ".elfie.data", Ctx->Value + x86::CtxLayout::StartPCOff,
               &BadPC, sizeof(BadPC));

  analyze::Report R = runOn(B, &C.PB);
  EXPECT_TRUE(hasFinding(R, "CTX.PC_UNMAPPED")) << R.renderText();
  EXPECT_TRUE(hasFinding(R, "CTX.PC_MISMATCH")) << R.renderText();
}

//===--------------------------------------------------------------------===//
// BudgetPass corruption tests.
//===--------------------------------------------------------------------===//

TEST(Analyze, DetectsBudgetMismatch) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  // The ELFie is untouched; the claimed source pinball disagrees with it.
  pinball::Pinball PB = C.PB;
  ASSERT_FALSE(PB.Threads.empty());
  PB.Threads[0].RegionIcount += 1;

  analyze::Report R = runOn(C.Native, &PB);
  EXPECT_TRUE(hasFinding(R, "BUDGET.MISMATCH")) << R.renderText();
  EXPECT_TRUE(hasFinding(R, "BUDGET.CTX_MISMATCH")) << R.renderText();
}

TEST(Analyze, DetectsMarkerStripped) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  core::Pinball2ElfOptions Opts;
  Opts.EmitMarkers = false;
  auto Native = core::emitNativeElfie(C.PB, Opts);
  ASSERT_TRUE(Native.hasValue()) << Native.message();

  // Claim the ELFie was emitted with markers: their absence is an error.
  analyze::Report R = runOn(*Native, &C.PB, "", 1);
  EXPECT_TRUE(hasFinding(R, "BUDGET.MARKER_MISSING")) << R.renderText();
  // Honest metadata (markers disabled) verifies clean.
  analyze::Report Clean = runOn(*Native, &C.PB, "", 0);
  EXPECT_EQ(Clean.errorCount(), 0u) << Clean.renderText();
}

//===--------------------------------------------------------------------===//
// PermPass corruption tests.
//===--------------------------------------------------------------------===//

TEST(Analyze, DetectsPagePermAndContentDrift) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  pinball::Pinball PB = C.PB;
  size_t PermPage = SIZE_MAX, DataPage = SIZE_MAX;
  for (size_t I = 0; I < PB.Image.size(); ++I) {
    const auto &P = PB.Image[I];
    if (P.Addr >= PB.Meta.StackBase && P.Addr < PB.Meta.StackTop)
      continue; // stack pages are covered by DetectsStashContentDrift
    if (PermPage == SIZE_MAX)
      PermPage = I;
    else if (DataPage == SIZE_MAX)
      DataPage = I;
  }
  ASSERT_NE(DataPage, SIZE_MAX);
  PB.Image[PermPage].Perm ^= vm::PermWrite;

  // A differing byte anywhere in a page is reported where it is: one
  // finding for the page, at page + offset, with the offset in the message.
  for (size_t Offset : {size_t(0), size_t(2049), size_t(vm::GuestPageSize - 1)}) {
    SCOPED_TRACE(Offset);
    pinball::Pinball Drifted = PB;
    flipByte(Drifted.Image[DataPage].Bytes, Offset);
    analyze::Report R = runOn(C.Native, &Drifted);
    EXPECT_TRUE(hasFinding(R, "PERM.MISMATCH")) << R.renderText();
    std::vector<analyze::Finding> F = findingsWithCode(R, "PERM.CONTENT");
    ASSERT_EQ(F.size(), 1u) << R.renderText();
    EXPECT_EQ(F[0].Addr, PB.Image[DataPage].Addr + Offset);
    EXPECT_NE(F[0].Message.find("at offset " + std::to_string(Offset) + " "),
              std::string::npos)
        << F[0].Message;
  }
}

TEST(Analyze, DetectsStashContentDrift) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  pinball::Pinball PB = C.PB;
  bool Mutated = false;
  for (auto &P : PB.Image)
    if (P.Addr >= PB.Meta.StackBase && P.Addr < PB.Meta.StackTop) {
      flipByte(P.Bytes, P.Bytes.size() - 1);
      Mutated = true;
      break;
    }
  ASSERT_TRUE(Mutated);

  analyze::Report R = runOn(C.Native, &PB);
  EXPECT_TRUE(hasFinding(R, "PERM.STASH_CONTENT")) << R.renderText();
}

// A page-run section turned NOBITS has no file bytes: its pages read as
// zero, so an all-zero captured page still matches and any other page is
// reported at its first non-zero byte.
TEST(Analyze, NoBitsPageRunReadsAsZero) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  auto Elf = elf::ELFReader::parse(C.Native);
  ASSERT_TRUE(Elf.hasValue());
  // A page-run section holding both a zero and a non-zero captured page.
  std::string Name;
  std::vector<const pinball::PageRecord *> Pages;
  for (const auto &Sec : Elf->sections()) {
    if (Sec.Name.rfind(".data.0x", 0) != 0)
      continue;
    std::vector<const pinball::PageRecord *> In;
    bool Zero = false, NonZero = false;
    for (const auto &P : C.PB.Image)
      if (P.Addr >= Sec.Addr && P.Addr < Sec.Addr + Sec.Size) {
        In.push_back(&P);
        if (firstNonZero(P) == vm::GuestPageSize)
          Zero = true;
        else
          NonZero = true;
      }
    if (Zero && NonZero) {
      Name = Sec.Name;
      Pages = std::move(In);
      break;
    }
  }
  ASSERT_FALSE(Name.empty()) << "no page run with zero and non-zero pages";

  std::vector<uint8_t> B = C.Native;
  size_t Index = sectionIndex(B, Name);
  elf::Elf64_Shdr S = readShdr(B, Index);
  S.sh_type = elf::SHT_NOBITS;
  writeShdr(B, Index, S);

  analyze::Report R = runOn(B, &C.PB);
  std::vector<analyze::Finding> F = findingsWithCode(R, "PERM.CONTENT");
  for (const pinball::PageRecord *P : Pages) {
    SCOPED_TRACE(P->Addr);
    size_t Offset = firstNonZero(*P);
    size_t Found = 0;
    for (const analyze::Finding &X : F)
      if (X.Addr >= P->Addr && X.Addr < P->Addr + vm::GuestPageSize) {
        ++Found;
        EXPECT_EQ(X.Addr, P->Addr + Offset);
        EXPECT_NE(X.Message.find("(emitted 0, captured "), std::string::npos)
            << X.Message;
      }
    EXPECT_EQ(Found, Offset == vm::GuestPageSize ? 0u : 1u)
        << R.renderText();
  }
}

// A stash whose section header says NOBITS has no file bytes to check,
// although the PT_LOAD still maps whatever the file holds there.
TEST(Analyze, DetectsStashWithoutFileBytes) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  ASSERT_GT(stackPageCount(C.PB), 0u);
  std::vector<uint8_t> B = C.Native;
  size_t Index = sectionIndex(B, ".elfie.stash");
  ASSERT_NE(Index, SIZE_MAX);
  elf::Elf64_Shdr S = readShdr(B, Index);
  std::memset(B.data() + S.sh_offset, 0xcc, S.sh_size);
  S.sh_type = elf::SHT_NOBITS;
  writeShdr(B, Index, S);

  analyze::Report R = runOn(B, &C.PB);
  std::vector<analyze::Finding> F = findingsWithCode(R, "PERM.STASH_CONTENT");
  EXPECT_EQ(F.size(), stackPageCount(C.PB)) << R.renderText();
  for (const analyze::Finding &X : F)
    EXPECT_NE(X.Message.find("has no file bytes"), std::string::npos)
        << X.Message;
}

//===--------------------------------------------------------------------===//
// ReachPass corruption tests.
//===--------------------------------------------------------------------===//

TEST(Analyze, DetectsUndecodableStartup) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  std::vector<uint8_t> B = C.Guest;
  uint8_t BadOpcode = 0xff;
  patchAtVAddr(B, ".elfie.text", readEhdr(B).e_entry, &BadOpcode, 1);

  analyze::Report R = runOn(B, &C.PB);
  EXPECT_TRUE(hasFinding(R, "REACH.BADINST")) << R.renderText();
}

TEST(Analyze, DetectsMissingCapturedJump) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  std::vector<uint8_t> B = C.Guest;
  size_t Index = sectionIndex(B, ".elfie.text");
  ASSERT_NE(Index, SIZE_MAX);
  elf::Elf64_Shdr S = readShdr(B, Index);
  // Replace every captured-PC jump in the startup code with a halt: the
  // CFG walk then terminates without ever reaching the region.
  isa::Inst Halt;
  Halt.Op = isa::Opcode::Halt;
  uint64_t HaltWord = isa::encode(Halt);
  size_t Replaced = 0;
  for (uint64_t Off = 0; Off + isa::InstSize <= S.sh_size;
       Off += isa::InstSize) {
    isa::Inst I;
    if (isa::decode(B.data() + S.sh_offset + Off, I) &&
        I.Op == isa::Opcode::Jalr) {
      std::memcpy(B.data() + S.sh_offset + Off, &HaltWord, sizeof(HaltWord));
      ++Replaced;
    }
  }
  ASSERT_GT(Replaced, 0u);

  analyze::Report R = runOn(B, &C.PB);
  EXPECT_TRUE(hasFinding(R, "REACH.NO_JUMP")) << R.renderText();
}

TEST(Analyze, DetectsCorruptFaultReport) {
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  auto Elf = elf::ELFReader::parse(C.Native);
  ASSERT_TRUE(Elf.hasValue());
  const auto *Rpt = Elf->findSymbol("elfie_fault_report");
  ASSERT_NE(Rpt, nullptr);
  EXPECT_GE(Rpt->Size, 64u);

  // A patched magic breaks the divergence-containment contract.
  {
    std::vector<uint8_t> B = C.Native;
    uint8_t Bad = 'X';
    patchAtVAddr(B, ".elfie.data", Rpt->Value, &Bad, 1);
    analyze::Report R = runOn(B, &C.PB, "", 1);
    EXPECT_TRUE(hasFinding(R, "REACH.FAULT_REPORT")) << R.renderText();
  }
  // A nonzero kind at rest means the emitter shipped a "pre-faulted"
  // report block.
  {
    std::vector<uint8_t> B = C.Native;
    uint64_t Kind = 2;
    patchAtVAddr(B, ".elfie.data", Rpt->Value + 8, &Kind, 8);
    analyze::Report R = runOn(B, &C.PB, "", 1);
    EXPECT_TRUE(hasFinding(R, "REACH.FAULT_REPORT")) << R.renderText();
  }
}

TEST(Analyze, UnknownKindRejected) {
  // A corrupted e_machine must be an error finding, not a silent pass of
  // every kind-gated check (this exact corruption once SIGSEGVed the
  // context pass).
  const Corpus &C = corpus();
  ASSERT_TRUE(C.OK);
  std::vector<uint8_t> B = C.Native;
  elf::Elf64_Ehdr E = readEhdr(B);
  E.e_machine = 0x7d02;
  std::memcpy(B.data(), &E, sizeof(E));
  analyze::Report R = runOn(B, nullptr);
  EXPECT_TRUE(hasFinding(R, "LAYOUT.KIND")) << R.renderText();
}

//===--------------------------------------------------------------------===//
// SysstatePass tests (separate corpus: needs a pre-region open()).
//===--------------------------------------------------------------------===//

TEST(Analyze, SysstateProxyChecks) {
  std::string Dir = tempDir("sysstate");
  std::string Data(256, '\0');
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] = static_cast<char>(I * 7 + 3);
  ASSERT_FALSE(writeFileText(Dir + "/data.bin", Data).isError());
  vm::VMConfig Config;
  Config.FsRoot = Dir;
  auto PB = capture(Dir, fileReaderProgram(), 15200, 800,
                    LoggerOptions::fat(), Config);
  ASSERT_TRUE(PB.hasValue()) << PB.message();

  sysstate::SysState SS = sysstate::analyze(*PB);
  ASSERT_FALSE(SS.Files.empty());
  std::string SSDir = Dir + "/ss";
  ASSERT_FALSE(sysstate::writeSysstateDir(SS, SSDir).isError());

  core::Pinball2ElfOptions Opts;
  Opts.EmbedSysstate = true;
  auto Native = core::emitNativeElfie(*PB, Opts);
  ASSERT_TRUE(Native.hasValue()) << Native.message();

  // Complete sysstate directory: clean.
  analyze::Report Clean = runOn(*Native, &*PB, SSDir, 1);
  EXPECT_EQ(Clean.errorCount(), 0u) << Clean.renderText();

  // Delete the FD_3 proxy the preopen table points at.
  removeFile(SSDir + "/workdir/" + SS.Files[0].ProxyName);
  analyze::Report Broken = runOn(*Native, &*PB, SSDir, 1);
  EXPECT_TRUE(hasFinding(Broken, "SYSSTATE.MISSING_PROXY"))
      << Broken.renderText();

  // A directory pinball_sysstate never touched.
  analyze::Report NoDir = runOn(*Native, &*PB, Dir + "/nonexistent", 1);
  EXPECT_TRUE(hasFinding(NoDir, "SYSSTATE.NO_WORKDIR")) << NoDir.renderText();
  removeTree(Dir);
}

//===--------------------------------------------------------------------===//
// Report rendering.
//===--------------------------------------------------------------------===//

TEST(Analyze, ReportRendersTextAndJSON) {
  analyze::Report R;
  R.add(analyze::Severity::Error, "LAYOUT.OVERLAP", 0x10000,
        "q\"b\\s\nt\tend");
  R.add(analyze::Severity::Warning, "BUDGET.MISMATCH", 0, "warned");
  R.add(analyze::Severity::Note, "PASS.SKIPPED", 0, "skipped");
  EXPECT_EQ(R.errorCount(), 1u);

  std::string Text = R.renderText();
  EXPECT_NE(Text.find("error LAYOUT.OVERLAP @0x10000"), std::string::npos);
  EXPECT_NE(Text.find("1 error(s), 1 warning(s), 1 note(s)"),
            std::string::npos);

  std::string JSON = R.renderJSON();
  EXPECT_NE(JSON.find("\"code\":\"LAYOUT.OVERLAP\",\"addr\":65536"),
            std::string::npos);
  EXPECT_NE(JSON.find("\"message\":\"q\\\"b\\\\s\\nt\\tend\""),
            std::string::npos);
  EXPECT_NE(JSON.find("\"errors\":1,\"warnings\":1,\"notes\":1"),
            std::string::npos);
}

} // namespace
