//===- core/Pinball2Elf.cpp - dispatch + layout description ---------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Pinball2Elf.h"

#include "elf/ELFWriter.h"
#include "support/FileIO.h"
#include "support/Format.h"

#include <algorithm>
#include <cstring>

using namespace elfie;
using namespace elfie::core;

Expected<std::vector<uint8_t>>
core::pinballToElf(const pinball::Pinball &PB,
                   const Pinball2ElfOptions &Opts) {
  if (Opts.TargetKind == Pinball2ElfOptions::Target::NativeX86)
    return emitNativeElfie(PB, Opts);
  if (Opts.TargetKind == Pinball2ElfOptions::Target::Object)
    return emitElfieObject(PB, Opts);
  return emitGuestElfie(PB, Opts);
}

Expected<std::vector<uint8_t>>
core::emitElfieObject(const pinball::Pinball &PB,
                      const Pinball2ElfOptions &Opts) {
  if (PB.Threads.empty())
    return makeError("pinball has no threads");
  // Relocatable object: the pinball memory image as sections plus the
  // packed per-thread contexts (initial register values, as in Fig. 3),
  // with the .t<N>.<reg> symbols; no startup code, no program headers.
  elf::ELFWriter W(elf::ET_REL, elf::EM_EG64);
  addPageRunSections(W, PB.allPages());

  // Packed thread contexts: GPRs, FPR bit patterns, pc, budget per thread.
  std::vector<uint8_t> Ctx;
  auto Put64 = [&Ctx](uint64_t V) {
    const uint8_t *P = reinterpret_cast<const uint8_t *>(&V);
    Ctx.insert(Ctx.end(), P, P + 8);
  };
  for (const pinball::ThreadRegs &T : PB.Threads) {
    for (uint64_t G : T.GPR)
      Put64(G);
    for (double F : T.FPR) {
      uint64_t Bits;
      std::memcpy(&Bits, &F, 8);
      Put64(Bits);
    }
    Put64(T.PC);
    Put64(T.RegionIcount);
  }
  size_t PerThread = (isa::NumGPRs + isa::NumFPRs + 2) * 8;
  unsigned CtxSec = W.addSection(".data.contexts", 0, 0, std::move(Ctx));
  addRegionSymbols(W, PB, Opts, [&](unsigned T) {
    uint64_t Base = T * PerThread;
    for (unsigned R = 0; R < isa::NumGPRs; ++R)
      W.addSymbol(formatString(".t%u.r%u", T, R), Base + 8 * R, CtxSec,
                  elf::STB_LOCAL, elf::STT_OBJECT, 8);
    for (unsigned R = 0; R < isa::NumFPRs; ++R)
      W.addSymbol(formatString(".t%u.f%u", T, R),
                  Base + 8 * (isa::NumGPRs + R), CtxSec, elf::STB_LOCAL,
                  elf::STT_OBJECT, 8);
    W.addSymbol(formatString(".t%u.pc", T),
                Base + 8 * (isa::NumGPRs + isa::NumFPRs), CtxSec,
                elf::STB_LOCAL, elf::STT_OBJECT, 8);
  });
  return W.finalize();
}

std::vector<PageRun>
core::splitPageRuns(std::vector<const pinball::PageRecord *> &Pages) {
  std::sort(Pages.begin(), Pages.end(),
            [](const pinball::PageRecord *A, const pinball::PageRecord *B) {
              return A->Addr < B->Addr;
            });
  std::vector<PageRun> Runs;
  size_t I = 0;
  while (I < Pages.size()) {
    size_t J = I + 1;
    while (J < Pages.size() &&
           Pages[J]->Addr == Pages[J - 1]->Addr + vm::GuestPageSize &&
           Pages[J]->Perm == Pages[I]->Perm)
      ++J;
    Runs.push_back(PageRun(Pages).subspan(I, J - I));
    I = J;
  }
  return Runs;
}

void core::addPageRunSections(elf::ELFWriter &W,
                              std::vector<const pinball::PageRecord *> Pages) {
  for (PageRun Run : splitPageRuns(Pages)) {
    const pinball::PageRecord *First = Run.front();
    // Borrowed page views: emission writes pages straight from the
    // (typically mmap'd) pinball image.
    std::vector<std::span<const uint8_t>> Chunks;
    Chunks.reserve(Run.size());
    for (const pinball::PageRecord *P : Run)
      Chunks.push_back({P->Bytes.data(), P->Bytes.size()});
    uint64_t Flags = elf::SHF_ALLOC;
    if (First->Perm & vm::PermWrite)
      Flags |= elf::SHF_WRITE;
    if (First->Perm & vm::PermExec)
      Flags |= elf::SHF_EXECINSTR;
    const char *Prefix = (First->Perm & vm::PermExec) ? ".text" : ".data";
    W.addSectionChunks(
        formatString("%s.0x%llx", Prefix,
                     static_cast<unsigned long long>(First->Addr)),
        Flags, First->Addr, std::move(Chunks), vm::GuestPageSize);
  }
}

void core::addRegionSymbols(
    elf::ELFWriter &W, const pinball::Pinball &PB,
    const Pinball2ElfOptions &Opts,
    const std::function<void(unsigned)> &ThreadSymbols) {
  for (unsigned T = 0; T < PB.Threads.size(); ++T) {
    ThreadSymbols(T);
    W.addSymbol(formatString(".t%u.icount", T), PB.Threads[T].RegionIcount,
                elf::SHN_ABS, elf::STB_LOCAL);
  }
  W.addSymbol("elfie_region_length", PB.Meta.RegionLength, elf::SHN_ABS,
              elf::STB_GLOBAL);
  if (Opts.WarmupLength)
    W.addSymbol("elfie_warmup_length", Opts.WarmupLength, elf::SHN_ABS,
                elf::STB_GLOBAL);
}

Error core::pinballToElfFile(const pinball::Pinball &PB,
                             const Pinball2ElfOptions &Opts,
                             const std::string &OutPath) {
  auto Image = pinballToElf(PB, Opts);
  if (!Image)
    return Image.takeError();
  // Atomic: a crash mid-write must never leave a half-emitted (but
  // executable-looking) ELFie behind.
  bool Executable = Opts.TargetKind != Pinball2ElfOptions::Target::Object;
  return writeFileAtomic(OutPath, Image->data(), Image->size(), Executable)
      .withContext("emitting '" + OutPath + "'");
}

std::string core::describeLayout(const pinball::Pinball &PB,
                                 const Pinball2ElfOptions &Opts) {
  // Linker-script style dump of the parent pinball's memory layout
  // (paper §II-B5: the generated linker script preserves this layout).
  std::string Out = "/* ELFie memory layout (from parent pinball) */\n";
  Out += "SECTIONS\n{\n";
  auto Pages = PB.allPages();
  for (PageRun Run : splitPageRuns(Pages)) {
    const pinball::PageRecord *P = Run.front();
    bool IsStack =
        P->Addr >= PB.Meta.StackBase && P->Addr < PB.Meta.StackTop;
    const char *Kind = IsStack                     ? "stack"
                       : (P->Perm & vm::PermExec)  ? "text"
                       : (P->Perm & vm::PermWrite) ? "data"
                                                   : "rodata";
    Out += formatString("  .%s.0x%llx 0x%llx : { /* %llu pages%s */ }\n",
                        Kind, static_cast<unsigned long long>(P->Addr),
                        static_cast<unsigned long long>(P->Addr),
                        static_cast<unsigned long long>(Run.size()),
                        IsStack ? ", stashed + remapped at startup" : "");
  }
  if (Opts.TargetKind == Pinball2ElfOptions::Target::NativeX86) {
    Out += formatString("  .elfie.text  0x%llx : { /* startup + runtime + "
                        "translated code */ }\n",
                        static_cast<unsigned long long>(
                            NativeLayout::HostCodeBase));
    Out += formatString(
        "  .elfie.data  0x%llx : { /* thread contexts, address table */ }\n",
        static_cast<unsigned long long>(NativeLayout::HostDataBase));
    Out += formatString(
        "  .elfie.stacks 0x%llx : { /* per-thread host stacks */ }\n",
        static_cast<unsigned long long>(NativeLayout::HostStackBase));
    Out += formatString("  .elfie.stash 0x%llx : { /* stashed stack pages "
                        "*/ }\n",
                        static_cast<unsigned long long>(
                            NativeLayout::StashBase));
  } else {
    Out += formatString("  .elfie.text 0x%llx : { /* guest startup */ }\n",
                        static_cast<unsigned long long>(
                            GuestLayout::StartupBase));
  }
  Out += formatString("  /* threads: %zu, region length: %llu */\n",
                      PB.Threads.size(),
                      static_cast<unsigned long long>(
                          PB.Meta.RegionLength));
  Out += "}\n";
  return Out;
}
