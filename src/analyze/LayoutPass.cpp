//===- analyze/LayoutPass.cpp - address-space layout checks ---------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// LAYOUT.*: the ELFie's loader view must be collision-free. Pinball pages
/// become PT_LOAD segments at their original virtual addresses (paper
/// §II-B2, Fig. 3); checkpointed stack pages must NOT be loadable at their
/// original addresses — the system loader would clobber them with the
/// environment/auxv it builds there — and instead travel in a stash
/// section remapped by startup code (§II-B3, Figs. 4/5).
///
//===----------------------------------------------------------------------===//

#include "analyze/Passes.h"

#include "core/Pinball2Elf.h"
#include "support/Format.h"
#include "vm/VM.h"

#include <algorithm>
#include <vector>

using namespace elfie;
using namespace elfie::analyze;

namespace {

/// The window the kernel conventionally builds the initial process stack
/// in (x86-64 Linux, no ASLR offset accounted): a PT_LOAD here risks the
/// collision of paper Fig. 4 even before the guest runs.
constexpr uint64_t LoaderStackLo = 0x7ff000000000ull;
constexpr uint64_t LoaderStackHi = 0x800000000000ull;

class LayoutPass : public Pass {
public:
  const char *name() const override { return "layout"; }
  const char *description() const override {
    return "segment/section address-space sanity; stash layout (§II-B3)";
  }

  bool applicable(const AnalysisInput &In, std::string &WhyNot) const override {
    if (In.Kind == ElfKind::Object) {
      WhyNot = "ET_REL objects have no loader view (no segments, no "
               "meaningful section addresses)";
      return false;
    }
    return true;
  }

  void run(const AnalysisInput &In, Report &Out) const override {
    const elf::ELFReader &R = *In.Elf;

    // A file whose e_type/e_machine identify neither a native nor a guest
    // ELFie is rejected outright (fail closed on corrupted headers) rather
    // than silently passing every kind-gated check below.
    if (In.Kind == ElfKind::Unknown)
      Out.add(Severity::Error, "LAYOUT.KIND", 0,
              "e_type/e_machine identify neither a native (ET_EXEC x86-64) "
              "nor a guest (ET_EXEC/ET_REL EG64) ELFie");

    // Overlap among ALLOC sections (independent second opinion on the
    // ELFWriter's own refusal to emit such files).
    struct Range {
      uint64_t Lo, Hi;
      std::string Name;
    };
    std::vector<Range> Secs;
    for (const auto &S : R.sections())
      if ((S.Flags & elf::SHF_ALLOC) != 0 && S.Size)
        Secs.push_back({S.Addr, S.Addr + S.Size, S.Name});
    std::sort(Secs.begin(), Secs.end(),
              [](const Range &A, const Range &B) { return A.Lo < B.Lo; });
    for (size_t I = 1; I < Secs.size(); ++I)
      if (Secs[I].Lo < Secs[I - 1].Hi)
        Out.add(Severity::Error, "LAYOUT.OVERLAP", Secs[I].Lo,
                formatString("ALLOC sections '%s' and '%s' overlap",
                             Secs[I - 1].Name.c_str(),
                             Secs[I].Name.c_str()));

    // PT_LOAD checks: pairwise overlap, offset congruence, filesz<=memsz.
    std::vector<Range> Loads;
    for (size_t I = 0; I < R.segments().size(); ++I) {
      const auto &Seg = R.segments()[I];
      if (Seg.Type != elf::PT_LOAD)
        continue;
      std::string Label = formatString("segment %zu", I);
      if (Seg.MemSize)
        Loads.push_back({Seg.VAddr, Seg.VAddr + Seg.MemSize, Label});
      if (Seg.FileSize > Seg.MemSize)
        Out.add(Severity::Error, "LAYOUT.FILESZ", Seg.VAddr,
                formatString("%s has p_filesz %llu > p_memsz %llu",
                             Label.c_str(),
                             static_cast<unsigned long long>(Seg.FileSize),
                             static_cast<unsigned long long>(Seg.MemSize)));
      // p_offset is not retained by SegmentView; check congruence via the
      // section table instead (one PT_LOAD per ALLOC section).
    }
    std::sort(Loads.begin(), Loads.end(),
              [](const Range &A, const Range &B) { return A.Lo < B.Lo; });
    for (size_t I = 1; I < Loads.size(); ++I)
      if (Loads[I].Lo < Loads[I - 1].Hi)
        Out.add(Severity::Error, "LAYOUT.OVERLAP", Loads[I].Lo,
                formatString("PT_LOAD %s and %s overlap",
                             Loads[I - 1].Name.c_str(),
                             Loads[I].Name.c_str()));

    // Every ALLOC section must be loader-mapped, with offset === vaddr
    // (mod page size); every non-ALLOC section must NOT be.
    for (const auto &S : R.sections()) {
      if (!S.Size || S.Type == elf::SHT_NULL)
        continue;
      if (S.Flags & elf::SHF_ALLOC) {
        if (!R.segmentContaining(S.Addr))
          Out.add(Severity::Error, "LAYOUT.UNCOVERED", S.Addr,
                  formatString("ALLOC section '%s' has no covering PT_LOAD",
                               S.Name.c_str()));
        if (S.Type != elf::SHT_NOBITS &&
            (S.Offset % elf::PageSize) != (S.Addr % elf::PageSize))
          Out.add(Severity::Error, "LAYOUT.OFFSET", S.Addr,
                  formatString("section '%s' file offset %llu is not "
                               "congruent to vaddr %#llx mod page size",
                               S.Name.c_str(),
                               static_cast<unsigned long long>(S.Offset),
                               static_cast<unsigned long long>(S.Addr)));
        // A NOBITS section reads as zero, so no PT_LOAD may map file
        // bytes over it: the loader would map those bytes, not zeros.
        if (S.Type == elf::SHT_NOBITS)
          for (const auto &Seg : R.segments())
            if (Seg.Type == elf::PT_LOAD && S.Addr < Seg.VAddr + Seg.FileSize &&
                Seg.VAddr < S.Addr + S.Size)
              Out.add(Severity::Error, "LAYOUT.NOBITS", S.Addr,
                      formatString("NOBITS section '%s' lies inside the "
                                   "file bytes [%#llx, %#llx) of a PT_LOAD",
                                   S.Name.c_str(),
                                   static_cast<unsigned long long>(Seg.VAddr),
                                   static_cast<unsigned long long>(
                                       Seg.VAddr + Seg.FileSize)));
      } else if (S.Addr && R.segmentContaining(S.Addr)) {
        Out.add(Severity::Error, "LAYOUT.STASH_LOADED", S.Addr,
                formatString("non-ALLOC section '%s' is covered by a "
                             "PT_LOAD; stash data must not be "
                             "loader-mapped (§II-B3)",
                             S.Name.c_str()));
      }
    }

    // Loader-stack collision window (native only; the EVM builds a fresh
    // address space for guest executables).
    if (In.Kind == ElfKind::NativeExec)
      for (const Range &L : Loads)
        if (L.Lo < LoaderStackHi && L.Hi > LoaderStackLo)
          Out.add(Severity::Warning, "LAYOUT.LOADER_WINDOW", L.Lo,
                  formatString("%s [%#llx, %#llx) lands in the loader "
                               "stack window; the kernel may refuse to map "
                               "it or the initial stack may clobber it",
                               L.Name.c_str(),
                               static_cast<unsigned long long>(L.Lo),
                               static_cast<unsigned long long>(L.Hi)));

    // Stack-collision workaround (§II-B3), checkable precisely with the
    // source pinball: no PT_LOAD may intersect the checkpointed stack
    // range, and the stashed pages must sit at the stash base.
    if (In.Kind == ElfKind::NativeExec && In.PB) {
      const pinball::Pinball &PB = *In.PB;
      uint64_t NumStack = 0;
      for (const auto &P : PB.Image)
        if (P.Addr >= PB.Meta.StackBase && P.Addr < PB.Meta.StackTop)
          ++NumStack;
      if (PB.Meta.StackTop > PB.Meta.StackBase)
        for (const Range &L : Loads)
          if (L.Lo < PB.Meta.StackTop && L.Hi > PB.Meta.StackBase)
            Out.add(Severity::Error, "LAYOUT.STACK_LOADED", L.Lo,
                    formatString("%s intersects the checkpointed stack "
                                 "range [%#llx, %#llx); stack pages must "
                                 "be stashed, not loaded (§II-B3)",
                                 L.Name.c_str(),
                                 static_cast<unsigned long long>(
                                     PB.Meta.StackBase),
                                 static_cast<unsigned long long>(
                                     PB.Meta.StackTop)));
      const auto *Stash = R.findSection(".elfie.stash");
      if (NumStack) {
        if (!Stash) {
          Out.add(Severity::Error, "LAYOUT.STASH_SIZE", 0,
                  formatString("pinball has %llu stack page(s) but the "
                               "ELFie has no .elfie.stash section",
                               static_cast<unsigned long long>(NumStack)));
        } else {
          if (Stash->Addr != core::NativeLayout::StashBase)
            Out.add(Severity::Error, "LAYOUT.STASH_ADDR", Stash->Addr,
                    formatString(".elfie.stash is at %#llx, expected the "
                                 "stash base %#llx",
                                 static_cast<unsigned long long>(
                                     Stash->Addr),
                                 static_cast<unsigned long long>(
                                     core::NativeLayout::StashBase)));
          if (Stash->Size != NumStack * vm::GuestPageSize)
            Out.add(Severity::Error, "LAYOUT.STASH_SIZE", Stash->Addr,
                    formatString(".elfie.stash holds %llu byte(s), "
                                 "expected %llu (%llu stack pages)",
                                 static_cast<unsigned long long>(
                                     Stash->Size),
                                 static_cast<unsigned long long>(
                                     NumStack * vm::GuestPageSize),
                                 static_cast<unsigned long long>(NumStack)));
        }
      }
    }
  }
};

} // namespace

std::unique_ptr<Pass> analyze::makeLayoutPass() {
  return std::make_unique<LayoutPass>();
}
