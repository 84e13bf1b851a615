//===- analyze/PermPass.cpp - page permission/content fidelity ------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// PERM.*: every captured page must reappear in the ELFie with the same
/// R/W/X permissions and the same bytes it had at checkpoint time (paper
/// §II-B2: sections inherit the original page permissions). Native ELFies
/// route checkpointed stack pages through the stash section instead
/// (§II-B3); for those the pass verifies the stashed copy byte-for-byte.
///
//===----------------------------------------------------------------------===//

#include "analyze/Passes.h"

#include "core/Pinball2Elf.h"
#include "support/Format.h"
#include "vm/VM.h"

#include <algorithm>
#include <cstring>

using namespace elfie;
using namespace elfie::analyze;

namespace {

/// Offset of the first byte at which the captured page \p Captured differs
/// from the emitted page whose file bytes start at \p File; the part of the
/// page past \p File reads as zero. GuestPageSize when the two agree. Only
/// a page that differs is searched byte by byte.
uint64_t firstDifference(std::span<const uint8_t> File,
                         const uint8_t *Captured) {
  size_t N = std::min<size_t>(File.size(), vm::GuestPageSize);
  if ((N == 0 || std::memcmp(File.data(), Captured, N) == 0) &&
      std::memcmp(Captured + N, vm::zeroPage(), vm::GuestPageSize - N) == 0)
    return vm::GuestPageSize;
  const uint8_t *Head =
      std::mismatch(Captured, Captured + N, File.data()).first;
  if (Head != Captured + N)
    return Head - Captured;
  return std::find_if(Captured + N, Captured + vm::GuestPageSize,
                      [](uint8_t B) { return B != 0; }) -
         Captured;
}

class PermPass : public Pass {
public:
  const char *name() const override { return "perm"; }
  const char *description() const override {
    return "emitted R/W/X flags and bytes match the pinball pages";
  }

  bool applicable(const AnalysisInput &In, std::string &WhyNot) const override {
    if (!In.PB) {
      WhyNot = "page cross-checking needs the source pinball (-pinball)";
      return false;
    }
    return true;
  }

  void run(const AnalysisInput &In, Report &Out) const override {
    const pinball::Pinball &PB = *In.PB;
    // Native ELFies stash stack pages; everything else loads in place.
    // Stash order is pinball image order (the emitter's partition order).
    uint64_t StashIndex = 0;
    const auto *Stash = In.Kind == ElfKind::NativeExec
                            ? In.Elf->findSection(".elfie.stash")
                            : nullptr;
    for (const pinball::PageRecord *P : PB.allPages()) {
      bool IsStack = In.Kind == ElfKind::NativeExec &&
                     P->Addr >= PB.Meta.StackBase &&
                     P->Addr < PB.Meta.StackTop;
      if (IsStack) {
        checkStashedPage(*P, Stash, StashIndex++, Out);
        continue;
      }
      const auto *S = In.Elf->sectionContaining(P->Addr);
      if (!S) {
        Out.add(Severity::Error, "PERM.MISSING", P->Addr,
                formatString("captured page %#llx is not mapped by any "
                             "section",
                             static_cast<unsigned long long>(P->Addr)));
        continue;
      }
      bool WantW = (P->Perm & vm::PermWrite) != 0;
      bool WantX = (P->Perm & vm::PermExec) != 0;
      bool HaveW = (S->Flags & elf::SHF_WRITE) != 0;
      bool HaveX = (S->Flags & elf::SHF_EXECINSTR) != 0;
      if (WantW != HaveW || WantX != HaveX)
        Out.add(Severity::Error, "PERM.MISMATCH", P->Addr,
                formatString("page %#llx captured %s but emitted %s in "
                             "section '%s'",
                             static_cast<unsigned long long>(P->Addr),
                             permName(WantW, WantX), permName(HaveW, HaveX),
                             S->Name.c_str()));
      // Content: compare against the section's file bytes; the part of
      // the page past them (NOBITS) reads as zero. Works for executables
      // and ET_REL objects alike.
      uint64_t Off = P->Addr - S->Addr;
      if (Off + vm::GuestPageSize > S->Size) {
        Out.add(Severity::Error, "PERM.MISSING", P->Addr,
                formatString("page %#llx is only partially covered by "
                             "section '%s'",
                             static_cast<unsigned long long>(P->Addr),
                             S->Name.c_str()));
        continue;
      }
      std::span<const uint8_t> File;
      if (Off < S->Data.size())
        File = S->Data.subspan(Off);
      uint64_t I = firstDifference(File, P->Bytes.data());
      if (I < vm::GuestPageSize) {
        uint8_t Emitted = I < File.size() ? File[I] : 0;
        Out.add(Severity::Error, "PERM.CONTENT", P->Addr + I,
                formatString("page %#llx differs from the pinball at "
                             "offset %llu (emitted %#x, captured %#x)",
                             static_cast<unsigned long long>(P->Addr),
                             static_cast<unsigned long long>(I), Emitted,
                             P->Bytes[I]));
      }
    }
  }

private:
  static const char *permName(bool W, bool X) {
    if (W && X)
      return "rwx";
    if (W)
      return "rw-";
    if (X)
      return "r-x";
    return "r--";
  }

  void checkStashedPage(const pinball::PageRecord &P,
                        const elf::ELFReader::SectionView *Stash,
                        uint64_t Index, Report &Out) const {
    if (!Stash)
      return; // LayoutPass reports the missing stash section
    // A slot past the stash's file bytes (a NOBITS or truncated header)
    // cannot be checked against what the startup code copies back.
    uint64_t Off = Index * vm::GuestPageSize;
    if (Off + vm::GuestPageSize > Stash->Data.size())
      Out.add(Severity::Error, "PERM.STASH_CONTENT", P.Addr,
              formatString("stash slot %llu for stack page %#llx has no "
                           "file bytes",
                           static_cast<unsigned long long>(Index),
                           static_cast<unsigned long long>(P.Addr)));
    else if (firstDifference(Stash->Data.subspan(Off, vm::GuestPageSize),
                             P.Bytes.data()) < vm::GuestPageSize)
      Out.add(Severity::Error, "PERM.STASH_CONTENT", P.Addr,
              formatString("stashed copy of stack page %#llx (stash slot "
                           "%llu) differs from the pinball",
                           static_cast<unsigned long long>(P.Addr),
                           static_cast<unsigned long long>(Index)));
  }
};

} // namespace

std::unique_ptr<Pass> analyze::makePermPass() {
  return std::make_unique<PermPass>();
}
