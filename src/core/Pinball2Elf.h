//===- core/Pinball2Elf.h - Pinball -> ELFie conversion ---------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// pinball2elf: the paper's primary contribution (§II-B). Converts a
/// (preferably fat) pinball into a stand-alone, statically linked ELF
/// executable — an **ELFie** — that starts with the exact program state
/// captured at the region start and then runs unconstrained.
///
/// Two targets are emitted from the same pinball (DESIGN.md §2):
///
///  * **Native x86-64** (`Target::NativeX86`): a real Linux executable.
///    Pinball pages become PT_LOAD segments at their original virtual
///    addresses; stack pages are stashed in a relocated segment and
///    remapped by startup code (the stack-collision workaround of §II-B3,
///    Figs. 4/5); the checkpointed EG64 code pages are AOT-translated to
///    x86-64; per-thread context blocks live in a data section (Fig. 3)
///    and startup `clone()`s one thread per checkpointed thread (Fig. 6);
///    graceful exit decrements a per-thread retired-instruction budget
///    (§II-C1); optional `perfle` reporting prints retired instructions
///    and rdtsc cycles per thread at exit (§III-B); `sysstate` descriptor
///    proxies are pre-opened and dup()ed at startup (§II-C2).
///
///  * **Guest EG64** (`Target::Guest`): an EG64 executable with startup
///    code in guest assembly, consumed unmodified by the EVM and by the
///    esim simulators — the role x86 ELFies play for x86 simulators
///    (§III-C, §IV).
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_CORE_PINBALL2ELF_H
#define ELFIE_CORE_PINBALL2ELF_H

#include "isa/ISA.h"
#include "pinball/Pinball.h"
#include "support/Error.h"
#include "sysstate/SysState.h"

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace elfie {
namespace elf {
class ELFWriter;
}
namespace core {

/// Conversion options (pinball2elf command-line surface).
struct Pinball2ElfOptions {
  /// NativeX86/Guest emit runnable executables; Object emits an ET_REL
  /// relocatable object holding the pinball pages and packed thread
  /// contexts *without* startup code, for users who link their own
  /// startup against the layout script (paper §II-B5).
  enum class Target { NativeX86, Guest, Object };
  Target TargetKind = Target::NativeX86;

  /// Emit the per-instruction retired-count countdown and exit each thread
  /// at its pinball budget. Disable when an external tool (simulator) ends
  /// the region instead (§II-C1).
  bool EmitICountChecks = true;

  /// libperfle-style reporting: at thread exit write
  /// "elfie-perf: thread <t> retired <n> cycles <c>" to stderr (§III-B).
  bool Perfle = false;

  /// elfie_on_start banner on stderr.
  bool Verbose = false;

  /// ROI markers: `--roi-start [TYPE:]TAG` (§II-B5).
  bool EmitMarkers = true;
  isa::MarkerKind MarkerType = isa::MarkerKind::SSC;
  int32_t MarkerTag = isa::MarkerTagRoiStart;

  /// When set, embed sysstate descriptor preopens computed from the
  /// pinball (FD_<n> proxies dup()ed at startup). The emitted ELFie must
  /// then run with the sysstate workdir as its current directory.
  bool EmbedSysstate = false;

  /// Functional-warming length baked into the ELFie as the SHN_ABS
  /// `elfie_warmup_length` symbol (0 = no symbol): simulators that honor
  /// it warm caches/TLBs/predictors over the first N post-marker
  /// instructions before detailed simulation (DESIGN.md §16). Part of the
  /// region length, so it must stay below the pinball's region budget.
  uint64_t WarmupLength = 0;

  /// Maximum threads the region may create dynamically via clone().
  unsigned MaxDynThreads = 56;

  /// Watchdog timeout in seconds for the native ELFie's alarm(2) guard
  /// (divergence containment: a runaway region dies with the documented
  /// ungraceful-exit report instead of hanging forever). 0 scales the
  /// timeout from the region's retired-instruction budget.
  uint64_t WatchdogSecs = 0;
};

/// Fixed virtual-address layout of the native ELFie's own runtime (chosen
/// to be disjoint from any guest address and from the host stack/vdso).
struct NativeLayout {
  static constexpr uint64_t HostCodeBase = 0x10000000000ull;  // 1 TiB
  static constexpr uint64_t HostDataBase = 0x10100000000ull;
  static constexpr uint64_t HostStackBase = 0x10200000000ull;
  static constexpr uint64_t StashBase = 0x10300000000ull;
  static constexpr uint64_t HostStackSize = 1ull << 16; // per thread slot
  /// Per-thread alternate signal stacks (fault containment): the runtime's
  /// SIGSEGV/SIGBUS/SIGILL/SIGFPE handlers run here, so a blown guest
  /// stack still produces the structured elfie-fault report.
  static constexpr uint64_t AltStackBase = 0x10400000000ull;
  static constexpr uint64_t AltStackSize = 1ull << 14; // per thread slot
};

/// Guest-target ELFie startup placement.
struct GuestLayout {
  static constexpr uint64_t StartupBase = 0xE0000000ull;
};

/// Converts \p PB into an ELFie image per \p Opts.
Expected<std::vector<uint8_t>>
pinballToElf(const pinball::Pinball &PB, const Pinball2ElfOptions &Opts);

/// Converts and writes an executable file.
Error pinballToElfFile(const pinball::Pinball &PB,
                       const Pinball2ElfOptions &Opts,
                       const std::string &OutPath);

/// Renders the memory layout of the would-be ELFie in linker-script style
/// (paper §II-B5: pinball2elf writes a linker script exposing the parent
/// pinball's layout).
std::string describeLayout(const pinball::Pinball &PB,
                           const Pinball2ElfOptions &Opts);

// Implemented in NativeElfie.cpp / GuestElfie.cpp / Pinball2Elf.cpp.
Expected<std::vector<uint8_t>>
emitNativeElfie(const pinball::Pinball &PB, const Pinball2ElfOptions &Opts);
Expected<std::vector<uint8_t>>
emitGuestElfie(const pinball::Pinball &PB, const Pinball2ElfOptions &Opts);
Expected<std::vector<uint8_t>>
emitElfieObject(const pinball::Pinball &PB, const Pinball2ElfOptions &Opts);

// Shared by the three targets and describeLayout.

/// A run of address-contiguous pages with equal permissions.
using PageRun = std::span<const pinball::PageRecord *const>;

/// Sorts \p Pages by address and splits them into runs (paper §II-B2);
/// the runs view \p Pages.
std::vector<PageRun>
splitPageRuns(std::vector<const pinball::PageRecord *> &Pages);

/// Adds one section per run of \p Pages at the pages' own addresses,
/// `.text.0x<addr>` when executable and `.data.0x<addr>` otherwise, with
/// SHF flags from the permissions. The page bytes are borrowed: the
/// pinball must outlive W.finalize().
void addPageRunSections(elf::ELFWriter &W,
                        std::vector<const pinball::PageRecord *> Pages);

/// Adds the region symbols of every target (§II-B5): per thread N, the
/// target's own symbols from \p ThreadSymbols(N) and then `.tN.icount`
/// (the thread's retired-instruction budget); then `elfie_region_length`
/// and, with a warm-up, `elfie_warmup_length`.
void addRegionSymbols(elf::ELFWriter &W, const pinball::Pinball &PB,
                      const Pinball2ElfOptions &Opts,
                      const std::function<void(unsigned)> &ThreadSymbols);

} // namespace core
} // namespace elfie

#endif // ELFIE_CORE_PINBALL2ELF_H
