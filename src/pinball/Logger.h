//===- pinball/Logger.h - PinPlay-style region logger -----------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The logger captures a region of a guest program's execution as a pinball
/// (paper §I Fig. 1, §II-A). It implements the PinPlay switches the paper
/// added for ELFie generation:
///
///   -log:whole_image  record every page mapped at region start,
///   -log:pages_early  put lazily-captured pages into the initial image,
///   -log:fat          both (a "fat pinball").
///
/// Without the switches, touched pages become lazy page-injection records,
/// as in stock PinPlay.
///
/// The logger is a Block observer, so the region runs compiled: the
/// schedule is built from onBlock runs, syscalls arrive as events, and
/// first-touch page capture stays exact because the JIT's memory helpers
/// hand every first touch of a page back to the interpreter (see
/// AddressSpace::wouldFireFirstTouch). A captured page whose bytes are all
/// zero borrows PageBytes' shared zero page instead of a 4 KiB copy, and
/// Pinball::save writes it as a payload-free record.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_PINBALL_LOGGER_H
#define ELFIE_PINBALL_LOGGER_H

#include "pinball/Pinball.h"
#include "vm/VM.h"

#include <set>

namespace elfie {
namespace pinball {

/// Logging switches (PinPlay's -log:* family).
struct LoggerOptions {
  bool WholeImage = false;
  bool PagesEarly = false;

  /// -log:fat 1
  static LoggerOptions fat() {
    LoggerOptions O;
    O.WholeImage = true;
    O.PagesEarly = true;
    return O;
  }
};

/// Observer that records a region into a Pinball. Use via:
///   RegionLogger L(VM, Opts);
///   ... fast-forward the VM to the region start ...
///   L.beginRegion();
///   ... run the region with the VM's observer set to &L ...
///   Pinball PB = L.endRegion();
class RegionLogger : public vm::Observer {
public:
  RegionLogger(vm::VM &M, LoggerOptions Opts);
  ~RegionLogger() override;

  /// Snapshots thread registers (and, with WholeImage, all mapped pages),
  /// arms first-touch page capture, and starts schedule/syscall recording.
  void beginRegion();

  /// Stops recording and finalizes per-thread instruction counts.
  Pinball endRegion();

  /// Routes region stdout into the pinball's output.log. The controller
  /// calls this from its stdout sink while the region is active.
  void recordOutput(const char *Data, size_t Len);

  // Observer interface.
  Granularity granularity() const override { return Granularity::Block; }
  void onBlock(uint32_t Tid, uint64_t EntryPC, uint64_t NumInsts,
               bool EndsInControlFlow) override;
  void onSyscall(uint32_t Tid, uint64_t Nr, const uint64_t *Args,
                 int64_t Result) override;

private:
  void capturePage(uint64_t Addr, const uint8_t *Bytes);

  vm::VM &M;
  LoggerOptions Opts;
  Pinball PB;
  bool Active = false;
  uint64_t RegionStartRetired = 0;
  std::map<uint32_t, uint64_t> RetiredAtStart;
  std::set<uint64_t> CapturedPages;
  uint32_t LastTid = UINT32_MAX;
};

/// One-call capture driver used by the elogger tool, tests, benches and
/// src/points.
struct CaptureRequest {
  std::string ProgramPath;
  std::vector<std::string> Args;
  /// Region bounds in global retired instructions.
  uint64_t RegionStart = 0;
  uint64_t RegionLength = 0;
  LoggerOptions Opts;
  vm::VMConfig Config;
  std::string ProgramName = "program";
};

/// A request for fat pinballs (what pinball2elf needs) of \p ProgramPath,
/// run without arguments under the default VM config.
CaptureRequest fatRequest(const std::string &ProgramPath,
                          uint64_t RegionStart = 0, uint64_t RegionLength = 0);

/// A region in global retired instructions: [Start, Start + Length).
struct RegionBounds {
  uint64_t Start = 0;
  uint64_t Length = 0;
};

/// Runs the program once under the logger and returns one pinball per
/// entry of \p Regions, in order; Request.RegionStart and RegionLength are
/// not read. Regions must be sorted and must not overlap (adjacent is
/// fine), or the call fails with EFAULT.CAPTURE.ORDER before running
/// anything. Fails if the program exits or faults before a region starts
/// or faults inside one; a region that extends past program exit is
/// truncated to the instructions that actually ran (RegionLength is
/// updated accordingly).
Expected<std::vector<Pinball>>
captureRegions(const CaptureRequest &Request,
               const std::vector<RegionBounds> &Regions);

/// captureRegions of the one region [RegionStart, RegionStart +
/// RegionLength).
Expected<Pinball> captureRegion(const CaptureRequest &Request);

} // namespace pinball
} // namespace elfie

#endif // ELFIE_PINBALL_LOGGER_H
