//===- tests/sim/WorkloadRegion.h - registry-workload regions ---*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The region the simulator suites take from a registry workload (test
/// input): a fat capture at total/3 + 7 of length min(60000, total/3), as
/// the capture goldens use, and its guest ELFie.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_TESTS_SIM_WORKLOADREGION_H
#define ELFIE_TESTS_SIM_WORKLOADREGION_H

#include "core/Pinball2Elf.h"
#include "pinball/Logger.h"
#include "support/FileIO.h"
#include "workloads/Workloads.h"

#include <algorithm>

namespace elfie {
namespace test {

inline vm::VMConfig quietConfig() {
  vm::VMConfig C;
  C.StdoutSink = [](const char *, size_t) {};
  return C;
}

/// Builds \p Name under \p Dir and captures its region as a fat pinball.
inline Expected<pinball::Pinball> captureWorkloadRegion(const std::string &Dir,
                                                        const std::string &Name) {
  std::string Path = Dir + "/" + Name + ".elf";
  if (Error E = createDirectories(Dir))
    return E;
  if (Error E = workloads::buildWorkloadFile(Name, workloads::InputSet::Test,
                                             Path))
    return E;
  vm::VM M(quietConfig());
  if (Error E = M.loadELFFile(Path))
    return E;
  if (Error E = M.setupMainThread({Name}))
    return E;
  M.run();
  uint64_t Total = M.globalRetired();
  pinball::CaptureRequest Req;
  Req.ProgramPath = Path;
  Req.Args = {Name};
  Req.RegionStart = Total / 3 + 7;
  Req.RegionLength = std::min<uint64_t>(60000, Total / 3);
  Req.Opts = pinball::LoggerOptions::fat();
  Req.Config = quietConfig();
  Req.ProgramName = Name;
  return pinball::captureRegion(Req);
}

/// Emits \p PB as a guest ELFie (with an embedded warm-up length when
/// \p WarmupLength is non-zero).
inline Expected<std::vector<uint8_t>> guestElfie(const pinball::Pinball &PB,
                                                 uint64_t WarmupLength = 0) {
  core::Pinball2ElfOptions Opts;
  Opts.TargetKind = core::Pinball2ElfOptions::Target::Guest;
  Opts.WarmupLength = WarmupLength;
  return core::pinballToElf(PB, Opts);
}

} // namespace test
} // namespace elfie

#endif // ELFIE_TESTS_SIM_WORKLOADREGION_H
