//===- bench/BenchSupport.h - shared harness machinery ----------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the per-table/per-figure benchmark harnesses: a
/// scratch directory, workload builds and table printing. Capture lives in
/// pinball/Logger.h and the validation methodology (weighted region CPI vs
/// whole-program CPI, Fig. 9 / Fig. 10 / Table II) in points/Points.h; see
/// EXPERIMENTS.md for the methodology notes.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_BENCH_BENCHSUPPORT_H
#define ELFIE_BENCH_BENCHSUPPORT_H

#include "core/Pinball2Elf.h"
#include "pinball/Logger.h"
#include "points/Points.h"
#include "sim/Frontend.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "workloads/Workloads.h"

#include <cstdio>

namespace elfie {
namespace bench {

inline std::string workDir(const std::string &Name) {
  std::string D = "/tmp/elfie_bench_" + Name;
  removeTree(D);
  exitOnError(createDirectories(D));
  return D;
}

/// Builds a workload ELF into \p Dir, returning the path.
inline std::string buildWorkload(const std::string &Dir,
                                 const std::string &Name,
                                 workloads::InputSet Input) {
  std::string Path =
      Dir + "/" + Name + "." + workloads::inputSetName(Input) + ".elf";
  exitOnError(workloads::buildWorkloadFile(Name, Input, Path));
  return Path;
}

/// Table printing helpers.
inline void printHeader(const std::string &Title) {
  std::printf("\n================================================================\n"
              "%s\n"
              "================================================================\n",
              Title.c_str());
}

inline void printPaperNote(const std::string &Note) {
  std::printf("paper: %s\n\n", Note.c_str());
}

} // namespace bench
} // namespace elfie

#endif // ELFIE_BENCH_BENCHSUPPORT_H
