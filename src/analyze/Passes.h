//===- analyze/Passes.h - The standard everify passes -----------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Factories for the standard verification passes; see DESIGN.md
/// §"Static verification" for each pass's checks and finding codes.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_ANALYZE_PASSES_H
#define ELFIE_ANALYZE_PASSES_H

#include "analyze/Analysis.h"

#include <memory>

namespace elfie {
namespace analyze {

/// LAYOUT.*: segment/section address-space sanity; stack-collision
/// workaround layout (paper §II-B2, §II-B3, Figs. 4/5).
std::unique_ptr<Pass> makeLayoutPass();

/// CTX.*: packed thread contexts point into mapped memory (paper Fig. 3).
std::unique_ptr<Pass> makeContextPass();

/// BUDGET.*: per-thread icount budgets match the pinball; markers present
/// when expected (paper §II-C1, §II-B5).
std::unique_ptr<Pass> makeBudgetPass();

/// PERM.*: emitted page R/W/X flags and contents match the pinball.
std::unique_ptr<Pass> makePermPass();

/// REACH.*: startup code decodes and reaches the jump to the captured PC
/// (paper Fig. 6).
std::unique_ptr<Pass> makeReachPass();

/// SYSSTATE.*: embedded FD preopens resolve to proxies in the sysstate
/// workdir (paper §II-C2, Fig. 8).
std::unique_ptr<Pass> makeSysstatePass();

/// CODE.*: whole-program static analysis of the region code — CFG
/// recovery from the captured thread PCs plus dataflow passes (syscall/
/// memory footprint, SMC, JIT translatability); see DESIGN.md §13.
std::unique_ptr<Pass> makeCodePass();

/// STORE.*: artifact-pool integrity — manifests parse and their seals
/// hold, every referenced chunk re-hashes to its digest, each verified
/// chunk list roots to the recorded root, and the verified file has its
/// pool artifact's root (DESIGN.md §15).
std::unique_ptr<Pass> makeStorePass();

/// SIMSTATE.*: warmup-checkpoint sidecar verification through the
/// simulator's own reader — container seal, config fingerprint, component
/// table and payloads, warming budget vs the region symbol, input digest
/// binding to the verified ELFie (DESIGN.md §16).
std::unique_ptr<Pass> makeSimStatePass();

/// Registers all nine passes in the canonical order.
void addStandardPasses(PassManager &PM);

} // namespace analyze
} // namespace elfie

#endif // ELFIE_ANALYZE_PASSES_H
