//===- analyze/Analysis.h - Static verification framework -------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// everify: pass-based static verification of emitted ELFies against the
/// pinball they were built from (DESIGN.md §"Static verification"). The
/// invariants the paper only establishes dynamically — PT_LOAD segments at
/// original virtual addresses with no collisions (§II-B2/§II-B3), thread
/// contexts pointing into mapped memory, icount budgets matching the
/// pinball (§II-C1), sysstate proxies present (§II-C2) — are checked here
/// before anything executes.
///
/// A `Pass` inspects an `AnalysisInput` (the parsed ELFie, optionally the
/// source pinball and a sysstate directory) and appends structured
/// `Finding`s to a `Report`. The `PassManager` runs every registered pass,
/// emitting a PASS.SKIPPED note for passes that declare themselves
/// inapplicable (e.g. startup-code checks on an ET_REL object).
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_ANALYZE_ANALYSIS_H
#define ELFIE_ANALYZE_ANALYSIS_H

#include "elf/ELFReader.h"
#include "pinball/Pinball.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace elfie {

class JsonWriter;

namespace analyze {

enum class Severity { Note, Warning, Error };

const char *severityName(Severity S);

/// One verification result. \p Code is a stable dotted identifier
/// ("LAYOUT.OVERLAP") documented in DESIGN.md; \p Addr is the virtual
/// address the finding is about, or 0 when it is not address-specific.
struct Finding {
  Severity Sev = Severity::Note;
  std::string Code;
  uint64_t Addr = 0;
  std::string Message;
};

/// Version of the machine-readable report shape (the `schema` field every
/// -json report leads with). Bump when a field changes meaning or moves;
/// consumers (efleet, campaign tooling) key parsing off it. The shape
/// itself is locked by the golden-file test in tests/analyze.
constexpr uint64_t ReportSchemaVersion = 1;

/// Writes the members `"findings":[...],"errors":N,"warnings":N,
/// "notes":N` — the common tail of every report object (everify's and
/// ecfg's) — into the object \p W has open.
void writeFindingsJSON(JsonWriter &W, const std::vector<Finding> &Fs);

/// Accumulates findings across passes and renders them.
class Report {
public:
  void add(Severity Sev, std::string Code, uint64_t Addr, std::string Msg);

  const std::vector<Finding> &findings() const { return Findings; }
  unsigned count(Severity S) const;
  unsigned errorCount() const { return count(Severity::Error); }

  /// One finding per line: "error LAYOUT.OVERLAP @0x10000: ...".
  std::string renderText() const;

  /// {"schema":1,
  ///  "findings":[{"severity":...,"code":...,"addr":...,"message":...}],
  ///  "errors":N,"warnings":N,"notes":N}
  std::string renderJSON() const;

private:
  std::vector<Finding> Findings;
};

/// What kind of file is being verified, from e_type/e_machine.
enum class ElfKind {
  NativeExec, ///< ET_EXEC, EM_X86_64: a native ELFie
  GuestExec,  ///< ET_EXEC, EM_EG64: a guest ELFie (or any EVM executable)
  Object,     ///< ET_REL, EM_EG64: pinball2elf -target object output
  Unknown,
};

const char *elfKindName(ElfKind K);

/// Everything a pass may look at. Elf is required; PB and SysstateDir are
/// optional cross-checking context (absent when everify runs on a lone
/// file).
struct AnalysisInput {
  const elf::ELFReader *Elf = nullptr;
  const pinball::Pinball *PB = nullptr;
  std::string SysstateDir;
  ElfKind Kind = ElfKind::Unknown;
  /// Whether the ELFie was emitted with ROI markers: 1 = yes (their
  /// absence is an error), 0 = no, -1 = unknown (skip the check).
  int ExpectMarkers = -1;
  /// estore pool root for the STORE.* pass (empty = pass skipped).
  std::string StoreRoot;
  /// Pool artifact to verify; empty verifies every manifest in the pool.
  std::string StoreName;
  /// Path of the file being verified, for the byte-identity cross-check
  /// against the pool artifact named by StoreName.
  std::string ArtifactPath;
  /// `.esimstate` warmup-checkpoint sidecar for the SIMSTATE.* pass
  /// (empty = pass skipped).
  std::string SimStatePath;

  static ElfKind classify(const elf::ELFReader &R);
};

/// A single verification pass.
class Pass {
public:
  virtual ~Pass() = default;
  virtual const char *name() const = 0;
  virtual const char *description() const = 0;
  /// False when the pass has nothing meaningful to check for this input;
  /// \p WhyNot explains (becomes a PASS.SKIPPED note).
  virtual bool applicable(const AnalysisInput &In, std::string &WhyNot) const {
    (void)In;
    (void)WhyNot;
    return true;
  }
  virtual void run(const AnalysisInput &In, Report &Out) const = 0;
};

/// Owns and runs passes in registration order.
class PassManager {
public:
  void add(std::unique_ptr<Pass> P) { Passes.push_back(std::move(P)); }
  const std::vector<std::unique_ptr<Pass>> &passes() const { return Passes; }
  void runAll(const AnalysisInput &In, Report &Out) const;

private:
  std::vector<std::unique_ptr<Pass>> Passes;
};

} // namespace analyze
} // namespace elfie

#endif // ELFIE_ANALYZE_ANALYSIS_H
