//===- analyze/Analysis.cpp -----------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analyze/Analysis.h"
#include "analyze/Passes.h"

#include "support/Format.h"
#include "support/Json.h"

using namespace elfie;
using namespace elfie::analyze;

const char *analyze::severityName(Severity S) {
  switch (S) {
  case Severity::Note:
    return "note";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "?";
}

const char *analyze::elfKindName(ElfKind K) {
  switch (K) {
  case ElfKind::NativeExec:
    return "native ELFie (ET_EXEC, x86-64)";
  case ElfKind::GuestExec:
    return "guest ELFie (ET_EXEC, EG64)";
  case ElfKind::Object:
    return "relocatable object (ET_REL, EG64)";
  case ElfKind::Unknown:
    return "unknown";
  }
  return "?";
}

void Report::add(Severity Sev, std::string Code, uint64_t Addr,
                 std::string Msg) {
  Findings.push_back({Sev, std::move(Code), Addr, std::move(Msg)});
}

unsigned Report::count(Severity S) const {
  unsigned N = 0;
  for (const Finding &F : Findings)
    if (F.Sev == S)
      ++N;
  return N;
}

std::string Report::renderText() const {
  std::string Out;
  for (const Finding &F : Findings) {
    Out += severityName(F.Sev);
    Out += ' ';
    Out += F.Code;
    if (F.Addr)
      Out += formatString(" @%#llx",
                          static_cast<unsigned long long>(F.Addr));
    Out += ": ";
    Out += F.Message;
    Out += '\n';
  }
  Out += formatString("%u error(s), %u warning(s), %u note(s)\n",
                      count(Severity::Error), count(Severity::Warning),
                      count(Severity::Note));
  return Out;
}

void analyze::writeFindingsJSON(JsonWriter &W,
                                const std::vector<Finding> &Fs) {
  uint64_t Counts[3] = {0, 0, 0};
  W.key("findings").beginArray();
  for (const Finding &F : Fs) {
    ++Counts[static_cast<unsigned>(F.Sev)];
    W.beginObject();
    W.key("severity").value(severityName(F.Sev));
    W.key("code").value(F.Code);
    W.key("addr").value(F.Addr);
    W.key("message").value(F.Message);
    W.endObject();
  }
  W.endArray();
  W.key("errors").value(Counts[static_cast<unsigned>(Severity::Error)]);
  W.key("warnings").value(Counts[static_cast<unsigned>(Severity::Warning)]);
  W.key("notes").value(Counts[static_cast<unsigned>(Severity::Note)]);
}

std::string Report::renderJSON() const {
  JsonWriter W;
  W.beginObject().key("schema").value(ReportSchemaVersion);
  writeFindingsJSON(W, Findings);
  W.endObject();
  return W.str() + "\n";
}

ElfKind AnalysisInput::classify(const elf::ELFReader &R) {
  if (R.fileType() == elf::ET_REL && R.machine() == elf::EM_EG64)
    return ElfKind::Object;
  if (R.fileType() != elf::ET_EXEC)
    return ElfKind::Unknown;
  if (R.machine() == elf::EM_X86_64)
    return ElfKind::NativeExec;
  if (R.machine() == elf::EM_EG64)
    return ElfKind::GuestExec;
  return ElfKind::Unknown;
}

void PassManager::runAll(const AnalysisInput &In, Report &Out) const {
  for (const auto &P : Passes) {
    std::string WhyNot;
    if (!P->applicable(In, WhyNot)) {
      Out.add(Severity::Note, "PASS.SKIPPED", 0,
              formatString("%s: inapplicable: %s", P->name(),
                           WhyNot.c_str()));
      continue;
    }
    P->run(In, Out);
  }
}

void analyze::addStandardPasses(PassManager &PM) {
  PM.add(makeLayoutPass());
  PM.add(makeContextPass());
  PM.add(makeBudgetPass());
  PM.add(makePermPass());
  PM.add(makeReachPass());
  PM.add(makeSysstatePass());
  PM.add(makeCodePass());
  PM.add(makeStorePass());
  PM.add(makeSimStatePass());
}
