//===- sched/Journal.cpp --------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sched/Journal.h"

#include "support/Format.h"
#include "support/Json.h"

#include <algorithm>
#include <cctype>
#include <cstring>

using namespace elfie;
using namespace elfie::sched;

std::string elfie::sched::renderJournalRecord(const JournalRecord &Rec) {
  // "rec" leads for scannability; the rest in map (sorted) order, with
  // numeric-looking values bare so they read back as the same text.
  JsonWriter W;
  W.beginObject();
  auto Emit = [&](const std::string &K, const std::string &V) {
    W.key(K);
    if (isIntegerToken(V))
      W.integerToken(V);
    else
      W.value(V);
  };
  auto RecIt = Rec.find("rec");
  if (RecIt != Rec.end())
    Emit("rec", RecIt->second);
  for (const auto &[K, V] : Rec)
    if (K != "rec")
      Emit(K, V);
  W.endObject();
  return W.str();
}

/// Case-insensitive substring search (strerror spellings vary in case
/// across libcs; the injected-fault messages are lower-case).
static bool containsNoCase(const std::string &Hay, const char *Needle) {
  size_t N = std::strlen(Needle);
  if (N == 0 || Hay.size() < N)
    return false;
  for (size_t I = 0; I + N <= Hay.size(); ++I) {
    size_t J = 0;
    while (J < N && std::tolower(static_cast<unsigned char>(Hay[I + J])) ==
                        std::tolower(static_cast<unsigned char>(Needle[J])))
      ++J;
    if (J == N)
      return true;
  }
  return false;
}

Error JournalWriter::append(const JournalRecord &Rec) {
  Error E = Log.append(renderJournalRecord(Rec));
  if (!E)
    return E;
  // Keep disk pressure structured. AppendLog already classifies kernel
  // errnos; injected faults (IOFaultHook) arrive as generic write/read
  // failures whose message names the condition — re-code them so both
  // paths surface identically.
  std::string Code = E.code();
  if (Code != "EFAULT.IO.ENOSPC" && Code != "EFAULT.IO.EIO") {
    if (containsNoCase(E.message(), "no space left on device"))
      Code = "EFAULT.IO.ENOSPC";
    else if (containsNoCase(E.message(), "input/output error") ||
             containsNoCase(E.message(), "i/o error"))
      Code = "EFAULT.IO.EIO";
  }
  return Error::failure(Code, E.message())
      .withContext("journal '" + Log.path() + "'");
}

bool elfie::sched::isDiskPressureError(const Error &E) {
  return E.isError() &&
         (E.code() == "EFAULT.IO.ENOSPC" || E.code() == "EFAULT.IO.EIO");
}

bool elfie::sched::parseJournalRecord(const std::string &Line,
                                      JournalRecord &Out) {
  JournalRecord Tmp;
  std::string Trimmed = trimString(Line);
  if (!parseFlatJsonObject(Trimmed, Tmp) || !Tmp.count("rec"))
    return false;
  Out = std::move(Tmp);
  return true;
}

Expected<JournalState> elfie::sched::scanJournal(const std::string &Path) {
  auto Text = readFileText(Path);
  if (!Text)
    return Text.takeError().withContext("scanning journal");
  JournalState St;
  for (const std::string &RawLine : splitString(*Text, '\n')) {
    std::string Line = trimString(RawLine);
    if (Line.empty())
      continue;
    JournalRecord Rec;
    if (!parseJournalRecord(Line, Rec)) {
      // Torn or corrupted line (kill mid-append, injected flip): the
      // record is simply not there; the work it described re-runs.
      ++St.TornLines;
      continue;
    }
    ++St.Records;
    const std::string &Kind = Rec["rec"];
    const std::string &JobId = Rec["job"];
    if (Kind == "plan") {
      parseUInt64(Rec["jobs"], St.PlanJobs);
    } else if (Kind == "start") {
      St.InFlight.insert(JobId);
      uint64_t A = 0;
      if (parseUInt64(Rec["attempt"], A))
        St.Attempts[JobId] =
            std::max(St.Attempts[JobId], static_cast<uint32_t>(A));
    } else if (Kind == "done") {
      St.Done.insert(JobId);
      St.InFlight.erase(JobId);
    } else if (Kind == "quarantine") {
      St.Quarantined.insert(JobId);
      St.InFlight.erase(JobId);
    } else if (Kind == "seal") {
      St.Sealed = true;
      St.SealReason = Rec["reason"];
    }
    // "exit" and "resume" records carry history, not state.
  }
  return St;
}
