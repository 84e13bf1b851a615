//===- sched/Campaign.cpp -------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sched/Campaign.h"

#include "support/FileIO.h"
#include "support/Format.h"

#include <cctype>
#include <set>

using namespace elfie;
using namespace elfie::sched;

Expected<Action> elfie::sched::parseAction(const std::string &Name) {
  if (Name == "replay")
    return Action::Replay;
  if (Name == "emit")
    return Action::Emit;
  if (Name == "native")
    return Action::Native;
  if (Name == "verify")
    return Action::Verify;
  if (Name == "sim")
    return Action::Sim;
  return makeCodedError("EFAULT.FLEET.ACTION",
                        "unknown action '%s' (want replay|emit|native|"
                        "verify|sim)",
                        Name.c_str());
}

const char *elfie::sched::actionName(Action A) {
  switch (A) {
  case Action::Replay:
    return "replay";
  case Action::Emit:
    return "emit";
  case Action::Native:
    return "native";
  case Action::Verify:
    return "verify";
  case Action::Sim:
    return "sim";
  }
  return "?";
}

static bool validJobId(const std::string &Id) {
  if (Id.empty())
    return false;
  for (char C : Id)
    if (!(std::isalnum(static_cast<unsigned char>(C)) || C == '.' ||
          C == '_' || C == '-'))
      return false;
  return true;
}

Expected<CampaignPlan> CampaignPlan::parse(const std::string &Text) {
  CampaignPlan Plan;
  std::set<std::string> Seen;
  std::vector<std::string> Lines = splitString(Text, '\n');
  for (size_t LineNo = 1; LineNo <= Lines.size(); ++LineNo) {
    std::string Line = trimString(Lines[LineNo - 1]);
    if (Line.empty() || Line[0] == '#')
      continue;
    std::vector<std::string> Toks = splitWords(Line);
    if (Toks.size() < 3)
      return makeCodedError("EFAULT.FLEET.MANIFEST",
                            "line %zu: want '<id> <action> <target> ...', "
                            "got %zu fields",
                            LineNo, Toks.size());
    Job J;
    J.Id = Toks[0];
    if (!validJobId(J.Id))
      return makeCodedError("EFAULT.FLEET.MANIFEST",
                            "line %zu: bad job id '%s' (charset "
                            "[A-Za-z0-9._-])",
                            LineNo, J.Id.c_str());
    if (!Seen.insert(J.Id).second)
      return makeCodedError("EFAULT.FLEET.MANIFEST",
                            "line %zu: duplicate job id '%s'", LineNo,
                            J.Id.c_str());
    auto A = parseAction(Toks[1]);
    if (!A)
      return A.takeError().withContext(formatString("line %zu", LineNo));
    J.A = *A;
    J.Target = Toks[2];

    for (size_t T = 3; T < Toks.size(); ++T) {
      const std::string &Tok = Toks[T];
      if (Tok.empty() || Tok[0] != '!') {
        J.ExtraArgs.push_back(Tok);
        continue;
      }
      if (startsWith(Tok, "!timeout=")) {
        uint64_t Secs = 0;
        if (!parseUInt64(Tok.substr(9), Secs) || Secs == 0)
          return makeCodedError("EFAULT.FLEET.MANIFEST",
                                "line %zu: bad '%s'", LineNo, Tok.c_str());
        J.TimeoutSecs = Secs;
      } else if (startsWith(Tok, "!retries=")) {
        uint64_t N = 0;
        if (!parseUInt64(Tok.substr(9), N) || N == 0 || N > 1000)
          return makeCodedError("EFAULT.FLEET.MANIFEST",
                                "line %zu: bad '%s'", LineNo, Tok.c_str());
        J.Retries = static_cast<uint32_t>(N);
      } else if (startsWith(Tok, "!warmup=")) {
        uint64_t N = 0;
        if (!parseUInt64(Tok.substr(8), N) || N == 0)
          return makeCodedError("EFAULT.FLEET.MANIFEST",
                                "line %zu: bad '%s'", LineNo, Tok.c_str());
        if (J.A != Action::Sim)
          return makeCodedError("EFAULT.FLEET.MANIFEST",
                                "line %zu: !warmup= only applies to the "
                                "sim action",
                                LineNo);
        J.WarmupInstructions = N;
      } else if (startsWith(Tok, "!env:")) {
        std::string KV = Tok.substr(5);
        size_t Eq = KV.find('=');
        if (Eq == std::string::npos || Eq == 0)
          return makeCodedError("EFAULT.FLEET.MANIFEST",
                                "line %zu: bad '%s' (want !env:K=V)",
                                LineNo, Tok.c_str());
        J.Env.emplace_back(KV.substr(0, Eq), KV.substr(Eq + 1));
      } else {
        return makeCodedError("EFAULT.FLEET.MANIFEST",
                              "line %zu: unknown attribute '%s'", LineNo,
                              Tok.c_str());
      }
    }
    Plan.Jobs.push_back(std::move(J));
  }
  if (Plan.Jobs.empty())
    return makeCodedError("EFAULT.FLEET.MANIFEST", "manifest has no jobs");
  return Plan;
}

Expected<CampaignPlan> CampaignPlan::loadFile(const std::string &Path) {
  auto Text = readFileText(Path);
  if (!Text)
    return Text.takeError();
  auto Plan = parse(*Text);
  if (!Plan)
    return Plan.takeError().withContext("manifest '" + Path + "'");
  return Plan;
}

const Job *CampaignPlan::find(const std::string &Id) const {
  for (const Job &J : Jobs)
    if (J.Id == Id)
      return &J;
  return nullptr;
}

std::string elfie::sched::manifestLine(const Job &J) {
  std::string Line = J.Id + " " + actionName(J.A) + " " + J.Target;
  if (J.TimeoutSecs)
    Line += formatString(" !timeout=%llu",
                         static_cast<unsigned long long>(J.TimeoutSecs));
  if (J.Retries)
    Line += formatString(" !retries=%u", J.Retries);
  if (J.WarmupInstructions)
    Line += formatString(" !warmup=%llu", static_cast<unsigned long long>(
                                              J.WarmupInstructions));
  for (const auto &[K, V] : J.Env)
    Line += " !env:" + K + "=" + V;
  for (const std::string &A : J.ExtraArgs)
    Line += " " + A;
  return Line;
}

Error elfie::sched::appendManifestLine(const std::string &Path,
                                       const Job &J) {
  AppendLog Log;
  if (Error E = Log.open(Path))
    return E.withContext("appending to manifest '" + Path + "'");
  return Log.append(manifestLine(J));
}

std::string elfie::sched::jobIdForTarget(const std::string &Prefix,
                                         const std::string &Target) {
  std::string Id = Prefix + ".";
  for (char C : Target) {
    if (std::isalnum(static_cast<unsigned char>(C)) || C == '.' ||
        C == '_' || C == '-')
      Id += C;
    else
      Id += '_';
  }
  return Id;
}

std::string elfie::sched::expandPlaceholders(const std::string &Text,
                                             uint32_t Attempt) {
  static const std::string Key = "{attempt}";
  std::string Out;
  size_t Pos = 0;
  for (;;) {
    size_t Hit = Text.find(Key, Pos);
    if (Hit == std::string::npos) {
      Out += Text.substr(Pos);
      return Out;
    }
    Out += Text.substr(Pos, Hit - Pos);
    Out += formatString("%u", Attempt);
    Pos = Hit + Key.size();
  }
}
