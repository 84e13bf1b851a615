//===- tools/efault_main.cpp - fault-injection corruption driver ----------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// efault: drives seeded corruptions of a pinball or ELFie through every
/// consumer tool and asserts the pipeline fails *closed*: no consumer may
/// crash on a signal, hang past the timeout, or reject the artifact without
/// a stable diagnostic code. Each run's mutation is derived from
/// `-seed + run`, so a reported failing seed reproduces bit-for-bit.
///
/// Exit codes: 0 all runs fail-closed, 1 violations found (or setup error),
/// 2 usage.
///
//===----------------------------------------------------------------------===//

#include "fault/Mutator.h"
#include "support/CommandLine.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/MappedFile.h"
#include "support/Subprocess.h"

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

using namespace elfie;

namespace {

/// A nonzero-exit rejection must be attributable: either an EFAULT.* coded
/// error, an everify-style dotted finding code, or a structured
/// divergence/fault report.
bool hasStableDiagnostic(const std::string &Out) {
  if (Out.find("EFAULT.") != std::string::npos)
    return true;
  if (Out.find("DIVERGENCE") != std::string::npos)
    return true;
  if (Out.find("guest fault") != std::string::npos)
    return true;
  if (Out.find("elfie-fault:") != std::string::npos)
    return true;
  // A mutated-but-loadable guest program exiting nonzero is the artifact's
  // own semantics, faithfully executed — attributed, not a silent failure.
  if (Out.find("guest exited with code") != std::string::npos)
    return true;
  // "error CODE.SUBCODE[ @addr]: msg" finding lines from the pass verifier.
  size_t Pos = Out.find("error ");
  while (Pos != std::string::npos) {
    size_t Tok = Pos + 6;
    size_t End = Out.find_first_of(" :\n", Tok);
    if (End != std::string::npos && Out.find('.', Tok) < End)
      return true;
    Pos = Out.find("error ", Tok);
  }
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL("efault",
                 "mutates a pinball, ELFie, estore pool, or .esimstate "
                 "warmup checkpoint with seeded corruptions and asserts "
                 "every consumer tool fails closed (no crash, no hang, "
                 "stable diagnostic codes)");
  CL.addInt("runs", 20, "number of seeded mutations to drive");
  CL.addInt("seed", 1, "first seed; run i uses seed+i");
  CL.addInt("timeout", 10, "per-consumer timeout in seconds");
  CL.addFlag("json", false, "print the summary as JSON on stdout");
  CL.addFlag("verbose", false, "print every consumer invocation");
  CL.addString("scratch", "", "scratch directory (default: /tmp/efault.<pid>)");
  exitOnError(CL.parse(Argc, Argv));
  if (CL.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: efault [options] pinball-dir|elfie|pool|"
                 "file.esimstate\n");
    return ExitUsage;
  }

  const std::string Artifact = CL.positional()[0];
  // A directory with estore.meta is a content-addressed pool; any other
  // directory is a pinball. A `.esimstate` file is a warmup-checkpoint
  // sidecar, swept against the ELFie it sits next to.
  const bool IsStore =
      isDirectory(Artifact) && fileExists(Artifact + "/estore.meta");
  const bool IsPinball = isDirectory(Artifact) && !IsStore;
  const std::string SimStateSuffix = ".esimstate";
  const bool IsSimState =
      !IsStore && !IsPinball && Artifact.size() > SimStateSuffix.size() &&
      Artifact.compare(Artifact.size() - SimStateSuffix.size(),
                       SimStateSuffix.size(), SimStateSuffix) == 0;
  if (!IsPinball && !IsStore && !fileExists(Artifact))
    exitOnError(makeCodedError("EFAULT.IO.OPEN", "no such artifact '%s'",
                               Artifact.c_str()));
  // The sidecar binds to its ELFie by input digest; consumers need both.
  std::string SimStateElfie;
  if (IsSimState) {
    SimStateElfie =
        Artifact.substr(0, Artifact.size() - SimStateSuffix.size());
    if (!fileExists(SimStateElfie))
      exitOnError(makeCodedError(
          "EFAULT.IO.OPEN", "no ELFie '%s' next to the sidecar '%s'",
          SimStateElfie.c_str(), Artifact.c_str()));
  }
  const std::string BinDir = selfBinDir(Argv[0]);
  const unsigned TimeoutMs =
      static_cast<unsigned>(CL.getInt("timeout")) * 1000u;
  std::string Scratch = CL.getString("scratch");
  if (Scratch.empty())
    Scratch = formatString("/tmp/efault.%d", static_cast<int>(::getpid()));

  uint64_t Runs = static_cast<uint64_t>(CL.getInt("runs"));
  uint64_t Seed0 = static_cast<uint64_t>(CL.getInt("seed"));
  uint64_t Invocations = 0, Crashes = 0, Hangs = 0, Uncoded = 0,
           Rejections = 0, Benign = 0;
  // Store-corruption rejection classes, broken out in the JSON summary.
  uint64_t StoreDigest = 0, StoreSeal = 0, StoreMissing = 0,
           StoreManifest = 0;
  // Sidecar-corruption rejection classes (the EFAULT.SIMSTATE.* taxonomy;
  // everify findings carry the same subcodes, so one counter serves both).
  static const char *SimStateTags[] = {"MAGIC",  "VERSION", "TRUNCATED",
                                       "SEAL",   "CONFIG",  "INPUT",
                                       "COMPONENT", "BUDGET"};
  constexpr size_t NumSimStateTags =
      sizeof(SimStateTags) / sizeof(SimStateTags[0]);
  uint64_t SimStateClass[NumSimStateTags] = {};

  for (uint64_t Run = 0; Run < Runs; ++Run) {
    uint64_t Seed = Seed0 + Run;
    removeTree(Scratch);
    exitOnError(createDirectories(Scratch));

    // Stage a pristine copy, then apply this seed's mutation to it.
    std::string Mutated;
    std::string What;
    if (IsStore) {
      Mutated = Scratch + "/pool";
      exitOnError(fault::copyTree(Artifact, Mutated));
      What = exitOnError(fault::mutateStoreChunk(Mutated, Seed));
    } else if (IsPinball) {
      Mutated = Scratch + "/pb";
      exitOnError(fault::copyTree(Artifact, Mutated));
      What = exitOnError(fault::mutatePinballDir(Mutated, Seed));
    } else if (IsSimState) {
      // Stage the ELFie pristine and mutate only its sidecar: the input
      // digest must keep matching, so any rejection is attributable to
      // the sidecar corruption alone.
      std::string Elfie = Scratch + "/a.elfie";
      auto ElfieBytes = exitOnError(MappedFile::open(SimStateElfie));
      exitOnError(writeFile(Elfie, ElfieBytes.data(), ElfieBytes.size()));
      Mutated = Elfie + SimStateSuffix;
      auto SideBytes = exitOnError(MappedFile::open(Artifact));
      exitOnError(writeFile(Mutated, SideBytes.data(), SideBytes.size()));
      What = exitOnError(fault::mutateSimStateFile(Mutated, Seed));
    } else {
      Mutated = Scratch + "/a.elfie";
      // Stage via a read-only mapping: no heap copy of the (possibly
      // large) ELFie, just page-cache -> file.
      auto Bytes = exitOnError(MappedFile::open(Artifact));
      exitOnError(writeFile(Mutated, Bytes.data(), Bytes.size()));
      What = exitOnError(fault::mutateElfFile(Mutated, Seed));
    }

    std::vector<std::vector<std::string>> Consumers;
    if (IsStore) {
      // Every consumer of the pool must fail closed on the corruption:
      // scrub reports it (without quarantining, so the later consumers
      // see the corrupt bytes too), each artifact get refuses to serve
      // them, repair from the pristine pool heals, and a final get per
      // artifact must then come back clean (benign).
      Consumers.push_back(
          {BinDir + "/estore", "scrub", Mutated, "-no-quarantine"});
      auto Names = listDirectory(Mutated + "/manifests");
      size_t Idx = 0;
      if (Names)
        for (const std::string &Name : *Names)
          Consumers.push_back({BinDir + "/estore", "get", Mutated, Name,
                               "-o",
                               formatString("%s/out.%zu", Scratch.c_str(),
                                            Idx++)});
      Consumers.push_back(
          {BinDir + "/estore", "repair", Mutated, "-from", Artifact});
      if (Names)
        for (const std::string &Name : *Names)
          Consumers.push_back({BinDir + "/estore", "get", Mutated, Name,
                               "-o",
                               formatString("%s/out.%zu", Scratch.c_str(),
                                            Idx++)});
    } else if (IsPinball) {
      Consumers.push_back(
          {BinDir + "/ereplay", "-maxinsns", "500000", Mutated});
      Consumers.push_back({BinDir + "/pinball_sysstate", "-o",
                           Scratch + "/ss", Mutated});
      Consumers.push_back({BinDir + "/pinball2elf", "-verify", "-o",
                           Scratch + "/x.elfie", Mutated});
      Consumers.push_back({BinDir + "/esim", "-config", "nehalem",
                           "-maxinsns", "500000", "-pinball", Mutated});
    } else if (IsSimState) {
      // Both consumers of a warmup checkpoint must reject the mutation:
      // the simulator's resume path and the static verifier's SIMSTATE
      // pass.
      std::string Elfie = Scratch + "/a.elfie";
      Consumers.push_back({BinDir + "/esim", "-config", "nehalem",
                           "-warmup-load", "-warmup-state", Mutated,
                           Elfie});
      Consumers.push_back(
          {BinDir + "/everify", "-simstate", Mutated, Elfie});
    } else {
      Consumers.push_back({BinDir + "/everify", Mutated});
      Consumers.push_back(
          {BinDir + "/evm", "-maxinsns", "500000", Mutated});
      Consumers.push_back({BinDir + "/esim", "-config", "nehalem",
                           "-maxinsns", "500000", Mutated});
    }

    for (const auto &Cmd : Consumers) {
      ++Invocations;
      // A hung consumer is itself the bug hunted here, so the deadline
      // SIGKILLs without a grace period.
      SpawnSpec Spec;
      Spec.Argv = Cmd;
      CommandResult O; // ExitCode -1 when the consumer could not be run
      if (auto R = runCommand(Spec, TimeoutMs))
        O = std::move(*R);
      const std::string Output = O.Stdout + O.Stderr;
      std::string Name = Cmd[0].substr(Cmd[0].rfind('/') + 1);
      if (CL.getFlag("verbose"))
        std::fprintf(stderr, "efault: seed %llu [%s] %s -> exit %d\n",
                     static_cast<unsigned long long>(Seed), What.c_str(),
                     Name.c_str(), O.Wait.ExitCode);
      if (O.TimedOut) {
        ++Hangs;
        std::fprintf(stderr,
                     "efault: FAIL seed %llu: %s hung past %us "
                     "(mutation: %s)\n",
                     static_cast<unsigned long long>(Seed), Name.c_str(),
                     CL.getInt("timeout") > 0
                         ? static_cast<unsigned>(CL.getInt("timeout"))
                         : 0u,
                     What.c_str());
      } else if (O.Wait.Signal) {
        ++Crashes;
        std::fprintf(stderr,
                     "efault: FAIL seed %llu: %s crashed with signal %d "
                     "(mutation: %s)\n",
                     static_cast<unsigned long long>(Seed), Name.c_str(),
                     O.Wait.Signal, What.c_str());
      } else if (O.Wait.ExitCode != 0) {
        if (hasStableDiagnostic(Output)) {
          ++Rejections;
          if (Output.find("EFAULT.STORE.DIGEST") != std::string::npos)
            ++StoreDigest;
          if (Output.find("EFAULT.STORE.SEAL") != std::string::npos)
            ++StoreSeal;
          if (Output.find("EFAULT.STORE.MISSING") != std::string::npos)
            ++StoreMissing;
          if (Output.find("EFAULT.STORE.MANIFEST") != std::string::npos)
            ++StoreManifest;
          for (size_t T = 0; T < NumSimStateTags; ++T)
            if (Output.find(std::string("SIMSTATE.") + SimStateTags[T]) !=
                std::string::npos)
              ++SimStateClass[T];
        } else {
          ++Uncoded;
          std::fprintf(stderr,
                       "efault: FAIL seed %llu: %s exited %d without a "
                       "stable diagnostic (mutation: %s)\n%s",
                       static_cast<unsigned long long>(Seed), Name.c_str(),
                       O.Wait.ExitCode, What.c_str(), Output.c_str());
        }
      } else {
        ++Benign; // the mutation did not reach anything this consumer checks
      }
    }
  }
  removeTree(Scratch);

  uint64_t Failures = Crashes + Hangs + Uncoded;
  if (CL.getFlag("json")) {
    JsonWriter W;
    W.beginObject();
    W.key("artifact").value(Artifact);
    W.key("kind").value(IsStore     ? "store"
                        : IsPinball ? "pinball"
                        : IsSimState ? "simstate"
                                     : "elfie");
    W.key("runs").value(Runs);
    W.key("invocations").value(Invocations);
    W.key("crashes").value(Crashes);
    W.key("hangs").value(Hangs);
    W.key("uncoded").value(Uncoded);
    W.key("rejections").value(Rejections);
    W.key("benign").value(Benign);
    W.key("store").beginObject();
    W.key("digest").value(StoreDigest);
    W.key("seal").value(StoreSeal);
    W.key("missing").value(StoreMissing);
    W.key("manifest").value(StoreManifest);
    W.endObject().key("simstate").beginObject();
    for (size_t T = 0; T < NumSimStateTags; ++T) {
      std::string Key = SimStateTags[T];
      for (char &C : Key)
        C = static_cast<char>(std::tolower(C));
      W.key(Key).value(SimStateClass[T]);
    }
    W.endObject().key("failures").value(Failures);
    std::puts(W.endObject().str().c_str());
  } else {
    std::fprintf(stderr,
                 "efault: %llu runs, %llu invocations: %llu crashes, "
                 "%llu hangs, %llu uncoded rejections, %llu coded "
                 "rejections, %llu benign\n",
                 static_cast<unsigned long long>(Runs),
                 static_cast<unsigned long long>(Invocations),
                 static_cast<unsigned long long>(Crashes),
                 static_cast<unsigned long long>(Hangs),
                 static_cast<unsigned long long>(Uncoded),
                 static_cast<unsigned long long>(Rejections),
                 static_cast<unsigned long long>(Benign));
    if (StoreDigest + StoreSeal + StoreMissing + StoreManifest)
      std::fprintf(stderr,
                   "efault: store rejections: %llu digest, %llu seal, "
                   "%llu missing, %llu manifest\n",
                   static_cast<unsigned long long>(StoreDigest),
                   static_cast<unsigned long long>(StoreSeal),
                   static_cast<unsigned long long>(StoreMissing),
                   static_cast<unsigned long long>(StoreManifest));
    uint64_t SimStateTotal = 0;
    for (size_t T = 0; T < NumSimStateTags; ++T)
      SimStateTotal += SimStateClass[T];
    if (SimStateTotal) {
      std::string Line = "efault: simstate rejections:";
      for (size_t T = 0; T < NumSimStateTags; ++T)
        if (SimStateClass[T])
          Line += formatString(
              " %llu %s",
              static_cast<unsigned long long>(SimStateClass[T]),
              SimStateTags[T]);
      std::fprintf(stderr, "%s\n", Line.c_str());
    }
  }
  return Failures ? ExitFailure : ExitSuccess;
}
