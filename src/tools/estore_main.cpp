//===- tools/estore_main.cpp - the estore pool driver ---------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// estore <cmd> <pool-root> [...]: operate the content-addressed artifact
// pool. Commands:
//
//   put <root> <file>        ingest a file (chunk + dedup + manifest)
//   get <root> <name> -o F   reassemble an artifact, digest-verified
//   ls <root>                list artifacts
//   scrub <root>             re-hash every chunk; quarantine corruption
//   repair <root> -from R    re-fetch bad/missing chunks from replicas
//   gc <root>                journaled mark-and-sweep of unreferenced chunks
//   stats <root>             pool accounting incl. the dedup ratio
//
// Exit codes follow the repo convention: 0 ok, 1 findings/errors, 2 usage.
// scrub exits 1 when it found corruption, repair exits 1 when a chunk
// stayed unrepairable -- so CI can gate on a clean pool.
//
//===----------------------------------------------------------------------===//

#include "fault/FaultPlan.h"
#include "store/Artifact.h"
#include "support/CommandLine.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/MappedFile.h"

#include <cstdio>

using namespace elfie;
using namespace elfie::store;

static int cmdPut(ChunkStore &Pool, const CommandLine &CL) {
  const std::string &File = CL.positional()[2];
  std::string Name = CL.getString("name");
  if (Name.empty()) {
    size_t Slash = File.rfind('/');
    Name = Slash == std::string::npos ? File : File.substr(Slash + 1);
  }
  MappedFile In = exitOnError(MappedFile::open(File));
  uint64_t NewBytes = 0;
  Manifest M =
      exitOnError(putArtifact(Pool, Name, In.span(), File, &NewBytes));
  if (CL.getFlag("json")) {
    JsonWriter W;
    W.beginObject();
    W.key("artifact").value(Name);
    W.key("kind").value(M.Kind);
    W.key("size").value(M.Size);
    W.key("root").value(M.Root.hex());
    W.key("chunks").value(M.Chunks.size());
    W.key("new_bytes").value(NewBytes);
    std::puts(W.endObject().str().c_str());
  } else {
    std::printf("estore: put '%s' (%s, %llu bytes, %zu chunks, %llu new "
                "pool bytes, root %s)\n",
                Name.c_str(), M.Kind.c_str(),
                static_cast<unsigned long long>(M.Size), M.Chunks.size(),
                static_cast<unsigned long long>(NewBytes),
                M.Root.hex().c_str());
  }
  return ExitSuccess;
}

static int cmdGet(ChunkStore &Pool, const CommandLine &CL) {
  const std::string &Name = CL.positional()[2];
  std::string Out = CL.getString("o");
  if (Out.empty())
    Out = Name;
  exitOnError(materializeArtifact(Pool, Name, Out));
  Manifest M = exitOnError(Pool.getManifest(Name));
  std::fprintf(stderr,
               "estore: get '%s' -> %s (%llu bytes, verified root %s)\n",
               Name.c_str(), Out.c_str(),
               static_cast<unsigned long long>(M.Size),
               M.Root.hex().c_str());
  return ExitSuccess;
}

static int cmdLs(ChunkStore &Pool, const CommandLine &CL) {
  auto Names = exitOnError(Pool.listManifests());
  JsonWriter W;
  W.beginArray();
  for (const std::string &Name : Names) {
    auto M = Pool.getManifest(Name);
    if (CL.getFlag("json")) {
      W.beginObject().key("artifact").value(Name);
      if (!M) {
        W.key("error").value("unreadable");
      } else {
        W.key("kind").value(M->Kind);
        W.key("size").value(M->Size);
        W.key("chunks").value(M->Chunks.size());
        W.key("root").value(M->Root.hex());
      }
      W.endObject();
      continue;
    }
    if (!M)
      std::printf("%-32s  <unreadable: %s>\n", Name.c_str(),
                  M.message().c_str());
    else
      std::printf("%-32s  %-4s %10llu bytes  %4zu chunks  %s\n",
                  Name.c_str(), M->Kind.c_str(),
                  static_cast<unsigned long long>(M->Size),
                  M->Chunks.size(), M->Root.hex().c_str());
  }
  if (CL.getFlag("json"))
    std::puts(W.endArray().str().c_str());
  return ExitSuccess;
}

static int cmdScrub(ChunkStore &Pool, const CommandLine &CL) {
  bool Quarantine = !CL.getFlag("no-quarantine");
  ScrubResult R = exitOnError(Pool.scrub(Quarantine));
  if (CL.getFlag("json")) {
    JsonWriter W;
    W.beginObject();
    W.key("chunks_scanned").value(R.ChunksScanned);
    W.key("bytes_scanned").value(R.BytesScanned);
    W.key("corrupt").beginArray();
    for (const ScrubFinding &F : R.Corrupt) {
      W.beginObject();
      W.key("expected").value(F.Expected.hex());
      W.key("actual").value(F.Actual);
      W.key("quarantined").value(F.Quarantined);
      W.key("manifests").beginArray();
      for (const std::string &Name : F.ReferencingManifests)
        W.value(Name);
      W.endArray().endObject();
    }
    W.endArray().key("missing_refs").beginArray();
    for (const std::string &Hex : R.MissingRefs)
      W.value(Hex);
    std::puts(W.endArray().endObject().str().c_str());
  } else {
    std::printf("estore: scrubbed %llu chunks (%llu bytes): %zu corrupt, "
                "%zu missing references\n",
                static_cast<unsigned long long>(R.ChunksScanned),
                static_cast<unsigned long long>(R.BytesScanned),
                R.Corrupt.size(), R.MissingRefs.size());
    for (const ScrubFinding &F : R.Corrupt)
      std::printf("  EFAULT.STORE.DIGEST %s: %s%s\n",
                  F.Expected.hex().c_str(), F.Detail.c_str(),
                  F.Quarantined ? " [quarantined]" : "");
    for (const std::string &Hex : R.MissingRefs)
      std::printf("  EFAULT.STORE.MISSING %s (referenced by a manifest)\n",
                  Hex.c_str());
  }
  return (R.Corrupt.empty() && R.MissingRefs.empty()) ? ExitSuccess
                                                      : ExitFailure;
}

static int cmdRepair(ChunkStore &Pool, const CommandLine &CL) {
  std::vector<std::string> Replicas;
  for (const std::string &R : splitString(CL.getString("from"), ','))
    if (!R.empty())
      Replicas.push_back(R);
  if (Replicas.empty()) {
    std::fprintf(stderr, "estore repair: -from <replica-root[,...]> is "
                         "required\n");
    return ExitUsage;
  }
  RepairResult R = exitOnError(Pool.repair(Replicas));
  if (CL.getFlag("json")) {
    JsonWriter W;
    W.beginObject();
    W.key("restored").value(R.Restored);
    W.key("unrepairable").value(R.Unrepairable);
    W.key("unrepairable_digests").beginArray();
    for (const std::string &Hex : R.UnrepairableDigests)
      W.value(Hex);
    std::puts(W.endArray().endObject().str().c_str());
  } else {
    std::printf("estore: repair restored %llu chunks, %llu unrepairable\n",
                static_cast<unsigned long long>(R.Restored),
                static_cast<unsigned long long>(R.Unrepairable));
    for (const std::string &Hex : R.UnrepairableDigests)
      std::printf("  unrepairable %s (no replica had a good copy)\n",
                  Hex.c_str());
  }
  return R.Unrepairable == 0 ? ExitSuccess : ExitFailure;
}

static int cmdGc(ChunkStore &Pool, const CommandLine &CL) {
  GcResult R = exitOnError(Pool.gc());
  if (CL.getFlag("json")) {
    JsonWriter W;
    W.beginObject();
    W.key("live").value(R.Live);
    W.key("swept").value(R.Swept);
    W.key("swept_bytes").value(R.SweptBytes);
    W.key("restored").value(R.Restored);
    W.key("recovered_torn_gc").value(R.RecoveredTornGc);
    std::puts(W.endObject().str().c_str());
  } else {
    std::printf("estore: gc kept %llu live chunks, swept %llu (%llu "
                "bytes)%s\n",
                static_cast<unsigned long long>(R.Live),
                static_cast<unsigned long long>(R.Swept),
                static_cast<unsigned long long>(R.SweptBytes),
                R.RecoveredTornGc
                    ? formatString(" [recovered torn gc: %llu restored]",
                                   static_cast<unsigned long long>(
                                       R.Restored))
                          .c_str()
                    : "");
  }
  return ExitSuccess;
}

static int cmdStats(ChunkStore &Pool, const CommandLine &CL) {
  StoreStats S = exitOnError(Pool.stats());
  double Ratio = S.ChunkBytes
                     ? static_cast<double>(S.ArtifactBytes) /
                           static_cast<double>(S.ChunkBytes)
                     : 0.0;
  if (CL.getFlag("json")) {
    JsonWriter W;
    W.beginObject();
    W.key("chunks").value(S.Chunks);
    W.key("chunk_bytes").value(S.ChunkBytes);
    W.key("manifests").value(S.Manifests);
    W.key("artifact_bytes").value(S.ArtifactBytes);
    W.key("dedup_ratio").value(Ratio, 3);
    W.key("quarantined").value(S.Quarantined);
    W.key("active_pins").value(S.ActivePins);
    std::puts(W.endObject().str().c_str());
  } else {
    std::printf("estore: %llu chunks / %llu bytes serving %llu artifacts "
                "/ %llu bytes (dedup ratio %.2fx), %llu quarantined, "
                "%llu active pins\n",
                static_cast<unsigned long long>(S.Chunks),
                static_cast<unsigned long long>(S.ChunkBytes),
                static_cast<unsigned long long>(S.Manifests),
                static_cast<unsigned long long>(S.ArtifactBytes), Ratio,
                static_cast<unsigned long long>(S.Quarantined),
                static_cast<unsigned long long>(S.ActivePins));
  }
  return ExitSuccess;
}

int main(int Argc, char **Argv) {
  fault::installFaultHookFromEnv();
  CommandLine CL("estore",
                 "operate the integrity-verified content-addressed "
                 "artifact pool (put/get/ls/scrub/repair/gc/stats)");
  CL.addString("o", "", "get: output path (default: artifact name)");
  CL.addString("name", "", "put: artifact name (default: file basename)");
  CL.addString("from", "",
               "repair: comma-separated replica pool roots, tried in "
               "order");
  CL.addFlag("no-quarantine", false,
             "scrub: report corruption but leave chunks in place");
  CL.addFlag("json", false, "machine-readable output");
  exitOnError(CL.parse(Argc, Argv));

  const auto &Pos = CL.positional();
  auto Usage = [] {
    std::fprintf(stderr,
                 "usage: estore <put|get|ls|scrub|repair|gc|stats> "
                 "<pool-root> [args] [options]\n");
    return ExitUsage;
  };
  if (Pos.size() < 2)
    return Usage();
  const std::string &Cmd = Pos[0];
  const std::string &Root = Pos[1];

  // `put` creates the pool on first use; everything else requires one.
  bool Create = Cmd == "put";
  ChunkStore Pool = exitOnError(ChunkStore::open(Root, Create));

  if (Cmd == "put" && Pos.size() == 3)
    return cmdPut(Pool, CL);
  if (Cmd == "get" && Pos.size() == 3)
    return cmdGet(Pool, CL);
  if (Cmd == "ls" && Pos.size() == 2)
    return cmdLs(Pool, CL);
  if (Cmd == "scrub" && Pos.size() == 2)
    return cmdScrub(Pool, CL);
  if (Cmd == "repair" && Pos.size() == 2)
    return cmdRepair(Pool, CL);
  if (Cmd == "gc" && Pos.size() == 2)
    return cmdGc(Pool, CL);
  if (Cmd == "stats" && Pos.size() == 2)
    return cmdStats(Pool, CL);
  return Usage();
}
