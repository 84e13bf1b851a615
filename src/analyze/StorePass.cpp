//===- analyze/StorePass.cpp - artifact store integrity -------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// STORE.*: integrity of the content-addressed artifact pool backing an
/// ELFie (DESIGN.md §15). Checks, per artifact: the manifest parses with a
/// valid seal, every referenced chunk is present and re-hashes to its
/// digest, the verified chunk list roots to the manifest's root, and —
/// when everify was pointed at a concrete file — that file has the pool
/// artifact's identity (store::artifactRoot). Corruption shows up as
/// error findings carrying the same EFAULT.STORE.* taxonomy the runtime
/// tools reject with, so a pool that everify passes is a pool every
/// consumer will accept.
///
//===----------------------------------------------------------------------===//

#include "analyze/Passes.h"

#include "store/Artifact.h"
#include "support/FileIO.h"
#include "support/Format.h"

using namespace elfie;
using namespace elfie::analyze;

namespace {

/// Maps a runtime EFAULT.STORE.* code onto its finding code; the seal
/// guards the manifest, and anything else is a content mismatch.
const char *findingCodeFor(const std::string &ErrCode) {
  if (ErrCode == "EFAULT.STORE.MISSING")
    return "STORE.MISSING";
  if (ErrCode == "EFAULT.STORE.MANIFEST" || ErrCode == "EFAULT.STORE.SEAL")
    return "STORE.MANIFEST";
  return "STORE.DIGEST";
}

class StorePass : public Pass {
public:
  const char *name() const override { return "store"; }
  const char *description() const override {
    return "artifact pool manifests parse, chunks verify, artifacts "
           "reassemble to their recorded roots";
  }

  bool applicable(const AnalysisInput &In, std::string &WhyNot) const override {
    if (In.StoreRoot.empty()) {
      WhyNot = "no artifact pool given (-store)";
      return false;
    }
    return true;
  }

  void run(const AnalysisInput &In, Report &Out) const override {
    if (!store::isStoreRoot(In.StoreRoot)) {
      Out.add(Severity::Error, "STORE.ROOT", 0,
              formatString("'%s' is not an estore pool (no estore.meta)",
                           In.StoreRoot.c_str()));
      return;
    }
    auto Pool = store::ChunkStore::open(In.StoreRoot, /*Create=*/false);
    if (!Pool) {
      Out.add(Severity::Error, "STORE.ROOT", 0, Pool.message());
      return;
    }

    std::vector<std::string> Names;
    if (!In.StoreName.empty()) {
      Names.push_back(In.StoreName);
    } else {
      auto All = Pool->listManifests();
      if (!All) {
        Out.add(Severity::Error, "STORE.ROOT", 0, All.message());
        return;
      }
      Names = std::move(*All);
    }

    unsigned Checked = 0, Bad = 0;
    for (const std::string &Name : Names) {
      auto M = Pool->getManifest(Name);
      if (!M) {
        Out.add(Severity::Error, "STORE.MANIFEST", 0,
                formatString("artifact '%s': %s", Name.c_str(),
                             M.message().c_str()));
        ++Bad;
        continue;
      }
      ++Checked;
      // Per-chunk presence and digest, then the root over the verified
      // chunk list; loadArtifact performs all of it with the runtime's own
      // verification path, so the pass cannot be more lenient than the
      // consumers it vouches for.
      auto Bytes = store::loadArtifact(*Pool, *M);
      if (!Bytes) {
        Out.add(Severity::Error, findingCodeFor(Bytes.error().code()), 0,
                formatString("artifact '%s': %s", Name.c_str(),
                             Bytes.message().c_str()));
        ++Bad;
        continue;
      }
      // Cross-check against the file actually being verified.
      if (Name == In.StoreName && !In.ArtifactPath.empty()) {
        auto OnDisk = readFileBytes(In.ArtifactPath);
        if (!OnDisk) {
          Out.add(Severity::Warning, "STORE.MISMATCH", 0,
                  formatString("cannot read '%s' to cross-check: %s",
                               In.ArtifactPath.c_str(),
                               OnDisk.message().c_str()));
        } else if (auto Root = store::artifactRoot(*OnDisk);
                   Root != M->Root) {
          Out.add(Severity::Error, "STORE.MISMATCH", 0,
                  formatString("'%s' is not byte-identical with pool "
                               "artifact '%s' (file root %s, pool root %s)",
                               In.ArtifactPath.c_str(), Name.c_str(),
                               Root.hex().c_str(), M->Root.hex().c_str()));
          ++Bad;
        }
      }
    }
    Out.add(Severity::Note, "STORE.SUMMARY", 0,
            formatString("%u artifacts verified end-to-end, %u bad, pool "
                         "'%s'",
                         Checked, Bad, In.StoreRoot.c_str()));
  }
};

} // namespace

std::unique_ptr<Pass> analyze::makeStorePass() {
  return std::make_unique<StorePass>();
}
