//===- tools/pinball2elf_main.cpp - the pinball2elf driver ----------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analyze/Passes.h"
#include "core/Pinball2Elf.h"
#include "elf/ELFReader.h"
#include "fault/FaultPlan.h"
#include "sim/SimState.h"
#include "store/Artifact.h"
#include "support/CommandLine.h"
#include "support/Format.h"

#include <cstdio>

using namespace elfie;

int main(int Argc, char **Argv) {
  fault::installFaultHookFromEnv();
  CommandLine CL("pinball2elf",
                 "converts a fat pinball into a stand-alone ELFie "
                 "executable (native x86-64 or guest EG64)");
  CL.addString("target", "native", "'native' (x86-64) or 'guest' (EG64)");
  CL.addString("o", "region.elfie", "output executable");
  CL.addFlag("icount", true,
             "embed the graceful-exit instruction countdown");
  CL.addFlag("perfle", false,
             "report retired instructions + cycles per thread at exit");
  CL.addFlag("verbose", false, "elfie_on_start banner");
  CL.addFlag("sysstate", false,
             "embed FD_<n> descriptor preopens (run the ELFie inside the "
             "sysstate workdir)");
  CL.addString("roi-start", "ssc:1",
               "ROI marker: [sniper|ssc|simics]:TAG, or 'none'");
  CL.addFlag("layout", false, "print the linker-script-style layout and "
                              "exit");
  CL.addInt("watchdog", 0,
            "native ELFie alarm(2) watchdog seconds (0 scales from the "
            "region budget)");
  CL.addInt("warmup", 0,
            "embed an elfie_warmup_length symbol: simulators warm over "
            "the first N post-marker instructions (must be below the "
            "region budget)");
  CL.addFlag("verify", false,
             "run the everify static-analysis passes on the emitted file "
             "and fail on error-severity findings");
  CL.addString("store", "",
               "emit through the estore pool at this root: the image is "
               "chunked and deduplicated into the pool, then the -o file "
               "is reassembled from it digest-verified (byte-identical "
               "with direct emission)");
  CL.addString("store-name", "",
               "artifact name in the pool (default: basename of -o)");
  exitOnError(CL.parse(Argc, Argv));
  if (CL.positional().size() != 1) {
    std::fprintf(stderr, "usage: pinball2elf [options] pinball-dir\n");
    return ExitUsage;
  }

  pinball::Pinball PB =
      exitOnError(pinball::Pinball::load(CL.positional()[0]));

  core::Pinball2ElfOptions Opts;
  if (CL.getString("target") == "guest")
    Opts.TargetKind = core::Pinball2ElfOptions::Target::Guest;
  else if (CL.getString("target") == "object")
    Opts.TargetKind = core::Pinball2ElfOptions::Target::Object;
  else if (CL.getString("target") != "native")
    exitOnError(makeError("unknown target '%s'",
                          CL.getString("target").c_str()));
  Opts.EmitICountChecks = CL.getFlag("icount");
  Opts.Perfle = CL.getFlag("perfle");
  Opts.Verbose = CL.getFlag("verbose");
  Opts.EmbedSysstate = CL.getFlag("sysstate");
  if (CL.getInt("watchdog") > 0)
    Opts.WatchdogSecs = static_cast<uint64_t>(CL.getInt("watchdog"));
  if (CL.getInt("warmup") > 0) {
    Opts.WarmupLength = static_cast<uint64_t>(CL.getInt("warmup"));
    exitOnError(
        sim::checkWarmupBudget(Opts.WarmupLength, PB.Meta.RegionLength));
  }

  std::string Roi = CL.getString("roi-start");
  if (Roi == "none") {
    Opts.EmitMarkers = false;
  } else {
    auto Parts = splitString(Roi, ':');
    std::string Kind = Parts.size() == 2 ? Parts[0] : "ssc";
    std::string TagText = Parts.size() == 2 ? Parts[1] : Parts[0];
    if (Kind == "sniper")
      Opts.MarkerType = isa::MarkerKind::Sniper;
    else if (Kind == "ssc")
      Opts.MarkerType = isa::MarkerKind::SSC;
    else if (Kind == "simics")
      Opts.MarkerType = isa::MarkerKind::Simics;
    else
      exitOnError(makeError("unknown marker type '%s'", Kind.c_str()));
    int64_t Tag;
    if (!parseInt64(TagText, Tag))
      exitOnError(makeError("bad marker tag '%s'", TagText.c_str()));
    Opts.MarkerTag = static_cast<int32_t>(Tag);
  }

  if (CL.getFlag("layout")) {
    std::fputs(core::describeLayout(PB, Opts).c_str(), stdout);
    return 0;
  }

  if (!CL.getString("store").empty()) {
    // Store-backed emission: the image goes through the content-addressed
    // pool (dedup against earlier regions) and the -o file is reassembled
    // from pool chunks, every byte digest-verified on the way out.
    std::vector<uint8_t> Image =
        exitOnError(core::pinballToElf(PB, Opts));
    store::ChunkStore Pool =
        exitOnError(store::ChunkStore::open(CL.getString("store")));
    std::string Name = CL.getString("store-name");
    if (Name.empty()) {
      const std::string &Out = CL.getString("o");
      size_t Slash = Out.rfind('/');
      Name = Slash == std::string::npos ? Out : Out.substr(Slash + 1);
    }
    store::Manifest M = exitOnError(
        store::putArtifact(Pool, Name, Image, CL.positional()[0]));
    exitOnError(store::materializeArtifact(Pool, Name, CL.getString("o")));
    std::fprintf(
        stderr,
        "pinball2elf: %s -> %s via estore %s (artifact '%s', %zu chunks, "
        "root %s)\n",
        CL.positional()[0].c_str(), CL.getString("o").c_str(),
        CL.getString("store").c_str(), Name.c_str(), M.Chunks.size(),
        M.Root.hex().c_str());
  } else {
    exitOnError(core::pinballToElfFile(PB, Opts, CL.getString("o")));
  }
  std::fprintf(stderr,
               "pinball2elf: %s -> %s (%s, %zu threads, region %llu)\n",
               CL.positional()[0].c_str(), CL.getString("o").c_str(),
               CL.getString("target").c_str(), PB.Threads.size(),
               static_cast<unsigned long long>(PB.Meta.RegionLength));

  // Post-emit self-check: re-read the file we just wrote and run the
  // everify passes against the pinball it was built from.
  if (CL.getFlag("verify")) {
    elf::ELFReader Elf =
        exitOnError(elf::ELFReader::open(CL.getString("o")));
    analyze::AnalysisInput In;
    In.Elf = &Elf;
    In.PB = &PB;
    In.Kind = analyze::AnalysisInput::classify(Elf);
    In.ExpectMarkers = Opts.EmitMarkers ? 1 : 0;
    analyze::PassManager PM;
    analyze::addStandardPasses(PM);
    analyze::Report Report;
    PM.runAll(In, Report);
    std::fputs(Report.renderText().c_str(), stderr);
    if (Report.errorCount()) {
      std::fprintf(stderr, "pinball2elf: -verify failed on %s\n",
                   CL.getString("o").c_str());
      return 1;
    }
  }
  return 0;
}
