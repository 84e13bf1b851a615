//===- tests/tools/ToolsTest.cpp - CLI pipeline integration ---------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Drives the installed command-line tools (easm, evm, elogger, ereplay,
/// pinball_sysstate, pinball2elf, everify, esimpoint, esim, eworkload,
/// edisasm)
/// through the full Fig. 1 pipeline as subprocesses — the way a downstream
/// user would.
///
//===----------------------------------------------------------------------===//

#include "../common/TestHelpers.h"
#include "sim/SimState.h"
#include "store/Artifact.h"
#include "support/FileIO.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace elfie;

#ifndef ELFIE_BIN_DIR
#define ELFIE_BIN_DIR ""
#endif

namespace {

using test::CmdResult;

CmdResult runToolEnv(const std::string &Env, const std::string &CmdLine) {
  return test::runCmd(Env, std::string(ELFIE_BIN_DIR) + "/" + CmdLine);
}

CmdResult runTool(const std::string &CmdLine) {
  return runToolEnv("", CmdLine);
}

/// Rewrites a one-core nehalem sidecar in the older layout that also
/// checkpointed state warming never changes: a "stats" component (payload
/// version 1, a fresh model's SimStats) ahead of the cores, and each core
/// payload at version 2 with three more fields (SinceTimer, KernelCursor,
/// InKernel; zero) past its fetch line. Sealed.
void toLayoutWithStats(std::vector<uint8_t> &B) {
  BinaryReader R(B.data(), B.size() - 32);
  R.skip(12); // magic, format version
  R.readString();
  R.skip(32 + 32 + 3 * 8); // fingerprint, input digest, three counts
  BinaryWriter W;
  W.writeRaw(B.data(), R.offset());
  uint32_t Count = R.readU32();
  W.writeU32(Count + 1);
  sim::TimingModel Fresh(sim::makeNehalemLike());
  BinaryWriter Stats;
  sim::StateWriter SW(Stats);
  Fresh.stats().save(SW);
  W.writeString("stats");
  W.writeU32(1);
  W.writeBlob(Stats.bytes().data(), Stats.size());
  for (uint32_t I = 0; I < Count; ++I) {
    std::string Id = R.readString();
    uint32_t Version = R.readU32();
    std::span<const uint8_t> Payload = R.readBlobView();
    std::vector<uint8_t> P(Payload.begin(), Payload.end());
    if (Id.starts_with("core")) {
      Version = 2;
      P.resize(P.size() + 8 + 8 + 1);
    }
    W.writeString(Id);
    W.writeU32(Version);
    W.writeBlob(P.data(), P.size());
  }
  ASSERT_FALSE(R.hadError());
  ASSERT_TRUE(R.atEnd());
  W.writeRaw(B.data() + B.size() - 32, 32);
  B = W.bytes();
  test::resealSidecar(B);
}

class ToolPipeline : public testing::Test {
protected:
  void SetUp() override {
    // Unique per test: ctest runs the cases as parallel processes, and a
    // shared scratch directory makes them stomp each other's artifacts.
    Dir = testing::TempDir() + "/elfie_tools_" +
          testing::UnitTest::GetInstance()->current_test_info()->name();
    removeTree(Dir);
    createDirectories(Dir);
  }
  void TearDown() override { removeTree(Dir); }

  /// Stages Dir/r.pb, a 60 K-instruction region of a 180 K-instruction
  /// loop.
  void stagePinball() {
    std::string Src = R"(
_start:
  ldi r9, 0
loop:
  addi r9, r9, 1
  slti r3, r9, 60000
  bnez r3, loop
  ldi r7, 1
  ldi r1, 0
  syscall
)";
    ASSERT_FALSE(writeFileText(Dir + "/p.s", Src).isError());
    auto R = runTool(formatString("easm -o %s/p.elf %s/p.s", Dir.c_str(),
                                  Dir.c_str()));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;
    R = runTool(formatString("elogger -region:start 30000 -region:length "
                             "60000 -log:fat 1 -o %s/r.pb %s/p.elf",
                             Dir.c_str(), Dir.c_str()));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;
  }

  /// Stages Dir/g.elfie, a guest ELFie of stagePinball's region, and its
  /// warm-up sidecar Dir/g.elfie.esimstate.
  void stageSidecar() {
    ASSERT_NO_FATAL_FAILURE(stagePinball());
    auto R = runTool(formatString(
        "pinball2elf -target guest -o %s/g.elfie %s/r.pb", Dir.c_str(),
        Dir.c_str()));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;
    R = runTool(formatString(
        "esim -config nehalem -warmup 15000 -warmup-save %s/g.elfie",
        Dir.c_str()));
    ASSERT_EQ(R.ExitCode, 0) << R.Output;
  }

  std::string Dir;
};

TEST_F(ToolPipeline, FullFigure1Flow) {
  // easm: assemble a program.
  std::string Src = R"(
_start:
  ldi r9, 0
loop:
  muli r2, r2, 13
  addi r2, r2, 7
  addi r9, r9, 1
  slti r3, r9, 50000
  bnez r3, loop
  la  r2, msg
  ldi r7, 2
  ldi r1, 1
  ldi r3, 3
  syscall
  ldi r7, 1
  ldi r1, 0
  syscall
  .data
msg: .ascii "ok\n"
)";
  ASSERT_FALSE(writeFileText(Dir + "/p.s", Src).isError());
  auto R = runTool(formatString("easm -o %s/p.elf %s/p.s", Dir.c_str(),
                                Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;

  // edisasm: readable disassembly.
  R = runTool(formatString("edisasm %s/p.elf", Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("muli r2, r2, 13"), std::string::npos);

  // evm: run it.
  R = runTool(formatString("evm -stats %s/p.elf", Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("ok"), std::string::npos);
  EXPECT_NE(R.Output.find("retired"), std::string::npos);

  // elogger: capture a fat pinball.
  R = runTool(formatString("elogger -region:start 50000 -region:length "
                           "100000 -log:fat 1 -o %s/r.pb %s/p.elf",
                           Dir.c_str(), Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_TRUE(fileExists(Dir + "/r.pb/meta"));
  EXPECT_TRUE(fileExists(Dir + "/r.pb/t0.reg"));

  // ereplay: constrained + injection-less replay.
  R = runTool(formatString("ereplay %s/r.pb", Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("retired 100000"), std::string::npos);
  R = runTool(
      formatString("ereplay -replay:injection 0 %s/r.pb", Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;

  // pinball_sysstate: OS-state reconstruction.
  R = runTool(formatString("pinball_sysstate %s/r.pb", Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_TRUE(fileExists(Dir + "/r.pb.sysstate/BRK.log"));

  // pinball2elf: layout dump, then both targets with the -verify
  // self-check enabled.
  R = runTool(formatString("pinball2elf -layout %s/r.pb", Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("SECTIONS"), std::string::npos);
  R = runTool(formatString(
      "pinball2elf -perfle 1 -verify -o %s/r.elfie %s/r.pb", Dir.c_str(),
      Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("0 error(s)"), std::string::npos);
  R = runTool(formatString(
      "pinball2elf -target guest -verify -o %s/r.gelfie %s/r.pb",
      Dir.c_str(), Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("0 error(s)"), std::string::npos);

  // everify: the standalone verifier agrees, in text and in JSON.
  R = runTool(formatString("everify -pinball %s/r.pb %s/r.elfie",
                           Dir.c_str(), Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("native ELFie"), std::string::npos);
  EXPECT_NE(R.Output.find("0 error(s)"), std::string::npos);
  R = runTool(formatString(
      "everify -json -markers 1 -pinball %s/r.pb %s/r.gelfie", Dir.c_str(),
      Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("\"errors\":0"), std::string::npos);
  EXPECT_NE(R.Output.find("\"findings\":"), std::string::npos);

  // ecfg: static CFG + dataflow report over the same artifacts. The
  // captured region is clean (zero CODE.* errors); the region ends
  // mid-loop before the write executes, so the statically-reachable
  // file-io syscall is reported as unprovisioned — a warning.
  R = runTool(formatString("ecfg %s/r.pb", Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("0 error(s)"), std::string::npos);
  R = runTool(formatString("ecfg -json -pinball %s/r.pb %s/r.elfie",
                           Dir.c_str(), Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("\"schema\":1"), std::string::npos);
  EXPECT_NE(R.Output.find("\"errors\":0"), std::string::npos);
  EXPECT_NE(R.Output.find("\"provisioning_known\":true"),
            std::string::npos);
  EXPECT_NE(R.Output.find("\"unprovisioned\":[\"file-io\"]"),
            std::string::npos);
  R = runTool(formatString("ecfg -dot %s/r.gelfie", Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("digraph cfg {"), std::string::npos);

  // The native ELFie runs on the hardware and reports its budget.
  {
    CmdResult Native = test::runCmd("", Dir + "/r.elfie");
    EXPECT_EQ(Native.ExitCode, 0) << Native.Output;
    EXPECT_NE(Native.Output.find("retired 100000"), std::string::npos)
        << Native.Output;
  }

  // evm consumes the guest ELFie (auto raw-entry), esim simulates it.
  R = runTool(
      formatString("evm -stats -maxinsns 100000 %s/r.gelfie", Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  R = runTool(
      formatString("esim -config nehalem %s/r.gelfie", Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("recognized as an ELFie"), std::string::npos);
  EXPECT_NE(R.Output.find("IPC"), std::string::npos);

  // esim pinball front-end.
  R = runTool(formatString("esim -config nehalem -pinball %s/r.pb",
                           Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;

  // esimpoint region selection on the original program.
  R = runTool(formatString(
      "esimpoint -slicesize 20000 -maxk 5 %s/p.elf", Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("regions from"), std::string::npos);
}

TEST_F(ToolPipeline, WorkloadTool) {
  auto R = runTool("eworkload -list");
  ASSERT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("gcc_like"), std::string::npos);
  EXPECT_NE(R.Output.find("omp_speed"), std::string::npos);

  R = runTool(formatString("eworkload -input test -o %s/w.elf xz_like",
                           Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  R = runTool(formatString("evm %s/w.elf", Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
}

TEST_F(ToolPipeline, ErrorPaths) {
  auto R = runTool("evm /nonexistent/file.elf");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("EFAULT."), std::string::npos) << R.Output;
  R = runTool("ereplay /nonexistent/pinball");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("EFAULT."), std::string::npos) << R.Output;
  R = runTool(formatString("pinball2elf -target bogus %s", Dir.c_str()));
  EXPECT_NE(R.ExitCode, 0);
  R = runTool("everify /nonexistent/file.elfie");
  EXPECT_EQ(R.ExitCode, 1);
  R = runTool("ecfg /nonexistent/file.elfie");
  EXPECT_EQ(R.ExitCode, 1);
  R = runTool("esim -config unknown-config whatever");
  EXPECT_NE(R.ExitCode, 0);

  // The documented exit-code contract: 2 = usage, everywhere.
  for (const char *Usage :
       {"everify", "evm", "ereplay", "elogger", "pinball2elf",
        "pinball_sysstate", "esim", "easm", "efault", "ecfg"}) {
    R = runTool(Usage);
    EXPECT_EQ(R.ExitCode, 2) << Usage << ": " << R.Output;
  }
}

TEST_F(ToolPipeline, FaultInjectionAndFailClosedPipeline) {
  // Build a small pinball to corrupt.
  std::string Src = R"(
_start:
  ldi r9, 0
loop:
  addi r9, r9, 1
  slti r3, r9, 30000
  bnez r3, loop
  ldi r7, 1
  ldi r1, 0
  syscall
)";
  ASSERT_FALSE(writeFileText(Dir + "/p.s", Src).isError());
  auto R = runTool(formatString("easm -o %s/p.elf %s/p.s", Dir.c_str(),
                                Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  R = runTool(formatString("elogger -region:start 5000 -region:length "
                           "20000 -log:fat 1 -o %s/r.pb %s/p.elf",
                           Dir.c_str(), Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;

  // ELFIE_FAULT_SPEC kill: a logger killed mid-write must leave nothing
  // at the destination (the staged save never published).
  R = runToolEnv("ELFIE_FAULT_SPEC=write:3:kill",
                 formatString("elogger -region:start 5000 -region:length "
                              "20000 -log:fat 1 -o %s/k.pb %s/p.elf",
                              Dir.c_str(), Dir.c_str()));
  EXPECT_EQ(R.ExitCode, 97) << R.Output;
  EXPECT_FALSE(fileExists(Dir + "/k.pb/meta"));

  // ELFIE_FAULT_SPEC enospc: a failed write surfaces as a coded error.
  R = runToolEnv("ELFIE_FAULT_SPEC=write:1:enospc",
                 formatString("elogger -region:start 5000 -region:length "
                              "20000 -log:fat 1 -o %s/e.pb %s/p.elf",
                              Dir.c_str(), Dir.c_str()));
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("EFAULT.IO.WRITE"), std::string::npos)
      << R.Output;
  EXPECT_FALSE(fileExists(Dir + "/e.pb/meta"));

  // A malformed spec is a usage error, not a silent no-op.
  R = runToolEnv("ELFIE_FAULT_SPEC=write:1:melt",
                 formatString("elogger -o %s/x.pb %s/p.elf", Dir.c_str(),
                              Dir.c_str()));
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("EFAULT.SPEC.KIND"), std::string::npos)
      << R.Output;

  // efault drives seeded corruptions through every consumer and reports
  // a fail-closed verdict in JSON.
  R = runTool(formatString("efault -runs 6 -seed 11 -json -scratch "
                           "%s/scratch %s/r.pb",
                           Dir.c_str(), Dir.c_str()));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("\"crashes\":0"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("\"hangs\":0"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("\"failures\":0"), std::string::npos)
      << R.Output;

  // And against an emitted ELFie.
  R = runTool(formatString("pinball2elf -o %s/r.elfie %s/r.pb",
                           Dir.c_str(), Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  R = runTool(formatString("efault -runs 6 -seed 21 -json -scratch "
                           "%s/scratch %s/r.elfie",
                           Dir.c_str(), Dir.c_str()));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("\"failures\":0"), std::string::npos)
      << R.Output;
}

/// Extracts the line of \p Out containing \p Key ("" when absent).
static std::string lineWith(const std::string &Out, const std::string &Key) {
  size_t P = Out.find(Key);
  if (P == std::string::npos)
    return std::string();
  size_t B = Out.rfind('\n', P);
  B = (B == std::string::npos) ? 0 : B + 1;
  size_t E = Out.find('\n', P);
  return Out.substr(B, E == std::string::npos ? Out.size() - B : E - B);
}

TEST_F(ToolPipeline, WarmupCheckpointCliFlow) {
  // Stage a guest ELFie through the normal pipeline.
  std::string Src = R"(
_start:
  ldi r9, 0
loop:
  muli r2, r2, 13
  addi r2, r2, 7
  addi r9, r9, 1
  slti r3, r9, 60000
  bnez r3, loop
  ldi r7, 1
  ldi r1, 0
  syscall
)";
  ASSERT_FALSE(writeFileText(Dir + "/p.s", Src).isError());
  auto R = runTool(formatString("easm -o %s/p.elf %s/p.s", Dir.c_str(),
                                Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  R = runTool(formatString("elogger -region:start 50000 -region:length "
                           "100000 -log:fat 1 -o %s/r.pb %s/p.elf",
                           Dir.c_str(), Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  R = runTool(formatString(
      "pinball2elf -target guest -o %s/r.gelfie %s/r.pb", Dir.c_str(),
      Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;

  // -warmup-save and -warmup-load are mutually exclusive: usage error.
  R = runTool(formatString(
      "esim -config nehalem -warmup 20000 -warmup-save -warmup-load "
      "%s/r.gelfie",
      Dir.c_str()));
  EXPECT_EQ(R.ExitCode, 2) << R.Output;

  // Cold reference run (no checkpoint involved).
  R = runTool(formatString("esim -config nehalem -warmup 20000 %s/r.gelfie",
                           Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  std::string ColdIpc = lineWith(R.Output, "IPC");
  ASSERT_FALSE(ColdIpc.empty()) << R.Output;

  // Save: warms, writes the sidecar at the default <input>.esimstate
  // path, and finishes the detailed phase as usual.
  R = runTool(formatString(
      "esim -config nehalem -warmup 20000 -warmup-save %s/r.gelfie",
      Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("warmup checkpoint saved to"), std::string::npos)
      << R.Output;
  ASSERT_TRUE(fileExists(Dir + "/r.gelfie.esimstate"));
  EXPECT_EQ(lineWith(R.Output, "IPC"), ColdIpc) << R.Output;

  // Load: skips re-warming and reproduces the cold run's stats exactly.
  R = runTool(formatString(
      "esim -config nehalem -warmup-load %s/r.gelfie", Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("warmup checkpoint loaded from"),
            std::string::npos)
      << R.Output;
  EXPECT_EQ(lineWith(R.Output, "IPC"), ColdIpc) << R.Output;

  // An explicit -warmup that disagrees with the sidecar fails closed.
  R = runTool(formatString(
      "esim -config nehalem -warmup 12345 -warmup-load %s/r.gelfie",
      Dir.c_str()));
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("EFAULT.SIMSTATE.BUDGET"), std::string::npos)
      << R.Output;

  // A flipped byte anywhere in the sidecar fails closed with a coded
  // SIMSTATE rejection, never a silent wrong-stats resume.
  auto Bytes = readFileBytes(Dir + "/r.gelfie.esimstate");
  ASSERT_TRUE(static_cast<bool>(Bytes));
  (*Bytes)[Bytes->size() / 2] ^= 0x01;
  ASSERT_FALSE(writeFileAtomic(Dir + "/r.gelfie.esimstate", Bytes->data(),
                               Bytes->size())
                   .isError());
  R = runTool(formatString(
      "esim -config nehalem -warmup-load %s/r.gelfie", Dir.c_str()));
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("EFAULT.SIMSTATE."), std::string::npos)
      << R.Output;
}

TEST_F(ToolPipeline, SimStateFaultSweep) {
  // Stage an ELFie + saved warmup sidecar, then let efault mutate the
  // sidecar under both consumers (esim -warmup-load, everify -simstate).
  ASSERT_NO_FATAL_FAILURE(stageSidecar());
  ASSERT_TRUE(fileExists(Dir + "/g.elfie.esimstate"));

#ifdef ELFIE_SLOW_TESTS
  const int Runs = 200;
#else
  const int Runs = 20;
#endif
  // Every mutation must be rejected with a coded EFAULT.SIMSTATE.* error:
  // zero benign acceptances (a corrupt checkpoint silently resuming would
  // poison downstream stats), zero crashes/hangs, and the rejection
  // taxonomy populated across more than one class.
  auto R = runTool(formatString("efault -runs %d -seed 7 -json -scratch "
                                "%s/scratch %s/g.elfie.esimstate",
                                Runs, Dir.c_str(), Dir.c_str()));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("\"kind\":\"simstate\""), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("\"crashes\":0"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("\"hangs\":0"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("\"failures\":0"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("\"benign\":0"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("\"simstate\":{"), std::string::npos)
      << R.Output;
  // With two consumers per run, every mutation is rejected twice.
  EXPECT_NE(R.Output.find(formatString("\"rejections\":%d", Runs * 2)),
            std::string::npos)
      << R.Output;
  // More than one taxonomy class fires under the seeded mutation mix.
  int Classes = 0;
  for (const char *Tag :
       {"\"magic\":", "\"version\":", "\"truncated\":", "\"seal\":",
        "\"config\":", "\"input\":", "\"component\":", "\"budget\":"}) {
    std::string L = lineWith(R.Output, "\"simstate\":{");
    size_t P = L.find(Tag);
    if (P != std::string::npos && L[P + std::strlen(Tag)] != '0')
      ++Classes;
  }
  EXPECT_GE(Classes, 2) << R.Output;
}

TEST_F(ToolPipeline, SimStateComponentTableCheckedByBothConsumers) {
  // Sealed sidecars that pass every check on the file alone: everify's
  // static pass and esim's resume both refuse each one, with the same
  // code and, where both judge the same fact, the same text.
  ASSERT_NO_FATAL_FAILURE(stageSidecar());
  const std::string Sidecar = Dir + "/g.elfie.esimstate";
  auto Saved = readFileBytes(Sidecar);
  ASSERT_TRUE(Saved.hasValue()) << Saved.message();

  using Corruption = void (*)(std::vector<uint8_t> &);
  struct Row {
    const char *What;
    Corruption Corrupt; ///< null: no sidecar at all
    const char *Code;     ///< esim's code without the "EFAULT." prefix
    std::string Fragment; ///< in both consumers' output
    bool SameText;        ///< false: everify's finding is its own
  };
  const uint32_t L3Ways = sim::makeNehalemLike().L3.Assoc;
  const Row Rows[] = {
      {"l3 renamed l4",
       [](std::vector<uint8_t> &B) { test::renameAndReseal(B, "l3", "l4"); },
       "SIMSTATE.COMPONENT", "component 1 is 'l4', expected 'l3'", true},
      // A sidecar an older build wrote is refused as a whole, not read
      // into the wrong components.
      {"stats component, core payload version 2", toLayoutWithStats,
       "SIMSTATE.COMPONENT",
       "component count mismatch: sidecar has 3, machine expects 2", true},
      {"l3 payload version from the future",
       [](std::vector<uint8_t> &B) {
         test::resealU32After(B, "l3", 0, sim::Cache::StateVersion + 1);
       },
       "SIMSTATE.VERSION",
       formatString("component 'l3' has payload version %u, this build "
                    "reads %u",
                    sim::Cache::StateVersion + 1, sim::Cache::StateVersion),
       true},
      {"l3 line size 128",
       [](std::vector<uint8_t> &B) { test::resealU32After(B, "l3", 8, 128); },
       "SIMSTATE.COMPONENT", "(128-byte lines)", true},
      // Past line size, ways and sets (offsets 8 to 19) come the per-set
      // valid counts.
      {"l3 set 0 holding ways + 1 lines",
       [](std::vector<uint8_t> &B) {
         test::resealU32After(B, "l3", 20,
                              sim::makeNehalemLike().L3.Assoc + 1);
       },
       "SIMSTATE.COMPONENT",
       formatString("cache set 0 holds %u lines, more than its %u ways",
                    L3Ways + 1, L3Ways),
       true},
      // esim resumes under the -config it is given; everify has only the
      // recorded name, which names no config.
      {"config nehalex",
       [](std::vector<uint8_t> &B) {
         test::renameAndReseal(B, "nehalem", "nehalex");
       },
       "SIMSTATE.CONFIG", "'nehalex'", false},
      // Unreadable rather than corrupt: both report the reader's I/O code.
      {"sidecar missing", nullptr, "IO.OPEN",
       "No such file or directory", true},
  };
  for (const Row &Rw : Rows) {
    SCOPED_TRACE(Rw.What);
    if (Rw.Corrupt) {
      std::vector<uint8_t> Bytes = *Saved;
      ASSERT_NO_FATAL_FAILURE(Rw.Corrupt(Bytes));
      ASSERT_FALSE(
          writeFileAtomic(Sidecar, Bytes.data(), Bytes.size()).isError());
    } else {
      removeFile(Sidecar);
      ASSERT_FALSE(fileExists(Sidecar));
    }

    auto V = runTool(formatString("everify -simstate %s %s/g.elfie",
                                  Sidecar.c_str(), Dir.c_str()));
    EXPECT_EQ(V.ExitCode, 1) << V.Output;
    std::string Finding = lineWith(V.Output, std::string("error ") + Rw.Code);
    ASSERT_FALSE(Finding.empty()) << V.Output;
    EXPECT_NE(Finding.find(Rw.Fragment), std::string::npos) << Finding;

    auto E = runTool(formatString(
        "esim -config nehalem -warmup-load %s/g.elfie", Dir.c_str()));
    EXPECT_EQ(E.ExitCode, 1) << E.Output;
    std::string Rejection = lineWith(E.Output, std::string("EFAULT.") +
                                                   Rw.Code + ":");
    ASSERT_FALSE(Rejection.empty()) << E.Output;
    EXPECT_NE(Rejection.find(Rw.Fragment), std::string::npos) << Rejection;
    if (Rw.SameText) {
      // "error SIMSTATE.X: <text>" and "... EFAULT.SIMSTATE.X: <text>".
      std::string Text = Finding.substr(Finding.find(": ") + 2);
      EXPECT_NE(Rejection.find(std::string("EFAULT.") + Rw.Code + ": " +
                               Text),
                std::string::npos)
          << Finding << "\n" << Rejection;
    }
  }
}

/// The string value of "\"Key\":" in a one-line JSON object.
static std::string jsonString(const std::string &JSON, const std::string &Key) {
  std::string Want = "\"" + Key + "\":\"";
  size_t At = JSON.find(Want);
  if (At == std::string::npos)
    return "";
  At += Want.size();
  return JSON.substr(At, JSON.find('"', At) - At);
}

TEST_F(ToolPipeline, ArtifactRootIsOneIdentityAcrossTools) {
  // estore, pinball2elf -store, esim's sidecar and everify's SIMSTATE and
  // STORE passes all name an ELFie by store::artifactRoot of its bytes.
  ASSERT_NO_FATAL_FAILURE(stageSidecar());
  std::string Pool = Dir + "/pool";
  auto Bytes = readFileBytes(Dir + "/g.elfie");
  ASSERT_TRUE(Bytes.hasValue()) << Bytes.message();
  std::string Root = store::artifactRoot(*Bytes).hex();

  auto R = runTool(formatString("estore put -json %s %s/g.elfie", Pool.c_str(),
                                Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(jsonString(lineWith(R.Output, "\"root\""), "root"), Root)
      << R.Output;
  R = runTool(formatString("pinball2elf -target guest -store %s "
                           "-store-name p.elfie -o %s/p.elfie %s/r.pb",
                           Pool.c_str(), Dir.c_str(), Dir.c_str()));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("root " + Root + ")"), std::string::npos)
      << R.Output;
  auto Sidecar = sim::SimStateFile::open(Dir + "/g.elfie.esimstate");
  ASSERT_TRUE(Sidecar.hasValue()) << Sidecar.message();
  EXPECT_EQ(Sidecar->meta().InputDigest.hex(), Root);

  std::string Everify = formatString(
      "everify -simstate %s/g.elfie.esimstate -store %s -store-name g.elfie",
      Dir.c_str(), Pool.c_str());
  R = runTool(Everify + " " + Dir + "/g.elfie");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;

  // One byte more: another artifact to both passes.
  Bytes->push_back(0);
  ASSERT_FALSE(writeFileAtomic(Dir + "/longer.elfie", Bytes->data(),
                               Bytes->size())
                   .isError());
  std::string Longer = store::artifactRoot(*Bytes).hex();
  R = runTool(Everify + " " + Dir + "/longer.elfie");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(lineWith(R.Output, "error SIMSTATE.INPUT")
                .find("input digest " + Longer.substr(0, 16)),
            std::string::npos)
      << R.Output;
  EXPECT_NE(lineWith(R.Output, "error STORE.MISMATCH")
                .find("(file root " + Longer + ", pool root " + Root + ")"),
            std::string::npos)
      << R.Output;
}

TEST_F(ToolPipeline, PinballToElfRefusesWarmupCoveringTheRegion) {
  // A warm-up as long as the region would leave nothing to measure:
  // pinball2elf refuses it with the simulator's BUDGET rejection, and
  // takes one instruction less.
  ASSERT_NO_FATAL_FAILURE(stagePinball());
  auto R = runTool(formatString(
      "pinball2elf -target guest -warmup 60000 -o %s/g.elfie %s/r.pb",
      Dir.c_str(), Dir.c_str()));
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("EFAULT.SIMSTATE.BUDGET: warmup length 60000 "
                          "must be smaller than the region length 60000"),
            std::string::npos)
      << R.Output;
  EXPECT_FALSE(fileExists(Dir + "/g.elfie"));
  R = runTool(formatString(
      "pinball2elf -target guest -warmup 59999 -o %s/g.elfie %s/r.pb",
      Dir.c_str(), Dir.c_str()));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
}

} // namespace
