//===- examples/quickstart.cpp - the whole tool-chain in one file ---------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Quickstart: the complete ELFie pipeline of paper Fig. 1, end to end:
///
///   1. assemble a guest program,
///   2. run it under the EVM (the Pin analogue),
///   3. capture a region of interest as a fat pinball (PinPlay logger),
///   4. replay the pinball deterministically (constrained replay),
///   5. convert it with pinball2elf into a native x86-64 ELFie,
///   6. execute the ELFie as a real Linux process and compare its output
///      and instruction counts against the recording.
///
/// Build & run:   ./build/examples/quickstart
///
//===----------------------------------------------------------------------===//

#include "core/Pinball2Elf.h"
#include "easm/Assembler.h"
#include "elf/ELFReader.h"
#include "pinball/Logger.h"
#include "replay/Replayer.h"
#include "support/FileIO.h"
#include "support/Subprocess.h"
#include "vm/VM.h"

#include <cstdio>

using namespace elfie;

namespace {

// A little program with two phases: it builds a table, then repeatedly
// checksums it and prints progress dots.
const char *Program = R"(
_start:
  la   r1, table
  ldi  r2, 0
build:                      # phase 1: fill the table
  muli r3, r2, 1103515245
  xori r3, r3, 99
  shli r4, r2, 3
  add  r4, r4, r1
  st8  r3, 0(r4)
  addi r2, r2, 1
  slti r5, r2, 4096
  bnez r5, build
  ldi  r9, 0
rounds:                     # phase 2: checksum rounds, printing a dot each
  ldi  r2, 0
  ldi  r6, 0
sum:
  shli r4, r2, 3
  add  r4, r4, r1
  ld8  r3, 0(r4)
  add  r6, r6, r3
  addi r2, r2, 1
  slti r5, r2, 4096
  bnez r5, sum
  ldi  r7, 2                # write(1, ".", 1)
  push r1
  ldi  r1, 1
  la   r2, dot
  ldi  r3, 1
  syscall
  pop  r1
  addi r9, r9, 1
  slti r5, r9, 20
  bnez r5, rounds
  ldi  r7, 2                # write(1, "\n", 1)
  ldi  r1, 1
  la   r2, nl
  ldi  r3, 1
  syscall
  ldi  r7, 1                # exit_group(0)
  ldi  r1, 0
  syscall
  .data
dot: .ascii "."
nl:  .ascii "\n"
  .bss
  .align 8
table: .space 32768
)";

} // namespace

int main() {
  std::string Dir = "/tmp/elfie_quickstart";
  removeTree(Dir);
  exitOnError(createDirectories(Dir));

  // 1. Assemble.
  std::printf("[1] assembling the guest program...\n");
  std::string ProgPath = Dir + "/demo.elf";
  exitOnError(easm::assembleToFile(Program, "demo.s", ProgPath));

  // 2. Functional run under the EVM.
  std::printf("[2] running it under the EVM:\n    stdout: ");
  std::string FullOutput;
  {
    vm::VMConfig Config;
    Config.StdoutSink = [&](const char *P, size_t N) {
      FullOutput.append(P, N);
    };
    vm::VM M(Config);
    exitOnError(M.loadELFFile(ProgPath));
    exitOnError(M.setupMainThread());
    auto R = M.run();
    std::printf("%s    -> exit %lld after %llu instructions\n",
                FullOutput.c_str(), static_cast<long long>(R.ExitCode),
                static_cast<unsigned long long>(M.globalRetired()));
  }

  // 3. Capture a mid-execution region as a fat pinball. The region starts
  //    inside the checksum phase, well past the table build.
  std::printf("[3] capturing a fat pinball of the region [120000, "
              "+200000)...\n");
  pinball::CaptureRequest Req;
  Req.ProgramPath = ProgPath;
  Req.ProgramName = "demo";
  Req.RegionStart = 120000;
  Req.RegionLength = 200000;
  Req.Opts = pinball::LoggerOptions::fat(); // -log:fat 1
  pinball::Pinball PB = exitOnError(pinball::captureRegion(Req));
  std::string PBDir = Dir + "/region.pb";
  exitOnError(PB.save(PBDir));
  std::printf("    -> %zu pages, %zu syscall records, output %zu bytes, "
              "saved to %s\n",
              PB.Image.size(), PB.Syscalls.size(), PB.OutputLog.size(),
              PBDir.c_str());

  // 4. Constrained replay: bit-exact re-execution.
  std::printf("[4] constrained replay of the pinball...\n");
  auto Replay = exitOnError(replay::replayPinball(PB));
  std::printf("    -> retired %llu instructions (recorded %llu), "
              "divergence: %s\n",
              static_cast<unsigned long long>(Replay.Retired),
              static_cast<unsigned long long>(PB.Meta.RegionLength),
              Replay.Divergence.empty() ? "none" : "YES");

  // 5. pinball2elf: emit a native x86-64 ELFie with perfle reporting.
  std::printf("[5] pinball2elf -> native x86-64 ELFie...\n");
  core::Pinball2ElfOptions Opts;
  Opts.Perfle = true;
  std::string ElfiePath = Dir + "/region.elfie";
  exitOnError(core::pinballToElfFile(PB, Opts, ElfiePath));
  auto Reader = exitOnError(elf::ELFReader::open(ElfiePath));
  std::printf("    -> %s: machine x86-64, %zu sections, entry %#llx\n",
              ElfiePath.c_str(), Reader.sections().size(),
              static_cast<unsigned long long>(Reader.entry()));

  // 6. Run it natively.
  std::printf("[6] executing the ELFie natively:\n");
  SpawnSpec Spec;
  Spec.Argv = {ElfiePath};
  CommandResult Native = exitOnError(runCommand(Spec, 60000));
  std::printf("    stdout: \"%s\" (recorded region output: \"%s\")\n",
              Native.Stdout.c_str(), PB.OutputLog.c_str());
  std::printf("    perfle: %s", Native.Stderr.c_str());
  std::printf("    exit status: %d\n", Native.Wait.ExitCode);

  bool OutputsMatch = Native.Stdout == PB.OutputLog;
  std::printf("\n%s: the native ELFie re-executed the captured region%s.\n",
              OutputsMatch ? "SUCCESS" : "MISMATCH",
              OutputsMatch ? " and reproduced its output byte-for-byte"
                           : "");
  return OutputsMatch ? 0 : 1;
}
