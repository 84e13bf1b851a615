//===- examples/sysstate_files.cpp - §II-C2 as an example -----------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// The system-call handling challenge (paper §I-A, §II-C2): a program
/// opens a file *before* the region of interest and reads it *inside* the
/// region. A replay injects the recorded reads; a re-executing ELFie must
/// actually perform them — against a descriptor that does not exist in a
/// fresh process. The SYSSTATE technique reconstructs a proxy file
/// (`FD_3`) from the read records and the ELFie pre-opens and dup()s it at
/// startup (paper Fig. 8).
///
/// Build & run:   ./build/examples/sysstate_files
///
//===----------------------------------------------------------------------===//

#include "core/Pinball2Elf.h"
#include "easm/Assembler.h"
#include "pinball/Logger.h"
#include "support/FileIO.h"
#include "support/Subprocess.h"
#include "sysstate/SysState.h"

#include <cstdio>

using namespace elfie;

namespace {

const char *Program = R"(
_start:
  ldi  r7, 4                # open("payload.dat", O_RDONLY) - BEFORE region
  la   r1, path
  ldi  r2, 0
  ldi  r3, 0
  syscall
  mov  r9, r1
  ldi  r2, 0                # padding work so the open precedes the region
pad:
  addi r2, r2, 1
  slti r3, r2, 6000
  bnez r3, pad
rloop:                      # region of interest: read + accumulate
  ldi  r7, 3
  mov  r1, r9
  la   r2, buf
  ldi  r3, 8
  syscall
  beqz r1, done
  la   r2, buf
  ld8  r3, 0(r2)
  add  r10, r10, r3
  addi r11, r11, 1
  slti r3, r11, 24
  bnez r3, rloop
done:
  la   r2, out              # print the 8-byte checksum
  st8  r10, 0(r2)
  ldi  r7, 2
  ldi  r1, 1
  ldi  r3, 8
  syscall
  ldi  r7, 1
  ldi  r1, 0
  syscall
  .data
path: .asciz "payload.dat"
  .align 8
buf: .space 8
out: .space 8
)";

/// Runs \p Exe in \p Cwd and returns its stdout (its stderr is passed on);
/// \p ExitCode is -1 when it did not exit normally.
std::string runAndCapture(const std::string &Exe, const std::string &Cwd,
                          int &ExitCode) {
  SpawnSpec Spec;
  Spec.Argv = {Exe};
  Spec.WorkDir = Cwd;
  CommandResult R = exitOnError(runCommand(Spec, 60000));
  std::fputs(R.Stderr.c_str(), stderr);
  ExitCode = R.Wait.Exited ? R.Wait.ExitCode : -1;
  return R.Stdout;
}

} // namespace

int main() {
  std::string Dir = "/tmp/elfie_example_sysstate";
  removeTree(Dir);
  exitOnError(createDirectories(Dir));

  // Input data the program consumes.
  std::string Payload;
  for (int I = 0; I < 64; ++I) {
    uint64_t V = 0x0101010101010101ull * static_cast<uint64_t>(I + 1);
    Payload.append(reinterpret_cast<char *>(&V), 8);
  }
  exitOnError(writeFileText(Dir + "/payload.dat", Payload));

  std::printf("[1] capturing a region that reads through a descriptor "
              "opened before it...\n");
  pinball::CaptureRequest Req;
  Req.ProgramPath = Dir + "/reader.elf";
  exitOnError(easm::assembleToFile(Program, "reader.s", Req.ProgramPath));
  Req.ProgramName = "reader";
  Req.RegionStart = 18200; // inside the read loop
  Req.RegionLength = 100000000; // through program end (truncated)
  Req.Opts = pinball::LoggerOptions::fat();
  Req.Config.FsRoot = Dir;
  pinball::Pinball PB = exitOnError(pinball::captureRegion(Req));
  std::printf("    -> region has %zu syscall records, output %zu bytes\n",
              PB.Syscalls.size(), PB.OutputLog.size());

  std::printf("[2] pinball_sysstate: reconstructing the OS state "
              "(paper Fig. 8)...\n");
  sysstate::SysState State = sysstate::analyze(PB);
  std::fputs(State.report().c_str(), stdout);
  std::string SSDir = Dir + "/region.pb.sysstate";
  exitOnError(sysstate::writeSysstateDir(State, SSDir));
  std::printf("    -> wrote %s/workdir with the FD_n proxy files\n",
              SSDir.c_str());

  std::printf("[3] pinball2elf -sysstate: ELFie preopens FD_3 and dup()s "
              "it at startup...\n");
  core::Pinball2ElfOptions Opts;
  Opts.EmbedSysstate = true;
  std::string Exe = Dir + "/region.elfie";
  exitOnError(core::pinballToElfFile(PB, Opts, Exe));

  std::printf("[4] running the ELFie inside the sysstate workdir...\n");
  int Code = -1;
  std::string Out = runAndCapture(Exe, SSDir + "/workdir", Code);
  bool Match = Out == PB.OutputLog;
  std::printf("    -> exit %d, output %s the recorded region output\n",
              Code, Match ? "MATCHES" : "DIFFERS FROM");

  std::printf("[5] negative control: the same ELFie outside the workdir "
              "(dead descriptor)...\n");
  std::string Out2 = runAndCapture(Exe, Dir, Code);
  std::printf("    -> output %s (re-executed reads failed, as the paper "
              "describes for stateful system calls)\n",
              Out2 == PB.OutputLog ? "unexpectedly matches"
                                   : "differs, as expected");

  return Match ? 0 : 1;
}
