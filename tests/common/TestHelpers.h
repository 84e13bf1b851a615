//===- tests/common/TestHelpers.h - Shared test fixtures --------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Guest programs and driver helpers shared by the pinball, replay, core
/// (pinball2elf), and simulator test suites, and the shell-command runner
/// of the suites that drive the tools as subprocesses.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_TESTS_COMMON_TESTHELPERS_H
#define ELFIE_TESTS_COMMON_TESTHELPERS_H

#include "easm/Assembler.h"
#include "elf/ELFReader.h"
#include "pinball/Logger.h"
#include "support/FileIO.h"
#include "support/Sha256.h"
#include "support/Subprocess.h"
#include "vm/VM.h"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace elfie {
namespace test {

/// A compute-heavy deterministic program: mixes ALU, memory, branches, and
/// an output syscall; runs ~50k instructions.
inline std::string computeProgram() {
  return R"(
_start:
  la   r1, table          # build a table
  ldi  r2, 0              # i
  ldi  r3, 512            # n
fill:
  muli r4, r2, 1103515245
  xori r4, r4, 12345
  shli r5, r2, 3
  add  r5, r5, r1
  st8  r4, 0(r5)
  addi r2, r2, 1
  blt  r2, r3, fill
  # checksum loop with data-dependent branches
  ldi  r2, 0
  ldi  r6, 0              # sum
  ldi  r9, 40             # outer iterations
outer:
  ldi  r2, 0
sumloop:
  shli r5, r2, 3
  add  r5, r5, r1
  ld8  r4, 0(r5)
  andi r8, r4, 1
  beqz r8, even
  add  r6, r6, r4
  jmp  next
even:
  sub  r6, r6, r4
next:
  addi r2, r2, 1
  blt  r2, r3, sumloop
  addi r9, r9, -1
  bnez r9, outer
  # write the checksum digits (low byte) to stdout
  la   r1, out
  st1  r6, 0(r1)
  ldi  r7, 2
  ldi  r1, 1
  la   r2, out
  ldi  r3, 1
  syscall
  ldi  r7, 1
  ldi  r1, 0
  syscall
  .data
  .align 8
out:   .space 8
table: .space 4096
)";
}

/// A program whose behaviour depends on the clock syscall inside the
/// interesting region (the paper's "non-repeatable system call" case).
inline std::string clockProgram() {
  return R"(
_start:
  ldi  r9, 0
loop:
  ldi  r7, 8              # clock_gettime_ns
  syscall
  mov  r10, r1
  andi r10, r10, 255
  add  r9, r9, r10
  addi r8, r8, 1
  slti r4, r8, 2000
  bnez r4, loop
  mov  r1, r9
  ldi  r7, 1
  syscall
)";
}

/// A program that opens a file before the region and reads it inside the
/// region (the SYSSTATE / FD_n case, paper §II-C2). Reads 4 bytes at a
/// time, 64 times, summing the bytes.
inline std::string fileReaderProgram() {
  return R"(
_start:
  ldi  r7, 4              # open("data.bin", O_RDONLY)
  la   r1, path
  ldi  r2, 0
  ldi  r3, 0
  syscall
  mov  r9, r1             # fd (expected 3)
  ldi  r10, 0             # sum
  ldi  r11, 0             # iteration
  # padding work so the open is clearly before the region
  ldi  r2, 0
pad:
  addi r2, r2, 1
  slti r3, r2, 5000
  bnez r3, pad
region_body:
  ldi  r7, 3              # read(fd, buf, 4)
  mov  r1, r9
  la   r2, buf
  ldi  r3, 4
  syscall
  beqz r1, done           # EOF
  la   r2, buf
  ld1  r3, 0(r2)
  add  r10, r10, r3
  ld1  r3, 1(r2)
  add  r10, r10, r3
  ld1  r3, 2(r2)
  add  r10, r10, r3
  ld1  r3, 3(r2)
  add  r10, r10, r3
  addi r11, r11, 1
  slti r3, r11, 64
  bnez r3, region_body
done:
  ldi  r7, 5              # close(fd)
  mov  r1, r9
  syscall
  mov  r1, r10
  ldi  r7, 1              # exit_group(sum & 0xff...)
  syscall
  .data
path: .asciz "data.bin"
  .align 8
buf:  .space 8
)";
}

/// An 8-thread program with spin-wait synchronization (active-wait OpenMP
/// style, paper §IV-B): the main thread spawns 7 workers; all threads
/// amoadd into per-thread counters and meet at a spin barrier each round.
inline std::string multiThreadProgram(int Threads = 8, int Rounds = 4,
                                      int WorkPerRound = 2000) {
  std::string S = R"(
  .equ NTHREADS, )" + std::to_string(Threads) + R"(
  .equ ROUNDS, )" + std::to_string(Rounds) + R"(
  .equ WORK, )" + std::to_string(WorkPerRound) + R"(
_start:
  ldi  r9, 1               # next thread index
spawn:
  ldi  r7, 9               # clone(entry=worker, stack, arg=index)
  la   r1, worker
  la   r2, stacks
  muli r3, r9, 8192
  add  r2, r2, r3
  mov  r3, r9
  syscall
  addi r9, r9, 1
  slti r4, r9, NTHREADS
  bnez r4, spawn
  ldi  r1, 0               # main thread participates as index 0
  jal  lr, thread_work
  # wait for all workers to finish all rounds, then exit_group
waitend:
  la   r2, finished
  ld8  r3, 0(r2)
  pause
  slti r4, r3, NTHREADS
  bnez r4, waitend
  la   r2, total
  ld8  r1, 0(r2)
  la   r3, outbuf
  st8  r1, 0(r3)
  ldi  r7, 2              # write(1, outbuf, 8): observable final total
  mov  r5, r1
  ldi  r1, 1
  mov  r2, r3
  ldi  r3, 8
  syscall
  mov  r1, r5
  ldi  r7, 1
  syscall

worker:                    # r1 = thread index
  jal  lr, thread_work
  ldi  r7, 0               # exit(0)
  ldi  r1, 0
  syscall

thread_work:               # r1 = index; clobbers r2..r6, r8, r10..r13
  mov  r10, r1             # index
  ldi  r11, 0              # round
round:
  # do WORK amoadds into the shared total
  ldi  r12, 0
work:
  la   r2, total
  ldi  r3, 1
  amoadd r4, (r2), r3
  addi r12, r12, 1
  slti r5, r12, WORK
  bnez r5, work
  # barrier: arrive
  la   r2, barrier
  ldi  r3, 1
  amoadd r4, (r2), r3
  addi r11, r11, 1
  muli r13, r11, NTHREADS  # expected arrivals after this round
barrier_spin:
  la   r2, barrier
  ld8  r4, 0(r2)
  pause
  blt  r4, r13, barrier_spin
  slti r5, r11, ROUNDS
  bnez r5, round
  # signal completion
  la   r2, finished
  ldi  r3, 1
  amoadd r4, (r2), r3
  ret

  .bss
  .align 8
total:    .space 8
barrier:  .space 8
finished: .space 8
outbuf:   .space 8
stacks:   .space )" + std::to_string(8192 * (Threads + 1)) + R"(
)";
  return S;
}

/// Builds a VM loaded with \p Src; records stdout into \p CapturedOut.
inline std::unique_ptr<vm::VM>
makeVM(const std::string &Src, std::shared_ptr<std::string> CapturedOut,
       vm::VMConfig Config = vm::VMConfig(),
       std::vector<std::string> Args = {}) {
  if (CapturedOut)
    Config.StdoutSink = [CapturedOut](const char *P, size_t N) {
      CapturedOut->append(P, N);
    };
  auto Image = easm::assembleToELF(Src, "test.s");
  EXPECT_TRUE(Image.hasValue()) << Image.message();
  if (!Image)
    return nullptr;
  auto Reader = elf::ELFReader::parse(*Image);
  EXPECT_TRUE(Reader.hasValue()) << Reader.message();
  auto M = std::make_unique<vm::VM>(Config);
  Error E = M->loadELF(*Reader);
  EXPECT_FALSE(E.isError()) << E.message();
  E = M->setupMainThread(Args);
  EXPECT_FALSE(E.isError()) << E.message();
  return M;
}

/// Writes \p Src to a guest ELF file under \p Dir and returns the path.
inline std::string writeGuestELF(const std::string &Dir,
                                 const std::string &Name,
                                 const std::string &Src) {
  EXPECT_FALSE(createDirectories(Dir).isError());
  std::string Path = Dir + "/" + Name;
  Error E = easm::assembleToFile(Src, Name + ".s", Path);
  EXPECT_FALSE(E.isError()) << E.message();
  return Path;
}

/// Captures a pinball from \p Src over [Start, Start+Len).
inline Expected<pinball::Pinball>
capture(const std::string &Dir, const std::string &Src, uint64_t Start,
        uint64_t Len, pinball::LoggerOptions Opts,
        vm::VMConfig Config = vm::VMConfig()) {
  pinball::CaptureRequest Req;
  Req.ProgramPath = writeGuestELF(Dir, "prog.elf", Src);
  Req.RegionStart = Start;
  Req.RegionLength = Len;
  Req.Opts = Opts;
  Req.Config = Config;
  return pinball::captureRegion(Req);
}

/// Runs the executable \p Path (argv[0] only) in \p WorkDir (empty =
/// inherit), capturing its output; SIGKILLed after 30 s.
inline CommandResult runProcess(const std::string &Path,
                                const std::string &WorkDir = "") {
  SpawnSpec Spec;
  Spec.Argv = {Path};
  Spec.WorkDir = WorkDir;
  auto R = runCommand(Spec, 30000);
  EXPECT_TRUE(R.hasValue()) << R.message();
  return R ? *R : CommandResult();
}

/// Exit status and combined output of a shell command.
struct CmdResult {
  int ExitCode = -1; ///< -1 when the shell did not exit normally
  std::string Output; ///< stdout + stderr
};

/// Runs \p CmdLine through the shell, prefixed by \p Env (`VAR=value ...`
/// assignments, or empty), capturing stdout and stderr together.
inline CmdResult runCmd(const std::string &Env, const std::string &CmdLine) {
  std::string Full = Env + (Env.empty() ? "" : " ") + CmdLine + " 2>&1";
  FILE *P = popen(Full.c_str(), "r");
  CmdResult R;
  if (!P)
    return R;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    R.Output.append(Buf, N);
  int Status = pclose(P);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

/// The offset just past the first length-prefixed occurrence of \p Str
/// in a sidecar's sealed bytes, or 0 when there is none.
inline size_t sidecarStringEnd(const std::vector<uint8_t> &Bytes,
                               const std::string &Str) {
  BinaryWriter Needle;
  Needle.writeString(Str);
  auto It = std::search(Bytes.begin(), Bytes.end() - 32,
                        Needle.bytes().begin(), Needle.bytes().end());
  if (It == Bytes.end() - 32)
    return 0;
  return (It - Bytes.begin()) + Needle.size();
}

/// Recomputes a sidecar's seal over its edited bytes.
inline void resealSidecar(std::vector<uint8_t> &Bytes) {
  Sha256Digest Seal = Sha256::digest(Bytes.data(), Bytes.size() - 32);
  std::copy(Seal.Bytes.begin(), Seal.Bytes.end(), Bytes.end() - 32);
}

/// The version-1 rendering of a version-2 sidecar: the format word set
/// to 1 and, given \p Root and \p Whole, the input digest \p Root (a
/// binary input's artifact root) replaced by \p Whole (the SHA-256 of
/// the whole image, version 1's input digest), then resealed. Empty when
/// \p Bytes is not a version-2 sidecar or does not record \p Root.
inline std::vector<uint8_t>
versionOneSidecar(std::vector<uint8_t> Bytes,
                  const Sha256Digest *Root = nullptr,
                  const Sha256Digest *Whole = nullptr) {
  // Magic (8), format word (4), config name (u32 length + bytes), config
  // fingerprint (32), input digest (32).
  uint32_t Version = 0, NameLen = 0;
  if (Bytes.size() < 16)
    return {};
  std::memcpy(&Version, &Bytes[8], 4);
  std::memcpy(&NameLen, &Bytes[12], 4);
  size_t InputAt = 16 + size_t(NameLen) + 32;
  if (Version != 2 || Bytes.size() < InputAt + 32 + 32)
    return {};
  Version = 1;
  std::memcpy(&Bytes[8], &Version, 4);
  if (Root) {
    if (!std::equal(Root->Bytes.begin(), Root->Bytes.end(),
                    Bytes.begin() + InputAt))
      return {};
    std::copy(Whole->Bytes.begin(), Whole->Bytes.end(),
              Bytes.begin() + InputAt);
  }
  resealSidecar(Bytes);
  return Bytes;
}

/// Replaces the first length-prefixed occurrence of \p From in a sidecar
/// with \p To (same length) and recomputes the seal, so the file passes
/// every structural check and fails only where the rename matters.
inline void renameAndReseal(std::vector<uint8_t> &Bytes,
                            const std::string &From, const std::string &To) {
  ASSERT_EQ(From.size(), To.size());
  size_t End = sidecarStringEnd(Bytes, From);
  ASSERT_NE(End, 0u) << "no '" << From << "' in the sidecar";
  std::copy(To.begin(), To.end(), Bytes.begin() + (End - From.size()));
  resealSidecar(Bytes);
}

/// Overwrites the u32 at \p Offset bytes past the first length-prefixed
/// occurrence of \p Id in a sidecar with \p Value and recomputes the
/// seal. Past a component id, offset 0 is the component's payload version
/// and offset 4 its payload length, so offset 8 is the payload's first
/// field.
inline void resealU32After(std::vector<uint8_t> &Bytes, const std::string &Id,
                           size_t Offset, uint32_t Value) {
  size_t End = sidecarStringEnd(Bytes, Id);
  ASSERT_NE(End, 0u) << "no '" << Id << "' in the sidecar";
  ASSERT_LE(End + Offset + 4, Bytes.size() - 32);
  for (size_t I = 0; I < 4; ++I)
    Bytes[End + Offset + I] = static_cast<uint8_t>(Value >> (8 * I));
  resealSidecar(Bytes);
}

} // namespace test
} // namespace elfie

#endif // ELFIE_TESTS_COMMON_TESTHELPERS_H
