//===- tests/core/EmitGoldenTest.cpp - Emitted-ELFie digests --------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// The three pinball2elf targets share one page-run emitter and one set of
/// region symbols. These tests (`ctest -L jit`) pin the SHA-256 of the
/// native, guest and object bytes and the describeLayout text for a
/// pinball whose region touches stack pages and for a multi-threaded one,
/// so a change to the shared emission code shows up as a byte difference.
///
//===----------------------------------------------------------------------===//

#include "core/Pinball2Elf.h"

#include "../common/TestHelpers.h"
#include "support/Sha256.h"

#include <gtest/gtest.h>

using namespace elfie;
using namespace elfie::core;
using pinball::LoggerOptions;
using Target = Pinball2ElfOptions::Target;

namespace {

/// A region that pushes and pops stack frames, so the fat pinball carries
/// stack pages (stashed and remapped by the native target).
std::string stackProgram() {
  return R"(
_start:
  ldi  r9, 0
  ldi  r8, 200
outer:
  addi sp, sp, -64
  ldi  r2, 0
  ldi  r3, 8
fill:
  shli r4, r2, 3
  add  r4, r4, sp
  add  r5, r2, r9
  st8  r5, 0(r4)
  addi r2, r2, 1
  blt  r2, r3, fill
  ld8  r6, 0(sp)
  add  r9, r9, r6
  addi sp, sp, 64
  addi r8, r8, -1
  bnez r8, outer
  la   r2, out
  st8  r9, 0(r2)
  ldi  r7, 2
  ldi  r1, 1
  ldi  r3, 8
  syscall
  ldi  r7, 1
  ldi  r1, 0
  syscall
  .data
  .align 8
out: .space 8
)";
}

pinball::Pinball capturePinball(const std::string &Name, const std::string &Src,
                                uint64_t Start, uint64_t Len,
                                LoggerOptions Opts) {
  std::string Dir = testing::TempDir() + "/elfie_emit_golden_" + Name;
  removeTree(Dir);
  vm::VMConfig Config;
  Config.StdoutSink = [](const char *, size_t) {};
  auto PB = test::capture(Dir, Src, Start, Len, Opts, Config);
  EXPECT_TRUE(PB.hasValue()) << PB.message();
  removeTree(Dir);
  return PB ? PB.takeValue() : pinball::Pinball();
}

std::string emitDigest(const pinball::Pinball &PB, Target T,
                       uint64_t WarmupLength) {
  Pinball2ElfOptions Opts;
  Opts.TargetKind = T;
  Opts.WarmupLength = WarmupLength;
  auto Image = pinballToElf(PB, Opts);
  EXPECT_TRUE(Image.hasValue()) << Image.message();
  return Image ? Sha256::digest(*Image).hex() : "";
}

std::string layout(const pinball::Pinball &PB, Target T) {
  Pinball2ElfOptions Opts;
  Opts.TargetKind = T;
  return describeLayout(PB, Opts);
}

TEST(EmitGolden, StackPagesPinball) {
  pinball::Pinball PB =
      capturePinball("stack", stackProgram(), 500, 100000,
                     LoggerOptions::fat());
  ASSERT_EQ(PB.Threads.size(), 1u);
  EXPECT_EQ(emitDigest(PB, Target::NativeX86, 0),
            "69389d4429a4e6f827634045cc195c857db53db7f044562d52c12d432042db0c");
  EXPECT_EQ(emitDigest(PB, Target::Guest, 0),
            "5253e59ebedfe1c1684476bb0981cc4faebff175a4899c9f30123470171b0e7e");
  EXPECT_EQ(emitDigest(PB, Target::Object, 0),
            "2b3da2459862d2be3b10240cbc20a4a30847c6694e7da59b897631a598287a40");
  EXPECT_EQ(layout(PB, Target::NativeX86),
            "/* ELFie memory layout (from parent pinball) */\n"
            "SECTIONS\n"
            "{\n"
            "  .text.0x10000 0x10000 : { /* 1 pages */ }\n"
            "  .data.0x11000 0x11000 : { /* 1 pages */ }\n"
            "  .stack.0x7eff00000 0x7eff00000 : { /* 256 pages, stashed + "
            "remapped at startup */ }\n"
            "  .elfie.text  0x10000000000 : { /* startup + runtime + "
            "translated code */ }\n"
            "  .elfie.data  0x10100000000 : { /* thread contexts, address "
            "table */ }\n"
            "  .elfie.stacks 0x10200000000 : { /* per-thread host stacks */ "
            "}\n"
            "  .elfie.stash 0x10300000000 : { /* stashed stack pages */ }\n"
            "  /* threads: 1, region length: 10712 */\n"
            "}\n");
  EXPECT_EQ(layout(PB, Target::Guest),
            "/* ELFie memory layout (from parent pinball) */\n"
            "SECTIONS\n"
            "{\n"
            "  .text.0x10000 0x10000 : { /* 1 pages */ }\n"
            "  .data.0x11000 0x11000 : { /* 1 pages */ }\n"
            "  .stack.0x7eff00000 0x7eff00000 : { /* 256 pages, stashed + "
            "remapped at startup */ }\n"
            "  .elfie.text 0xe0000000 : { /* guest startup */ }\n"
            "  /* threads: 1, region length: 10712 */\n"
            "}\n");
}

TEST(EmitGolden, MultiThreadedPinball) {
  pinball::Pinball PB =
      capturePinball("mt", test::multiThreadProgram(4, 3, 300), 2000, 6000,
                     LoggerOptions::fat());
  ASSERT_EQ(PB.Threads.size(), 4u);
  EXPECT_EQ(emitDigest(PB, Target::NativeX86, 1000),
            "0dc1debaf8d4e79cfc986abf7c690436080f106536c563b527c7aa14c3c0c141");
  EXPECT_EQ(emitDigest(PB, Target::Guest, 1000),
            "b481a0de9bbf552dd0bb236aed2ce998f7e21bd8154fa13bdf9e9440b52208f3");
  EXPECT_EQ(emitDigest(PB, Target::Object, 1000),
            "d8430815db8fc660607138e798c9499c94f68dac4c2adae125c74b867010e703");
  EXPECT_EQ(layout(PB, Target::NativeX86),
            "/* ELFie memory layout (from parent pinball) */\n"
            "SECTIONS\n"
            "{\n"
            "  .text.0x10000 0x10000 : { /* 1 pages */ }\n"
            "  .data.0x11000 0x11000 : { /* 11 pages */ }\n"
            "  .stack.0x7eff00000 0x7eff00000 : { /* 256 pages, stashed + "
            "remapped at startup */ }\n"
            "  .elfie.text  0x10000000000 : { /* startup + runtime + "
            "translated code */ }\n"
            "  .elfie.data  0x10100000000 : { /* thread contexts, address "
            "table */ }\n"
            "  .elfie.stacks 0x10200000000 : { /* per-thread host stacks */ "
            "}\n"
            "  .elfie.stash 0x10300000000 : { /* stashed stack pages */ }\n"
            "  /* threads: 4, region length: 6000 */\n"
            "}\n");
  EXPECT_EQ(layout(PB, Target::Object),
            "/* ELFie memory layout (from parent pinball) */\n"
            "SECTIONS\n"
            "{\n"
            "  .text.0x10000 0x10000 : { /* 1 pages */ }\n"
            "  .data.0x11000 0x11000 : { /* 11 pages */ }\n"
            "  .stack.0x7eff00000 0x7eff00000 : { /* 256 pages, stashed + "
            "remapped at startup */ }\n"
            "  .elfie.text 0xe0000000 : { /* guest startup */ }\n"
            "  /* threads: 4, region length: 6000 */\n"
            "}\n");
}

TEST(EmitGolden, LazyMultiThreadedObject) {
  // A lazy pinball: the object target and the layout take the injected
  // pages too.
  pinball::Pinball PB =
      capturePinball("mt_lazy", test::multiThreadProgram(4, 3, 300), 2000,
                     6000, LoggerOptions());
  ASSERT_FALSE(PB.Injects.empty());
  EXPECT_EQ(emitDigest(PB, Target::Object, 0),
            "edfe6fcbfc6867be31c020c9720f93db0be4e2396d68a1d7a4c2c5e161d37b24");
  EXPECT_EQ(layout(PB, Target::Object),
            "/* ELFie memory layout (from parent pinball) */\n"
            "SECTIONS\n"
            "{\n"
            "  .text.0x10000 0x10000 : { /* 1 pages */ }\n"
            "  .data.0x11000 0x11000 : { /* 1 pages */ }\n"
            "  .elfie.text 0xe0000000 : { /* guest startup */ }\n"
            "  /* threads: 4, region length: 6000 */\n"
            "}\n");
}

} // namespace
