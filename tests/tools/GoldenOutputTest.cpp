//===- tests/tools/GoldenOutputTest.cpp - byte-exact machine output --------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locks the bytes of every machine-readable output the toolchain emits —
/// everify/ecfg/estore/efleet/efault -json, campaign-journal records, and
/// the ereplay/esim -vm:stats reports — against golden files under
/// goldens/. The fixtures are built here from source (easm -> elogger ->
/// pinball2elf -> estore), so the goldens depend only on the toolchain.
/// Scratch paths are replaced by @DIR@ and wall-clock fields by 0 before
/// comparing. On a mismatch the run's output is written next to the test's
/// temp directory (the failure message names the file), so a deliberate
/// format change is reviewed as a golden-file diff.
///
//===----------------------------------------------------------------------===//

#include "../common/TestHelpers.h"
#include "sched/Journal.h"
#include "support/FileIO.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <unistd.h>

using namespace elfie;

namespace {

std::string bin(const std::string &Tool) {
  return std::string(ELFIE_BIN_DIR) + "/" + Tool;
}

/// The lines of \p Out that start with one of \p Prefixes, in order.
std::string linesStartingWith(const std::string &Out,
                              std::initializer_list<const char *> Prefixes) {
  std::string Kept;
  for (const std::string &Line : splitString(Out, '\n'))
    for (const char *P : Prefixes)
      if (startsWith(Line, P)) {
        Kept += Line + "\n";
        break;
      }
  return Kept;
}

class GoldenOutput : public testing::Test {
protected:
  static void SetUpTestSuite() {
    Dir = testing::TempDir() + "/elfie_golden." + std::to_string(getpid());
    removeTree(Dir);
    ASSERT_FALSE(createDirectories(Dir).isError());
    // A loop with a gettid syscall per iteration, so the region carries
    // syscall records and ecfg sees a syscall site.
    std::string Src = R"(
_start:
  ldi r9, 0
loop:
  muli r2, r2, 13
  addi r2, r2, 7
  ldi r7, 10
  syscall
  addi r9, r9, 1
  slti r3, r9, 30000
  bnez r3, loop
  ldi r7, 1
  ldi r1, 0
  syscall
)";
    ASSERT_FALSE(writeFileText(Dir + "/p.s", Src).isError());
    // Relative paths: the guest's argv lands in the captured stack, and so
    // in every artifact digest below.
    for (const std::string &Cmd :
         {bin("easm") + " -o p.elf p.s",
          bin("elogger") + " -region:start 20000 -region:length 60000 "
                           "-log:fat 1 -o r.pb p.elf",
          bin("pinball2elf") + " -o r.elfie r.pb",
          bin("pinball2elf") + " -target guest -o r.gelfie r.pb"}) {
      test::CmdResult R = test::runCmd("", "cd " + Dir + " && " + Cmd);
      ASSERT_EQ(R.ExitCode, 0) << Cmd << "\n" << R.Output;
    }
  }

  static void TearDownTestSuite() { removeTree(Dir); }

  /// Runs \p CmdLine, expecting exit code \p Exit; returns its output with
  /// the scratch directory spelled @DIR@.
  static std::string run(const std::string &CmdLine, int Exit = 0) {
    test::CmdResult R = test::runCmd("", CmdLine);
    EXPECT_EQ(R.ExitCode, Exit) << CmdLine << "\n" << R.Output;
    std::string Out;
    for (size_t At = 0;;) {
      size_t Hit = R.Output.find(Dir, At);
      Out += R.Output.substr(At, Hit - At);
      if (Hit == std::string::npos)
        return Out;
      Out += "@DIR@";
      At = Hit + Dir.size();
    }
  }

  static std::string jsonLines(const std::string &Out) {
    return linesStartingWith(Out, {"{", "["});
  }

  static void expectGolden(const std::string &Name, const std::string &Got) {
    auto Want = readFileText(std::string(ELFIE_TOOLS_GOLDEN_DIR) + "/" + Name);
    if (Want && *Want == Got)
      return;
    std::string Actual = testing::TempDir() + "/elfie_golden_actual";
    createDirectories(Actual);
    writeFileText(Actual + "/" + Name, Got);
    ADD_FAILURE() << Name << " differs from goldens/" << Name
                  << "; this run's output is in " << Actual << "/" << Name
                  << ":\n"
                  << Got;
  }

  static std::string Dir;
};

std::string GoldenOutput::Dir;

TEST_F(GoldenOutput, EverifyReportEscapesEveryStringByte) {
  // The STORE.ROOT finding quotes the pool path, which carries a quote, a
  // backslash, a newline, a tab and a 0x01 byte.
  std::string Odd = Dir + "/odd\"\\\n\t\x01pool";
  expectGolden("everify.json",
               jsonLines(run(formatString(
                   "%s -json -pinball %s/r.pb -store '%s' %s/r.elfie",
                   bin("everify").c_str(), Dir.c_str(), Odd.c_str(),
                   Dir.c_str()),
                   1)));
}

TEST_F(GoldenOutput, EcfgReport) {
  expectGolden("ecfg.json",
               run(formatString("%s -json -pinball %s/r.pb %s/r.elfie",
                                bin("ecfg").c_str(), Dir.c_str(),
                                Dir.c_str())));
}

TEST_F(GoldenOutput, EcfgPinballReport) {
  // The pinball directory itself: code read from the captured pages the
  // way replay maps them, rather than from the emitted ELFie's sections.
  expectGolden("ecfg_pinball.json",
               run(formatString("%s -json %s/r.pb", bin("ecfg").c_str(),
                                Dir.c_str())));
}

TEST_F(GoldenOutput, EstoreCommands) {
  std::string Pool = Dir + "/pool", Replica = Dir + "/replica";
  std::string Estore = bin("estore");
  std::string Got;
  for (const char *File : {"r.elfie", "r.gelfie"})
    Got += run(formatString("%s put %s %s/%s -json", Estore.c_str(),
                            Pool.c_str(), Dir.c_str(), File));
  Got += run(formatString("%s ls %s -json", Estore.c_str(), Pool.c_str()));
  ASSERT_EQ(test::runCmd("", formatString("cp -r %s %s", Pool.c_str(),
                                          Replica.c_str()))
                .ExitCode,
            0);

  // Corrupt the first chunk, and delete the second from the pool and the
  // replica both: scrub reports one of each, repair restores the first and
  // cannot restore the second.
  std::vector<std::string> Chunks;
  auto Subs = listDirectory(Pool + "/chunks");
  ASSERT_TRUE(Subs.hasValue()) << Subs.message();
  for (const std::string &Sub : *Subs) {
    auto Hexes = listDirectory(Pool + "/chunks/" + Sub);
    ASSERT_TRUE(Hexes.hasValue()) << Hexes.message();
    for (const std::string &Hex : *Hexes)
      Chunks.push_back(Sub + "/" + Hex);
  }
  std::sort(Chunks.begin(), Chunks.end());
  ASSERT_GE(Chunks.size(), 2u);
  auto Bytes = readFileBytes(Pool + "/chunks/" + Chunks[0]);
  ASSERT_TRUE(Bytes.hasValue());
  (*Bytes)[0] ^= 0xff;
  ASSERT_FALSE(writeFile(Pool + "/chunks/" + Chunks[0], Bytes->data(),
                         Bytes->size())
                   .isError());
  ASSERT_EQ(::unlink((Pool + "/chunks/" + Chunks[1]).c_str()), 0);
  ASSERT_EQ(::unlink((Replica + "/chunks/" + Chunks[1]).c_str()), 0);

  Got += run(formatString("%s scrub %s -json", Estore.c_str(), Pool.c_str()),
             1);
  Got += run(formatString("%s repair %s -from %s -json", Estore.c_str(),
                          Pool.c_str(), Replica.c_str()),
             1);
  Got += run(formatString("%s gc %s -json", Estore.c_str(), Pool.c_str()));
  Got +=
      run(formatString("%s stats %s -json", Estore.c_str(), Pool.c_str()));
  ASSERT_FALSE(
      writeFileText(Pool + "/manifests/r.gelfie", "not a manifest\n")
          .isError());
  Got += run(formatString("%s ls %s -json", Estore.c_str(), Pool.c_str()));
  expectGolden("estore.json", Got);
}

TEST_F(GoldenOutput, EfleetSummary) {
  std::string Manifest = formatString(
      "replay0 replay %s/r.pb\nnative0 native /bin/true\n", Dir.c_str());
  ASSERT_FALSE(writeFileText(Dir + "/m.txt", Manifest).isError());
  std::string Got = jsonLines(
      run(formatString("%s -bindir %s -out %s/fleet -json %s/m.txt",
                       bin("efleet").c_str(), ELFIE_BIN_DIR, Dir.c_str(),
                       Dir.c_str())));
  size_t Ms = Got.find("\"wall_ms\":");
  ASSERT_NE(Ms, std::string::npos) << Got;
  Ms += std::strlen("\"wall_ms\":");
  Got.replace(Ms, Got.find_first_not_of("0123456789", Ms) - Ms, "0");
  expectGolden("efleet.json", Got);
}

TEST_F(GoldenOutput, EfaultSummary) {
  expectGolden("efault.json",
               jsonLines(run(formatString(
                   "%s -runs 2 -seed 3 -json -scratch %s/efs %s/r.elfie",
                   bin("efault").c_str(), Dir.c_str(), Dir.c_str()))));
}

TEST_F(GoldenOutput, JournalRecords) {
  std::string Got;
  for (const sched::JournalRecord &Rec : std::vector<sched::JournalRecord>{
           {{"rec", "plan"}, {"jobs", "20"}, {"seed", "7"},
            {"manifest", "/a b/\"m\".txt"}},
           {{"rec", "exit"}, {"job", "j-1"}, {"attempt", "2"},
            {"code", "-1"}, {"detail", "tab\there\nnl\\bs\x02"}},
           {{"rec", "done"}, {"job", "007"}, {"attempts", "1"}},
           {{"zz", ""}, {"aa", "-"}, {"rec", "seal"}},
           {}})
    Got += sched::renderJournalRecord(Rec) + "\n";
  expectGolden("journal.jsonl", Got);
}

TEST_F(GoldenOutput, VmStatsReports) {
  std::string Got;
  for (const char *Flags : {"", "-jit "})
    Got += linesStartingWith(
        run(formatString("%s %s-vm:stats 1 %s/r.pb", bin("ereplay").c_str(),
                         Flags, Dir.c_str())),
        {"ereplay: decode cache:", "ereplay: memory:", "ereplay: jit:"});
  Got += linesStartingWith(
      run(formatString("%s -vm:stats 1 -maxinsns 100000 %s/p.elf",
                       bin("esim").c_str(), Dir.c_str())),
      {"decode cache:", "memory:", "jit:"});
  expectGolden("vm_stats.txt", Got);
}

} // namespace
