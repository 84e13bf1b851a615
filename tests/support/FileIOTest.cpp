//===- tests/support/FileIOTest.cpp ---------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"

#include <gtest/gtest.h>

using namespace elfie;

namespace {

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "/elfie_fileio_" + Name;
}

TEST(FileIO, RoundTrip) {
  std::string Path = tempPath("roundtrip");
  std::string Text = "hello\nworld\n";
  ASSERT_FALSE(writeFileText(Path, Text).isError());
  auto Read = readFileText(Path);
  ASSERT_TRUE(Read.hasValue());
  EXPECT_EQ(*Read, Text);
  removeFile(Path);
}

TEST(FileIO, MissingFileFails) {
  auto R = readFileBytes(tempPath("does_not_exist"));
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.message().find("cannot open"), std::string::npos);
}

TEST(FileIO, CreateDirectories) {
  std::string Dir = tempPath("a/b/c");
  ASSERT_FALSE(createDirectories(Dir).isError());
  EXPECT_TRUE(fileExists(Dir));
  // Idempotent.
  EXPECT_FALSE(createDirectories(Dir).isError());
  removeTree(tempPath("a"));
}

TEST(FileIO, AtomicWriteLeavesNoTmpLitterOnRenameFailure) {
  // Target an existing non-empty directory: the data writes fine but the
  // final rename must fail (EISDIR/ENOTEMPTY) — and the temp sibling must
  // be cleaned up, not littered for the next campaign to trip over.
  std::string Dir = tempPath("atomic_litter");
  removeTree(Dir);
  ASSERT_FALSE(createDirectories(Dir + "/target/inner").isError());
  Error E = writeFileAtomic(Dir + "/target", "x", 1);
  ASSERT_TRUE(E.isError());
  EXPECT_EQ(E.code(), "EFAULT.IO.RENAME");
  auto Entries = listDirectory(Dir);
  ASSERT_TRUE(Entries.hasValue());
  for (const std::string &Name : *Entries)
    EXPECT_EQ(Name.find(".tmp"), std::string::npos) << Name;
  removeTree(Dir);
}

TEST(FileIO, AtomicWriteReplacesWholeFileOrNothing) {
  // writeFileAtomic's contract is tmp + fsync + rename + *parent-dir
  // fsync*: the last step makes the rename's directory entry itself
  // durable, so a power loss right after return cannot evaporate the
  // published file (rename alone only orders data, not the dirent).
  // publishDirAtomic gives directories the same guarantee. The fsync
  // cannot be observed from a live process, so this test pins the
  // observable half of the contract: the old content stays intact until
  // the new file is complete, and no temp sibling outlives the call.
  std::string Dir = tempPath("atomic_replace");
  removeTree(Dir);
  ASSERT_FALSE(createDirectories(Dir).isError());
  std::string Target = Dir + "/target";
  ASSERT_FALSE(writeFileAtomic(Target, "old-content", 11).isError());
  ASSERT_FALSE(writeFileAtomic(Target, "new", 3).isError());
  auto Text = readFileText(Target);
  ASSERT_TRUE(Text.hasValue());
  EXPECT_EQ(*Text, "new");
  auto Entries = listDirectory(Dir);
  ASSERT_TRUE(Entries.hasValue());
  ASSERT_EQ(Entries->size(), 1u);
  EXPECT_EQ((*Entries)[0], "target");
  removeTree(Dir);
}

TEST(AppendLog, AppendsAreDurableAcrossReopen) {
  std::string Path = tempPath("appendlog");
  removeFile(Path);
  {
    AppendLog Log;
    ASSERT_FALSE(Log.open(Path).isError());
    EXPECT_TRUE(Log.isOpen());
    ASSERT_FALSE(Log.append("first").isError());
    ASSERT_FALSE(Log.append("second\n").isError()); // newline not doubled
  }
  {
    AppendLog Log;
    ASSERT_FALSE(Log.open(Path).isError());
    ASSERT_FALSE(Log.append("third").isError());
  }
  auto Text = readFileText(Path);
  ASSERT_TRUE(Text.hasValue());
  EXPECT_EQ(*Text, "first\nsecond\nthird\n");
  removeFile(Path);
}

TEST(AppendLog, RecordAfterTornTailStartsOnFreshLine) {
  // A torn earlier record (kill or short write mid-append) leaves the file
  // without its final newline; the next record must not run into it.
  std::string Path = tempPath("appendlog_torn");
  ASSERT_FALSE(writeFileText(Path, "whole\ntor").isError());
  {
    AppendLog Log;
    ASSERT_FALSE(Log.open(Path).isError());
    ASSERT_FALSE(Log.append("next").isError());
    ASSERT_FALSE(Log.append("last").isError());
  }
  auto Text = readFileText(Path);
  ASSERT_TRUE(Text.hasValue());
  EXPECT_EQ(*Text, "whole\ntor\nnext\nlast\n");
  removeFile(Path);
}

TEST(AppendLog, AppendAfterCloseFails) {
  std::string Path = tempPath("appendlog_closed");
  AppendLog Log;
  ASSERT_FALSE(Log.open(Path).isError());
  Log.close();
  EXPECT_FALSE(Log.isOpen());
  EXPECT_TRUE(Log.append("late").isError());
  removeFile(Path);
}

TEST(BinaryIO, WriterReaderRoundTrip) {
  BinaryWriter W;
  W.writeU8(0xab);
  W.writeU16(0x1234);
  W.writeU32(0xdeadbeef);
  W.writeU64(0x0123456789abcdefull);
  W.writeI64(-42);
  W.writeDouble(3.25);
  W.writeString("pinball");
  uint8_t Blob[3] = {1, 2, 3};
  W.writeBlob(Blob, 3);

  BinaryReader R(W.bytes());
  EXPECT_EQ(R.readU8(), 0xab);
  EXPECT_EQ(R.readU16(), 0x1234);
  EXPECT_EQ(R.readU32(), 0xdeadbeefu);
  EXPECT_EQ(R.readU64(), 0x0123456789abcdefull);
  EXPECT_EQ(R.readI64(), -42);
  EXPECT_DOUBLE_EQ(R.readDouble(), 3.25);
  EXPECT_EQ(R.readString(), "pinball");
  auto B = R.readBlob();
  ASSERT_EQ(B.size(), 3u);
  EXPECT_EQ(B[2], 3);
  EXPECT_TRUE(R.atEnd());
  EXPECT_FALSE(R.hadError());
}

TEST(BinaryIO, ReaderOverrunIsSticky) {
  BinaryWriter W;
  W.writeU16(7);
  BinaryReader R(W.bytes());
  EXPECT_EQ(R.readU32(), 0u); // overrun
  EXPECT_TRUE(R.hadError());
  EXPECT_EQ(R.readU8(), 0u); // still failed
  EXPECT_TRUE(R.hadError());
}

TEST(BinaryIO, EmptyBlob) {
  BinaryWriter W;
  W.writeBlob(nullptr, 0);
  BinaryReader R(W.bytes());
  EXPECT_TRUE(R.readBlob().empty());
  EXPECT_FALSE(R.hadError());
}

} // namespace
