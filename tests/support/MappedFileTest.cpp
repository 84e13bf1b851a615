//===- tests/support/MappedFileTest.cpp -----------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"
#include "support/MappedFile.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace elfie;

namespace {

std::vector<uint8_t> pattern(size_t N, uint8_t Seed) {
  std::vector<uint8_t> V(N);
  for (size_t I = 0; I < N; ++I)
    V[I] = static_cast<uint8_t>(Seed + I);
  return V;
}

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "/elfie_mmap_" + Name;
}

TEST(MappedFile, ReadOnlyMapsFileBytes) {
  std::string Path = tempPath("ro");
  auto Bytes = pattern(8192, 0x42);
  ASSERT_FALSE(writeFile(Path, Bytes.data(), Bytes.size()).isError());

  auto MF = MappedFile::open(Path);
  ASSERT_TRUE(MF.hasValue()) << MF.message();
  EXPECT_TRUE(MF->isMapped());
  ASSERT_EQ(MF->size(), Bytes.size());
  EXPECT_EQ(0, std::memcmp(MF->data(), Bytes.data(), Bytes.size()));
  EXPECT_EQ(MF->mutableData(), nullptr); // read-only view
  EXPECT_EQ(MF->path(), Path);
  removeFile(Path);
}

TEST(MappedFile, PrivateCowWritesNeverReachTheFile) {
  std::string Path = tempPath("cow");
  auto Bytes = pattern(4096, 0x10);
  ASSERT_FALSE(writeFile(Path, Bytes.data(), Bytes.size()).isError());

  auto MF = MappedFile::open(Path, MappedFile::Mode::PrivateCow);
  ASSERT_TRUE(MF.hasValue()) << MF.message();
  ASSERT_NE(MF->mutableData(), nullptr);
  MF->mutableData()[0] = 0xff;
  EXPECT_EQ(MF->data()[0], 0xff);

  auto After = readFileBytes(Path);
  ASSERT_TRUE(After.hasValue());
  EXPECT_EQ((*After)[0], Bytes[0]); // the store stayed private
  removeFile(Path);
}

TEST(MappedFile, MissingFileKeepsErrorTaxonomy) {
  auto MF = MappedFile::open(tempPath("does_not_exist"));
  ASSERT_FALSE(MF.hasValue());
  EXPECT_NE(MF.message().find("cannot open"), std::string::npos);
  EXPECT_EQ(MF.takeError().code(), "EFAULT.IO.OPEN");
}

TEST(MappedFile, EmptyFileFallsBackToOwnedBuffer) {
  std::string Path = tempPath("empty");
  ASSERT_FALSE(writeFile(Path, nullptr, 0).isError());
  auto MF = MappedFile::open(Path);
  ASSERT_TRUE(MF.hasValue()) << MF.message();
  EXPECT_FALSE(MF->isMapped());
  EXPECT_EQ(MF->size(), 0u);
  removeFile(Path);
}

TEST(MappedFile, MoveTransfersTheMapping) {
  std::string Path = tempPath("move");
  auto Bytes = pattern(4096, 3);
  ASSERT_FALSE(writeFile(Path, Bytes.data(), Bytes.size()).isError());
  auto MF = MappedFile::open(Path);
  ASSERT_TRUE(MF.hasValue());
  const uint8_t *P = MF->data();
  MappedFile Moved = MF.takeValue();
  EXPECT_EQ(Moved.data(), P); // the mapping itself moved, not the bytes
  EXPECT_EQ(Moved.size(), Bytes.size());
  removeFile(Path);
}

/// The fault seam: with a hook installed, open() must route through
/// readFileBytes so campaigns still see every load.
class CountingHook : public IOFaultHook {
public:
  int Reads = 0;
  Error onWrite(const std::string &, std::vector<uint8_t> &) override {
    return Error::success();
  }
  Error onRead(const std::string &, std::vector<uint8_t> &Data) override {
    ++Reads;
    if (!Data.empty())
      Data[0] = 0xcc; // prove the hook's mutation is visible to the caller
    return Error::success();
  }
};

TEST(MappedFile, FaultHookSeesOpensAndCanMutate) {
  std::string Path = tempPath("hook");
  auto Bytes = pattern(64, 0);
  ASSERT_FALSE(writeFile(Path, Bytes.data(), Bytes.size()).isError());

  CountingHook Hook;
  setIOFaultHook(&Hook);
  auto MF = MappedFile::open(Path);
  setIOFaultHook(nullptr);

  ASSERT_TRUE(MF.hasValue()) << MF.message();
  EXPECT_EQ(Hook.Reads, 1);
  EXPECT_FALSE(MF->isMapped()); // owned fallback under the hook
  ASSERT_EQ(MF->size(), Bytes.size());
  EXPECT_EQ(MF->data()[0], 0xcc);
  removeFile(Path);
}

} // namespace
