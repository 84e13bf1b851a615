//===- tests/vm/MemoryTest.cpp - AddressSpace regression tests ------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Regressions for the address-space fixes: read must honour PermRead, and
/// map/unmap must terminate for ranges ending at the very top of the
/// 64-bit guest space instead of wrapping around forever. Also the image
/// rules attachImage() alone defines: overlap, copy-on-write, zero-length
/// and top-of-space runs.
///
//===----------------------------------------------------------------------===//

#include "vm/Memory.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace elfie;
using namespace elfie::vm;

namespace {

constexpr uint64_t Base = 0x40000;

TEST(AddressSpace, ReadRequiresPermRead) {
  AddressSpace AS;
  AS.map(Base, GuestPageSize, PermWrite);
  uint64_t V = 0;
  EXPECT_EQ(AS.read(Base, &V, 8), MemFault::NoPermission);
  // Privileged peek still works.
  EXPECT_EQ(AS.peek(Base, &V, 8), MemFault::None);

  AddressSpace AS2;
  AS2.map(Base, GuestPageSize, PermRead);
  EXPECT_EQ(AS2.read(Base, &V, 8), MemFault::None);
}

TEST(AddressSpace, WouldFireFirstTouchAsksWithoutTouching) {
  AddressSpace AS;
  AS.map(0x10000, 0x2000, PermRW);
  // No hook armed: nothing would fire.
  EXPECT_FALSE(AS.wouldFireFirstTouch(0x10000, 8));
  int Fired = 0;
  AS.setFirstTouchHook([&](uint64_t, const uint8_t *) { ++Fired; });
  AS.clearAccessTracking();
  EXPECT_TRUE(AS.wouldFireFirstTouch(0x10008, 8));
  EXPECT_FALSE(AS.wouldFireFirstTouch(0x40000, 8)); // unmapped
  EXPECT_EQ(Fired, 0) << "the query must not touch the page";
  uint64_t V = 0;
  ASSERT_EQ(AS.read(0x10000, &V, 8), MemFault::None);
  EXPECT_EQ(Fired, 1);
  EXPECT_FALSE(AS.wouldFireFirstTouch(0x10ff8, 8));
  // An access straddling into the untouched second page would fire.
  EXPECT_TRUE(AS.wouldFireFirstTouch(0x10ffc, 8));
  AS.setFirstTouchHook(nullptr);
  EXPECT_FALSE(AS.wouldFireFirstTouch(0x11000, 8));
}

TEST(AddressSpace, ReadOfUnmappedStillFaultsUnmapped) {
  AddressSpace AS;
  uint64_t V = 0;
  EXPECT_EQ(AS.read(Base, &V, 8), MemFault::Unmapped);
}

TEST(AddressSpace, MapAtTopOfAddressSpaceTerminates) {
  AddressSpace AS;
  uint64_t LastPage = UINT64_MAX - GuestPageMask;
  AS.map(LastPage, GuestPageSize, PermRW);
  EXPECT_TRUE(AS.isMapped(UINT64_MAX));
  EXPECT_EQ(AS.pageCount(), 1u);
  // Round-trip through the page.
  uint64_t V = 0x1122334455667788ull, Got = 0;
  EXPECT_EQ(AS.write(LastPage, &V, 8), MemFault::None);
  EXPECT_EQ(AS.read(LastPage, &Got, 8), MemFault::None);
  EXPECT_EQ(Got, V);
}

TEST(AddressSpace, MapClampsWrappingRange) {
  AddressSpace AS;
  uint64_t LastPage = UINT64_MAX - GuestPageMask;
  // Size overshoots the top of the space; the range is clamped to the
  // last page instead of wrapping to page 0.
  AS.map(LastPage, 4 * GuestPageSize, PermRW);
  EXPECT_TRUE(AS.isMapped(LastPage));
  EXPECT_FALSE(AS.isMapped(0));
  EXPECT_EQ(AS.pageCount(), 1u);
}

TEST(AddressSpace, UnmapAtTopOfAddressSpaceTerminates) {
  AddressSpace AS;
  uint64_t LastPage = UINT64_MAX - GuestPageMask;
  AS.map(LastPage - GuestPageSize, 2 * GuestPageSize, PermRW);
  EXPECT_EQ(AS.pageCount(), 2u);
  AS.unmap(LastPage - GuestPageSize, 4 * GuestPageSize); // wrapping size
  EXPECT_FALSE(AS.isMapped(LastPage));
  EXPECT_FALSE(AS.isMapped(LastPage - GuestPageSize));
  EXPECT_EQ(AS.pageCount(), 0u);
}

TEST(AddressSpace, CodeInvalidateHookFiresOnExecPageWrite) {
  AddressSpace AS;
  std::vector<uint64_t> Invalidated;
  AS.setCodeInvalidateHook(
      [&](uint64_t Page) { Invalidated.push_back(Page); });
  AS.map(Base, GuestPageSize, PermRWX);
  AS.map(Base + GuestPageSize, GuestPageSize, PermRW);

  uint64_t V = 1;
  // Store into the executable page: hook fires with that page.
  EXPECT_EQ(AS.write(Base + 16, &V, 8), MemFault::None);
  ASSERT_EQ(Invalidated.size(), 1u);
  EXPECT_EQ(Invalidated[0], Base);
  // Store into the plain data page: no notification.
  EXPECT_EQ(AS.write(Base + GuestPageSize, &V, 8), MemFault::None);
  EXPECT_EQ(Invalidated.size(), 1u);
  // Privileged poke into the exec page (replayer page injection): fires.
  EXPECT_EQ(AS.poke(Base + 32, &V, 8), MemFault::None);
  EXPECT_EQ(Invalidated.size(), 2u);
  // Unmap of the exec page: fires.
  AS.unmap(Base, GuestPageSize);
  EXPECT_EQ(Invalidated.size(), 3u);
  // clearAccessTracking reports the AllPages sentinel.
  AS.clearAccessTracking();
  ASSERT_EQ(Invalidated.size(), 4u);
  EXPECT_EQ(Invalidated[3], AddressSpace::AllPages);
}

MemImage pageImage(const std::vector<uint8_t> &Bytes, uint64_t At,
                   uint8_t Perm) {
  MemImage Img;
  Img.addRun(At, Perm, Bytes.data(), Bytes.size());
  return Img;
}

TEST(AddressSpace, AttachImageBacksReadsWithoutDirtyPages) {
  std::vector<uint8_t> Backing(2 * GuestPageSize);
  for (size_t I = 0; I < Backing.size(); ++I)
    Backing[I] = static_cast<uint8_t>(I * 7);

  AddressSpace AS;
  AS.attachImage(pageImage(Backing, Base, PermRead));

  const MemStats &S = AS.memStats();
  EXPECT_EQ(S.ImageExtents, 1u);
  EXPECT_EQ(S.CowFaults, 0u);
  EXPECT_EQ(S.DirtyBytes, 0u);

  // Reads come straight off the backing bytes (no copy was made: the page
  // data pointer aims into the backing buffer itself).
  uint64_t V = 0;
  EXPECT_EQ(AS.read(Base + 8, &V, 8), MemFault::None);
  EXPECT_EQ(0, std::memcmp(&V, Backing.data() + 8, 8));
  EXPECT_EQ(AS.pageData(Base), Backing.data());
  EXPECT_EQ(AS.pageData(Base + GuestPageSize),
            Backing.data() + GuestPageSize);
  EXPECT_EQ(AS.pagePerm(Base), PermRead);
  EXPECT_EQ(AS.memStats().DirtyBytes, 0u); // reads never allocate
}

TEST(AddressSpace, WriteToImagePageCowFaultsOnce) {
  std::vector<uint8_t> Backing(GuestPageSize, 0xab);
  AddressSpace AS;
  AS.attachImage(pageImage(Backing, Base, PermRW));

  uint64_t V = 0x1122334455667788ull;
  EXPECT_EQ(AS.write(Base + 64, &V, 8), MemFault::None);
  EXPECT_EQ(AS.memStats().CowFaults, 1u);
  EXPECT_EQ(AS.memStats().DirtyBytes, GuestPageSize);

  // The backing bytes are untouched; the page's private copy has the store
  // plus the original image bytes around it.
  EXPECT_EQ(Backing[64], 0xab);
  uint64_t Got = 0;
  EXPECT_EQ(AS.read(Base + 64, &Got, 8), MemFault::None);
  EXPECT_EQ(Got, V);
  uint8_t Edge = 0;
  EXPECT_EQ(AS.read(Base + 63, &Edge, 1), MemFault::None);
  EXPECT_EQ(Edge, 0xab);

  // Second store to the same page: no new fault, no new dirty bytes.
  EXPECT_EQ(AS.write(Base + 128, &V, 8), MemFault::None);
  EXPECT_EQ(AS.memStats().CowFaults, 1u);
  EXPECT_EQ(AS.memStats().DirtyBytes, GuestPageSize);
}

TEST(AddressSpace, TwoSpacesSharingOneImageStayIsolated) {
  std::vector<uint8_t> Backing(GuestPageSize, 0x5a);
  MemImage Img;
  Img.addRun(Base, PermRW, Backing.data(), Backing.size());

  // Two replay VMs over the same pinball image: each attaches a copy of
  // the (cheap, buffer-sharing) image.
  AddressSpace A, B;
  A.attachImage(Img);
  B.attachImage(Img);

  uint64_t V = 0xdeadbeef;
  EXPECT_EQ(A.write(Base, &V, 8), MemFault::None);

  uint64_t FromA = 0, FromB = 0;
  EXPECT_EQ(A.read(Base, &FromA, 8), MemFault::None);
  EXPECT_EQ(B.read(Base, &FromB, 8), MemFault::None);
  EXPECT_EQ(FromA, V);
  EXPECT_EQ(0, std::memcmp(&FromB, Backing.data(), 8)); // B unaffected
  EXPECT_EQ(B.memStats().CowFaults, 0u);
  EXPECT_EQ(Backing[0], 0x5a); // and so is the shared backing
}

TEST(AddressSpace, AttachImageUnalignedRunMaterializesEdgePages) {
  // A run that starts mid-page cannot be borrowed page-wise; the edge page
  // gets a private copy with the covered range filled in.
  std::vector<uint8_t> Backing(GuestPageSize, 0x77);
  AddressSpace AS;
  MemImage Img;
  Img.addRun(Base + 16, PermRead, Backing.data(), 32);
  AS.attachImage(std::move(Img));

  uint8_t Out[32];
  EXPECT_EQ(AS.read(Base + 16, Out, 32), MemFault::None);
  EXPECT_EQ(0, std::memcmp(Out, Backing.data(), 32));
  // Bytes outside the run on the same page read as zero.
  uint8_t Z = 0xff;
  EXPECT_EQ(AS.read(Base, &Z, 1), MemFault::None);
  EXPECT_EQ(Z, 0);
  EXPECT_EQ(AS.memStats().DirtyBytes, GuestPageSize);
}

TEST(AddressSpace, AttachImageLaterRunWinsBytesAndPermission) {
  std::vector<uint8_t> First(3 * GuestPageSize, 0xaa);
  std::vector<uint8_t> Second(GuestPageSize, 0xbb);
  std::vector<uint8_t> Mid(16, 0xcc);
  const uint64_t Page1 = Base + GuestPageSize, Page2 = Page1 + GuestPageSize;
  AddressSpace AS;
  AS.map(Page2, GuestPageSize, PermExec);
  MemImage Img;
  Img.addRun(Base, PermRW, First.data(), First.size());
  // Whole pages: the later run takes the bytes and the permissions.
  Img.addRun(Base, PermRead, Second.data(), Second.size());
  Img.addRun(Page2, PermRead, Second.data(), Second.size());
  // Mid-page: the later run takes only the bytes it covers.
  Img.addRun(Page1 + 0x40, PermRead, Mid.data(), Mid.size());
  AS.attachImage(std::move(Img));
  EXPECT_EQ(AS.memStats().ImageExtents, 4u);

  EXPECT_EQ(AS.pagePerm(Base), PermRead);
  EXPECT_EQ(AS.pageData(Base), Second.data());
  // Permissions the page had before the attach stay.
  EXPECT_EQ(AS.pagePerm(Page2), PermRead | PermExec);
  EXPECT_EQ(AS.pageData(Page2), Second.data());

  EXPECT_EQ(AS.pagePerm(Page1), PermRW);
  uint8_t Out[0x60];
  ASSERT_EQ(AS.peek(Page1 + 0x20, Out, sizeof(Out)), MemFault::None);
  for (size_t I = 0; I < sizeof(Out); ++I)
    EXPECT_EQ(Out[I], I >= 0x20 && I < 0x30 ? 0xcc : 0xaa) << I;
  EXPECT_EQ(First[0x1040], 0xaa); // the earlier run's backing is untouched
}

TEST(AddressSpace, AttachImageIgnoresZeroLengthRuns) {
  uint8_t B = 7;
  MemImage Img;
  Img.addRun(Base, PermRead, &B, 0);
  EXPECT_TRUE(Img.Runs.empty());
  AddressSpace AS;
  AS.attachImage(std::move(Img));
  EXPECT_EQ(AS.pageCount(), 0u);
  EXPECT_EQ(AS.memStats().ImageExtents, 0u);
  uint8_t Out;
  EXPECT_EQ(AS.peek(Base, &Out, 1), MemFault::Unmapped);
}

TEST(AddressSpace, AttachImageClampsRunAtTopOfAddressSpace) {
  std::vector<uint8_t> Bytes(0x20);
  for (size_t I = 0; I < Bytes.size(); ++I)
    Bytes[I] = static_cast<uint8_t>(I + 1);
  // A run that would wrap past 2^64 ends at the top byte instead.
  MemImage Img;
  Img.addRun(UINT64_MAX - 0xf, PermRead, Bytes.data(), Bytes.size());
  ASSERT_EQ(Img.Runs.size(), 1u);
  EXPECT_EQ(Img.Runs[0].Size, 0x10u);

  AddressSpace AS;
  AS.attachImage(std::move(Img));
  EXPECT_EQ(AS.pageCount(), 1u);
  EXPECT_FALSE(AS.isMapped(0)); // nothing wrapped onto page 0
  uint8_t Out[0x10];
  ASSERT_EQ(AS.peek(UINT64_MAX - 0xf, Out, sizeof(Out)), MemFault::None);
  EXPECT_EQ(0, std::memcmp(Out, Bytes.data(), sizeof(Out)));
  uint8_t Below = 0xff;
  ASSERT_EQ(AS.peek(UINT64_MAX - 0x10, &Below, 1), MemFault::None);
  EXPECT_EQ(Below, 0); // the rest of the edge page reads as zero
}

TEST(AddressSpace, AttachedExecImageInvalidatesCode) {
  std::vector<uint8_t> Backing(GuestPageSize, 0x90);
  AddressSpace AS;
  std::vector<uint64_t> Invalidated;
  AS.setCodeInvalidateHook(
      [&](uint64_t Page) { Invalidated.push_back(Page); });
  AS.attachImage(pageImage(Backing, Base, PermRX));
  ASSERT_FALSE(Invalidated.empty());
  EXPECT_EQ(Invalidated[0], Base);

  // Fetch executes straight from the borrowed image bytes.
  uint8_t Insn[4];
  EXPECT_EQ(AS.fetch(Base, Insn, 4), MemFault::None);
  EXPECT_EQ(Insn[0], 0x90);
}

} // namespace
