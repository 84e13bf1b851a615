//===- pinball/Pinball.h - Region checkpoint format -------------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pinball: a user-level region checkpoint, reproducing the PinPlay
/// artifact the paper builds on (§I, §II-A). A pinball is a directory of
/// files:
///
///   image.text   initial memory image (page records). For fat pinballs
///                (-log:fat = -log:whole_image + -log:pages_early) this
///                holds every page the region needs; regular pinballs keep
///                lazily-captured pages in inject.pages instead.
///   inject.pages page-injection records: pages inserted at first-use time
///                during constrained replay (regular pinballs).
///   t<N>.reg     per-thread architectural register state at region start,
///                plus the thread's retired-instruction count inside the
///                region (the graceful-exit budget, §II-C1).
///   sel.log      system-call side-effect log: results + guest-memory bytes
///                written by each syscall, in execution order (§II-A, [15]).
///   race.log     thread schedule: (tid, instruction-count) slices. Replay
///                enforces it, which subsumes PinPlay's shared-memory
///                access-order guarantee (paper footnote 1).
///   output.log   bytes the region wrote to stdout (used by differential
///                tests and by ELFie validation).
///   meta         region bounds, layout info (stack range, brk), flags.
///
/// Every file but output.log starts with a 12-byte header: magic, format
/// version, record kind. This is format version 2; any other version is
/// rejected with EFAULT.PINBALL.VERSION. A page record is the page address
/// (u64), its permissions (u8) and a u32-length payload: 4,096 bytes, or
/// none for an all-zero page (new in version 2, which version 1 wrote in
/// full). In memory such a page borrows vm::zeroPage(), so every consumer
/// still reads 4,096 bytes, and a mapped zero page stays distinct from an
/// unmapped one. A page address appears at most once across image.text and
/// inject.pages; load() rejects a second record with EFAULT.PINBALL.PAGE.
/// Consumers see the pages through buildMemImage(): a run list that
/// vm::AddressSpace maps exactly as replay does.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_PINBALL_PINBALL_H
#define ELFIE_PINBALL_PINBALL_H

#include "support/Error.h"
#include "support/MappedFile.h"
#include "vm/VM.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace elfie {
namespace pinball {

/// The bytes of one captured page: either an owned (shared) heap buffer or
/// a zero-copy borrow into backing storage someone else keeps alive — for
/// loaded pinballs, the mmap'd image.text/inject.pages retained in
/// Pinball::Backing; for all-zero pages, vm::zeroPage(). Copies
/// are cheap (they share the buffer); the mutating accessors materialize a
/// private copy first (copy-on-write), so borrowed backing is never written
/// through and copies never alias mutations.
class PageBytes {
public:
  PageBytes() = default;

  /// Takes a captured guest page: borrows vm::zeroPage() when \p Page is
  /// that page (never written) or all GuestPageSize bytes at it are zero,
  /// copies them otherwise.
  void capturePage(const uint8_t *Page);

  /// True when this is a borrow of vm::zeroPage(). This pointer identity is
  /// the one zero-page rule: Pinball::save writes such a page as a
  /// payload-free record and Pinball::load borrows vm::zeroPage() for one.
  bool isZero() const { return Ptr == vm::zeroPage(); }

  /// Owned copy of [First, Last).
  void assign(const uint8_t *First, const uint8_t *Last) {
    size_t N = static_cast<size_t>(Last - First);
    std::shared_ptr<uint8_t[]> Buf(new uint8_t[N]);
    std::memcpy(Buf.get(), First, N);
    Ptr = Buf.get();
    Len = N;
    Owned = std::move(Buf);
  }

  /// Zero-copy borrow; the caller guarantees [Data, Data + Size) outlives
  /// every copy of this object (see Pinball::Backing).
  void borrow(const uint8_t *Data, size_t Size) {
    Ptr = Data;
    Len = Size;
    Owned.reset();
  }

  const uint8_t *data() const { return Ptr; }
  size_t size() const { return Len; }
  bool empty() const { return Len == 0; }
  const uint8_t *begin() const { return Ptr; }
  const uint8_t *end() const { return Ptr + Len; }
  uint8_t operator[](size_t I) const { return Ptr[I]; }

  /// The shared owning buffer, if any (keepalive for vm::MemImage runs).
  std::shared_ptr<const uint8_t[]> owner() const { return Owned; }

  friend bool operator==(const PageBytes &A, const PageBytes &B) {
    return A.Len == B.Len &&
           (A.Ptr == B.Ptr || std::equal(A.begin(), A.end(), B.begin()));
  }

private:
  const uint8_t *Ptr = nullptr;
  size_t Len = 0;
  std::shared_ptr<const uint8_t[]> Owned;
};

/// One captured page.
struct PageRecord {
  uint64_t Addr = 0; ///< page-aligned guest address
  uint8_t Perm = 0;  ///< vm::PagePerm bits
  PageBytes Bytes;   ///< exactly GuestPageSize bytes
};

/// A page inserted lazily at replay time (regular pinballs).
struct InjectRecord {
  /// Global retired-instruction count (relative to region start) of the
  /// instruction that first touches the page.
  uint64_t FirstUseIcount = 0;
  PageRecord Page;
};

/// Per-thread register state at region start.
struct ThreadRegs {
  uint32_t Tid = 0;
  uint64_t GPR[isa::NumGPRs] = {};
  double FPR[isa::NumFPRs] = {};
  uint64_t PC = 0;
  /// Instructions this thread retires inside the region (graceful-exit
  /// budget for the corresponding ELFie thread).
  uint64_t RegionIcount = 0;
};

/// One logged system call with its side effects.
struct SyscallRecord {
  uint32_t Tid = 0;
  uint64_t Nr = 0;
  uint64_t Args[6] = {};
  int64_t Result = 0;
  /// Guest memory written by the syscall (e.g. read() filling a buffer).
  struct MemWrite {
    uint64_t Addr;
    std::vector<uint8_t> Bytes;
  };
  std::vector<MemWrite> MemWrites;
};

/// A contiguous run of instructions executed by one thread.
struct ScheduleSlice {
  uint32_t Tid = 0;
  uint64_t NumInsts = 0;
};

/// Region and environment metadata.
struct PinballMeta {
  std::string ProgramName;
  /// Global retired count at which the region starts (in the logging run).
  uint64_t RegionStart = 0;
  /// Region length in global retired instructions.
  uint64_t RegionLength = 0;
  bool WholeImage = false; ///< -log:whole_image was set
  bool PagesEarly = false; ///< -log:pages_early was set
  /// Main-thread stack range (pinball2elf treats pages inside it as stack
  /// pages for the collision workaround, §II-B3).
  uint64_t StackBase = 0;
  uint64_t StackTop = 0;
  /// Program break at region start and end (feeds BRK.log, §II-C2).
  uint64_t BrkAtStart = 0;
  uint64_t BrkAtEnd = 0;
};

/// An in-memory pinball.
class Pinball {
public:
  PinballMeta Meta;
  std::vector<PageRecord> Image;
  std::vector<InjectRecord> Injects;
  std::vector<ThreadRegs> Threads;
  std::vector<SyscallRecord> Syscalls;
  std::vector<ScheduleSlice> Schedule;
  std::string OutputLog;

  /// Backing storage (the mmap'd pinball files) that page records may
  /// borrow bytes from. Shared so Pinball copies and MemImages built with
  /// buildMemImage() stay valid independently of this object's lifetime.
  std::vector<std::shared_ptr<const MappedFile>> Backing;

  /// True when every page needed by the region is in the initial image.
  bool isFat() const { return Meta.WholeImage && Meta.PagesEarly; }

  /// All pages the region can touch: Image plus Injects.
  std::vector<const PageRecord *> allPages() const;

  /// The captured pages as a run list, one run per page, without copying
  /// them: runs borrow the page bytes, and the image retains Backing plus
  /// any owned page buffers, so the result may outlive this Pinball. Image
  /// pages always; inject pages too when \p IncludeInjects (fat replay).
  vm::MemImage buildMemImage(bool IncludeInjects = false) const;

  /// Finds the initial registers for \p Tid; null when absent.
  const ThreadRegs *threadRegs(uint32_t Tid) const;

  /// Total bytes of captured memory (pages only).
  uint64_t imageBytes() const;

  /// Serializes to directory \p Dir (created if needed).
  Error save(const std::string &Dir) const;

  /// Loads a pinball from directory \p Dir. Validates record framing and
  /// reports corrupt/truncated files with the offending file name.
  static Expected<Pinball> load(const std::string &Dir);

  /// Reads and validates only the 'meta' file of \p Dir — cheap (no pages,
  /// no logs), for consumers that need region bounds without the payload,
  /// e.g. the campaign runner's budget-scaled job timeouts. \p NumThreads
  /// (optional) receives the recorded thread count.
  static Expected<PinballMeta> loadMeta(const std::string &Dir,
                                        uint32_t *NumThreads = nullptr);
};

} // namespace pinball
} // namespace elfie

#endif // ELFIE_PINBALL_PINBALL_H
