//===- vm/Memory.h - Sparse paged guest address space -----------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The EVM's guest address space: a sparse map of 4 KiB pages with
/// per-page permissions and access tracking. The PinPlay-style logger uses
/// the tracking bits to implement lazy page capture ("page injection
/// records") and `-log:pages_early`; the pinball memory image is produced
/// by walking mapped pages.
///
/// AddressSpace is the one paged view of guest memory. Producers hand it a
/// MemImage, a plain run list (ELF segments from VM::loadELF, pinball
/// pages from Pinball::buildMemImage), and attachImage() is the only code
/// that resolves overlapping runs. A mapped page holds only metadata plus
/// an *optional* private 4 KiB buffer. Reads resolve, in order, to the
/// page's dirty buffer, the attached run bytes (typically an mmap'd
/// pinball or ELF file), or zeroPage(); the dirty buffer is allocated
/// copy-on-write at the first store. Loading a fat pinball therefore costs
/// no per-page copies, and replay RSS grows only with the pages the region
/// actually writes (see DESIGN.md "Memory substrate").
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_VM_MEMORY_H
#define ELFIE_VM_MEMORY_H

#include "support/Error.h"

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <vector>

namespace elfie {
namespace vm {

constexpr uint64_t GuestPageSize = 4096;
constexpr uint64_t GuestPageMask = GuestPageSize - 1;

inline uint64_t pageBase(uint64_t Addr) { return Addr & ~GuestPageMask; }

/// The one all-zero guest page: every mapped page that was never written
/// and is not image-backed reads from it, and pinball::PageBytes borrows it
/// for captured zero pages, so a zero page is recognised by this pointer.
const uint8_t *zeroPage();

/// Page permissions.
enum PagePerm : uint8_t {
  PermNone = 0,
  PermRead = 1,
  PermWrite = 2,
  PermExec = 4,
  PermRW = PermRead | PermWrite,
  PermRX = PermRead | PermExec,
  PermRWX = PermRead | PermWrite | PermExec,
};

/// Result of a memory operation that can fault.
enum class MemFault {
  None,
  Unmapped,      ///< access to an unmapped page
  NoPermission,  ///< read of non-R, write of non-W, execute of non-X page
};

/// A memory image as a plain run list: each run is \p Size bytes at guest
/// address \p VAddr, borrowed from backing storage that retain() keeps
/// alive. Runs stay in insertion order and may overlap; attachImage()
/// decides what an overlap means. Copies are cheap (runs are views, and
/// keepalives are shared).
struct MemImage {
  struct Run {
    uint64_t VAddr = 0;
    uint64_t Size = 0;
    uint8_t Perm = 0;
    const uint8_t *Data = nullptr;
  };

  std::vector<Run> Runs;
  std::vector<std::shared_ptr<const void>> Keepalives;

  /// Appends a borrowed run. Zero-length runs are ignored; a run that would
  /// wrap past the top of the address space is clamped at 2^64 - 1.
  void addRun(uint64_t VAddr, uint8_t Perm, const uint8_t *Data,
              uint64_t Size) {
    if (Size == 0)
      return;
    if (VAddr + (Size - 1) < VAddr)
      Size = UINT64_MAX - VAddr + 1;
    Runs.push_back({VAddr, Size, Perm, Data});
  }

  /// Keeps \p Backing alive as long as this image, a copy of it, or the
  /// address space it is attached to lives.
  void retain(std::shared_ptr<const void> Backing) {
    // Consecutive runs usually share one backing (one mapping, many pages).
    if (Backing && (Keepalives.empty() || Keepalives.back() != Backing))
      Keepalives.push_back(std::move(Backing));
  }
};

/// Memory-substrate counters (surfaced through RunResult/ReplayResult and
/// `-vm:stats` in ereplay/esim).
struct MemStats {
  uint64_t ImageExtents = 0; ///< runs across all attached MemImages
  uint64_t CowFaults = 0;    ///< private copies taken of image-backed pages
  uint64_t DirtyBytes = 0;   ///< bytes of privately allocated page buffers
};

/// Sparse guest memory.
class AddressSpace {
public:
  /// Maps [Addr, Addr+Size) zero-filled with permission \p Perm. Addr and
  /// Size are rounded out to page boundaries. Existing pages keep their
  /// contents but get their permissions widened. Ranges that would wrap
  /// past the top of the 64-bit space are clamped to end at the last page.
  void map(uint64_t Addr, uint64_t Size, uint8_t Perm);

  /// Unmaps any pages intersecting [Addr, Addr+Size). Wrapping ranges are
  /// clamped like map().
  void unmap(uint64_t Addr, uint64_t Size);

  /// True when the page containing \p Addr is mapped.
  bool isMapped(uint64_t Addr) const {
    return Pages.find(pageBase(Addr)) != Pages.end();
  }

  /// Reads \p Size bytes at \p Addr. Faults on unmapped/no-read pages.
  MemFault read(uint64_t Addr, void *Out, uint64_t Size);

  /// Writes \p Size bytes at \p Addr. Faults on unmapped/read-only pages.
  MemFault write(uint64_t Addr, const void *Data, uint64_t Size);

  /// Fetch for execution: reads \p Size bytes requiring PermExec.
  MemFault fetch(uint64_t Addr, void *Out, uint64_t Size);

  /// Privileged write that ignores page permissions and access tracking.
  /// Used by loaders and by checkpoint restore — never by guest code.
  MemFault poke(uint64_t Addr, const void *Data, uint64_t Size);

  /// Privileged read that ignores access tracking (checkpoint capture).
  MemFault peek(uint64_t Addr, void *Out, uint64_t Size) const;

  /// Typed helpers (assert-free fast paths used by the interpreter).
  MemFault readU64(uint64_t Addr, uint64_t &Out) {
    return read(Addr, &Out, 8);
  }
  MemFault writeU64(uint64_t Addr, uint64_t V) { return write(Addr, &V, 8); }

  /// Reads a NUL-terminated guest string (bounded by \p MaxLen).
  Expected<std::string> readCString(uint64_t Addr, uint64_t MaxLen = 4096);

  /// Clears AccessedSinceMark on every page (start of a logging region).
  void clearAccessTracking();

  /// Installs a hook invoked on the **first** access to each page after the
  /// last clearAccessTracking(), before the access mutates the page. The
  /// hook receives the page base address and its current (pre-access)
  /// contents.
  using FirstTouchHook =
      std::function<void(uint64_t PageAddr, const uint8_t *Bytes)>;
  void setFirstTouchHook(FirstTouchHook Hook) {
    this->Hook = std::move(Hook);
  }

  /// True when a first-touch hook is armed and an access to
  /// [Addr, Addr+Size) would fire it, i.e. a mapped page in the range has
  /// not been accessed since the last clearAccessTracking(). Touches
  /// nothing. The JIT's memory helpers ask this on their slow path and
  /// hand such an access to the interpreter, so the hook observes an
  /// exact retired count.
  bool wouldFireFirstTouch(uint64_t Addr, uint64_t Size) const {
    if (!Hook || Size == 0)
      return false;
    uint64_t Last = pageBase(Addr + (Size - 1));
    for (uint64_t P = pageBase(Addr);; P += GuestPageSize) {
      auto It = Pages.find(P);
      if (It != Pages.end() && !It->second.AccessedSinceMark)
        return true;
      if (P == Last)
        return false;
    }
  }

  /// Sentinel page address meaning "every page" in the code-invalidate
  /// hook (used by clearAccessTracking, which re-arms first-touch capture
  /// and therefore requires cached code to be re-fetched).
  static constexpr uint64_t AllPages = ~0ull;

  /// Installs a hook invoked whenever the bytes of an *executable* page may
  /// have changed or the page disappeared: guest stores and privileged
  /// pokes into PermExec pages, unmap of PermExec pages, and access-
  /// tracking resets (reported as AllPages). The VM uses this to keep its
  /// decoded-block cache coherent, including against self-modifying code
  /// and the replayer's page injection.
  using CodeInvalidateHook = std::function<void(uint64_t PageAddr)>;
  void setCodeInvalidateHook(CodeInvalidateHook Hook) {
    CodeHook = std::move(Hook);
  }

  /// Installs a hook invoked whenever a page's backing-store pointer may
  /// change or stop existing: copy-on-write materialization (the readable
  /// pointer moves from image/zero bytes to the private buffer), unmap of
  /// any page, attachImage (reported as AllPages), and access-tracking
  /// resets (AllPages — cached host pointers would skip the touch() that
  /// re-arms first-touch capture). The JIT's software TLB flushes on this
  /// seam; see jitReadablePage()/jitWritablePage().
  using PageMutationHook = std::function<void(uint64_t PageAddr)>;
  void setPageMutationHook(PageMutationHook Hook) {
    MutationHook = std::move(Hook);
  }

  /// Host pointer to the readable bytes of the (page-aligned) page at
  /// \p PageAddr, or null when unmapped or unreadable. For the JIT's TLB:
  /// bypasses access tracking, so callers may only cache it after a
  /// slow-path access to the page succeeded (first-touch has fired), and
  /// must drop it on the page-mutation hook.
  const uint8_t *jitReadablePage(uint64_t PageAddr) const {
    auto It = Pages.find(PageAddr);
    if (It == Pages.end() || !(It->second.Perm & PermRead))
      return nullptr;
    return readable(It->second);
  }

  /// Host pointer to the private (dirty) buffer of the page at \p PageAddr,
  /// or null when the page is unmapped, not writable, executable (stores to
  /// exec pages must keep hitting the slow path so the code-invalidate hook
  /// fires), or not yet materialized. Same caching contract as
  /// jitReadablePage().
  uint8_t *jitWritablePage(uint64_t PageAddr) {
    auto It = Pages.find(PageAddr);
    if (It == Pages.end())
      return nullptr;
    PageMeta &M = It->second;
    if (!(M.Perm & PermWrite) || (M.Perm & PermExec) || !M.Dirty)
      return nullptr;
    return M.Dirty.get();
  }

  /// Attaches a memory image: every page covered by one of its runs is
  /// mapped with its readable bytes pointing straight into the run — no
  /// copy. Runs apply in order, so a later run wins the bytes it overlaps;
  /// a run covering a whole page also replaces the permissions earlier
  /// runs of this image gave it (permissions the page had before the
  /// attach are kept). Partially covered edge pages and pages already
  /// written are materialized privately. The image's keepalives are
  /// retained for the address space's lifetime, so the backing may be an
  /// mmap the caller drops after this call.
  void attachImage(MemImage Img);

  /// Walks all mapped pages in address order, handing each page's base
  /// address, permission bits, and current readable contents.
  void forEachPage(const std::function<void(uint64_t Addr, uint8_t Perm,
                                            const uint8_t *Bytes)> &Fn) const;

  /// Number of mapped pages.
  size_t pageCount() const { return Pages.size(); }

  /// Readable contents of the page containing \p Addr (null when
  /// unmapped). For loaders and checkpoints; bypasses access tracking. The
  /// pointer is invalidated by writes to the page and by unmap.
  const uint8_t *pageData(uint64_t Addr) const {
    auto It = Pages.find(pageBase(Addr));
    return It == Pages.end() ? nullptr : readable(It->second);
  }

  /// Permission bits of the page containing \p Addr, or -1 when unmapped.
  int pagePerm(uint64_t Addr) const {
    auto It = Pages.find(pageBase(Addr));
    return It == Pages.end() ? -1 : It->second.Perm;
  }

  const MemStats &memStats() const { return MStats; }

private:
  struct PageMeta {
    uint8_t Perm = PermNone;
    /// Set once any byte of the page has been read/written/executed since
    /// the last clearAccessTracking(). Drives lazy pinball page capture.
    bool AccessedSinceMark = false;
    /// The page's permissions before the attachImage() numbered AttachGen
    /// first touched it.
    uint8_t PermBeforeAttach = PermNone;
    uint32_t AttachGen = 0;
    /// Borrowed image bytes backing this page (null when zero-filled or
    /// superseded by Dirty). Kept alive by Keepalives.
    const uint8_t *Image = nullptr;
    /// Private copy, allocated on first store (copy-on-write).
    std::unique_ptr<uint8_t[]> Dirty;
  };

  PageMeta *touch(uint64_t PageAddr);

  /// Current readable bytes of a page: dirty copy, image bytes, or
  /// zeroPage().
  static const uint8_t *readable(const PageMeta &M);

  /// The page's private buffer, allocated (and seeded from its image bytes
  /// or zeros) on first use; materialization fires the page-mutation hook.
  uint8_t *writable(uint64_t PageAddr, PageMeta &M);

  void notifyCodeChange(uint64_t PageAddr) {
    if (CodeHook)
      CodeHook(PageAddr);
  }

  void notifyPageMutation(uint64_t PageAddr) {
    if (MutationHook)
      MutationHook(PageAddr);
  }

  // Ordered map so that forEachPage and pinball images are deterministic.
  // (std::map: node stability keeps pageData()/Image pointers valid across
  // unrelated map/unmap traffic.)
  std::map<uint64_t, PageMeta> Pages;
  /// Keepalives of attached images: PageMeta::Image points into them.
  std::vector<std::shared_ptr<const void>> Keepalives;
  /// Number of attachImage() calls so far.
  uint32_t AttachGen = 0;
  MemStats MStats;
  FirstTouchHook Hook;
  CodeInvalidateHook CodeHook;
  PageMutationHook MutationHook;
};

} // namespace vm
} // namespace elfie

#endif // ELFIE_VM_MEMORY_H
