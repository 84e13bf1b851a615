//===- analyze/cfg/CodeSource.h - where analyzed bytes come from -*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static CFG builder (DESIGN.md §13) walks EG64 code out of three
/// different containers: a parsed ELFie (sections at their virtual
/// addresses), a loaded pinball (its pages mapped into a vm::AddressSpace
/// exactly as replay maps them), or a single section (the
/// startup-reachability pass confines itself to `.elfie.text`). CodeSource
/// is the one interface over all three: byte reads plus page permissions,
/// both keyed by guest virtual address.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_ANALYZE_CFG_CODESOURCE_H
#define ELFIE_ANALYZE_CFG_CODESOURCE_H

#include "elf/ELFReader.h"
#include "isa/ISA.h"
#include "pinball/Pinball.h"
#include "vm/Memory.h"

#include <cstdint>
#include <span>

namespace elfie {
namespace analyze {
namespace cfg {

/// An address space the analyses read code and check permissions against.
class CodeSource {
public:
  virtual ~CodeSource() = default;

  /// vm::PagePerm bits governing \p Addr; PermNone when unmapped.
  virtual uint8_t perm(uint64_t Addr) const = 0;

  /// Reads \p Size bytes of mapped memory at \p Addr (no permission
  /// check). Returns false when any byte of the range is not covered.
  virtual bool read(uint64_t Addr, void *Out, uint64_t Size) const = 0;

  /// True when the source maps any page that is both writable and
  /// executable — the precondition for unknown-target stores to be able
  /// to modify code.
  virtual bool hasWritableExec() const = 0;

  /// Instruction fetch: executable permission + a full-word read.
  bool fetchWord(uint64_t Addr, uint8_t *Word) const {
    return (perm(Addr) & vm::PermExec) && read(Addr, Word, isa::InstSize);
  }
};

/// ELF-backed source: every ALLOC section at its sh_addr, permissions from
/// section flags (read is implied; SHF_WRITE / SHF_EXECINSTR add W / X).
/// NOBITS sections read as zeros, matching what the loader would map.
class ElfCodeSource : public CodeSource {
public:
  explicit ElfCodeSource(const elf::ELFReader &R) : R(R) {}

  uint8_t perm(uint64_t Addr) const override;
  bool read(uint64_t Addr, void *Out, uint64_t Size) const override;
  bool hasWritableExec() const override;

private:
  const elf::ELFReader &R;
};

/// Pinball-backed source: the captured pages, injects included, attached
/// to an address space the way free replay attaches them. The pinball's
/// page backing is retained, so the source may outlive \p PB.
class PinballCodeSource : public CodeSource {
public:
  explicit PinballCodeSource(const pinball::Pinball &PB) {
    Mem.attachImage(PB.buildMemImage(/*IncludeInjects=*/true));
  }

  uint8_t perm(uint64_t Addr) const override;
  bool read(uint64_t Addr, void *Out, uint64_t Size) const override;
  bool hasWritableExec() const override;

private:
  vm::AddressSpace Mem;
};

/// A single contiguous byte run at \p Addr with uniform permissions. Used
/// by the startup-reachability pass (one section view) and by tests.
class SpanCodeSource : public CodeSource {
public:
  SpanCodeSource(uint64_t Addr, std::span<const uint8_t> Bytes, uint8_t Perm)
      : Base(Addr), Bytes(Bytes), Perm(Perm) {}

  uint8_t perm(uint64_t Addr) const override;
  bool read(uint64_t Addr, void *Out, uint64_t Size) const override;
  bool hasWritableExec() const override {
    return (Perm & (vm::PermWrite | vm::PermExec)) ==
           (vm::PermWrite | vm::PermExec);
  }

private:
  uint64_t Base;
  std::span<const uint8_t> Bytes;
  uint8_t Perm;
};

} // namespace cfg
} // namespace analyze
} // namespace elfie

#endif // ELFIE_ANALYZE_CFG_CODESOURCE_H
