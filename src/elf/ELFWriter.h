//===- elf/ELFWriter.h - ELF64 executable/object emission ------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds ELF64 files section by section, the way pinball2elf does (paper
/// §II-B2, Fig. 3): each run of consecutive pages from a pinball memory
/// image becomes a section placed at its original virtual address; ALLOC
/// sections are covered by PT_LOAD program headers (one per section, page
/// aligned, offset congruent to vaddr); non-ALLOC sections carry data that
/// the system loader must NOT map (the checkpointed stack pages, §II-B3).
/// Also emits .symtab/.strtab so ELFies can be inspected with standard
/// binutils-style tools.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_ELF_ELFWRITER_H
#define ELFIE_ELF_ELFWRITER_H

#include "elf/ELFTypes.h"
#include "support/Error.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace elfie {
namespace elf {

/// Incrementally builds and serializes an ELF64 file.
class ELFWriter {
public:
  /// \p Type is ET_EXEC for ELFies/guest executables, ET_REL for objects.
  ELFWriter(uint16_t Type, uint16_t Machine) : Type(Type), Machine(Machine) {}

  /// Sets the program entry point (ET_EXEC only).
  void setEntry(uint64_t Entry) { this->Entry = Entry; }

  /// Adds a PROGBITS section. If \p Flags contains SHF_ALLOC the section is
  /// also covered by a PT_LOAD segment at \p VAddr. Returns section index.
  unsigned addSection(const std::string &Name, uint64_t Flags, uint64_t VAddr,
                      std::vector<uint8_t> Data, uint64_t Align = 8);

  /// Zero-copy variant of addSection: the payload is the concatenation of
  /// \p Chunks, which are *borrowed* views (typically the page bytes
  /// of a loaded pinball). The caller must keep the viewed bytes alive until
  /// finalize()/writeToFile(); emission writes them straight into the file
  /// image with no staging copy. Emitted bytes are identical to an
  /// addSection call with the concatenated payload.
  unsigned addSectionChunks(const std::string &Name, uint64_t Flags,
                            uint64_t VAddr,
                            std::vector<std::span<const uint8_t>> Chunks,
                            uint64_t Align = 8);

  /// Adds a NOBITS (.bss-like) section of \p Size zero bytes at \p VAddr.
  unsigned addNoBitsSection(const std::string &Name, uint64_t Flags,
                            uint64_t VAddr, uint64_t Size,
                            uint64_t Align = 8);

  /// Adds a symbol. \p SectionIndex is a value previously returned by
  /// addSection/addNoBitsSection, or SHN_ABS for absolute symbols.
  void addSymbol(const std::string &Name, uint64_t Value,
                 unsigned SectionIndex, uint8_t Bind = STB_GLOBAL,
                 uint8_t SymType = STT_NOTYPE, uint64_t Size = 0);

  /// Serializes the file image. Fails when the described file would be
  /// structurally broken: for ET_EXEC, two ALLOC sections whose vaddr
  /// ranges overlap would make the loader map one on top of the other
  /// (exactly the silent corruption the ELFie layout of paper §II-B2/§II-B3
  /// must avoid), so that is a hard error rather than an emitted file.
  Expected<std::vector<uint8_t>> finalize();

  /// Serializes and writes to \p Path; marks executables runnable.
  Error writeToFile(const std::string &Path);

private:
  struct Section {
    std::string Name;
    uint32_t ShType;
    uint64_t Flags;
    uint64_t VAddr;
    uint64_t Size; // NOBITS: zero bytes; else Data.size() or sum of Chunks
    uint64_t Align;
    std::vector<uint8_t> Data; // owned payload (addSection)
    /// Borrowed payload views (addSectionChunks); emitted in order.
    std::vector<std::span<const uint8_t>> Chunks;
  };
  struct Symbol {
    std::string Name;
    uint64_t Value;
    unsigned SectionIndex;
    uint8_t Info;
    uint64_t Size;
  };

  uint16_t Type;
  uint16_t Machine;
  uint64_t Entry = 0;
  std::vector<Section> Sections; // index 0 is the implicit null section
  std::vector<Symbol> Symbols;
};

} // namespace elf
} // namespace elfie

#endif // ELFIE_ELF_ELFWRITER_H
