//===- elf/ELFWriter.cpp --------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "elf/ELFWriter.h"

#include "support/FileIO.h"

#include <algorithm>
#include <cstring>
#include <map>

using namespace elfie;
using namespace elfie::elf;

unsigned ELFWriter::addSection(const std::string &Name, uint64_t Flags,
                               uint64_t VAddr, std::vector<uint8_t> Data,
                               uint64_t Align) {
  Section S;
  S.Name = Name;
  S.ShType = SHT_PROGBITS;
  S.Flags = Flags;
  S.VAddr = VAddr;
  S.Size = Data.size();
  S.Align = Align;
  S.Data = std::move(Data);
  Sections.push_back(std::move(S));
  // +1 accounts for the implicit SHT_NULL section emitted at index 0.
  return static_cast<unsigned>(Sections.size());
}

unsigned ELFWriter::addSectionChunks(
    const std::string &Name, uint64_t Flags, uint64_t VAddr,
    std::vector<std::span<const uint8_t>> Chunks, uint64_t Align) {
  Section S;
  S.Name = Name;
  S.ShType = SHT_PROGBITS;
  S.Flags = Flags;
  S.VAddr = VAddr;
  S.Align = Align;
  uint64_t Total = 0;
  for (const auto &C : Chunks)
    Total += C.size();
  S.Size = Total;
  S.Chunks = std::move(Chunks);
  Sections.push_back(std::move(S));
  return static_cast<unsigned>(Sections.size());
}

unsigned ELFWriter::addNoBitsSection(const std::string &Name, uint64_t Flags,
                                     uint64_t VAddr, uint64_t Size,
                                     uint64_t Align) {
  Section S;
  S.Name = Name;
  S.ShType = SHT_NOBITS;
  S.Flags = Flags;
  S.VAddr = VAddr;
  S.Size = Size;
  S.Align = Align;
  Sections.push_back(std::move(S));
  return static_cast<unsigned>(Sections.size());
}

void ELFWriter::addSymbol(const std::string &Name, uint64_t Value,
                          unsigned SectionIndex, uint8_t Bind,
                          uint8_t SymType, uint64_t Size) {
  Symbols.push_back(
      {Name, Value, SectionIndex, makeSymbolInfo(Bind, SymType), Size});
}

namespace {

/// Accumulates a string table; offset 0 is always the empty string.
class StringTableBuilder {
public:
  StringTableBuilder() { Bytes.push_back('\0'); }
  uint32_t add(const std::string &S) {
    if (S.empty())
      return 0;
    auto It = Offsets.find(S);
    if (It != Offsets.end())
      return It->second;
    uint32_t Off = static_cast<uint32_t>(Bytes.size());
    Bytes.insert(Bytes.end(), S.begin(), S.end());
    Bytes.push_back('\0');
    Offsets.emplace(S, Off);
    return Off;
  }
  std::vector<uint8_t> take() { return std::move(Bytes); }

private:
  std::vector<uint8_t> Bytes;
  std::map<std::string, uint32_t> Offsets;
};

} // namespace

Expected<std::vector<uint8_t>> ELFWriter::finalize() {
  // Refuse to emit an executable whose loadable sections collide: the
  // loader would map the later PT_LOAD over the earlier one and the ELFie
  // would silently run on corrupted state. (ET_REL objects conventionally
  // carry sh_addr 0 everywhere, so the check applies to executables only;
  // analyze/LayoutPass is the independent second opinion on emitted files.)
  if (Type == ET_EXEC) {
    struct Range {
      uint64_t Lo, Hi;
      const Section *S;
    };
    std::vector<Range> Ranges;
    for (const Section &S : Sections)
      if ((S.Flags & SHF_ALLOC) != 0 && S.Size)
        Ranges.push_back({S.VAddr, S.VAddr + S.Size, &S});
    std::sort(Ranges.begin(), Ranges.end(),
              [](const Range &A, const Range &B) { return A.Lo < B.Lo; });
    for (size_t I = 1; I < Ranges.size(); ++I)
      if (Ranges[I].Lo < Ranges[I - 1].Hi)
        return makeError(
            "ALLOC sections '%s' [%#llx, %#llx) and '%s' [%#llx, %#llx) "
            "overlap; the loader would map one over the other",
            Ranges[I - 1].S->Name.c_str(),
            static_cast<unsigned long long>(Ranges[I - 1].Lo),
            static_cast<unsigned long long>(Ranges[I - 1].Hi),
            Ranges[I].S->Name.c_str(),
            static_cast<unsigned long long>(Ranges[I].Lo),
            static_cast<unsigned long long>(Ranges[I].Hi));
  }

  // Build .symtab/.strtab section payloads first so they can participate in
  // the generic layout below. The writer appends them as trailing non-ALLOC
  // sections; .shstrtab goes last.
  StringTableBuilder SymStrings;
  std::vector<Elf64_Sym> SymEntries;
  SymEntries.push_back(Elf64_Sym{}); // index 0: undefined symbol
  // Local symbols must precede globals per the gABI; sort stably.
  std::vector<Symbol> Sorted = Symbols;
  std::stable_sort(Sorted.begin(), Sorted.end(),
                   [](const Symbol &A, const Symbol &B) {
                     return (A.Info >> 4) < (B.Info >> 4);
                   });
  uint32_t FirstGlobal = 1;
  for (const Symbol &Sym : Sorted) {
    Elf64_Sym E{};
    E.st_name = SymStrings.add(Sym.Name);
    E.st_info = Sym.Info;
    E.st_shndx = static_cast<uint16_t>(Sym.SectionIndex);
    E.st_value = Sym.Value;
    E.st_size = Sym.Size;
    if ((Sym.Info >> 4) == STB_LOCAL)
      ++FirstGlobal;
    SymEntries.push_back(E);
  }

  struct OutSection {
    const Section *Src = nullptr; // null for synthesized sections
    std::string Name;
    uint32_t ShType = SHT_PROGBITS;
    uint64_t Flags = 0;
    uint64_t VAddr = 0;
    uint64_t Size = 0;
    uint64_t Align = 1;
    uint64_t Link = 0, Info = 0, EntSize = 0;
    std::vector<uint8_t> OwnedData;
    const std::vector<uint8_t> *Data = nullptr;
    uint64_t FileOffset = 0;
  };

  std::vector<OutSection> Out;
  for (const Section &S : Sections) {
    OutSection O;
    O.Src = &S;
    O.Name = S.Name;
    O.ShType = S.ShType;
    O.Flags = S.Flags;
    O.VAddr = S.VAddr;
    O.Size = S.Size;
    O.Align = S.Align;
    O.Data = &S.Data;
    Out.push_back(std::move(O));
  }

  // .symtab
  {
    OutSection O;
    O.Name = ".symtab";
    O.ShType = SHT_SYMTAB;
    O.Align = 8;
    O.EntSize = sizeof(Elf64_Sym);
    O.Info = FirstGlobal; // index of the first non-local symbol
    O.Link = static_cast<uint64_t>(Out.size()) + 2; // .strtab comes next
    O.OwnedData.resize(SymEntries.size() * sizeof(Elf64_Sym));
    std::memcpy(O.OwnedData.data(), SymEntries.data(), O.OwnedData.size());
    O.Size = O.OwnedData.size();
    O.Data = &O.OwnedData;
    Out.push_back(std::move(O));
  }
  // .strtab
  {
    OutSection O;
    O.Name = ".strtab";
    O.ShType = SHT_STRTAB;
    O.OwnedData = SymStrings.take();
    O.Size = O.OwnedData.size();
    O.Data = &O.OwnedData;
    Out.push_back(std::move(O));
  }
  // .shstrtab
  StringTableBuilder SectionNames;
  for (OutSection &O : Out)
    SectionNames.add(O.Name);
  SectionNames.add(".shstrtab");
  {
    OutSection O;
    O.Name = ".shstrtab";
    O.ShType = SHT_STRTAB;
    O.OwnedData = SectionNames.take();
    O.Size = O.OwnedData.size();
    O.Data = &O.OwnedData;
    Out.push_back(std::move(O));
  }
  // Data pointers into OwnedData were set before the vector moves above;
  // re-point them now that Out is stable.
  for (OutSection &O : Out)
    if (!O.Src && !O.OwnedData.empty())
      O.Data = &O.OwnedData;

  // Count loadable sections to size the program header table.
  unsigned NumLoad = 0;
  for (const OutSection &O : Out)
    if ((O.Flags & SHF_ALLOC) != 0)
      ++NumLoad;
  bool IsExec = Type == ET_EXEC;
  unsigned PhNum = IsExec ? NumLoad : 0;

  uint64_t PhOff = sizeof(Elf64_Ehdr);
  uint64_t Cursor = PhOff + uint64_t(PhNum) * sizeof(Elf64_Phdr);

  // Assign file offsets. Loadable PROGBITS sections must be placed so that
  // offset == vaddr (mod page size); everything else just needs alignment.
  for (OutSection &O : Out) {
    if (O.ShType == SHT_NOBITS) {
      O.FileOffset = Cursor; // conventional; no bytes occupied
      continue;
    }
    if ((O.Flags & SHF_ALLOC) != 0 && IsExec) {
      // Use the smallest offset >= Cursor congruent to VAddr mod page.
      uint64_t Base = alignDown(Cursor, PageSize);
      uint64_t Candidate = Base + (O.VAddr & (PageSize - 1));
      if (Candidate < Cursor)
        Candidate += PageSize;
      O.FileOffset = Candidate;
    } else {
      uint64_t A = std::max<uint64_t>(O.Align, 1);
      O.FileOffset = alignUp(Cursor, A);
    }
    Cursor = O.FileOffset + O.Size;
  }

  uint64_t ShOff = alignUp(Cursor, 8);
  uint64_t ShNum = Out.size() + 1; // + null section

  std::vector<uint8_t> Image(ShOff + ShNum * sizeof(Elf64_Shdr), 0);

  // ELF header.
  Elf64_Ehdr Ehdr{};
  Ehdr.e_ident[EI_MAG0] = 0x7f;
  Ehdr.e_ident[EI_MAG1] = 'E';
  Ehdr.e_ident[EI_MAG2] = 'L';
  Ehdr.e_ident[EI_MAG3] = 'F';
  Ehdr.e_ident[EI_CLASS] = ELFCLASS64;
  Ehdr.e_ident[EI_DATA] = ELFDATA2LSB;
  Ehdr.e_ident[EI_VERSION] = EV_CURRENT_BYTE;
  Ehdr.e_type = Type;
  Ehdr.e_machine = Machine;
  Ehdr.e_version = 1;
  Ehdr.e_entry = Entry;
  Ehdr.e_phoff = PhNum ? PhOff : 0;
  Ehdr.e_shoff = ShOff;
  Ehdr.e_ehsize = sizeof(Elf64_Ehdr);
  Ehdr.e_phentsize = sizeof(Elf64_Phdr);
  Ehdr.e_phnum = static_cast<uint16_t>(PhNum);
  Ehdr.e_shentsize = sizeof(Elf64_Shdr);
  Ehdr.e_shnum = static_cast<uint16_t>(ShNum);
  Ehdr.e_shstrndx = static_cast<uint16_t>(ShNum - 1);
  std::memcpy(Image.data(), &Ehdr, sizeof(Ehdr));

  // Program headers: one PT_LOAD per ALLOC section.
  if (PhNum) {
    Elf64_Phdr *Ph = reinterpret_cast<Elf64_Phdr *>(Image.data() + PhOff);
    for (const OutSection &O : Out) {
      if ((O.Flags & SHF_ALLOC) == 0)
        continue;
      Elf64_Phdr P{};
      P.p_type = PT_LOAD;
      P.p_flags = PF_R;
      if (O.Flags & SHF_WRITE)
        P.p_flags |= PF_W;
      if (O.Flags & SHF_EXECINSTR)
        P.p_flags |= PF_X;
      P.p_offset = O.ShType == SHT_NOBITS ? 0 : O.FileOffset;
      P.p_vaddr = O.VAddr;
      P.p_paddr = O.VAddr;
      P.p_filesz = O.ShType == SHT_NOBITS ? 0 : O.Size;
      P.p_memsz = O.Size;
      P.p_align = PageSize;
      *Ph++ = P;
    }
  }

  // Section bodies. Chunked sections (page bytes borrowed from a loaded
  // pinball) are written view by view — no staging concatenation ever
  // exists; the result is byte-identical to an owned-payload section.
  for (const OutSection &O : Out) {
    if (O.ShType == SHT_NOBITS || O.Size == 0)
      continue;
    uint8_t *W = Image.data() + O.FileOffset;
    if (O.Src && !O.Src->Chunks.empty()) {
      for (const auto &C : O.Src->Chunks) {
        std::memcpy(W, C.data(), C.size());
        W += C.size();
      }
    } else {
      std::memcpy(W, O.Data->data(), O.Size);
    }
  }

  // Section header table. Recompute name offsets against the emitted
  // .shstrtab payload (the builder dedups, so add() is idempotent).
  StringTableBuilder NameLookup;
  for (const OutSection &O : Out)
    NameLookup.add(O.Name);
  NameLookup.add(".shstrtab");

  Elf64_Shdr *Sh = reinterpret_cast<Elf64_Shdr *>(Image.data() + ShOff);
  *Sh++ = Elf64_Shdr{}; // null section
  for (const OutSection &O : Out) {
    Elf64_Shdr H{};
    H.sh_name = NameLookup.add(O.Name);
    H.sh_type = O.ShType;
    H.sh_flags = O.Flags;
    H.sh_addr = O.VAddr;
    H.sh_offset = O.FileOffset;
    H.sh_size = O.Size;
    H.sh_link = static_cast<uint32_t>(O.Link);
    H.sh_info = static_cast<uint32_t>(O.Info);
    H.sh_addralign = O.Align;
    H.sh_entsize = O.EntSize;
    *Sh++ = H;
  }

  return Image;
}

Error ELFWriter::writeToFile(const std::string &Path) {
  auto Image = finalize();
  if (!Image)
    return Image.takeError();
  if (Error E = writeFile(Path, Image->data(), Image->size()))
    return E;
  if (Type == ET_EXEC)
    return makeExecutable(Path);
  return Error::success();
}
