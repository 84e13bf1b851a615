//===- store/Manifest.cpp -------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "store/Manifest.h"

#include "support/Format.h"

#include <cstdlib>
#include <cstring>

using namespace elfie;
using namespace elfie::store;

bool Manifest::validName(const std::string &Name) {
  if (Name.empty() || Name.size() > 255 || Name.front() == '.')
    return false;
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '.' || C == '_' || C == '-';
    if (!Ok)
      return false;
  }
  return true;
}

std::string Manifest::render() const {
  std::string Out;
  Out += "estore-manifest 2\n";
  Out += "name " + Name + "\n";
  Out += "kind " + Kind + "\n";
  if (!Source.empty())
    Out += "source " + Source + "\n";
  Out += formatString("size %llu\n", static_cast<unsigned long long>(Size));
  Out += "root " + Root.hex() + "\n";
  for (const ChunkRef &C : Chunks)
    Out += formatString("chunk %llu %llu %s\n",
                        static_cast<unsigned long long>(C.Offset),
                        static_cast<unsigned long long>(C.Size),
                        C.Digest.hex().c_str());
  Out += "seal " + sha256Hex(Out.data(), Out.size()) + "\n";
  return Out;
}

namespace {

Error badManifest(const char *What, size_t LineNo) {
  return makeCodedError("EFAULT.STORE.MANIFEST",
                        "manifest line %zu: %s", LineNo, What);
}

bool parseU64(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S.c_str(), &End, 10);
  if (errno != 0 || End != S.c_str() + S.size())
    return false;
  Out = V;
  return true;
}

} // namespace

Expected<Manifest> Manifest::parse(const std::string &Text) {
  // The seal covers every byte before its own line; find it first.
  size_t SealPos = Text.rfind("\nseal ");
  if (Text.compare(0, 5, "seal ") == 0)
    SealPos = 0; // degenerate: seal is the first line (caught below)
  if (SealPos == std::string::npos)
    return makeCodedError("EFAULT.STORE.SEAL",
                          "manifest has no seal line (truncated or foreign "
                          "file)");
  size_t BodyLen = SealPos == 0 ? 0 : SealPos + 1; // include the newline
  std::string SealLine = Text.substr(BodyLen);
  if (!SealLine.empty() && SealLine.back() == '\n')
    SealLine.pop_back();
  if (SealLine.compare(0, 5, "seal ") != 0 || SealLine.size() != 5 + 64)
    return makeCodedError("EFAULT.STORE.SEAL", "malformed seal line");
  std::string WantSeal = SealLine.substr(5);
  std::string GotSeal = sha256Hex(Text.data(), BodyLen);
  if (GotSeal != WantSeal)
    return makeCodedError("EFAULT.STORE.SEAL",
                          "manifest seal mismatch: body hashes to %s but "
                          "seal records %s (manifest corrupted)",
                          GotSeal.c_str(), WantSeal.c_str());

  Manifest M;
  bool SawHeader = false, SawName = false, SawKind = false, SawSize = false,
       SawRoot = false;
  size_t LineNo = 0;
  size_t Pos = 0;
  while (Pos < BodyLen) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos || Eol >= BodyLen)
      Eol = BodyLen;
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    ++LineNo;
    if (Line.empty())
      continue;
    auto Fields = splitString(Line, ' ');
    const std::string &Tag = Fields[0];
    if (LineNo == 1) {
      if (Line == "estore-manifest 1")
        return badManifest("estore-manifest 1 is no longer read (it has no "
                           "root); put the artifact again",
                           LineNo);
      if (Line != "estore-manifest 2")
        return badManifest("not an estore manifest (bad header)", LineNo);
      SawHeader = true;
      continue;
    }
    if (Tag == "name" && Fields.size() == 2) {
      if (!validName(Fields[1]))
        return badManifest("invalid artifact name", LineNo);
      M.Name = Fields[1];
      SawName = true;
    } else if (Tag == "kind" && Fields.size() == 2) {
      if (Fields[1] != "elf" && Fields[1] != "raw")
        return badManifest("unknown artifact kind", LineNo);
      M.Kind = Fields[1];
      SawKind = true;
    } else if (Tag == "source" && Fields.size() >= 2) {
      M.Source = Line.substr(7);
    } else if (Tag == "size" && Fields.size() == 2) {
      if (!parseU64(Fields[1], M.Size))
        return badManifest("unparseable size", LineNo);
      SawSize = true;
    } else if (Tag == "root" && Fields.size() == 2) {
      auto D = Sha256Digest::fromHex(Fields[1]);
      if (!D)
        return badManifest("unparseable artifact root", LineNo);
      M.Root = *D;
      SawRoot = true;
    } else if (Tag == "chunk" && Fields.size() == 4) {
      ChunkRef C;
      if (!parseU64(Fields[1], C.Offset) || !parseU64(Fields[2], C.Size))
        return badManifest("unparseable chunk offset/size", LineNo);
      auto D = Sha256Digest::fromHex(Fields[3]);
      if (!D)
        return badManifest("unparseable chunk digest", LineNo);
      C.Digest = *D;
      M.Chunks.push_back(C);
    } else {
      return badManifest("unknown or malformed line", LineNo);
    }
  }
  if (!SawHeader || !SawName || !SawKind || !SawSize || !SawRoot)
    return makeCodedError("EFAULT.STORE.MANIFEST",
                          "manifest is missing required fields");

  if (Error E = M.checkTiling())
    return E;
  return M;
}

Error Manifest::checkTiling() const {
  uint64_t Next = 0;
  for (size_t I = 0; I < Chunks.size(); ++I) {
    const ChunkRef &C = Chunks[I];
    if (C.Offset != Next)
      return makeCodedError("EFAULT.STORE.MANIFEST",
                            "chunk %zu starts at %llu, expected %llu "
                            "(gap or overlap)",
                            I, static_cast<unsigned long long>(C.Offset),
                            static_cast<unsigned long long>(Next));
    if (C.Size == 0)
      return makeCodedError("EFAULT.STORE.MANIFEST",
                            "chunk %zu has zero size", I);
    if (C.Size > Size - Next)
      return makeCodedError("EFAULT.STORE.MANIFEST",
                            "chunk %zu overruns the artifact size", I);
    Next += C.Size;
  }
  if (Next != Size)
    return makeCodedError("EFAULT.STORE.MANIFEST",
                          "chunks cover %llu bytes but size records %llu",
                          static_cast<unsigned long long>(Next),
                          static_cast<unsigned long long>(Size));
  return Error::success();
}

void elfie::store::addRootRecord(Sha256 &Root, const ChunkRef &C) {
  uint8_t Record[16 + 32];
  for (unsigned I = 0; I < 8; ++I) {
    Record[I] = static_cast<uint8_t>(C.Offset >> (8 * I));
    Record[8 + I] = static_cast<uint8_t>(C.Size >> (8 * I));
  }
  std::memcpy(Record + 16, C.Digest.Bytes.data(), 32);
  Root.update(Record, sizeof(Record));
}

Sha256Digest elfie::store::chunkListRoot(std::span<const ChunkRef> Chunks) {
  Sha256 Root;
  for (const ChunkRef &C : Chunks)
    addRootRecord(Root, C);
  return Root.final();
}
