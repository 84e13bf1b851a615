//===- support/Format.cpp -------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace elfie;

std::string elfie::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string Out;
  if (Len > 0) {
    Out.resize(static_cast<size_t>(Len));
    std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Args);
  }
  va_end(Args);
  return Out;
}

std::string elfie::toHex(uint64_t Value) {
  return formatString("0x%llx", static_cast<unsigned long long>(Value));
}

std::vector<std::string> elfie::splitString(const std::string &Text,
                                            char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (true) {
    size_t Pos = Text.find(Sep, Start);
    if (Pos == std::string::npos) {
      Parts.push_back(Text.substr(Start));
      return Parts;
    }
    Parts.push_back(Text.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::vector<std::string> elfie::splitWords(const std::string &Text) {
  std::vector<std::string> Words;
  size_t I = 0;
  while (I < Text.size()) {
    while (I < Text.size() && (Text[I] == ' ' || Text[I] == '\t'))
      ++I;
    size_t Start = I;
    while (I < Text.size() && Text[I] != ' ' && Text[I] != '\t')
      ++I;
    if (I > Start)
      Words.push_back(Text.substr(Start, I - Start));
  }
  return Words;
}

std::string elfie::trimString(const std::string &Text) {
  size_t Begin = 0, End = Text.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  while (End > Begin &&
         std::isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

bool elfie::startsWith(const std::string &Text, const std::string &Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.compare(0, Prefix.size(), Prefix) == 0;
}

bool elfie::endsWith(const std::string &Text, const std::string &Suffix) {
  return Text.size() >= Suffix.size() &&
         Text.compare(Text.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

bool elfie::parseInt64(const std::string &Text, int64_t &Out) {
  if (Text.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Text.c_str(), &End, 0);
  if (errno != 0 || End != Text.c_str() + Text.size())
    return false;
  Out = static_cast<int64_t>(V);
  return true;
}

bool elfie::parseUInt64(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || Text[0] == '-')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text.c_str(), &End, 0);
  if (errno != 0 || End != Text.c_str() + Text.size())
    return false;
  Out = static_cast<uint64_t>(V);
  return true;
}

bool elfie::parseDouble(const std::string &Text, double &Out) {
  if (Text.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(Text.c_str(), &End);
  if (errno != 0 || End != Text.c_str() + Text.size())
    return false;
  Out = V;
  return true;
}
