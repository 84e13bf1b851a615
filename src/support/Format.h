//===- support/Format.h - printf-style std::string formatting --*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String formatting helpers. Library code formats into std::string rather
/// than writing to iostreams (which are forbidden by the coding standards).
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SUPPORT_FORMAT_H
#define ELFIE_SUPPORT_FORMAT_H

#include <cstdint>
#include <string>
#include <vector>

namespace elfie {

/// Formats like printf, returning the result as a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders \p Value as 0x-prefixed lower-case hex.
std::string toHex(uint64_t Value);

/// Splits \p Text on \p Sep, keeping empty fields.
std::vector<std::string> splitString(const std::string &Text, char Sep);

/// Splits \p Text on runs of spaces and tabs, dropping empty fields.
std::vector<std::string> splitWords(const std::string &Text);

/// Strips leading and trailing whitespace.
std::string trimString(const std::string &Text);

/// True when \p Text begins with \p Prefix.
bool startsWith(const std::string &Text, const std::string &Prefix);

/// True when \p Text ends with \p Suffix.
bool endsWith(const std::string &Text, const std::string &Suffix);

/// Parses a signed 64-bit integer accepting decimal, 0x-hex, and a leading
/// minus. Returns false on malformed input.
bool parseInt64(const std::string &Text, int64_t &Out);

/// Parses an unsigned 64-bit integer accepting decimal and 0x-hex.
bool parseUInt64(const std::string &Text, uint64_t &Out);

/// Parses a double. Returns false on malformed input.
bool parseDouble(const std::string &Text, double &Out);

} // namespace elfie

#endif // ELFIE_SUPPORT_FORMAT_H
