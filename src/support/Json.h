//===- support/Json.h - The one JSON writer and flat reader -----*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every machine-readable report the tools emit (everify/ecfg -json, the
/// estore and efault -json summaries, efleet's campaign summary, the
/// campaign journal) goes through this file, so JSON syntax and the string
/// escape rule live in one place (DESIGN.md §6). The writer is compact: no
/// whitespace, commas inserted automatically.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SUPPORT_JSON_H
#define ELFIE_SUPPORT_JSON_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace elfie {

/// Appends \p S as a JSON string literal: `"` and `\` are backslash
/// escaped, newline and tab become `\n` and `\t`, every other byte below
/// 0x20 becomes `\u00xx` (lower-case hex); all other bytes pass through.
void appendJsonString(std::string &Out, std::string_view S);

/// True for `-?[0-9]+`: the integer tokens parseFlatJsonObject accepts
/// bare, and the values the journal writes unquoted.
bool isIntegerToken(std::string_view S);

/// Streams one compact JSON document into a string.
class JsonWriter {
public:
  JsonWriter &beginObject() { return open('{'); }
  JsonWriter &endObject() { return close('}'); }
  JsonWriter &beginArray() { return open('['); }
  JsonWriter &endArray() { return close(']'); }
  /// Object member name; the next value or begin* call is its value.
  JsonWriter &key(std::string_view K);

  JsonWriter &value(std::string_view S);
  JsonWriter &value(const char *S) { return value(std::string_view(S)); }
  JsonWriter &value(uint64_t V) { return scalar(std::to_string(V)); }
  JsonWriter &value(int64_t V) { return scalar(std::to_string(V)); }
  JsonWriter &value(bool B) { return scalar(B ? "true" : "false"); }
  /// printf `%.<Precision>f`.
  JsonWriter &value(double V, int Precision);
  /// Writes \p Token (which must satisfy isIntegerToken) verbatim, so a
  /// decimal string round-trips exactly, leading zeros included.
  JsonWriter &integerToken(std::string_view Token) { return scalar(Token); }

  const std::string &str() const { return Out; }

private:
  void separate();
  JsonWriter &open(char Bracket);
  JsonWriter &close(char Bracket);
  JsonWriter &scalar(std::string_view Text);

  std::string Out;
  bool NeedComma = false;
};

/// Parses one flat object `{"key":value,...}` whose values are strings,
/// integer tokens, or true/false, into \p Out (integers and bools as their
/// text). Accepts space/tab around tokens and the escapes `\" \\ \n \t \r
/// \uXXXX` (the low byte of the code unit is kept). Anything else —
/// nesting, other escapes, trailing bytes, a torn tail — returns false.
bool parseFlatJsonObject(std::string_view Text,
                         std::map<std::string, std::string> &Out);

} // namespace elfie

#endif // ELFIE_SUPPORT_JSON_H
