//===- support/Json.cpp ---------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/Format.h"

#include <cctype>

using namespace elfie;

void elfie::appendJsonString(std::string &Out, std::string_view S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += C;
    }
  }
  Out += '"';
}

bool elfie::isIntegerToken(std::string_view S) {
  size_t I = !S.empty() && S[0] == '-' ? 1 : 0;
  if (I == S.size())
    return false;
  for (; I < S.size(); ++I)
    if (!std::isdigit(static_cast<unsigned char>(S[I])))
      return false;
  return true;
}

void JsonWriter::separate() {
  if (NeedComma)
    Out += ',';
  NeedComma = false;
}

JsonWriter &JsonWriter::open(char Bracket) {
  separate();
  Out += Bracket;
  return *this;
}

JsonWriter &JsonWriter::close(char Bracket) {
  Out += Bracket;
  NeedComma = true;
  return *this;
}

JsonWriter &JsonWriter::scalar(std::string_view Text) {
  separate();
  Out += Text;
  NeedComma = true;
  return *this;
}

JsonWriter &JsonWriter::key(std::string_view K) {
  separate();
  appendJsonString(Out, K);
  Out += ':';
  return *this;
}

JsonWriter &JsonWriter::value(std::string_view S) {
  separate();
  appendJsonString(Out, S);
  NeedComma = true;
  return *this;
}

JsonWriter &JsonWriter::value(double V, int Precision) {
  return scalar(formatString("%.*f", Precision, V));
}

namespace {

/// Recursive-descent reader for the flat-object subset parseFlatJsonObject
/// documents.
class FlatReader {
public:
  explicit FlatReader(std::string_view Text) : S(Text) {}

  bool parse(std::map<std::string, std::string> &Out) {
    skipWS();
    if (!eat('{'))
      return false;
    skipWS();
    if (eat('}'))
      return trailingOK();
    for (;;) {
      std::string Key, Value;
      if (!parseString(Key))
        return false;
      skipWS();
      if (!eat(':'))
        return false;
      skipWS();
      if (!parseValue(Value))
        return false;
      Out[Key] = Value;
      skipWS();
      if (eat(',')) {
        skipWS();
        continue;
      }
      if (eat('}'))
        return trailingOK();
      return false;
    }
  }

private:
  void skipWS() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t'))
      ++Pos;
  }
  bool eat(char C) {
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }
  bool trailingOK() {
    skipWS();
    return Pos == S.size();
  }
  bool parseString(std::string &Out) {
    if (!eat('"'))
      return false;
    while (Pos < S.size()) {
      char C = S[Pos++];
      if (C == '"')
        return true;
      if (C == '\\') {
        if (Pos >= S.size())
          return false;
        char E = S[Pos++];
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case 'n':
          Out += '\n';
          break;
        case 't':
          Out += '\t';
          break;
        case 'r':
          // Never written since the escape rule moved here, but journals
          // from before then spell a carriage return this way.
          Out += '\r';
          break;
        case 'u': {
          if (Pos + 4 > S.size())
            return false;
          uint64_t Code = 0;
          if (!parseUInt64("0x" + std::string(S.substr(Pos, 4)), Code))
            return false;
          Pos += 4;
          // The writer only escapes control bytes this way.
          Out += static_cast<char>(Code & 0xff);
          break;
        }
        default:
          return false;
        }
        continue;
      }
      Out += C;
    }
    return false;
  }
  bool parseValue(std::string &Out) {
    if (Pos < S.size() && S[Pos] == '"')
      return parseString(Out);
    size_t Start = Pos;
    while (Pos < S.size() && S[Pos] != ',' && S[Pos] != '}' &&
           S[Pos] != ' ' && S[Pos] != '\t')
      ++Pos;
    Out = std::string(S.substr(Start, Pos - Start));
    return Out == "true" || Out == "false" || isIntegerToken(Out);
  }

  std::string_view S;
  size_t Pos = 0;
};

} // namespace

bool elfie::parseFlatJsonObject(std::string_view Text,
                                std::map<std::string, std::string> &Out) {
  return FlatReader(Text).parse(Out);
}
