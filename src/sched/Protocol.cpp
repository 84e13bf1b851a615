//===- sched/Protocol.cpp -------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sched/Protocol.h"

#include "support/Format.h"

#include <cctype>
#include <vector>

using namespace elfie;
using namespace elfie::sched;
using namespace elfie::sched::proto;

bool elfie::sched::proto::isValidName(const std::string &S) {
  if (S.empty() || S.size() > 64 || S == "." || S == "..")
    return false;
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    if (!std::isalnum(U) && C != '.' && C != '_' && C != '-')
      return false;
  }
  return true;
}

static Error badArgs(const char *Form) {
  return makeCodedError(CodeProtoArgs, "expected: %s", Form);
}

static Error checkNames(Request &R, const std::string &Ns,
                        const std::string &Campaign) {
  if (!isValidName(Ns))
    return makeCodedError(CodeProtoNs, "invalid namespace '%s'", Ns.c_str());
  if (!Campaign.empty() && !isValidName(Campaign))
    return makeCodedError(CodeProtoNs, "invalid campaign id '%s'",
                          Campaign.c_str());
  R.Ns = Ns;
  R.Campaign = Campaign;
  return Error::success();
}

Expected<Request> elfie::sched::proto::parseRequest(const std::string &Line) {
  if (Line.size() > MaxLineBytes)
    return makeCodedError(CodeProtoLine, "request line over %zu bytes",
                          MaxLineBytes);
  // The grammar never carries empty fields.
  std::vector<std::string> T = splitWords(Line);
  if (T.empty())
    return makeCodedError(CodeProtoCmd, "empty request");
  Request R;
  const std::string &Cmd = T[0];

  if (Cmd == "ping") {
    if (T.size() != 1)
      return badArgs("ping");
    R.Kind = RequestKind::Ping;
    return R;
  }
  if (Cmd == "shutdown") {
    if (T.size() != 1)
      return badArgs("shutdown");
    R.Kind = RequestKind::Shutdown;
    return R;
  }
  if (Cmd == "submit") {
    if (T.size() != 4)
      return badArgs("submit <ns> <campaign> <nlines>");
    R.Kind = RequestKind::Submit;
    if (Error E = checkNames(R, T[1], T[2]))
      return E;
    uint64_t N = 0;
    if (!parseUInt64(T[3], N) || N == 0)
      return badArgs("submit <ns> <campaign> <nlines>");
    if (N > MaxManifestLines)
      return makeCodedError(CodeProtoLine,
                            "manifest over %zu lines (%llu requested)",
                            MaxManifestLines,
                            static_cast<unsigned long long>(N));
    R.ManifestLines = N;
    return R;
  }
  if (Cmd == "status") {
    if (T.size() > 3)
      return badArgs("status [<ns> [<campaign>]]");
    R.Kind = RequestKind::Status;
    if (T.size() >= 2)
      if (Error E = checkNames(R, T[1], T.size() == 3 ? T[2] : ""))
        return E;
    return R;
  }
  if (Cmd == "stream" || Cmd == "cancel") {
    if (T.size() != 3)
      return badArgs(Cmd == "stream" ? "stream <ns> <campaign>"
                                     : "cancel <ns> <campaign>");
    R.Kind = Cmd == "stream" ? RequestKind::Stream : RequestKind::Cancel;
    if (Error E = checkNames(R, T[1], T[2]))
      return E;
    return R;
  }
  return makeCodedError(CodeProtoCmd, "unknown command '%s'", Cmd.c_str());
}

static std::string renderTail(const std::string &Head,
                              const std::string &Text) {
  std::string Out = Head;
  if (!Text.empty()) {
    Out += ' ';
    Out += Text;
  }
  Out += '\n';
  return Out;
}

std::string elfie::sched::proto::replyOk(const std::string &Text) {
  return renderTail("ok", Text);
}
std::string elfie::sched::proto::replyErr(const std::string &Code,
                                          const std::string &Text) {
  return renderTail("err " + Code, Text);
}
std::string elfie::sched::proto::replyBusy(const std::string &Code,
                                           const std::string &Text) {
  return renderTail("busy " + Code, Text);
}
std::string elfie::sched::proto::replyEvent(const std::string &Json) {
  return renderTail("event", Json);
}
std::string elfie::sched::proto::replyEnd(const std::string &Text) {
  return renderTail("end", Text);
}

Expected<Reply> elfie::sched::proto::parseReply(const std::string &Line) {
  std::string Trimmed = trimString(Line);
  size_t Sp = Trimmed.find(' ');
  std::string Head = Trimmed.substr(0, Sp);
  std::string Rest = Sp == std::string::npos ? "" : Trimmed.substr(Sp + 1);
  Reply R;
  if (Head == "ok") {
    R.K = Reply::Kind::Ok;
    R.Text = Rest;
    return R;
  }
  if (Head == "end") {
    R.K = Reply::Kind::End;
    R.Text = Rest;
    return R;
  }
  if (Head == "event") {
    R.K = Reply::Kind::Event;
    R.Text = Rest;
    return R;
  }
  if (Head == "err" || Head == "busy") {
    R.K = Head == "err" ? Reply::Kind::Err : Reply::Kind::Busy;
    size_t Sp2 = Rest.find(' ');
    R.Code = Rest.substr(0, Sp2);
    R.Text = Sp2 == std::string::npos ? "" : Rest.substr(Sp2 + 1);
    if (R.Code.empty())
      return makeCodedError(CodeProtoArgs, "%s reply without a code",
                            Head.c_str());
    return R;
  }
  return makeCodedError(CodeProtoCmd, "unknown reply '%s'", Head.c_str());
}
