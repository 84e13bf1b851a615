//===- support/Error.h - Lightweight recoverable-error types ---*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal recoverable-error handling in the spirit of llvm::Error /
/// llvm::Expected, without exceptions or RTTI. An Error carries a message; an
/// Expected<T> carries either a T or an Error. Library code returns these;
/// tool code converts failures into diagnostics and exit codes.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SUPPORT_ERROR_H
#define ELFIE_SUPPORT_ERROR_H

#include <cassert>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace elfie {

/// Stable process exit codes (documented in README and DESIGN.md §8).
/// Every tool: 0 = success, 1 = error finding / bad input, 2 = usage,
/// 3 = divergence or ungraceful region exit. The emitted native ELFie's
/// ungraceful exits sit clear of those: its abort stub (divergence) exits
/// 127, a trapped hardware signal 126 and its watchdog 125, which is also
/// the code of ereplay's and evm's host watchdog. A spawned child whose
/// exec fails (tool binary missing or not executable) exits 124.
enum ExitCode : int {
  ExitSuccess = 0,
  ExitFailure = 1,
  ExitUsage = 2,
  ExitDivergence = 3,
  ExitElfieDivergence = 127,
  ExitElfieSignal = 126,
  ExitWatchdog = 125,
  ExitExecFailure = 124,
};

/// A recoverable error: either success (empty) or a failure message.
///
/// Failures carry a stable dotted code ("EFAULT.PINBALL.TRUNCATED") so that
/// tools can emit machine-checkable diagnostics, plus a context chain built
/// with withContext() as the error propagates up the load/parse stack.
///
/// Unlike llvm::Error this type does not abort on unchecked destruction; it
/// is a plain value. Use isError()/message() to inspect.
class Error {
public:
  /// Constructs a success value.
  Error() = default;

  /// Constructs a failure carrying \p Msg (and the generic code).
  static Error failure(std::string Msg) {
    return failure("EFAULT.GENERIC", std::move(Msg));
  }

  /// Constructs a failure with a stable dotted \p Code.
  static Error failure(std::string Code, std::string Msg) {
    Error E;
    E.Failed = true;
    E.ErrCode = std::move(Code);
    E.Msg = std::move(Msg);
    return E;
  }

  /// Constructs a success value (symmetry with llvm::Error::success()).
  static Error success() { return Error(); }

  /// True when this represents a failure.
  bool isError() const { return Failed; }
  explicit operator bool() const { return Failed; }

  /// The failure message; empty for success values.
  const std::string &message() const { return Msg; }

  /// The stable error code ("EFAULT.IO.OPEN"); empty for success values.
  const std::string &code() const { return ErrCode; }

  /// Prepends "\p What: " to the message, preserving the code. Returns the
  /// augmented error so load paths can chain context as they unwind:
  ///   return E.withContext("loading pinball '" + Dir + "'");
  Error withContext(const std::string &What) const {
    if (!Failed)
      return *this;
    return failure(ErrCode, What + ": " + Msg);
  }

  /// "CODE: message" for failures; "" for success. The form every tool
  /// prints so rejections are greppable for their stable code.
  std::string str() const { return Failed ? ErrCode + ": " + Msg : ""; }

private:
  bool Failed = false;
  std::string ErrCode;
  std::string Msg;
};

/// Builds a failure Error from a printf-style format string (generic code).
Error makeError(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Builds a failure Error with a stable dotted code ("EFAULT.IO.READ").
Error makeCodedError(const char *Code, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Either a value of type T or an Error. Check with operator bool before
/// dereferencing; asserts protect misuse.
template <typename T> class Expected {
public:
  /// Constructs a success value.
  Expected(T Value) : Value(std::move(Value)), HasValue(true) {}

  /// Constructs a failure. The error must be a real failure.
  Expected(Error E) : Err(std::move(E)) {
    assert(Err.isError() && "Expected constructed from success Error");
  }

  /// True when a value is present.
  explicit operator bool() const { return HasValue; }
  bool hasValue() const { return HasValue; }

  T &operator*() {
    assert(HasValue && "dereferencing errored Expected");
    return Value;
  }
  const T &operator*() const {
    assert(HasValue && "dereferencing errored Expected");
    return Value;
  }
  T *operator->() {
    assert(HasValue && "dereferencing errored Expected");
    return &Value;
  }
  const T *operator->() const {
    assert(HasValue && "dereferencing errored Expected");
    return &Value;
  }

  /// Extracts the error (valid only when !hasValue()).
  Error takeError() {
    assert(!HasValue && "takeError on a success Expected");
    return std::move(Err);
  }

  /// The failure message (empty on success).
  const std::string &message() const { return Err.message(); }

  /// The underlying error (a success Error when hasValue()).
  const Error &error() const { return Err; }

  /// Moves the value out (valid only when hasValue()).
  T takeValue() {
    assert(HasValue && "takeValue on an errored Expected");
    return std::move(Value);
  }

private:
  T Value{};
  Error Err;
  bool HasValue = false;
};

/// Aborts with \p Msg; used for invariant violations that indicate a bug in
/// this code base rather than bad input.
[[noreturn]] void reportFatalError(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Marks unreachable code; aborts with a message if executed.
[[noreturn]] inline void elfieUnreachable(const char *Msg) {
  std::fprintf(stderr, "UNREACHABLE executed: %s\n", Msg);
  std::abort();
}

/// Tool-side helper: if \p E is a failure, print it with \p Banner and exit.
void exitOnError(const Error &E, const char *Banner = "error");

/// Tool-side helper: unwrap an Expected or print-and-exit.
template <typename T>
T exitOnError(Expected<T> V, const char *Banner = "error") {
  if (!V) {
    Error E = V.takeError();
    std::fprintf(stderr, "%s: %s\n", Banner, E.str().c_str());
    std::exit(ExitFailure);
  }
  return V.takeValue();
}

} // namespace elfie

#endif // ELFIE_SUPPORT_ERROR_H
