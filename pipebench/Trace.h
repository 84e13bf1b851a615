//===- pipebench/Trace.h - in-memory span recorder --------------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark driver records around its calls into the toolchain
/// libraries. Each span has a name ("<layer>.<step>"), a start, an end, a
/// parent and the id of the item it belongs to. Spans stay in memory and
/// are written once, at exit, as Chrome trace-event JSON, which Perfetto
/// (ui.perfetto.dev) and chrome://tracing open.
///
/// With tracing disabled a Scope costs one branch, so the untraced runs
/// that produce the end-to-end numbers pay nothing for it.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_PIPEBENCH_TRACE_H
#define ELFIE_PIPEBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pipebench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char *Name = ""; ///< static string: "item", "setup" or a layer step
  uint64_t Start = 0;
  uint64_t End = 0;
  int32_t Parent = -1; ///< index into Tracer::spans(); -1 for a root
  uint32_t Item = 0;   ///< shared by every span of one item; 0 = set-up
  uint32_t Phase = 0;  ///< caller-defined tag (set-up repetition, pass)
};

class Tracer {
public:
  bool Enabled = false;
  /// Item id and phase stamped on spans opened from now on.
  uint32_t Item = 0;
  uint32_t Phase = 0;

  int32_t open(const char *Name) {
    if (!Enabled)
      return -1;
    Spans.push_back({Name, nowNs(), 0, Top, Item, Phase});
    Top = static_cast<int32_t>(Spans.size() - 1);
    return Top;
  }

  void close(int32_t Index) {
    if (Index < 0)
      return;
    Spans[Index].End = nowNs();
    Top = Spans[Index].Parent;
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time of every span: its duration minus the durations of its
  /// direct children (children never outlive their parent).
  std::vector<uint64_t> selfNs() const {
    std::vector<uint64_t> Self(Spans.size());
    for (size_t I = 0; I < Spans.size(); ++I)
      Self[I] = Spans[I].End - Spans[I].Start;
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Self[S.Parent] -= S.End - S.Start;
    return Self;
  }

  /// Writes the spans as complete ("ph":"X") trace events, microsecond
  /// timestamps relative to the first span. Returns false on I/O error.
  bool writeChromeJSON(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    uint64_t Base = Spans.empty() ? 0 : Spans.front().Start;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", F);
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::string Layer(S.Name);
      Layer = Layer.substr(0, Layer.find('.'));
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"span\":%zu,\"parent\":%d,\"item\":%u,"
                   "\"phase\":%u}}",
                   I ? ",\n" : "", S.Name, Layer.c_str(),
                   (S.Start - Base) / 1e3, (S.End - S.Start) / 1e3, I,
                   S.Parent, S.Item, S.Phase);
    }
    std::fputs("\n]}\n", F);
    return std::fclose(F) == 0;
  }

private:
  std::vector<Span> Spans;
  int32_t Top = -1;
};

/// Opens a span for the lifetime of the object.
class Scope {
public:
  Scope(Tracer &T, const char *Name) : T(T), Index(T.open(Name)) {}
  ~Scope() { T.close(Index); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int32_t Index;
};

} // namespace pipebench

#endif // ELFIE_PIPEBENCH_TRACE_H
