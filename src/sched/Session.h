//===- sched/Session.h - Per-connection transport state --------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport half of one efleetd client connection: a non-blocking fd
/// plus a line-assembly receive buffer and a capped send buffer. No
/// protocol knowledge — the Service interprets the lines.
///
/// Both buffers are hard-capped (sched/Protocol caps): a client writing an
/// unterminated line past MaxRecvBuffer, or not reading its event stream
/// until MaxSendBuffer of replies pile up, transitions the session to
/// Dead — the daemon drops the connection instead of stalling or growing.
/// A peer that disconnects mid-stream is likewise just Dead: writes to it
/// are swallowed (MSG_NOSIGNAL, Closed result), never a daemon error.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SCHED_SESSION_H
#define ELFIE_SCHED_SESSION_H

#include "support/Error.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace elfie {
namespace sched {

/// Assembles '\n'-terminated lines from arbitrary byte chunks, with a hard
/// cap on buffered (incomplete) bytes.
class LineBuffer {
public:
  explicit LineBuffer(size_t Cap) : Cap(Cap) {}

  /// Feeds \p N raw bytes. Returns false — and poisons the buffer — when
  /// pending unterminated data would exceed the cap.
  bool feed(const char *Data, size_t N);

  /// Pops the next complete line (without its '\n', a trailing '\r'
  /// stripped). Returns false when no complete line is buffered.
  bool pop(std::string &Out);

  bool overflowed() const { return Overflow; }
  size_t pending() const { return Buf.size() - Consumed; }

private:
  void compact();

  std::string Buf;
  size_t Consumed = 0; ///< bytes of Buf already returned as lines
  size_t Cap;
  bool Overflow = false;
};

/// One client connection: owns the fd (closed on destruction).
class Session {
public:
  Session(int Fd, uint64_t Id, size_t RecvCap, size_t SendCap);
  ~Session();

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  int fd() const { return Fd; }
  uint64_t id() const { return Id; }

  /// The fd signalled readable: pulls bytes into the line buffer. The
  /// session may become dead (EOF, hard error, recv overflow).
  void onReadable();

  /// The fd signalled writable: flushes queued output.
  void onWritable();

  /// Pops the next complete request line.
  bool nextLine(std::string &Out) { return In.pop(Out); }

  /// Queues \p Data (already '\n'-terminated) and flushes opportunistically.
  /// Overflowing the send cap kills the session (slow-consumer policy).
  void send(const std::string &Data);

  /// True when queued output remains (the daemon polls for POLLOUT then).
  bool wantsWrite() const { return !OutBuf.empty(); }

  /// Peer gone or caps blown: the daemon reaps the session.
  bool dead() const { return Dead; }

  bool shouldClose() const { return Dead; }

private:
  void flush();

  int Fd;
  uint64_t Id;
  LineBuffer In;
  std::string OutBuf;
  size_t SendCap;
  bool Dead = false;
};

} // namespace sched
} // namespace elfie

#endif // ELFIE_SCHED_SESSION_H
