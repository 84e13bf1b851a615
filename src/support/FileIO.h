//===- support/FileIO.h - Whole-file and binary I/O helpers ----*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// File-system helpers used throughout the tool-chain: whole-file reads and
/// writes, directory creation, and a little-endian binary stream pair used
/// for the pinball on-disk format.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SUPPORT_FILEIO_H
#define ELFIE_SUPPORT_FILEIO_H

#include "support/Error.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace elfie {

/// Fault-injection seam consulted by readFileBytes / writeFile /
/// writeFileAtomic / writeFileSynced when installed. Normal operation has
/// no hook and pays nothing; src/fault installs one (from ELFIE_FAULT_SPEC)
/// to inject short reads/writes, I/O errors, byte flips, and mid-write
/// kills at controlled points. Lives here (not in src/fault) because
/// support cannot depend on higher layers.
class IOFaultHook {
public:
  virtual ~IOFaultHook() = default;

  /// Called before \p Data is written to \p Path. May mutate \p Data
  /// (truncation, byte flip), return a failure to simulate ENOSPC/EIO, or
  /// terminate the process to simulate a mid-write kill.
  virtual Error onWrite(const std::string &Path,
                        std::vector<uint8_t> &Data) = 0;

  /// Called after \p Data is read from \p Path, with the same powers.
  virtual Error onRead(const std::string &Path,
                       std::vector<uint8_t> &Data) = 0;
};

/// Installs (or clears, with nullptr) the process-wide I/O fault hook.
void setIOFaultHook(IOFaultHook *Hook);

/// The installed hook, or nullptr.
IOFaultHook *ioFaultHook();

/// Reads the entire file at \p Path into a byte vector.
Expected<std::vector<uint8_t>> readFileBytes(const std::string &Path);

/// Reads the entire file at \p Path into a string.
Expected<std::string> readFileText(const std::string &Path);

/// Writes \p Size bytes from \p Data to \p Path, replacing any existing file.
Error writeFile(const std::string &Path, const void *Data, size_t Size);

/// Writes \p Text to \p Path, replacing any existing file.
Error writeFileText(const std::string &Path, const std::string &Text);

/// Crash-safe write: writes to a temporary sibling, fsyncs, renames over
/// \p Path, then fsyncs the parent directory (making the rename's directory
/// entry itself durable), so a kill at any point leaves either the complete
/// old file or the complete new file — never a partial one, and never a
/// published file whose directory entry evaporates on power loss.
/// \p Executable marks the temp file 0755 before the rename (for emitted
/// ELFies).
Error writeFileAtomic(const std::string &Path, const void *Data, size_t Size,
                      bool Executable = false);

/// Writes \p Data to \p Path in place and fsyncs it (through the I/O fault
/// hook, like writeFileAtomic). Not atomic by itself: it is for files
/// inside a staged directory that publishDirAtomic swaps in as a whole,
/// where a per-file temp, rename and directory sync add no durability.
Error writeFileSynced(const std::string &Path, const void *Data, size_t Size);

/// Atomically renames \p From over \p To (same filesystem).
Error renamePath(const std::string &From, const std::string &To);

/// Atomic directory publication: fsyncs every directory of the staged
/// tree \p StageDir once (its files are expected to be fsync'd already,
/// e.g. by writeFileSynced), renames it over \p FinalDir, then fsyncs the
/// parent directory so the published entry survives a crash. A previous
/// FinalDir is moved aside and removed only after the rename succeeds, so
/// consumers see the old complete tree or the new one, never a mix.
Error publishDirAtomic(const std::string &StageDir,
                       const std::string &FinalDir);

/// Creates directory \p Path (and parents). Succeeds if it already exists.
Error createDirectories(const std::string &Path);

/// True when \p Path exists (any file type).
bool fileExists(const std::string &Path);

/// True when \p Path names a directory (following symlinks).
bool isDirectory(const std::string &Path);

/// Removes a file if present; ignores missing files.
void removeFile(const std::string &Path);

/// Removes a directory tree if present; ignores missing paths.
void removeTree(const std::string &Path);

/// Lists the entry names (not full paths) in directory \p Path, sorted.
/// Errors when the directory cannot be read.
Expected<std::vector<std::string>> listDirectory(const std::string &Path);

/// Marks \p Path executable (chmod 0755). Used on emitted ELFies.
Error makeExecutable(const std::string &Path);

/// Durable append-only line log: the journal primitive under the campaign
/// runner. Each append() writes one newline-terminated record and fsyncs
/// before returning, so a record the caller saw succeed survives SIGKILL.
/// Appends consult the IOFaultHook (like writeFileAtomic does), which lets
/// the fault harness kill or fail a process at an exact journal record. A
/// record that follows a torn one (the file does not end in a newline)
/// starts on a fresh line, so only the torn record is lost.
class AppendLog {
public:
  AppendLog() = default;
  ~AppendLog() { close(); }
  AppendLog(const AppendLog &) = delete;
  AppendLog &operator=(const AppendLog &) = delete;

  /// Opens (creating if needed) \p Path for appending.
  Error open(const std::string &Path);

  /// Appends \p Line (a trailing newline is added when missing) and fsyncs.
  Error append(const std::string &Line);

  /// Closes the underlying descriptor; append() after close errors.
  void close();

  bool isOpen() const { return Fd >= 0; }
  const std::string &path() const { return LogPath; }

private:
  int Fd = -1;
  std::string LogPath;
};

/// An in-memory little-endian binary writer used to build on-disk records.
class BinaryWriter {
public:
  void writeU8(uint8_t V) { Bytes.push_back(V); }
  void writeU16(uint16_t V) { writeLE(&V, 2); }
  void writeU32(uint32_t V) { writeLE(&V, 4); }
  void writeU64(uint64_t V) { writeLE(&V, 8); }
  void writeI64(int64_t V) { writeU64(static_cast<uint64_t>(V)); }
  void writeDouble(double V) { writeLE(&V, 8); }

  /// Writes a length-prefixed (u32) byte blob.
  void writeBlob(const void *Data, size_t Size);

  /// Writes a length-prefixed (u32) string.
  void writeString(const std::string &S) { writeBlob(S.data(), S.size()); }

  /// Appends raw bytes with no length prefix.
  void writeRaw(const void *Data, size_t Size);

  /// Makes room for \p N bytes in all, so writes up to that size do not
  /// reallocate.
  void reserve(size_t N) { Bytes.reserve(N); }

  const std::vector<uint8_t> &bytes() const { return Bytes; }
  size_t size() const { return Bytes.size(); }
  /// Moves the bytes out, leaving the writer empty.
  std::vector<uint8_t> take() { return std::move(Bytes); }

private:
  void writeLE(const void *P, size_t N);
  std::vector<uint8_t> Bytes;
};

/// A bounds-checked little-endian reader over a byte buffer. All read
/// methods report overruns through error(); callers check once at the end
/// (errors are sticky and reads after an error return zeros).
class BinaryReader {
public:
  BinaryReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit BinaryReader(const std::vector<uint8_t> &Bytes)
      : Data(Bytes.data()), Size(Bytes.size()) {}

  uint8_t readU8();
  uint16_t readU16();
  uint32_t readU32();
  uint64_t readU64();
  int64_t readI64() { return static_cast<int64_t>(readU64()); }
  double readDouble();

  /// Reads a length-prefixed (u32) blob.
  std::vector<uint8_t> readBlob();

  /// Reads a length-prefixed (u32) blob as a zero-copy view into the
  /// underlying buffer; the view is valid as long as the buffer is. Returns
  /// an empty span on overrun (check hadError()).
  std::span<const uint8_t> readBlobView();

  /// Reads a length-prefixed (u32) string.
  std::string readString();

  /// Reads \p N raw bytes into \p Out.
  void readRaw(void *Out, size_t N);

  /// Skips \p N bytes.
  void skip(size_t N);

  size_t offset() const { return Pos; }
  size_t remaining() const { return Size - Pos; }
  bool atEnd() const { return Pos == Size; }

  /// True once any read has overrun the buffer.
  bool hadError() const { return Failed; }

private:
  bool take(size_t N) {
    if (Failed || Size - Pos < N) {
      Failed = true;
      return false;
    }
    return true;
  }
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace elfie

#endif // ELFIE_SUPPORT_FILEIO_H
