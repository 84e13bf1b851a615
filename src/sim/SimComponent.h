//===- sim/SimComponent.h - serializable simulator state --------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The field-level writer and reader every stateful simulator structure
/// (Cache, GSharePredictor, BTB, CoreState) serializes its complete state
/// through, in plain saveState/loadState members; SimStats::save writes
/// through the same writer. A save writes the contents (cache tags in
/// recency order with their valid counts, predictor tables and history,
/// BTB entries) so a restore is bit-exact; a load fails closed
/// (EFAULT.SIMSTATE.COMPONENT) when the payload's recorded geometry does
/// not match the instance. SimState.cpp names the components and their
/// payload versions (sim::simStateComponentTable) and packs them into the
/// versioned, SHA-256-sealed `.esimstate` sidecar behind `esim
/// -warmup-save` / `-warmup-load` (DESIGN.md §16).
///
/// StateWriter/StateReader are thin facades over the little-endian
/// BinaryWriter/BinaryReader pair so components cannot reach for framing
/// primitives (blobs, length prefixes) that would make payload sizes
/// ambiguous; the container owns all framing and sealing. A StateWriter
/// made without a BinaryWriter only counts, so the container can size its
/// buffer before it encodes.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SIM_SIMCOMPONENT_H
#define ELFIE_SIM_SIMCOMPONENT_H

#include "support/Error.h"
#include "support/FileIO.h"

#include <bit>
#include <cstddef>
#include <cstdint>

namespace elfie {
namespace sim {

// Fields and arrays (a cache's tags, say) are copied in host byte order,
// and the sidecar format is little-endian.
static_assert(std::endian::native == std::endian::little,
              "sim state is written and read in host byte order");

/// Field-level writer handed to a structure's saveState.
class StateWriter {
public:
  /// A writer that only counts the bytes a save would write.
  StateWriter() = default;
  explicit StateWriter(BinaryWriter &W) : W(&W) {}

  void writeU8(uint8_t V) { writeBytes(&V, 1); }
  void writeU32(uint32_t V) { writeBytes(&V, 4); }
  void writeU64(uint64_t V) { writeBytes(&V, 8); }
  void writeDouble(double V) { writeBytes(&V, 8); }
  void writeBool(bool V) { writeU8(V ? 1 : 0); }
  void writeBytes(const void *Data, size_t Size) {
    Written += Size;
    if (W)
      W->writeRaw(Data, Size);
  }

  /// The bytes written so far.
  size_t size() const { return Written; }

private:
  BinaryWriter *W = nullptr;
  size_t Written = 0;
};

/// Field-level reader handed to a structure's loadState. Overruns are
/// sticky (reads after an overrun return zeros); the container checks
/// hadError() and full consumption after each component.
class StateReader {
public:
  explicit StateReader(BinaryReader &R) : R(R) {}

  uint8_t readU8() { return R.readU8(); }
  uint32_t readU32() { return R.readU32(); }
  uint64_t readU64() { return R.readU64(); }
  bool readBool() { return R.readU8() != 0; }
  void readBytes(void *Out, size_t Size) { R.readRaw(Out, Size); }

  bool hadError() const { return R.hadError(); }
  size_t remaining() const { return R.remaining(); }

private:
  BinaryReader &R;
};

} // namespace sim
} // namespace elfie

#endif // ELFIE_SIM_SIMCOMPONENT_H
