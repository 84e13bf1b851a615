//===- sim/SimComponent.h - serializable simulator state --------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The field-level writer and reader every stateful simulator structure
/// (Cache, TLB, GSharePredictor, BTB, CoreState, SimStats) serializes its
/// complete state through, in plain saveState/loadState (save/load)
/// members. A save writes the complete state (contents, LRU/history/clock
/// state and counters) so a restore is bit-exact; a load fails closed
/// (EFAULT.SIMSTATE.COMPONENT) when the payload's recorded geometry does
/// not match the instance. SimState.cpp names the components and their
/// payload versions (sim::simStateComponentTable) and packs them into the
/// versioned, SHA-256-sealed `.esimstate` sidecar behind `esim
/// -warmup-save` / `-warmup-load` (DESIGN.md §16).
///
/// StateWriter/StateReader are thin facades over the little-endian
/// BinaryWriter/BinaryReader pair so components cannot reach for framing
/// primitives (blobs, raw spans) that would make payload sizes ambiguous;
/// the container owns all framing and sealing.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SIM_SIMCOMPONENT_H
#define ELFIE_SIM_SIMCOMPONENT_H

#include "support/Error.h"
#include "support/FileIO.h"

#include <cstdint>

namespace elfie {
namespace sim {

/// Field-level writer handed to a structure's saveState.
class StateWriter {
public:
  explicit StateWriter(BinaryWriter &W) : W(W) {}

  void writeU8(uint8_t V) { W.writeU8(V); }
  void writeU32(uint32_t V) { W.writeU32(V); }
  void writeU64(uint64_t V) { W.writeU64(V); }
  void writeDouble(double V) { W.writeDouble(V); }
  void writeBool(bool V) { W.writeU8(V ? 1 : 0); }
  void writeBytes(const void *Data, size_t Size) { W.writeRaw(Data, Size); }

private:
  BinaryWriter &W;
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
  double readDouble() { return R.readDouble(); }
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
