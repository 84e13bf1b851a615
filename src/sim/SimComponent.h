//===- sim/SimComponent.h - serializable simulator state --------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common serialization interface every stateful simulator structure
/// implements (Cache, TLB, GSharePredictor, BTB, CoreState): a component
/// versions its payload layout (stateVersion) and enumerates its complete
/// state through saveState/loadState. SimState.cpp names the components
/// (sim::simStateComponentTable) and packs them into the versioned,
/// SHA-256-sealed `.esimstate` sidecar behind `esim -warmup-save` /
/// `-warmup-load` (DESIGN.md §16).
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

/// Field-level writer handed to SimComponent::saveState.
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

/// Field-level reader handed to SimComponent::loadState. Overruns are
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

/// A simulator structure whose complete state can be serialized into (and
/// restored from) a warmup-checkpoint sidecar.
class SimComponent {
public:
  virtual ~SimComponent() = default;

  /// Payload layout version; bumped whenever saveState's field sequence
  /// changes. Loads reject mismatches (EFAULT.SIMSTATE.VERSION).
  virtual uint32_t stateVersion() const = 0;

  /// Serializes the complete state (contents, LRU/history/clock state, and
  /// internal counters) so a restore is bit-exact.
  virtual void saveState(StateWriter &W) const = 0;

  /// Restores state written by saveState at the same stateVersion.
  /// Fails closed (EFAULT.SIMSTATE.COMPONENT) when the payload's recorded
  /// geometry does not match this instance's configuration.
  virtual Error loadState(StateReader &R) = 0;
};

} // namespace sim
} // namespace elfie

#endif // ELFIE_SIM_SIMCOMPONENT_H
