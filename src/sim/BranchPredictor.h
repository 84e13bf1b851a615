//===- sim/BranchPredictor.h - gshare + BTB ---------------------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direction prediction via gshare (global history XOR pc indexing a table
/// of 2-bit saturating counters) plus a direct-mapped BTB for indirect
/// branch targets.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SIM_BRANCHPREDICTOR_H
#define ELFIE_SIM_BRANCHPREDICTOR_H

#include "sim/SimComponent.h"

#include <cstdint>
#include <vector>

namespace elfie {
namespace sim {

/// gshare direction predictor.
class GSharePredictor {
public:
  explicit GSharePredictor(unsigned TableBits = 12);

  /// Predicts, updates, and reports whether the prediction was correct.
  bool predictAndUpdate(uint64_t PC, bool Taken);

  uint64_t history() const { return History; }

  void saveState(StateWriter &W) const;
  Error loadState(StateReader &R);

private:
  unsigned TableBits;
  std::vector<uint8_t> Counters; // 2-bit saturating
  uint64_t History = 0;
};

/// Direct-mapped branch target buffer for indirect jumps.
class BTB {
public:
  explicit BTB(unsigned TableBits = 10);

  /// Returns true when the stored target matched; records \p Target.
  bool predictAndUpdate(uint64_t PC, uint64_t Target);

  void saveState(StateWriter &W) const;
  Error loadState(StateReader &R);

private:
  struct Entry {
    uint64_t PC = 0;
    uint64_t Target = 0;
    bool Valid = false;
  };
  std::vector<Entry> Entries;
};

} // namespace sim
} // namespace elfie

#endif // ELFIE_SIM_BRANCHPREDICTOR_H
