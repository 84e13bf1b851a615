//===- sim/BranchPredictor.cpp --------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/BranchPredictor.h"

using namespace elfie;
using namespace elfie::sim;

GSharePredictor::GSharePredictor(unsigned TableBits)
    : TableBits(TableBits), Counters(1u << TableBits, 2) {}

bool GSharePredictor::predictAndUpdate(uint64_t PC, bool Taken) {
  uint64_t Mask = (1ull << TableBits) - 1;
  uint64_t Index = ((PC >> 3) ^ History) & Mask;
  uint8_t &C = Counters[Index];
  bool Prediction = C >= 2;
  if (Taken && C < 3)
    ++C;
  else if (!Taken && C > 0)
    --C;
  History = ((History << 1) | (Taken ? 1 : 0)) & Mask;
  return Prediction == Taken;
}

void GSharePredictor::saveState(StateWriter &W) const {
  W.writeU32(TableBits);
  W.writeU64(History);
  W.writeBytes(Counters.data(), Counters.size());
}

Error GSharePredictor::loadState(StateReader &R) {
  uint32_t SavedBits = R.readU32();
  if (R.hadError() || SavedBits != TableBits)
    return makeCodedError("EFAULT.SIMSTATE.COMPONENT",
                          "gshare table mismatch: checkpoint has %u bits, "
                          "this predictor has %u",
                          SavedBits, TableBits);
  History = R.readU64();
  R.readBytes(Counters.data(), Counters.size());
  return Error::success();
}

BTB::BTB(unsigned TableBits) : Entries(1u << TableBits) {}

bool BTB::predictAndUpdate(uint64_t PC, uint64_t Target) {
  uint64_t Index = (PC >> 3) & (Entries.size() - 1);
  Entry &E = Entries[Index];
  bool Correct = E.Valid && E.PC == PC && E.Target == Target;
  E.PC = PC;
  E.Target = Target;
  E.Valid = true;
  return Correct;
}

void BTB::saveState(StateWriter &W) const {
  W.writeU32(static_cast<uint32_t>(Entries.size()));
  for (const Entry &E : Entries) {
    W.writeU64(E.PC);
    W.writeU64(E.Target);
    W.writeBool(E.Valid);
  }
}

Error BTB::loadState(StateReader &R) {
  uint32_t SavedEntries = R.readU32();
  if (R.hadError() || SavedEntries != Entries.size())
    return makeCodedError("EFAULT.SIMSTATE.COMPONENT",
                          "btb size mismatch: checkpoint has %u entries, "
                          "this btb has %zu",
                          SavedEntries, Entries.size());
  for (Entry &E : Entries) {
    E.PC = R.readU64();
    E.Target = R.readU64();
    E.Valid = R.readBool();
  }
  return Error::success();
}
