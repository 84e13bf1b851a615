//===- simpoint/BBV.cpp ---------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "simpoint/BBV.h"

#include <algorithm>

using namespace elfie;
using namespace elfie::simpoint;

BBVCollector::BBVCollector(uint64_t SliceSize, unsigned Dims,
                           uint64_t ProjectionSeed)
    : SliceSize(SliceSize), Dims(Dims), ProjectionSeed(ProjectionSeed),
      Acc(Dims, 0.0), Table(256) {
  assert(SliceSize > 0 && "slice size must be positive");
}

size_t BBVCollector::findSlot(uint64_t BlockEntry) const {
  const size_t Mask = Table.size() - 1;
  size_t I = static_cast<size_t>((BlockEntry * 0x9E3779B97F4A7C15ull) >> 32);
  for (;; ++I) {
    const Slot &S = Table[I & Mask];
    if (!S.Used || S.Entry == BlockEntry)
      return I & Mask;
  }
}

const double *BBVCollector::weights(uint64_t BlockEntry) {
  size_t I = findSlot(BlockEntry);
  if (Table[I].Used)
    return &Weights[Table[I].Offset];
  if (2 * (NumBlocks + 1) > Table.size()) {
    std::vector<Slot> Old(2 * Table.size());
    Old.swap(Table);
    for (const Slot &S : Old)
      if (S.Used)
        Table[findSlot(S.Entry)] = S;
    I = findSlot(BlockEntry);
  }
  Table[I] = {BlockEntry, static_cast<uint32_t>(Weights.size()), true};
  ++NumBlocks;
  // Random projection: hash the block address into `Dims` signed unit
  // weights. Deterministic across runs.
  //
  // The mixer must avalanche into its low bits: FNV-1a's low bits are a
  // linear function of the input parity, which collapses 8-aligned block
  // addresses onto identical weight vectors. Use the splitmix64 finalizer
  // instead.
  for (unsigned D = 0; D < Dims; ++D) {
    uint64_t Z = BlockEntry + 0x9E3779B97F4A7C15ull * (D + 1) +
                 ProjectionSeed * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    Z ^= Z >> 31;
    double W = (Z & 1) ? 1.0 : -1.0;
    // A second bit scales some weights down to decorrelate dimensions.
    if (Z & 2)
      W *= 0.5;
    Weights.push_back(W);
  }
  return &Weights[Table[I].Offset];
}

namespace {
/// A[D] += C * W[D] for D < N: element-wise, so vector code adds in the
/// same order as scalar code, and the slices stay bit-identical.
template <unsigned N>
void addScaled(double *__restrict A, const double *__restrict W, double C) {
  for (unsigned D = 0; D < N; ++D)
    A[D] += C * W[D];
}
} // namespace

void BBVCollector::accountBlock(uint64_t BlockEntry, uint64_t Count) {
  if (Count == 0)
    return;
  const double *W = weights(BlockEntry);
  const double C = static_cast<double>(Count);
  // The default width gets a fixed trip count the compiler vectorizes.
  if (Dims == 16) {
    addScaled<16>(Acc.data(), W, C);
    return;
  }
  for (unsigned D = 0; D < Dims; ++D)
    Acc[D] += C * W[D];
}

void BBVCollector::closeSlice() {
  SliceVector V;
  V.SliceIndex = NextSliceIndex++;
  V.Projected = Acc;
  // L1-normalize so slices compare by behaviour, not by length.
  double Norm = 0;
  for (double X : V.Projected)
    Norm += X > 0 ? X : -X;
  if (Norm > 0)
    for (double &X : V.Projected)
      X /= Norm;
  Slices.push_back(std::move(V));
  std::fill(Acc.begin(), Acc.end(), 0.0);
  InstrInSlice = 0;
}

void BBVCollector::onBlock(uint32_t, uint64_t EntryPC, uint64_t NumInsts,
                           bool EndsInControlFlow) {
  // Splits the run at slice boundaries; accounting happens at the same
  // points (and so in the same order) as for single instructions.
  while (NumInsts > 0) {
    uint64_t Take = std::min(NumInsts, SliceSize - InstrInSlice);
    if (CurBlockLen == 0)
      CurBlockEntry = EntryPC;
    CurBlockLen += Take;
    InstrInSlice += Take;
    EntryPC += Take * isa::InstSize;
    NumInsts -= Take;
    if (NumInsts == 0 && EndsInControlFlow) {
      accountBlock(CurBlockEntry, CurBlockLen);
      CurBlockLen = 0;
    }
    if (InstrInSlice >= SliceSize) {
      if (CurBlockLen) {
        accountBlock(CurBlockEntry, CurBlockLen);
        CurBlockLen = 0;
      }
      closeSlice();
    }
  }
}

void BBVCollector::finish() {
  if (CurBlockLen) {
    accountBlock(CurBlockEntry, CurBlockLen);
    CurBlockLen = 0;
  }
  if (InstrInSlice >= SliceSize / 10)
    closeSlice();
}
