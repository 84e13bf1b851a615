//===- simpoint/BBV.h - Basic-block vector collection -----------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Basic Block Vector (BBV) collection for SimPoint-style phase analysis
/// (Sherwood et al. [5], used by the paper's PinPoints methodology, §IV-A).
/// The collector is an EVM observer: execution is divided into fixed-size
/// slices of retired instructions; for each slice it accumulates, per basic
/// block, the number of instructions executed in that block. Vectors are
/// dimension-reduced by random projection before clustering.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SIMPOINT_BBV_H
#define ELFIE_SIMPOINT_BBV_H

#include "vm/VM.h"

#include <cstdint>
#include <vector>

namespace elfie {
namespace simpoint {

/// One projected slice vector.
struct SliceVector {
  uint64_t SliceIndex = 0;
  std::vector<double> Projected;
};

/// Collects per-slice basic block vectors with random projection.
///
/// Basic blocks are identified by their entry address: a new block begins
/// at every control-transfer target and after every control-flow
/// instruction. Projection: each block address is hashed into
/// `Dims` pseudo-random unit weights (deterministic), so no global block
/// table is needed (standard SimPoint practice).
///
/// The collector is a Block-granularity observer, so profiling runs at
/// chained JIT speed: it sees straight-line runs (onBlock), delivered from
/// the VM's block log after each compiled chain, not single instructions,
/// and the slices are bit-identical whichever executor retired the run.
/// Blocks follow global retirement order across threads: a run that
/// starts while another thread's block is still open (no control transfer
/// yet) extends that block, exactly as a per-instruction stream would.
/// Each block's weights live in a flat open-addressed table keyed by
/// entry PC, so the per-block cost is a multiplicative hash, usually one
/// compare, and the `Dims` multiply-adds, summed in the same order.
class BBVCollector : public vm::Observer {
public:
  BBVCollector(uint64_t SliceSize, unsigned Dims = 16,
               uint64_t ProjectionSeed = 42);

  // Observer interface.
  Granularity granularity() const override { return Granularity::Block; }
  void onBlock(uint32_t Tid, uint64_t EntryPC, uint64_t NumInsts,
               bool EndsInControlFlow) override;

  /// Flushes the in-progress slice (call at end of run; partial slices
  /// shorter than 10% of SliceSize are discarded).
  void finish();

  const std::vector<SliceVector> &slices() const { return Slices; }
  uint64_t sliceSize() const { return SliceSize; }
  unsigned dims() const { return Dims; }

private:
  void accountBlock(uint64_t BlockEntry, uint64_t Count);
  /// The `Dims` projection weights of a block entry, hashed on first use.
  /// Valid until the next call.
  const double *weights(uint64_t BlockEntry);
  /// The slot of \p BlockEntry in Table, or the empty slot it would take.
  size_t findSlot(uint64_t BlockEntry) const;
  void closeSlice();

  uint64_t SliceSize;
  unsigned Dims;
  uint64_t ProjectionSeed;

  uint64_t CurBlockEntry = 0;
  uint64_t CurBlockLen = 0;
  uint64_t InstrInSlice = 0;
  std::vector<double> Acc;
  /// Block entry -> offset of its `Dims` weights in Weights. Linear
  /// probing over a power-of-two table kept at most half full.
  struct Slot {
    uint64_t Entry = 0;
    uint32_t Offset = 0;
    bool Used = false;
  };
  std::vector<Slot> Table;
  size_t NumBlocks = 0;
  std::vector<double> Weights;
  std::vector<SliceVector> Slices;
  uint64_t NextSliceIndex = 0;
};

} // namespace simpoint
} // namespace elfie

#endif // ELFIE_SIMPOINT_BBV_H
