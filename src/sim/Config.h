//===- sim/Config.h - machine configurations --------------------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// esim machine configurations for the paper's case studies:
/// an Intel Gainestown-like 8-core (§IV-B, Sniper study), Nehalem-like and
/// Haswell-like cores (§IV-D, gem5 resource-scaling study, Table V), and a
/// Skylake-like core (§IV-C, CoreSim full-system study, Table IV). The
/// full-system mode attaches a synthetic kernel (DESIGN.md §2).
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SIM_CONFIG_H
#define ELFIE_SIM_CONFIG_H

#include "support/Error.h"
#include "support/Sha256.h"

#include <cstdint>
#include <string>

namespace elfie {
namespace sim {

struct CacheConfig {
  uint64_t SizeBytes = 32 * 1024;
  uint32_t Assoc = 8;
  uint32_t LatencyCycles = 4;
};

struct CoreConfig {
  unsigned DispatchWidth = 4;
  unsigned ROBSize = 128;
  unsigned MispredictPenalty = 17;
  CacheConfig L1I{32 * 1024, 4, 1};
  CacheConfig L1D{32 * 1024, 8, 4};
  CacheConfig L2{256 * 1024, 8, 12};
  unsigned BPBits = 12;
  unsigned BTBBits = 10;
  unsigned DTLBEntries = 64;
  unsigned ITLBEntries = 64;
  unsigned PageWalkCycles = 30;
  bool NextLinePrefetcher = true;
  double FreqGHz = 2.66;
};

/// Synthetic-kernel parameters for full-system simulation (Table IV).
struct KernelConfig {
  bool Enabled = false;
  /// Ring-0 instructions executed per system call.
  unsigned SyscallHandlerInsts = 1800;
  /// Timer interrupt period (in retired ring-3 instructions per core) and
  /// handler length. Tuned so OS work is a small percentage of retired
  /// instructions, as in the paper's Table IV (1.6%).
  uint64_t TimerIntervalInsts = 250000;
  unsigned TimerHandlerInsts = 4000;
  /// Kernel data working set the handlers walk through (sized to disturb
  /// the L1/L2 without being pure memory-latency traffic).
  uint64_t KernelDataBase = 0xFFFF00000000ull;
  uint64_t KernelDataBytes = 64 * 1024;
  uint64_t KernelTextBase = 0xFFFF80000000ull;
  uint64_t KernelTextBytes = 16 * 1024;
};

struct MachineConfig {
  std::string Name = "default";
  unsigned NumCores = 1;
  CoreConfig Core;
  CacheConfig L3{8 * 1024 * 1024, 16, 35};
  unsigned MemLatencyCycles = 200;
  unsigned CoherencePenaltyCycles = 40;
  KernelConfig Kernel;
};

/// Intel Gainestown-like out-of-order 8-core (paper §IV-B).
MachineConfig makeGainestown8();
/// Nehalem-like single core (paper Table V, small-resource config).
MachineConfig makeNehalemLike();
/// Haswell-like single core (paper Table V, large-resource config:
/// bigger ROB/register file/load-store queues).
MachineConfig makeHaswellLike();
/// Skylake-like detailed core (paper Table IV); pass FullSystem = true to
/// attach the synthetic kernel.
MachineConfig makeSkylakeLike(bool FullSystem = false);

/// Looks up a config by name ("gainestown8", "nehalem", "haswell",
/// "skylake", "skylake-fs"); returns false when unknown.
bool configByName(const std::string &Name, MachineConfig &Out);

/// Refuses a machine whose caches or TLBs the model cannot build (see
/// Cache::geometryError) with EFAULT.CONFIG.GEOMETRY, naming the
/// structure. Every built-in config passes; the simulators check their
/// machine before building the model.
Error checkMachineConfig(const MachineConfig &M);

/// SHA-256 over a canonical serialization of every MachineConfig field.
/// Recorded in warmup-checkpoint sidecars so a checkpoint can never
/// resume under a different machine geometry (EFAULT.SIMSTATE.CONFIG),
/// even when two configs share a name.
Sha256Digest configFingerprint(const MachineConfig &M);

} // namespace sim
} // namespace elfie

#endif // ELFIE_SIM_CONFIG_H
