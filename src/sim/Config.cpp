//===- sim/Config.cpp -----------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/Config.h"

#include "sim/Cache.h"
#include "support/FileIO.h"

using namespace elfie;
using namespace elfie::sim;

MachineConfig sim::makeGainestown8() {
  MachineConfig M;
  M.Name = "gainestown8";
  M.NumCores = 8;
  M.Core.DispatchWidth = 4;
  M.Core.ROBSize = 128;
  M.Core.MispredictPenalty = 17;
  M.Core.FreqGHz = 2.66;
  M.L3 = {8 * 1024 * 1024, 16, 35};
  M.MemLatencyCycles = 200;
  return M;
}

MachineConfig sim::makeNehalemLike() {
  MachineConfig M;
  M.Name = "nehalem";
  M.NumCores = 1;
  M.Core.DispatchWidth = 4;
  M.Core.ROBSize = 128;
  M.Core.MispredictPenalty = 17;
  M.Core.BPBits = 12;
  M.Core.L2 = {256 * 1024, 8, 12};
  M.Core.FreqGHz = 2.66;
  M.L3 = {8 * 1024 * 1024, 16, 38};
  M.MemLatencyCycles = 200;
  return M;
}

MachineConfig sim::makeHaswellLike() {
  MachineConfig M;
  M.Name = "haswell";
  M.NumCores = 1;
  // The Table V study: larger critical resources (ROB, queues), faster
  // recovery, better predictors.
  M.Core.DispatchWidth = 4;
  M.Core.ROBSize = 192;
  M.Core.MispredictPenalty = 14;
  M.Core.BPBits = 14;
  M.Core.BTBBits = 12;
  M.Core.L2 = {256 * 1024, 8, 11};
  M.Core.DTLBEntries = 128;
  M.Core.FreqGHz = 3.4;
  // 20-way, as Haswell-EP's 2.5 MB L3 slices are, which makes the set
  // count a power of two (16384).
  M.L3 = {20 * 1024 * 1024, 20, 34};
  M.MemLatencyCycles = 190;
  return M;
}

MachineConfig sim::makeSkylakeLike(bool FullSystem) {
  MachineConfig M;
  M.Name = FullSystem ? "skylake-fs" : "skylake";
  M.NumCores = 1;
  M.Core.DispatchWidth = 5;
  M.Core.ROBSize = 224;
  M.Core.MispredictPenalty = 14;
  M.Core.BPBits = 15;
  M.Core.BTBBits = 12;
  M.Core.L2 = {1024 * 1024, 16, 12};
  M.Core.DTLBEntries = 128;
  M.Core.ITLBEntries = 128;
  M.Core.FreqGHz = 3.0;
  M.L3 = {16 * 1024 * 1024, 16, 40};
  M.MemLatencyCycles = 180;
  M.Kernel.Enabled = FullSystem;
  return M;
}

Error sim::checkMachineConfig(const MachineConfig &M) {
  const CoreConfig &C = M.Core;
  struct Level {
    const char *Name;
    const CacheConfig &Geometry;
  };
  for (const Level &L : {Level{"l1i", C.L1I}, Level{"l1d", C.L1D},
                         Level{"l2", C.L2}, Level{"l3", M.L3}})
    if (const char *Why =
            Cache::geometryError(L.Geometry.SizeBytes, L.Geometry.Assoc))
      return makeCodedError("EFAULT.CONFIG.GEOMETRY",
                            "machine '%s': %s of %llu bytes, %u ways: %s",
                            M.Name.c_str(), L.Name,
                            static_cast<unsigned long long>(
                                L.Geometry.SizeBytes),
                            L.Geometry.Assoc, Why);
  for (auto [Name, Entries] : {std::pair<const char *, uint32_t>{
                                   "dtlb", C.DTLBEntries},
                               {"itlb", C.ITLBEntries}})
    if (const char *Why = Cache::geometryError(
            uint64_t(Entries) * TLBPageSize, TLBAssoc, TLBPageSize))
      return makeCodedError("EFAULT.CONFIG.GEOMETRY",
                            "machine '%s': %s of %u entries: %s",
                            M.Name.c_str(), Name, Entries, Why);
  return Error::success();
}

Sha256Digest sim::configFingerprint(const MachineConfig &M) {
  // Canonical field-by-field serialization; any new MachineConfig field
  // must be appended here so checkpoints taken under a different geometry
  // stop resuming.
  BinaryWriter W;
  W.writeString(M.Name);
  W.writeU32(M.NumCores);
  const CoreConfig &C = M.Core;
  W.writeU32(C.DispatchWidth);
  W.writeU32(C.ROBSize);
  W.writeU32(C.MispredictPenalty);
  for (const CacheConfig *CC : {&C.L1I, &C.L1D, &C.L2, &M.L3}) {
    W.writeU64(CC->SizeBytes);
    W.writeU32(CC->Assoc);
    W.writeU32(CC->LatencyCycles);
  }
  W.writeU32(C.BPBits);
  W.writeU32(C.BTBBits);
  W.writeU32(C.DTLBEntries);
  W.writeU32(C.ITLBEntries);
  W.writeU32(C.PageWalkCycles);
  W.writeU8(C.NextLinePrefetcher ? 1 : 0);
  W.writeDouble(C.FreqGHz);
  W.writeU32(M.MemLatencyCycles);
  W.writeU32(M.CoherencePenaltyCycles);
  const KernelConfig &K = M.Kernel;
  W.writeU8(K.Enabled ? 1 : 0);
  W.writeU32(K.SyscallHandlerInsts);
  W.writeU64(K.TimerIntervalInsts);
  W.writeU32(K.TimerHandlerInsts);
  W.writeU64(K.KernelDataBase);
  W.writeU64(K.KernelDataBytes);
  W.writeU64(K.KernelTextBase);
  W.writeU64(K.KernelTextBytes);
  return Sha256::digest(W.bytes().data(), W.size());
}

bool sim::configByName(const std::string &Name, MachineConfig &Out) {
  if (Name == "gainestown8")
    Out = makeGainestown8();
  else if (Name == "nehalem")
    Out = makeNehalemLike();
  else if (Name == "haswell")
    Out = makeHaswellLike();
  else if (Name == "skylake")
    Out = makeSkylakeLike(false);
  else if (Name == "skylake-fs")
    Out = makeSkylakeLike(true);
  else
    return false;
  return true;
}
