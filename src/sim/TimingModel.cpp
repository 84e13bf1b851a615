//===- sim/TimingModel.cpp ------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/TimingModel.h"

#include "isa/ISA.h"
#include "support/Format.h"

#include <algorithm>

using namespace elfie;
using namespace elfie::sim;

void CoreState::saveState(StateWriter &W) const {
  BP.saveState(W);
  Btb.saveState(W);
  L1I.saveState(W);
  L1D.saveState(W);
  L2.saveState(W);
  Dtlb.saveState(W);
  Itlb.saveState(W);
  W.writeU64(LastFetchLine);
  W.writeU64(SinceTimer);
  W.writeU64(KernelCursor);
  W.writeBool(InKernel);
}

Error CoreState::loadState(StateReader &R) {
  if (Error E = BP.loadState(R))
    return E;
  if (Error E = Btb.loadState(R))
    return E;
  for (Cache *C : {&L1I, &L1D, &L2, &Dtlb, &Itlb})
    if (Error E = C->loadState(R))
      return E;
  LastFetchLine = R.readU64();
  SinceTimer = R.readU64();
  KernelCursor = R.readU64();
  InKernel = R.readBool();
  return Error::success();
}

TimingModel::TimingModel(const MachineConfig &Config) : Config(Config) {
  Stats.Cores.resize(Config.NumCores);
  Stats.FreqGHz = Config.Core.FreqGHz;
  for (unsigned I = 0; I < Config.NumCores; ++I) {
    Cores.push_back(std::make_unique<CoreState>(Config.Core));
    Cores.back()->Index = I;
    Cores.back()->Stats = &Stats.Cores[I];
  }
  L3 = std::make_unique<Cache>(Config.L3.SizeBytes, Config.L3.Assoc);
}

TimingModel::~TimingModel() = default;

void TimingModel::chargeStall(CoreState &C, unsigned Latency, bool IsStore) {
  if (Latency == 0)
    return;
  // The out-of-order window hides part of the latency; stores mostly drain
  // through the store buffer.
  double Window = static_cast<double>(Config.Core.ROBSize) /
                  Config.Core.DispatchWidth;
  double Stall = std::max(0.0, static_cast<double>(Latency) - Window);
  // Short L2-class misses that fit in the window still cost a little
  // through scheduler pressure.
  Stall += std::min<double>(Latency, Window) * 0.1;
  if (IsStore)
    Stall *= 0.3;
  if (C.InKernel)
    C.Stats->Ring0Cycles += Stall;
  C.Stats->Cycles += Stall;
}

template <bool Measure>
unsigned TimingModel::dataAccess(CoreState &C, uint64_t Addr, bool IsWrite,
                                 bool Kernel) {
  if constexpr (Measure) {
    Stats.addDataPage(Addr >> 12, Kernel);
    ++C.Stats->L1DAccesses;
  }
  // TLB first.
  unsigned Latency = 0;
  if (!C.Dtlb.access(Addr, false)) {
    if constexpr (Measure)
      ++C.Stats->DTLBMisses;
    Latency += Config.Core.PageWalkCycles;
  }
  if (C.L1D.access(Addr, IsWrite))
    return Latency;
  if constexpr (Measure)
    ++C.Stats->L1DMisses;
  if (C.L2.access(Addr, IsWrite))
    return Latency + Config.Core.L2.LatencyCycles;
  if constexpr (Measure)
    ++C.Stats->L2Misses;
  // Next-line prefetch into L2 on a demand L2 miss.
  if (Config.Core.NextLinePrefetcher) {
    uint64_t Next = Addr + CacheLineSize;
    if (!C.L2.contains(Next)) {
      C.L2.access(Next, false);
      L3->access(Next, false);
      if constexpr (Measure) {
        ++C.Stats->Prefetches;
        Stats.addDataPage(Next >> 12, Kernel);
      }
    }
  }
  if (L3->access(Addr, IsWrite))
    return Latency + Config.L3.LatencyCycles;
  if constexpr (Measure)
    ++C.Stats->L3Misses;
  return Latency + Config.L3.LatencyCycles + Config.MemLatencyCycles;
}

template <bool Measure>
unsigned TimingModel::fetchAccess(CoreState &C, uint64_t PC) {
  uint64_t Line = PC / CacheLineSize;
  if (Line == C.LastFetchLine)
    return 0;
  C.LastFetchLine = Line;
  unsigned Latency = 0;
  if (!C.Itlb.access(PC, false)) {
    if constexpr (Measure)
      ++C.Stats->ITLBMisses;
    Latency += Config.Core.PageWalkCycles;
  }
  if (C.L1I.access(PC, false))
    return Latency;
  if (C.L2.access(PC, false))
    return Latency + Config.Core.L2.LatencyCycles;
  if (L3->access(PC, false))
    return Latency + Config.L3.LatencyCycles;
  return Latency + Config.L3.LatencyCycles + Config.MemLatencyCycles;
}

void TimingModel::instruction(unsigned Core, uint64_t PC) {
  CoreState &C = *Cores[Core];
  if (Warming) {
    fetchAccess<false>(C, PC);
    return;
  }
  C.Stats->Cycles += 1.0 / Config.Core.DispatchWidth;
  ++C.Stats->Instructions;
  unsigned FetchLat = fetchAccess<true>(C, PC);
  if (FetchLat)
    C.Stats->Cycles += FetchLat * 0.5; // fetch-ahead hides half

  // Timer interrupt (full-system only).
  if (Config.Kernel.Enabled &&
      ++C.SinceTimer >= Config.Kernel.TimerIntervalInsts) {
    C.SinceTimer = 0;
    runKernelHandler(C, Config.Kernel.TimerHandlerInsts,
                     /*Seed=*/PC ^ 0x1234);
  }
}

void TimingModel::memoryAccess(unsigned Core, uint64_t Addr, uint32_t Size,
                               bool IsWrite) {
  (void)Size;
  CoreState &C = *Cores[Core];
  // Write-invalidate coherence: a store snoops the other cores.
  if (IsWrite && Config.NumCores > 1) {
    for (auto &Other : Cores) {
      if (Other->Index == Core)
        continue;
      if (Other->L1D.contains(Addr) || Other->L2.contains(Addr)) {
        Other->L1D.invalidate(Addr);
        Other->L2.invalidate(Addr);
        if (!Warming) {
          ++C.Stats->CoherenceInvalidations;
          C.Stats->Cycles += Config.CoherencePenaltyCycles;
        }
      }
    }
  }
  if (Warming) {
    dataAccess<false>(C, Addr, IsWrite, /*Kernel=*/false);
    return;
  }
  unsigned Latency = dataAccess<true>(C, Addr, IsWrite, C.InKernel);
  chargeStall(C, Latency, IsWrite);
}

void TimingModel::controlTransfer(unsigned Core, uint64_t FromPC,
                                  uint64_t ToPC, bool Taken,
                                  bool IsIndirect) {
  CoreState &C = *Cores[Core];
  bool Correct;
  if (IsIndirect)
    Correct = C.Btb.predictAndUpdate(FromPC, ToPC);
  else
    Correct = C.BP.predictAndUpdate(FromPC, Taken);
  if (Warming)
    return;
  ++C.Stats->Branches;
  if (!Correct) {
    ++C.Stats->BranchMispredicts;
    C.Stats->Cycles += Config.Core.MispredictPenalty;
    if (C.InKernel)
      C.Stats->Ring0Cycles += Config.Core.MispredictPenalty;
  }
}

void TimingModel::runKernelHandler(CoreState &C, unsigned NumInsts,
                                   uint64_t Seed) {
  const KernelConfig &K = Config.Kernel;
  C.InKernel = true;
  double CyclesBefore = C.Stats->Cycles;
  // The handler walks kernel text (i-side) and strides through kernel data
  // structures (d-side), polluting the shared hierarchy.
  uint64_t TextCursor = (Seed * 640) % K.KernelTextBytes;
  for (unsigned I = 0; I < NumInsts; ++I) {
    C.Stats->Cycles += 1.0 / Config.Core.DispatchWidth;
    ++C.Stats->Ring0Instructions;
    if ((I & 7) == 0) {
      unsigned FetchLat = fetchAccess<true>(
          C, K.KernelTextBase + (TextCursor + I * 8) % K.KernelTextBytes);
      C.Stats->Cycles += FetchLat * 0.5;
    }
    if ((I & 3) == 0) {
      // Mostly a hot 4 KiB structure walk (task/runqueue state, cheap
      // once cached); occasionally a fresh page (buffers, page-cache
      // metadata) — that is what grows the footprint disproportionately
      // to the runtime cost (Table IV).
      uint64_t Addr;
      if ((I & 1023) == 0) {
        Addr = K.KernelDataBase + (C.KernelCursor % K.KernelDataBytes);
        C.KernelCursor += 4096;
      } else {
        Addr = K.KernelDataBase + K.KernelDataBytes + (I * 64) % 4096;
      }
      unsigned Lat =
          dataAccess<true>(C, Addr, (I & 15) == 0, /*Kernel=*/true);
      chargeStall(C, Lat, false);
    }
  }
  // Mode-switch cost (trap entry/exit).
  C.Stats->Cycles += 150;
  C.Stats->Ring0Cycles += (C.Stats->Cycles - CyclesBefore);
  // Returning to user code refetches.
  C.LastFetchLine = UINT64_MAX;
  C.InKernel = false;
}

void TimingModel::syscall(unsigned Core, uint64_t Nr) {
  if (Warming)
    return;
  CoreState &C = *Cores[Core];
  ++C.Stats->Syscalls;
  if (!Config.Kernel.Enabled)
    return;
  // Handler length varies a little by syscall kind.
  unsigned Insts = Config.Kernel.SyscallHandlerInsts;
  if (Nr == static_cast<uint64_t>(isa::Sys::ClockGetTimeNs) ||
      Nr == static_cast<uint64_t>(isa::Sys::GetTid) ||
      Nr == static_cast<uint64_t>(isa::Sys::Yield))
    Insts /= 3; // fast paths
  runKernelHandler(C, Insts, Nr * 2654435761ull);
}

void SimStats::save(StateWriter &W) const {
  W.writeU32(static_cast<uint32_t>(Cores.size()));
  for (const CoreStats &C : Cores) {
    W.writeU64(C.Instructions);
    W.writeU64(C.Ring0Instructions);
    W.writeDouble(C.Cycles);
    W.writeDouble(C.Ring0Cycles);
    W.writeU64(C.Branches);
    W.writeU64(C.BranchMispredicts);
    W.writeU64(C.L1DAccesses);
    W.writeU64(C.L1DMisses);
    W.writeU64(C.L2Misses);
    W.writeU64(C.L3Misses);
    W.writeU64(C.DTLBMisses);
    W.writeU64(C.ITLBMisses);
    W.writeU64(C.Prefetches);
    W.writeU64(C.CoherenceInvalidations);
    W.writeU64(C.Syscalls);
  }
  // std::set iteration is sorted, so the encoding is canonical.
  W.writeU64(UserDataPages.size());
  for (uint64_t P : UserDataPages)
    W.writeU64(P);
  W.writeU64(KernelDataPages.size());
  for (uint64_t P : KernelDataPages)
    W.writeU64(P);
  W.writeDouble(FreqGHz);
}

Error SimStats::load(StateReader &R) {
  uint32_t NumCores = R.readU32();
  if (R.hadError() || NumCores != Cores.size())
    return makeCodedError("EFAULT.SIMSTATE.COMPONENT",
                          "stats core count mismatch: checkpoint has %u, "
                          "this machine has %zu",
                          NumCores, Cores.size());
  for (CoreStats &C : Cores) {
    C.Instructions = R.readU64();
    C.Ring0Instructions = R.readU64();
    C.Cycles = R.readDouble();
    C.Ring0Cycles = R.readDouble();
    C.Branches = R.readU64();
    C.BranchMispredicts = R.readU64();
    C.L1DAccesses = R.readU64();
    C.L1DMisses = R.readU64();
    C.L2Misses = R.readU64();
    C.L3Misses = R.readU64();
    C.DTLBMisses = R.readU64();
    C.ITLBMisses = R.readU64();
    C.Prefetches = R.readU64();
    C.CoherenceInvalidations = R.readU64();
    C.Syscalls = R.readU64();
  }
  UserDataPages.clear();
  KernelDataPages.clear();
  LastUserPage = LastKernelPage = UINT64_MAX;
  uint64_t NumUser = R.readU64();
  if (NumUser > R.remaining() / 8)
    return makeCodedError("EFAULT.SIMSTATE.COMPONENT",
                          "stats page set overruns the payload");
  for (uint64_t I = 0; I < NumUser; ++I)
    UserDataPages.insert(R.readU64());
  uint64_t NumKernel = R.readU64();
  if (NumKernel > R.remaining() / 8)
    return makeCodedError("EFAULT.SIMSTATE.COMPONENT",
                          "stats page set overruns the payload");
  for (uint64_t I = 0; I < NumKernel; ++I)
    KernelDataPages.insert(R.readU64());
  FreqGHz = R.readDouble();
  return Error::success();
}

uint64_t SimStats::totalInstructions() const {
  uint64_t N = 0;
  for (const CoreStats &C : Cores)
    N += C.Instructions;
  return N;
}

uint64_t SimStats::totalRing0Instructions() const {
  uint64_t N = 0;
  for (const CoreStats &C : Cores)
    N += C.Ring0Instructions;
  return N;
}

double SimStats::totalCycles() const {
  double Max = 0;
  for (const CoreStats &C : Cores)
    Max = std::max(Max, C.Cycles);
  return Max;
}

double SimStats::ipc() const {
  double Cy = totalCycles();
  return Cy > 0 ? static_cast<double>(totalInstructions() +
                                      totalRing0Instructions()) /
                      Cy
                : 0;
}

double SimStats::cpi() const {
  uint64_t N = totalInstructions() + totalRing0Instructions();
  return N ? totalCycles() / static_cast<double>(N) : 0;
}

std::string SimStats::summary() const {
  std::string Out;
  Out += formatString("instructions (ring3): %llu\n",
                      static_cast<unsigned long long>(totalInstructions()));
  if (totalRing0Instructions())
    Out += formatString(
        "instructions (ring0): %llu\n",
        static_cast<unsigned long long>(totalRing0Instructions()));
  Out += formatString("cycles:               %.0f\n", totalCycles());
  Out += formatString("IPC:                  %.3f\n", ipc());
  Out += formatString("CPI:                  %.3f\n", cpi());
  Out += formatString("runtime:              %.6f s @ %.2f GHz\n",
                      runtimeSeconds(), FreqGHz);
  Out += formatString("data footprint:       %.1f KiB (%zu user + %zu "
                      "kernel pages)\n",
                      dataFootprintBytes() / 1024.0, UserDataPages.size(),
                      KernelDataPages.size());
  uint64_t Br = 0, Miss = 0, L1A = 0, L1M = 0, L2M = 0, L3M = 0;
  for (const CoreStats &C : Cores) {
    Br += C.Branches;
    Miss += C.BranchMispredicts;
    L1A += C.L1DAccesses;
    L1M += C.L1DMisses;
    L2M += C.L2Misses;
    L3M += C.L3Misses;
  }
  if (Br)
    Out += formatString("branch MPKI-equivalent: %.2f%% mispredicted\n",
                        100.0 * Miss / Br);
  if (L1A)
    Out += formatString("L1D miss: %.2f%%  L2 miss: %.2f%%  L3 miss: "
                        "%.2f%% (of accesses)\n",
                        100.0 * L1M / L1A, 100.0 * L2M / L1A,
                        100.0 * L3M / L1A);
  return Out;
}
