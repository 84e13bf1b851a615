//===- sim/Frontend.cpp ---------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/Frontend.h"

#include "elf/ELFReader.h"
#include "replay/Replayer.h"
#include "sim/SimState.h"
#include "support/FileIO.h"
#include "support/MappedFile.h"
#include "support/Sha256.h"

#include <functional>

using namespace elfie;
using namespace elfie::sim;

namespace {

/// esim's phase machine. Every simulation walks left to right:
///
///   FastForward --marker--> Warming/Skipping --W insts--> Detailed
///                                             [boundary]
///
/// FastForward (pre-marker) trains nothing, exactly like the pre-existing
/// marker gating. Warming feeds the model's warm entry points: structures
/// get hot, no cycles/stats/footprint accrue. Skipping replaces Warming
/// when resuming from a sidecar: events are ignored because the state
/// comes from disk. The boundary sits at the start of the first
/// post-warming instruction — before any of its events reach the model —
/// and is where -warmup-save serializes and -warmup-load restores. With
/// W == 0 and no sidecar the Warming phase collapses away and behaviour
/// is bit-identical to the pre-checkpoint front-end.
enum class Phase { FastForward, Warming, Skipping, Detailed };

/// Feeds VM events into the TimingModel through the phase machine.
class SimObserver : public vm::Observer {
public:
  SimObserver(TimingModel &Model, const RunControls &Controls,
              unsigned NumCores, Phase Initial, Phase PostMarker,
              uint64_t WarmupBudget)
      : Model(Model), Controls(Controls), NumCores(NumCores), Ph(Initial),
        PostMarker(PostMarker), WarmupBudget(WarmupBudget) {}

  /// Runs once at the warming -> detailed boundary (save/load hook).
  std::function<Error()> OnBoundary;
  /// Stops the underlying engine; null when the replayer owns the budget.
  std::function<void()> RequestStop;
  /// Global retired-count provider (the VM's counter in binary mode);
  /// replay mode falls back to the observer's own event count.
  std::function<uint64_t()> GlobalRetired;

  uint64_t roiRetired() const { return RoiRetired; }
  uint64_t warmupSeen() const { return WarmupSeen; }
  bool markerSeen() const { return MarkerSeen; }
  bool boundaryCrossed() const { return BoundaryCrossed; }
  uint64_t boundaryRetired() const { return BoundaryRetired; }
  const Error &boundaryError() const { return BoundaryErr; }

  void onInstruction(const vm::ThreadState &T, uint64_t PC,
                     const isa::Inst &I) override {
    if (BoundaryErr.isError())
      return;
    unsigned Core = T.Tid % NumCores;
    LastOp[Core] = I.Op;
    ++TotalSeen;
    if (Ph == Phase::FastForward)
      return;
    if (Ph == Phase::Warming || Ph == Phase::Skipping) {
      if (WarmupSeen < WarmupBudget) {
        ++WarmupSeen;
        if (Ph == Phase::Warming)
          Model.warmInstruction(Core, PC);
        return;
      }
      // The boundary sits at the start of the first post-warming
      // instruction: none of this instruction's events have reached the
      // model yet, so the save and the resume land on the same state.
      crossBoundary();
      if (BoundaryErr.isError())
        return;
    }
    Model.instruction(Core, PC, I);
    ++RoiRetired;
    if (Controls.StopPC && PC == Controls.StopPC &&
        ++StopPCHits >= Controls.StopPCCount) {
      if (RequestStop)
        RequestStop();
      return;
    }
    if (RoiRetired >= Controls.MaxInstructions && RequestStop)
      RequestStop();
  }

  void onMemoryAccess(uint32_t Tid, uint64_t Addr, uint32_t Size,
                      bool IsWrite) override {
    if (BoundaryErr.isError())
      return;
    if (Ph == Phase::Detailed)
      Model.memoryAccess(Tid % NumCores, Addr, Size, IsWrite);
    else if (Ph == Phase::Warming)
      Model.warmMemoryAccess(Tid % NumCores, Addr, Size, IsWrite);
  }

  void onControlTransfer(uint32_t Tid, uint64_t FromPC, uint64_t ToPC,
                         bool Taken) override {
    if (BoundaryErr.isError())
      return;
    if (Ph != Phase::Detailed && Ph != Phase::Warming)
      return;
    unsigned Core = Tid % NumCores;
    isa::Opcode Op = LastOp.count(Core) ? LastOp[Core] : isa::Opcode::Jmp;
    // Unconditional direct transfers are perfectly predictable; only
    // conditional branches train the direction predictor and only
    // register-indirect jumps consult the BTB.
    bool Indirect = Op == isa::Opcode::Jalr;
    if (!isa::isBranch(Op) && !Indirect)
      return;
    if (Ph == Phase::Detailed)
      Model.controlTransfer(Core, FromPC, ToPC, Taken, Indirect);
    else
      Model.warmControlTransfer(Core, FromPC, ToPC, Taken, Indirect);
  }

  void onSyscall(uint32_t Tid, uint64_t Nr, const uint64_t *,
                 int64_t) override {
    // Warming deliberately skips the synthetic kernel: handlers charge
    // stats, and the checkpoint must hold exactly the state a cold
    // warming phase produces.
    if (BoundaryErr.isError() || Ph != Phase::Detailed)
      return;
    Model.syscall(Tid % NumCores, Nr);
  }

  void onMarker(uint32_t, isa::MarkerKind, int32_t) override {
    MarkerSeen = true;
    if (Ph == Phase::FastForward && Controls.WaitForMarker)
      Ph = PostMarker;
  }

private:
  void crossBoundary() {
    Ph = Phase::Detailed;
    BoundaryCrossed = true;
    // onInstruction fires before its instruction retires, so the global
    // count here excludes the boundary instruction itself — the same
    // index a resume lands on after fast-forwarding marker + W.
    BoundaryRetired = GlobalRetired ? GlobalRetired() : TotalSeen - 1;
    if (OnBoundary) {
      BoundaryErr = OnBoundary();
      if (BoundaryErr.isError() && RequestStop)
        RequestStop();
    }
  }

  TimingModel &Model;
  RunControls Controls;
  unsigned NumCores;
  Phase Ph;
  Phase PostMarker;
  uint64_t WarmupBudget;
  bool MarkerSeen = false;
  bool BoundaryCrossed = false;
  uint64_t BoundaryRetired = 0;
  uint64_t WarmupSeen = 0;
  uint64_t TotalSeen = 0;
  uint64_t RoiRetired = 0;
  uint64_t StopPCHits = 0;
  Error BoundaryErr;
  std::map<unsigned, isa::Opcode> LastOp;
};

/// Cheap canonical identity for a checkpointed pinball: the region meta
/// plus per-thread entry state (hashing every image page would defeat the
/// point of a fast resume).
Sha256Digest pinballInputDigest(const pinball::Pinball &PB) {
  BinaryWriter W;
  const pinball::PinballMeta &M = PB.Meta;
  W.writeString(M.ProgramName);
  W.writeU64(M.RegionStart);
  W.writeU64(M.RegionLength);
  W.writeU64(M.StackBase);
  W.writeU64(M.StackTop);
  W.writeU64(M.BrkAtStart);
  W.writeU64(M.BrkAtEnd);
  W.writeU64(PB.Image.size());
  W.writeU64(PB.Injects.size());
  W.writeU64(PB.Syscalls.size());
  W.writeU64(PB.Schedule.size());
  W.writeU32(static_cast<uint32_t>(PB.Threads.size()));
  for (const auto &T : PB.Threads) {
    W.writeU64(T.PC);
    W.writeU64(T.RegionIcount);
  }
  return Sha256::digest(W.bytes().data(), W.size());
}

/// Builds the boundary hook shared by both front-ends: record the
/// checkpoint index and, in save mode, serialize the sidecar. Loads are
/// not boundary work — a resume applies the sidecar up front (the model is
/// untouched until the boundary in load mode) so the recorded warming
/// length is authoritative and validated before anything executes.
std::function<Error()>
makeBoundaryHook(SimResult &Out, SimObserver &Obs, const RunControls &Controls,
                 const MachineConfig &Machine, const Sha256Digest &InputDigest,
                 uint64_t Warmup, TimingModel &Model) {
  return [&Out, &Obs, &Controls, &Machine, InputDigest, Warmup,
          &Model]() -> Error {
    Out.CheckpointRetired = Obs.boundaryRetired();
    if (!Controls.SaveStatePath.empty()) {
      SimStateMeta Meta;
      Meta.ConfigName = Machine.Name;
      Meta.ConfigFP = configFingerprint(Machine);
      Meta.InputDigest = InputDigest;
      Meta.WarmupInstructions = Warmup;
      Meta.CheckpointRetired = Out.CheckpointRetired;
      Meta.DetailedBudget = Controls.MaxInstructions == UINT64_MAX
                                ? 0
                                : Controls.MaxInstructions;
      if (Error E = saveSimState(Controls.SaveStatePath, Meta, Model))
        return E;
      Out.StateSaved = true;
    }
    return Error::success();
  };
}

/// Resume setup shared by both front-ends: apply the sidecar to \p Model
/// now and resolve the warming length from its metadata. An explicit
/// -warmup that disagrees with the checkpoint fails closed — silently
/// preferring either value would resume at the wrong boundary.
Error resolveLoadedWarmup(const std::string &Path,
                          const MachineConfig &Machine,
                          const Sha256Digest &InputDigest,
                          TimingModel &Model, uint64_t &Warmup,
                          const RunControls &Controls) {
  auto Meta = loadSimState(Path, Machine, InputDigest, Model);
  if (!Meta)
    return Meta.takeError();
  if (Controls.WarmupInstructions != UINT64_MAX &&
      Controls.WarmupInstructions != Meta->WarmupInstructions)
    return makeCodedError(
        "EFAULT.SIMSTATE.BUDGET",
        "explicit warmup length %llu disagrees with the checkpoint's %llu",
        static_cast<unsigned long long>(Controls.WarmupInstructions),
        static_cast<unsigned long long>(Meta->WarmupInstructions));
  Warmup = Meta->WarmupInstructions;
  return Error::success();
}

} // namespace

Expected<SimResult>
sim::simulateBinaryImage(std::span<const uint8_t> Image,
                         const MachineConfig &Machine, RunControls Controls,
                         vm::VMConfig VMConfig,
                         std::vector<std::string> Args) {
  // Zero-copy parse: the reader's views (and the VM's attached image
  // extents) borrow from the caller's bytes, which outlive this call.
  auto Reader = elf::ELFReader::parseView(Image);
  if (!Reader)
    return Reader.takeError();

  bool SaveMode = !Controls.SaveStatePath.empty();
  bool LoadMode = !Controls.LoadStatePath.empty();
  if (SaveMode && LoadMode)
    return makeError("RunControls: SaveStatePath and LoadStatePath are "
                     "mutually exclusive");

  // ELFie auto-detection: no argv/stack setup, detailed model starts at
  // the ROI marker, budget and warming length from the embedded symbols.
  bool IsElfie = Reader->findSymbol("elfie_on_start") != nullptr;
  uint64_t Region = 0;
  uint64_t Warmup = Controls.WarmupInstructions == UINT64_MAX
                        ? 0
                        : Controls.WarmupInstructions;
  if (IsElfie) {
    Controls.WaitForMarker = true;
    if (const auto *Len = Reader->findSymbol("elfie_region_length"))
      Region = Len->Value;
    if (Controls.WarmupInstructions == UINT64_MAX)
      if (const auto *WL = Reader->findSymbol("elfie_warmup_length"))
        Warmup = WL->Value;
  }

  TimingModel Model(Machine);
  Sha256Digest InputDigest;
  if (SaveMode || LoadMode)
    InputDigest = Sha256::digest(Image);

  SimResult Out;
  Out.WasElfie = IsElfie;

  // Resume: apply the sidecar now (the model is untouched until the
  // boundary in load mode) and take the warming length it records.
  if (LoadMode) {
    if (Error E = resolveLoadedWarmup(Controls.LoadStatePath, Machine,
                                      InputDigest, Model, Warmup, Controls))
      return E;
    Out.StateLoaded = true;
  }

  if (Region) {
    if (Warmup >= Region)
      return makeCodedError(
          "EFAULT.SIMSTATE.BUDGET",
          "warmup length %llu must be smaller than the region length %llu",
          static_cast<unsigned long long>(Warmup),
          static_cast<unsigned long long>(Region));
    // The embedded region length covers warming + ROI; the detailed
    // budget is the remainder.
    if (Controls.MaxInstructions == UINT64_MAX)
      Controls.MaxInstructions = Region - Warmup;
  }

  if (!VMConfig.StdoutSink)
    VMConfig.StdoutSink = [](const char *, size_t) {};
  vm::VM M(VMConfig);
  if (Error E = M.loadELF(*Reader))
    return E;
  if (IsElfie) {
    vm::ThreadState T;
    T.PC = M.entry();
    M.spawnThread(T);
  } else if (Error E = M.setupMainThread(Args)) {
    return E;
  }

  // Pre-ROI fast-forward: until the first marker retires, nothing is
  // measured, so a JIT-enabled VM may run that stretch natively under a
  // marker watcher (Events granularity keeps the JIT active).
  // A -warmup-load resume fast-forwards the same way even without the
  // JIT: its warming stretch needs no callbacks either.
  // Single-core only — the multicore path is timing-driven from the start.
  bool FastForwardedMarker = false;
  bool Finished = false;
  vm::RunResult R;
  if (Controls.WaitForMarker && (VMConfig.EnableJit || LoadMode) &&
      Machine.NumCores <= 1) {
    class MarkerWatch : public vm::Observer {
    public:
      explicit MarkerWatch(vm::VM &M) : M(M) {}
      Granularity granularity() const override {
        return Granularity::Events;
      }
      void onMarker(uint32_t, isa::MarkerKind, int32_t) override {
        Seen = true;
        M.requestStop();
      }
      vm::VM &M;
      bool Seen = false;
    } FF(M);
    M.setObserver(&FF);
    R = M.run(UINT64_MAX);
    M.setObserver(nullptr);
    FastForwardedMarker = FF.Seen;
    if (R.Reason == vm::StopReason::Stopped && FF.Seen) {
      // The marker retired; start the detailed phase already active. The
      // per-core LastOp tracking the fast-forward skipped is harmless:
      // every ROI control transfer is preceded by its own onInstruction.
      Controls.WaitForMarker = false;
    } else {
      Finished = true; // exited / halted / faulted before any ROI marker
    }
  }

  // Single-core resume fast path: re-execute the warming stretch
  // functionally — observer-free, so the JIT stays active — with the model
  // already restored from the sidecar. The detailed phase below starts
  // exactly at the boundary a cold -warmup-save run checkpoints.
  if (LoadMode && !Finished && Machine.NumCores <= 1 &&
      !Controls.WaitForMarker) {
    if (Warmup > 0) {
      R = M.run(Warmup);
      if (R.Reason != vm::StopReason::BudgetReached)
        Finished = true; // the program ended inside the warming stretch
      else
        Out.WarmupRetired = Warmup;
    }
    if (!Finished) {
      Out.CheckpointRetired = M.globalRetired();
      LoadMode = false; // consumed: the observer starts detailed
      Warmup = 0;
    }
  }

  Phase PostMarker = (Warmup > 0 || SaveMode || LoadMode)
                         ? (LoadMode ? Phase::Skipping : Phase::Warming)
                         : Phase::Detailed;
  Phase Initial = Controls.WaitForMarker ? Phase::FastForward : PostMarker;
  SimObserver Obs(Model, Controls, Machine.NumCores, Initial, PostMarker,
                  Warmup);
  Obs.RequestStop = [&M] { M.requestStop(); };
  Obs.GlobalRetired = [&M] { return M.globalRetired(); };
  Obs.OnBoundary = makeBoundaryHook(Out, Obs, Controls, Machine, InputDigest,
                                    Warmup, Model);
  M.setObserver(&Obs);

  if (Finished) {
    // Nothing left to simulate; R already holds the outcome.
  } else if (Machine.NumCores <= 1) {
    // The functional budget is unbounded; the observer stops the run when
    // the ROI budget is consumed.
    R = M.run(UINT64_MAX);
  } else {
    // Timing-driven multicore scheduling (Sniper-style execution-driven
    // simulation): always advance the thread whose core has the fewest
    // accumulated cycles, so slow (miss-heavy) threads fall behind and
    // spin-waiting peers really spin. This is what makes unconstrained
    // ELFie simulation diverge from constrained pinball replay (Fig. 11).
    R.Reason = vm::StopReason::AllExited;
    while (true) {
      std::vector<uint32_t> Live = M.liveThreadIds();
      if (Live.empty()) {
        R.Reason = vm::StopReason::AllExited;
        R.ExitCode = M.exitCode();
        break;
      }
      uint32_t Pick = Live[0];
      double Best = Model.stats().Cores[Pick % Machine.NumCores].Cycles;
      for (uint32_t Tid : Live) {
        double C = Model.stats().Cores[Tid % Machine.NumCores].Cycles;
        if (C < Best) {
          Best = C;
          Pick = Tid;
        }
      }
      vm::StopReason SR = M.stepThread(Pick);
      if (SR == vm::StopReason::BudgetReached)
        continue;
      R.Reason = SR;
      if (SR == vm::StopReason::Faulted)
        R.FaultInfo = M.lastFault();
      if (SR == vm::StopReason::AllExited)
        R.ExitCode = M.exitCode();
      break;
    }
  }
  if (Obs.boundaryError().isError())
    return Error(Obs.boundaryError());
  if (R.Reason == vm::StopReason::Faulted)
    return makeError("simulated program faulted: %s",
                     R.FaultInfo.Message.c_str());

  Out.Stats = Model.stats();
  Out.Reason = R.Reason;
  Out.RoiRetired = Obs.roiRetired();
  Out.MarkerSeen = Obs.markerSeen() || FastForwardedMarker;
  if (Obs.warmupSeen())
    Out.WarmupRetired = Obs.warmupSeen();
  Out.VMStats = M.decodeCacheStats();
  Out.MemStats = M.mem().memStats();
  Out.JitStats = M.jitStats();
  return Out;
}

Expected<SimResult> sim::simulateBinaryFile(const std::string &Path,
                                            const MachineConfig &Machine,
                                            RunControls Controls,
                                            vm::VMConfig VMConfig,
                                            std::vector<std::string> Args) {
  // mmap the binary; the mapping stays alive across the whole simulation,
  // so the VM executes code straight from the page cache.
  auto File = MappedFile::open(Path);
  if (!File)
    return File.takeError();
  return simulateBinaryImage(File->span(), Machine, Controls,
                             std::move(VMConfig), std::move(Args));
}

Expected<SimResult> sim::simulatePinball(const pinball::Pinball &PB,
                                         const MachineConfig &Machine,
                                         bool Constrained,
                                         RunControls Controls,
                                         vm::VMConfig VMConfig) {
  bool SaveMode = !Controls.SaveStatePath.empty();
  bool LoadMode = !Controls.LoadStatePath.empty();
  if (SaveMode && LoadMode)
    return makeError("RunControls: SaveStatePath and LoadStatePath are "
                     "mutually exclusive");
  // Replay starts at the region entry; there is no marker to wait for.
  Controls.WaitForMarker = false;
  uint64_t Warmup = Controls.WarmupInstructions == UINT64_MAX
                        ? 0
                        : Controls.WarmupInstructions;

  TimingModel Model(Machine);
  Sha256Digest InputDigest;
  if (SaveMode || LoadMode)
    InputDigest = pinballInputDigest(PB);

  SimResult Out;
  if (LoadMode) {
    if (Error E = resolveLoadedWarmup(Controls.LoadStatePath, Machine,
                                      InputDigest, Model, Warmup, Controls))
      return E;
    Out.StateLoaded = true;
  }
  if (Warmup >= PB.Meta.RegionLength)
    return makeCodedError(
        "EFAULT.SIMSTATE.BUDGET",
        "warmup length %llu must be smaller than the region length %llu",
        static_cast<unsigned long long>(Warmup),
        static_cast<unsigned long long>(PB.Meta.RegionLength));

  Phase Initial = (Warmup > 0 || SaveMode || LoadMode)
                      ? (LoadMode ? Phase::Skipping : Phase::Warming)
                      : Phase::Detailed;
  SimObserver Obs(Model, Controls, Machine.NumCores, Initial, Initial,
                  Warmup);
  Obs.OnBoundary = makeBoundaryHook(Out, Obs, Controls, Machine, InputDigest,
                                    Warmup, Model);

  replay::ReplayOptions Opts;
  Opts.Injection = Constrained;
  Opts.Config = std::move(VMConfig);
  Opts.Obs = &Obs;
  // The replayer's budget covers warming + ROI; the observer partitions
  // the stream at the boundary.
  if (Controls.MaxInstructions != UINT64_MAX)
    Opts.MaxInstructions = Warmup + Controls.MaxInstructions;
  auto R = replay::replayPinball(PB, Opts);
  if (!R)
    return R.takeError();
  if (Obs.boundaryError().isError())
    return Error(Obs.boundaryError());

  Out.Stats = Model.stats();
  Out.Reason = R->Reason;
  Out.RoiRetired = Obs.roiRetired();
  Out.MarkerSeen = Obs.markerSeen();
  Out.WarmupRetired = Obs.warmupSeen();
  Out.VMStats = R->VMStats;
  Out.MemStats = R->MemStats;
  Out.JitStats = R->JitStats;
  return Out;
}
