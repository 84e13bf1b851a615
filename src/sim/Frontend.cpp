//===- sim/Frontend.cpp ---------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/Frontend.h"

#include "elf/ELFReader.h"
#include "isa/Semantics.h"
#include "replay/Replayer.h"
#include "sim/SimState.h"
#include "store/Artifact.h"
#include "support/FileIO.h"
#include "support/MappedFile.h"
#include "support/Sha256.h"

#include <algorithm>
#include <functional>
#include <future>
#include <optional>
#include <system_error>

using namespace elfie;
using namespace elfie::sim;

namespace {

/// Records marker retirement and, given a VM, stops it at the first one
/// (the pre-ROI fast-forward).
class MarkerWatch : public vm::Observer {
public:
  explicit MarkerWatch(vm::VM *StopAtMarker) : Stop(StopAtMarker) {}
  Granularity granularity() const override { return Granularity::Events; }
  void onMarker(uint32_t, isa::MarkerKind, int32_t) override {
    Seen = true;
    if (Stop)
      Stop->requestStop();
  }
  bool Seen = false;

private:
  vm::VM *Stop;
};

/// Feeds one phase's retired blocks into the TimingModel through the same
/// entry points in both phases; the model's phase decides what they
/// charge (a warming model charges nothing and skips the synthetic
/// kernel, so a checkpoint holds exactly the state a cold warm-up
/// produces). A BlockAccesses observer, so both phases run compiled; an
/// interpreted instruction arrives as a one-instruction block. The
/// engine's quota, or the VM's (PC, count) condition, ends each phase.
class ModelFeed : public vm::Observer {
public:
  /// \p Detailed: the feed of the detailed phase, which charges cycles.
  ModelFeed(TimingModel &Model, bool Detailed)
      : Model(Model), NumCores(Model.numCores()), Detailed(Detailed) {}

  uint64_t Retired = 0;
  bool MarkerSeen = false;

  /// Whether what this feed delivers charges cycles.
  bool chargesCycles() const { return Detailed; }

  Granularity granularity() const override {
    return Granularity::BlockAccesses;
  }

  /// The block's events in the interpreter's order: per instruction the
  /// fetch, then its access or system call, then the transfer that ends
  /// the block. L2 and L3 are shared by both sides, so any other order
  /// leaves other LRU state.
  void onRetiredBlock(const vm::ThreadState &T, uint64_t EntryPC,
                      std::span<const isa::Inst> Insts,
                      std::span<const vm::MemoryAccess> Accesses) override {
    unsigned Core = T.Tid % NumCores;
    Retired += Insts.size();
    const vm::MemoryAccess *A = Accesses.data();
    uint64_t PC = EntryPC;
    for (const isa::Inst &I : Insts) {
      Model.instruction(Core, PC);
      if (isa::opInfo(I.Op).Mem != isa::Access::None) {
        Model.memoryAccess(Core, A->Addr, A->Size, A->IsWrite);
        ++A;
      }
      PC += isa::InstSize;
    }
    // A syscall retires alone, and its number is still in r7: charged
    // here, after its instruction, rather than from onSyscall, which fires
    // before the instruction's block arrives.
    const isa::Inst &Last = Insts.back();
    if (Last.Op == isa::Opcode::Syscall)
      Model.syscall(Core, T.GPR[isa::SysNrReg]);
    // A branch is the block's last instruction and writes no register, so
    // the post-block registers give its outcome; the target may be the
    // fall-through, so ToPC alone cannot.
    bool Taken = !isa::isBranch(Last.Op) ||
                 isa::sem::branchTaken(Last.Op, T.GPR[Last.Rs1],
                                       T.GPR[Last.Rs2]);
    transfer(Core, Last.Op, PC - isa::InstSize, T.PC, Taken);
  }

  void onMarker(uint32_t, isa::MarkerKind, int32_t) override {
    MarkerSeen = true;
  }

private:
  /// A control transfer by \p Op. Unconditional direct transfers are
  /// perfectly predictable; only conditional branches train the direction
  /// predictor and only register-indirect jumps consult the BTB.
  void transfer(unsigned Core, isa::Opcode Op, uint64_t FromPC, uint64_t ToPC,
                bool Taken) {
    bool Indirect = Op == isa::Opcode::Jalr;
    if (isa::isBranch(Op) || Indirect)
      Model.controlTransfer(Core, FromPC, ToPC, Taken, Indirect);
  }

  TimingModel &Model;
  unsigned NumCores;
  bool Detailed;
};

/// The binary engine. On one core it is the VM's round-robin scheduler. On
/// several it is timing-driven (Sniper-style execution-driven simulation):
/// always advance the thread whose core has the fewest accumulated cycles,
/// so slow (miss-heavy) threads fall behind and spin-waiting peers really
/// spin. This is what makes unconstrained ELFie simulation diverge from
/// constrained pinball replay (Fig. 11).
struct BinaryEngine {
  vm::VM &M;
  const TimingModel &Model;

  vm::VM &vm() { return M; }

  vm::StopReason run(uint64_t N, vm::Observer *Obs) {
    M.setObserver(Obs);
    // Only the detailed feed charges cycles. Under the marker watch, the
    // warm feed and a resume's skip no core's cycles change, so the thread
    // picked stays picked until a clone or an exit changes the live-thread
    // set, and it runs as one batch.
    const auto *Feed = dynamic_cast<const ModelFeed *>(Obs);
    bool Batch = !Feed || !Feed->chargesCycles();
    vm::StopReason SR = Model.numCores() <= 1 ? M.run(N).Reason
                                              : stepByCycles(N, Batch);
    M.setObserver(nullptr);
    return SR;
  }

  vm::StopReason stepByCycles(uint64_t N, bool Batch) {
    const std::vector<CoreStats> &Cores = Model.stats().Cores;
    for (uint64_t I = 0; I < N;) {
      std::vector<uint32_t> Live = M.liveThreadIds();
      if (Live.empty())
        return vm::StopReason::AllExited;
      uint32_t Pick = Live[0];
      for (uint32_t Tid : Live)
        if (Cores[Tid % Cores.size()].Cycles <
            Cores[Pick % Cores.size()].Cycles)
          Pick = Tid;
      vm::VM::ThreadRunResult R =
          Batch ? M.runThread(Pick, N - I, /*EndAtClone=*/true)
                : M.runThread(Pick, 1);
      I += R.Executed;
      if (R.Reason != vm::StopReason::BudgetReached)
        return R.Reason;
    }
    return vm::StopReason::BudgetReached;
  }
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

/// esim's phase driver. One simulation is successive runs of one
/// functional engine — BinaryEngine or replay::Replay, each offering
/// run(N, Observer) and vm() — so a cold run, a -warmup-save run and a
/// -warmup-load resume split the engine at the same instructions:
///
///   1. ELFies only: run to the first marker under a MarkerWatch; nothing
///      before the ROI marker is measured.
///   2. Run W instructions under a model feed with the model warming
///      (compiled); resuming, run them with only a MarkerWatch attached
///      (compiled), since the model state comes from the sidecar.
///   3. The boundary, at the start of the first post-warm-up instruction:
///      record CheckpointRetired; -warmup-save serialises the model here.
///   4. Run the ROI, the engine's quota, under a model feed with the
///      model measuring (compiled, unless the VM's StopPC condition is
///      armed, which interprets).
///
/// With W == 0 and no sidecar, steps 2 and 3 are skipped. A save or load
/// digests its input on a helper thread from prepare() on, and run()
/// joins it at its end (the calling thread helping with what is left):
/// there a save writes its sidecar and a resume checks it was taken on
/// this input (DESIGN.md §16.4).
class PhaseDriver {
public:
  PhaseDriver(const MachineConfig &Machine, const RunControls &Controls)
      : Machine(Machine), Controls(Controls), Model(Machine) {}

  /// The prologue: resolves the warm-up length (explicit, else
  /// \p DefaultWarmup; resuming, the sidecar's), restores the sidecar into
  /// the model, and checks the warm-up against \p Region (0: no region).
  /// \p InputDigest is called only when a sidecar is saved or loaded
  /// (digestsInput()), on a helper thread while the engine runs (the engine
  /// only reads the input, whose pages the VM attaches copy-on-write). A
  /// resume's INPUT check waits for it, but a failing check ordered after
  /// INPUT joins it first. Before waiting, the calling thread runs
  /// \p Assist, which may take on part of the digest's work.
  template <class DigestFn>
  Error prepare(DigestFn InputDigest, std::function<void()> Assist,
                uint64_t DefaultWarmup, uint64_t Region) {
    bool Save = !Controls.SaveStatePath.empty();
    bool Load = !Controls.LoadStatePath.empty();
    if (Save && Load)
      return makeError("RunControls: SaveStatePath and LoadStatePath are "
                       "mutually exclusive");
    Warmup = Controls.WarmupInstructions == UINT64_MAX
                 ? DefaultWarmup
                 : Controls.WarmupInstructions;
    AssistDigest = std::move(Assist);
    if (Save || Load) {
      try {
        PendingDigest = std::async(std::launch::async, InputDigest);
      } catch (const std::system_error &) {
        Digest = InputDigest(); // no thread to be had: digest inline
      }
    }
    if (Load) {
      auto File = SimStateFile::open(Controls.LoadStatePath);
      if (!File)
        return File.takeError(); // the checks ordered before INPUT
      Sidecar = File.takeValue();
      if (Error E = Sidecar.checkConfig(Machine))
        return E; // CONFIG, also ordered before INPUT
      if (Error E = Sidecar.apply(Model))
        return inputFirst(std::move(E));
      // An explicit warm-up that disagrees with the checkpoint fails
      // closed: silently preferring either value would resume at the
      // wrong boundary.
      uint64_t Saved = Sidecar.meta().WarmupInstructions;
      if (Controls.WarmupInstructions != UINT64_MAX &&
          Controls.WarmupInstructions != Saved)
        return inputFirst(makeCodedError(
            "EFAULT.SIMSTATE.BUDGET",
            "explicit warmup length %llu disagrees with the checkpoint's "
            "%llu",
            static_cast<unsigned long long>(Controls.WarmupInstructions),
            static_cast<unsigned long long>(Saved)));
      Warmup = Saved;
      Out.StateLoaded = true;
    }
    if (Region)
      if (Error E = checkWarmupBudget(Warmup, Region))
        return inputFirst(std::move(E));
    return Error::success();
  }

  /// Steps 1-4 on \p E. The ROI ends after \p RoiBudget instructions.
  template <class Engine>
  Expected<SimResult> run(Engine &E, bool WaitForMarker, uint64_t RoiBudget) {
    vm::VM &M = E.vm();
    vm::StopReason SR = vm::StopReason::BudgetReached;
    bool Live = true; // the engine can run on
    if (WaitForMarker) {
      MarkerWatch FF(&M);
      SR = E.run(UINT64_MAX, &FF);
      Out.MarkerSeen = FF.Seen;
      // Otherwise the program exited, halted or faulted before the ROI.
      Live = SR == vm::StopReason::Stopped && FF.Seen;
    }
    ModelFeed Warm(Model, /*Detailed=*/false);
    MarkerWatch Skip(nullptr);
    if (Live && (Warmup > 0 || !Controls.SaveStatePath.empty() ||
                 Out.StateLoaded)) {
      uint64_t Start = M.globalRetired();
      Model.setWarming(true);
      SR = E.run(Warmup, Out.StateLoaded
                             ? static_cast<vm::Observer *>(&Skip)
                             : &Warm);
      Model.setWarming(false);
      Out.WarmupRetired = M.globalRetired() - Start;
      Live = SR == vm::StopReason::BudgetReached;
      if (Live)
        crossBoundary(M.globalRetired());
    }
    ModelFeed Detailed(Model, /*Detailed=*/true);
    if (Live) {
      // A StopPCCount of 0 stops at the first hit, as 1 does.
      if (Controls.StopPC)
        M.stopAt(Controls.StopPC, std::max<uint64_t>(Controls.StopPCCount, 1));
      SR = E.run(RoiBudget, &Detailed);
      M.stopAt(0, 0);
      // A ROI that used up its budget stopped where it was asked to. (A
      // pinball's budget is the replay's, whose end is BudgetReached.)
      if (SR == vm::StopReason::BudgetReached && Detailed.Retired == RoiBudget)
        SR = vm::StopReason::Stopped;
    }
    Out.Stats = Model.stats();
    Out.Reason = SR;
    Out.RoiRetired = Detailed.Retired;
    Out.MarkerSeen |= Warm.MarkerSeen || Skip.Seen || Detailed.MarkerSeen;
    Out.VMStats = M.decodeCacheStats();
    Out.MemStats = M.mem().memStats();
    Out.JitStats = M.jitStats();
    if (Error Err = inputFirst(writeSidecar()))
      return Err;
    return std::move(Out);
  }

  /// Whether the run saves or loads a sidecar, and so digests its input.
  bool digestsInput() const {
    return !Controls.SaveStatePath.empty() || !Controls.LoadStatePath.empty();
  }

  const MachineConfig &Machine;
  RunControls Controls;
  TimingModel Model;
  uint64_t Warmup = 0;

private:
  void crossBoundary(uint64_t Retired) {
    Out.CheckpointRetired = Retired;
    if (Controls.SaveStatePath.empty())
      return;
    SaveMeta.ConfigName = Machine.Name;
    SaveMeta.ConfigFP = configFingerprint(Machine);
    SaveMeta.WarmupInstructions = Warmup;
    SaveMeta.CheckpointRetired = Retired;
    SaveMeta.DetailedBudget =
        Controls.MaxInstructions == UINT64_MAX ? 0 : Controls.MaxInstructions;
    Components = encodeSimStateComponents(Model);
  }

  /// A save that crossed the boundary writes its sidecar, whatever the
  /// detailed phase did after it.
  Error writeSidecar() {
    if (Components.empty())
      return Error::success();
    SaveMeta.InputDigest = inputDigest();
    if (Error E = writeSimState(Controls.SaveStatePath, SaveMeta,
                                std::move(Components)))
      return E;
    Out.StateSaved = true;
    return Error::success();
  }

  /// \p Later, the outcome of a check or run ordered after a resume's
  /// INPUT check, unless that check fails (DESIGN.md §16.3).
  Error inputFirst(Error Later) {
    if (!Controls.LoadStatePath.empty())
      if (Error E = Sidecar.checkInput(inputDigest()))
        return E;
    return Later;
  }

  const Sha256Digest &inputDigest() {
    if (PendingDigest.valid()) {
      AssistDigest();
      Digest = PendingDigest.get();
    }
    return Digest;
  }

  Sha256Digest Digest;
  std::function<void()> AssistDigest;
  /// The input digest in flight; its destructor waits for it, so a run
  /// that returns early still joins the helper.
  std::future<Sha256Digest> PendingDigest;
  /// A resume's sidecar, opened and applied in prepare().
  SimStateFile Sidecar;
  /// A save's header, and its sidecar with the component table encoded,
  /// taken at the boundary.
  SimStateMeta SaveMeta;
  std::vector<uint8_t> Components;
  SimResult Out;
};

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

  // ELFie auto-detection: no argv/stack setup, detailed model starts at
  // the ROI marker, budget and warming length from the embedded symbols.
  bool IsElfie = Reader->findSymbol("elfie_on_start") != nullptr;
  uint64_t Region = 0, EmbeddedWarmup = 0;
  if (IsElfie) {
    if (const auto *Len = Reader->findSymbol("elfie_region_length"))
      Region = Len->Value;
    if (const auto *WL = Reader->findSymbol("elfie_warmup_length"))
      EmbeddedWarmup = WL->Value;
  }

  if (Error E = checkMachineConfig(Machine))
    return E;
  // The root is computed on the digest helper, and by this thread once it
  // has run. Declared before D, whose destructor joins the helper.
  std::optional<store::ArtifactRootJob> Root;
  PhaseDriver D(Machine, Controls);
  if (D.digestsInput())
    Root.emplace(Image); // lays out the chunks here, not on the helper
  if (Error E = D.prepare([&] { return Root->root(); },
                          [&] { Root->help(); }, EmbeddedWarmup, Region))
    return E;
  // The embedded region length covers warming + ROI; the detailed budget
  // is the remainder.
  if (Region && D.Controls.MaxInstructions == UINT64_MAX)
    D.Controls.MaxInstructions = Region - D.Warmup;

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

  BinaryEngine E{M, D.Model};
  auto Out = D.run(E, IsElfie, D.Controls.MaxInstructions);
  if (!Out)
    return Out;
  if (Out->Reason == vm::StopReason::Faulted)
    return makeError("simulated program faulted: %s",
                     M.lastFault().Message.c_str());
  Out->WasElfie = IsElfie;
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
  if (Error E = checkMachineConfig(Machine))
    return E;
  PhaseDriver D(Machine, Controls);
  if (Error E = D.prepare([&] { return pinballInputDigest(PB); }, [] {},
                          /*DefaultWarmup=*/0, PB.Meta.RegionLength))
    return E;
  replay::ReplayOptions Opts;
  Opts.Injection = Constrained;
  Opts.Config = std::move(VMConfig);
  // The replay owns the budget (warming + ROI, else the region), so a
  // budget-limited pinball run ends BudgetReached.
  if (Controls.MaxInstructions != UINT64_MAX)
    Opts.MaxInstructions = D.Warmup + Controls.MaxInstructions;
  replay::Replay R(PB, Opts);
  if (Error E = R.start())
    return E;
  auto Out = D.run(R, /*WaitForMarker=*/false, /*RoiBudget=*/UINT64_MAX);
  if (Out && !R.divergence().empty())
    return makeError("DIVERGENCE: %s", R.divergence().c_str());
  return Out;
}
