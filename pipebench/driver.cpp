//===- pipebench/driver.cpp - ELFie pipeline benchmark ----------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one named workload of the pipeline benchmark (see README.md):
/// set-up (repeated; the median is setup_s), one discarded warm-up pass,
/// then measured passes over the workload's items until --seconds have
/// elapsed. Every item is checked; a failed item counts as attempted and
/// is never timed. Lines starting with '#' are a human-readable report;
/// the last line of standard output is one JSON object.
///
/// The driver reaches the toolchain only through its public library
/// calls and times spans around those calls from this file; nothing in
/// the libraries is instrumented.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "analyze/Analysis.h"
#include "analyze/Passes.h"
#include "core/Pinball2Elf.h"
#include "elf/ELFReader.h"
#include "pinball/Logger.h"
#include "pinball/Pinball.h"
#include "replay/Replayer.h"
#include "sim/Config.h"
#include "sim/Frontend.h"
#include "sim/SimComponent.h"
#include "simpoint/BBV.h"
#include "simpoint/PinPoints.h"
#include "store/Artifact.h"
#include "store/ChunkStore.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "vm/VM.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace elfie;
using pipebench::nowNs;
using pipebench::Scope;
using pipebench::Tracer;

namespace {

Tracer Trace;

//===----------------------------------------------------------------------===//
// Options and inputs
//===----------------------------------------------------------------------===//

enum class Workload { Select, Native, Simulate };

struct Options {
  Workload Kind = Workload::Select;
  std::string KindName;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  std::string Work = ".bench_work";
  std::string Revision = "unknown";
  /// Seconds-scale self-test mode: test inputs, the four strata only,
  /// short slices, one set-up.
  bool Tiny = false;
  /// Self-test fault injection after set-up: "chunk-flip" flips a byte in
  /// one pooled chunk (simulate), "pinball-truncate" truncates one region
  /// pinball (native).
  std::string Inject;
  /// Programs drawn per seed.
  unsigned Programs = 0;
  /// Set-ups per run; setup_s is their median.
  unsigned SetupReps = 0;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "pipebench: %s\nusage: pipebench --workload "
               "select|native|simulate --seed N --seconds S --trace 0|1 "
               "[--work DIR] [--rev REV] [--tiny] "
               "[--inject chunk-flip|pinball-truncate]\n",
               Msg);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    if (A == "--workload") {
      O.KindName = Value();
      HaveWorkload = true;
      if (O.KindName == "select")
        O.Kind = Workload::Select;
      else if (O.KindName == "native")
        O.Kind = Workload::Native;
      else if (O.KindName == "simulate")
        O.Kind = Workload::Simulate;
      else
        usage("unknown workload");
    } else if (A == "--seed") {
      O.Seed = std::stoull(Value());
    } else if (A == "--seconds") {
      O.Seconds = std::stod(Value());
    } else if (A == "--trace") {
      O.Traced = Value() != "0";
    } else if (A == "--work") {
      O.Work = Value();
    } else if (A == "--rev") {
      O.Revision = Value();
    } else if (A == "--tiny") {
      O.Tiny = true;
    } else if (A == "--inject") {
      O.Inject = Value();
      if (O.Inject != "chunk-flip" && O.Inject != "pinball-truncate")
        usage("unknown --inject kind");
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWorkload)
    usage("--workload is required");
  // Per-item cost differs by program: 5x in select (program length), 3x
  // in native (image size), so their draws hold every program the strata
  // allow (15: the seed picks the compute-bound and FP programs and the
  // order), and a run's typical item holds still from seed to seed.
  // Simulate keeps to the four strata because its set-up (pool ingestion,
  // whole-program simulations) grows with every program.
  O.Programs = O.Kind == Workload::Simulate ? 4 : 15;
  // The select set-up only assembles programs and lasts milliseconds, so
  // it is repeated more often for a steady median.
  O.SetupReps = O.Kind == Workload::Select ? 15 : 3;
  if (O.Seconds <= 0)
    usage("--seconds must be positive");
  if (O.Tiny) {
    O.Programs = 4;
    O.SetupReps = 1;
  }
  return O;
}

/// Draws the programs of one run from the single-threaded workloads,
/// stratified so that every draw holds one cache-hostile, one many-phase,
/// one compute-bound and one floating-point program; the rest are drawn
/// from the remaining single-threaded workloads. The multi-threaded
/// omp_speed ELFies spin-wait, so on a small host their native runs would
/// time the scheduler rather than the program; they are never drawn.
std::vector<std::string> drawPrograms(uint64_t Seed, unsigned N) {
  const std::vector<std::vector<std::string>> Strata = {
      {"mcf_like"},
      {"gcc_like"},
      {"x264_like", "exchange2_like"},
      {"lbm_like", "namd_like"}};
  std::mt19937_64 Rng(Seed);
  std::vector<std::string> Out;
  std::vector<std::string> Rest;
  for (const auto &S : Strata)
    Out.push_back(S[Rng() % S.size()]);
  for (const workloads::WorkloadInfo &W : workloads::registry()) {
    bool InStratum = false;
    for (const auto &S : Strata)
      InStratum |= std::find(S.begin(), S.end(), W.Name) != S.end();
    if (!W.MultiThreaded && !InStratum)
      Rest.push_back(W.Name);
  }
  for (size_t I = Rest.size(); I > 1; --I)
    std::swap(Rest[I - 1], Rest[Rng() % I]);
  for (size_t I = 0; Out.size() < N && I < Rest.size(); ++I)
    Out.push_back(Rest[I]);
  return Out;
}

//===----------------------------------------------------------------------===//
// Pipeline steps, each behind a span
//===----------------------------------------------------------------------===//

struct Program {
  std::string Name;
  std::shared_ptr<const std::vector<uint8_t>> Image;
};

/// SimPoint settings of the validation studies (bench/fig9_validation_train):
/// the paper's 200 M slices and 800 M warm-ups scaled by 1/1000.
simpoint::PinPointsOptions pinpointsOptions(bool Tiny) {
  simpoint::PinPointsOptions O;
  O.SliceSize = Tiny ? 20000 : 200000;
  O.WarmupLength = Tiny ? 40000 : 800000;
  O.MaxK = 10;
  return O;
}

/// The validation machine of the Fig. 9/10 studies: Nehalem-like with the
/// cache hierarchy scaled down with the 1/1000 instruction scaling.
sim::MachineConfig validationMachine() {
  sim::MachineConfig M = sim::makeNehalemLike();
  M.Core.L2.SizeBytes = 64 * 1024;
  M.L3.SizeBytes = 1024 * 1024;
  M.MemLatencyCycles = 150;
  return M;
}

vm::VMConfig quietVM() {
  vm::VMConfig C;
  C.StdoutSink = [](const char *, size_t) {};
  C.StderrSink = [](const char *, size_t) {};
  return C;
}

Error loadProgram(vm::VM &M, const Program &P) {
  auto Reader = elf::ELFReader::parseView(
      std::span<const uint8_t>(*P.Image),
      std::shared_ptr<const void>(P.Image, P.Image.get()));
  if (!Reader)
    return Reader.takeError();
  if (Error E = M.loadELF(*Reader))
    return E;
  return M.setupMainThread();
}

/// What region selection produced for one program.
struct Selection {
  uint64_t GuestInsts = 0; ///< retired by the profiling run
  uint64_t Slices = 0;
  simpoint::PinPointsResult Sel;
  std::vector<pinball::Pinball> Pinballs;
  /// Per pinball: recorded warm-up prefix (simulate) or 0 (native, select).
  std::vector<uint64_t> Warmups;
};

/// BBV profile, then SimPoint clustering.
Error profileAndSelect(const Program &P, bool Tiny, Selection &S) {
  simpoint::PinPointsOptions Opts = pinpointsOptions(Tiny);
  std::vector<simpoint::SliceVector> Slices;
  {
    Scope Sp(Trace, "simpoint.bbv");
    vm::VM M(quietVM());
    if (Error E = loadProgram(M, P))
      return E;
    simpoint::BBVCollector Collector(Opts.SliceSize, Opts.Dims, Opts.Seed);
    M.setObserver(&Collector);
    vm::RunResult R = M.run(UINT64_MAX);
    M.setObserver(nullptr);
    if (R.Reason != vm::StopReason::AllExited)
      return makeError("%s: profiling run did not exit cleanly",
                       P.Name.c_str());
    Collector.finish();
    S.GuestInsts = M.globalRetired();
    Slices = Collector.slices();
  }
  if (Slices.empty())
    return makeError("%s: no BBV slices", P.Name.c_str());
  S.Slices = Slices.size();
  Scope Sp(Trace, "simpoint.kmeans");
  S.Sel = simpoint::selectRegions(Slices, Opts);
  if (S.Sel.Regions.empty())
    return makeError("%s: SimPoint selected no regions", P.Name.c_str());
  return Error::success();
}

/// One-pass capture of every selected region from a single execution,
/// optionally with each region's warm-up prefix (clamped so that prefixes
/// never overlap the previous region). Each pinball must record exactly
/// the requested number of instructions.
Error captureRegions(const Program &P, bool WithWarmup, Selection &S) {
  Scope Sp(Trace, "pinball.capture");
  vm::VM M(quietVM());
  if (Error E = loadProgram(M, P))
    return E;
  uint64_t PrevEnd = 0;
  S.Pinballs.clear();
  S.Warmups.clear();
  for (const simpoint::Region &R : S.Sel.Regions) {
    uint64_t End = R.StartIcount + R.Length;
    uint64_t Begin = WithWarmup ? std::max(R.WarmupStart, PrevEnd)
                                : R.StartIcount;
    if (Begin > R.StartIcount)
      Begin = R.StartIcount;
    PrevEnd = End;
    if (Begin > M.globalRetired()) {
      vm::RunResult Skip = M.run(Begin - M.globalRetired());
      if (Skip.Reason != vm::StopReason::BudgetReached)
        return makeError("%s: program ended before region start",
                         P.Name.c_str());
    }
    pinball::RegionLogger Logger(M, pinball::LoggerOptions::fat());
    Logger.beginRegion();
    M.setObserver(&Logger);
    vm::RunResult Run = M.run(End - Begin);
    M.setObserver(nullptr);
    pinball::Pinball PB = Logger.endRegion();
    if (Run.Reason == vm::StopReason::Faulted)
      return makeError("%s: fault inside region: %s", P.Name.c_str(),
                       Run.FaultInfo.Message.c_str());
    // SimPoint keeps a final partial slice; when it is a representative
    // the program exits inside its region, and such a region does not
    // replay to a clean end. It is left out.
    if (Run.Reason == vm::StopReason::AllExited)
      break;
    if (PB.Meta.RegionLength != End - Begin)
      return makeError("%s: captured %llu instructions, asked for %llu",
                       P.Name.c_str(),
                       static_cast<unsigned long long>(PB.Meta.RegionLength),
                       static_cast<unsigned long long>(End - Begin));
    S.Pinballs.push_back(std::move(PB));
    S.Warmups.push_back(R.StartIcount - Begin);
  }
  if (S.Pinballs.empty())
    return makeError("%s: no complete region", P.Name.c_str());
  return Error::success();
}

uint64_t treeBytes(const std::string &Dir) {
  uint64_t Sum = 0;
  std::error_code EC;
  for (const auto &E :
       std::filesystem::recursive_directory_iterator(Dir, EC))
    if (E.is_regular_file(EC))
      Sum += E.file_size(EC);
  return Sum;
}

std::string regionDir(const std::string &Root, const std::string &Prog,
                      size_t I) {
  return Root + "/" + Prog + "/r" + std::to_string(I);
}

Error savePinballs(const Selection &S, const std::string &Root,
                   const std::string &Prog, uint64_t &Bytes) {
  Scope Sp(Trace, "pinball.save");
  for (size_t I = 0; I < S.Pinballs.size(); ++I)
    if (Error E = S.Pinballs[I].save(regionDir(Root, Prog, I)))
      return E;
  Bytes = treeBytes(Root + "/" + Prog);
  return Error::success();
}

std::vector<uint8_t> simStatsBytes(const sim::SimStats &S) {
  BinaryWriter W;
  sim::StateWriter SW(W);
  S.save(SW);
  return W.bytes();
}

/// Runs a native ELFie image from an anonymous memory file (no path on
/// disk; closing the descriptor deletes it) and returns the retired count
/// its perfle lines report. The span covers writing the image, spawn and
/// exit.
Error runNativeElfie(const std::vector<uint8_t> &Elfie, uint64_t &Retired) {
  Scope Sp(Trace, "native.run");
  int Fd = memfd_create("elfie", MFD_CLOEXEC);
  if (Fd < 0)
    return makeError("memfd_create: %s", std::strerror(errno));
  size_t Done = 0;
  while (Done < Elfie.size()) {
    ssize_t N = write(Fd, Elfie.data() + Done, Elfie.size() - Done);
    if (N <= 0) {
      close(Fd);
      return makeError("writing the ELFie: %s", std::strerror(errno));
    }
    Done += static_cast<size_t>(N);
  }
  int Pipe[2];
  if (pipe2(Pipe, O_CLOEXEC) != 0) {
    close(Fd);
    return makeError("pipe: %s", std::strerror(errno));
  }
  int Null = open("/dev/null", O_WRONLY | O_CLOEXEC);
  if (Null < 0) {
    close(Fd);
    close(Pipe[0]);
    close(Pipe[1]);
    return makeError("/dev/null: %s", std::strerror(errno));
  }
  char Name[] = "elfie";
  char *const Argv[] = {Name, nullptr};
  std::string Err;
  int Status = 0;
  {
    // vfork: the child borrows the driver's address space until it execs,
    // so the spawn costs the same whatever the driver's own size, and the
    // driver takes no copy-on-write faults afterwards.
    pid_t Pid = vfork();
    if (Pid == 0) {
      if (dup2(Null, 1) < 0 || dup2(Pipe[1], 2) < 0)
        _exit(124);
      fexecve(Fd, Argv, environ);
      _exit(125);
    }
    close(Null);
    close(Pipe[1]);
    if (Pid > 0) {
      char Buf[4096];
      ssize_t N;
      while ((N = read(Pipe[0], Buf, sizeof(Buf))) > 0 ||
             (N < 0 && errno == EINTR))
        if (N > 0)
          Err.append(Buf, static_cast<size_t>(N));
      while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
      }
    }
    close(Pipe[0]);
    close(Fd);
    if (Pid < 0)
      return makeError("vfork: %s", std::strerror(errno));
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return makeError("ELFie exited with status 0x%x: %s", Status,
                     Err.c_str());
  Retired = 0;
  bool Any = false;
  for (const std::string &Line : splitString(Err, '\n')) {
    unsigned long long Tid, N, Cycles;
    if (std::sscanf(Line.c_str(),
                    "elfie-perf: thread %llu retired %llu cycles %llu", &Tid,
                    &N, &Cycles) == 3) {
      Retired += N;
      Any = true;
    }
  }
  if (!Any)
    return makeError("no perfle report: %s", Err.c_str());
  return Error::success();
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolated quantile (numpy's default), \p Q in [0, 1].
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double geomean(const std::vector<double> &V) {
  double Log = 0;
  for (double X : V)
    Log += std::log(X);
  return V.empty() ? 0 : std::exp(Log / static_cast<double>(V.size()));
}

//===----------------------------------------------------------------------===//
// Host speed
//===----------------------------------------------------------------------===//

/// A fixed piece of work that runs between items to gauge the host's speed
/// at that moment. On a shared virtual machine the memory system slows down
/// by up to 1.5x for stretches of seconds to minutes while the ALU keeps its
/// speed, and the pipeline's items slow with it. The probe does the three
/// kinds of work the items are sensitive to: it faults in fresh pages,
/// copies a buffer larger than the core's private caches, and computes.
/// It uses no toolchain code, so a change to the toolchain cannot move it.
class HostProbe {
public:
  /// Probe time on an undisturbed 4-vCPU Xeon virtual machine; item times
  /// are scaled to this host speed.
  static constexpr double ReferenceMs = 1.6;

  HostProbe() : Src(4u << 20, 1), Dst(4u << 20, 2) {}

  /// Runs the probe once and returns its wall time in milliseconds.
  double runMs() {
    uint64_t T0 = nowNs();
    const size_t Fresh = 2u << 20;
    void *Map = mmap(nullptr, Fresh, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (Map != MAP_FAILED) {
      auto *Bytes = static_cast<volatile char *>(Map);
      for (size_t I = 0; I < Fresh; I += 4096)
        Bytes[I] = 1;
      munmap(Map, Fresh);
    }
    std::memcpy(Dst.data(), Src.data(), Src.size());
    uint64_t X = Sink + Dst[Sink % Dst.size()];
    for (unsigned I = 0; I < 500000; ++I)
      X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    Sink = X;
    return (nowNs() - T0) / 1e6;
  }

private:
  std::vector<uint8_t> Src, Dst;
  uint64_t Sink = 0;
};

//===----------------------------------------------------------------------===//
// The benchmark
//===----------------------------------------------------------------------===//

/// One region item of the native and simulate workloads.
struct RegionItem {
  size_t Prog = 0;
  std::string Dir;      ///< native: saved pinball directory
  std::string Artifact; ///< simulate: pool artifact name
  /// SimPoint region instructions (a simulate pinball records its warm-up
  /// prefix as well; those instructions are not counted).
  uint64_t Length = 0;
  double Weight = 0;
  double RefCPI = -1; ///< simulate: CPI of the first successful pass
};

/// Per-pass counters read from the libraries' result structs.
using Counters = std::map<std::string, double>;

class Bench {
public:
  explicit Bench(Options O) : O(std::move(O)) {
    Scratch = this->O.Work + "/" + this->O.KindName;
  }

  /// Runs set-up, the warm-up pass and the measured passes, then prints
  /// the report. Returns the process exit code.
  int run();

private:
  Error setupOnce();
  void injectFault();
  /// Runs one item; returns false (with \p Why) when a check failed.
  bool runItem(size_t Index, uint64_t &GuestInsts, Counters &C,
               std::string &Why);
  bool selectItem(size_t Index, uint64_t &GuestInsts, Counters &C,
                  std::string &Why);
  bool nativeItem(RegionItem &R, Counters &C, std::string &Why);
  bool simulateItem(RegionItem &R, Counters &C, std::string &Why);
  size_t itemCount() const {
    return O.Kind == Workload::Select ? Programs.size() : Regions.size();
  }
  double simCpiErrorPct() const;
  void report();

  Options O;
  std::string Scratch;
  std::vector<Program> Programs;
  std::vector<RegionItem> Regions;
  store::ChunkStore Pool;
  std::vector<double> WholeCPI;
  /// Set-up times scaled to the reference host speed, and unscaled.
  std::vector<double> SetupSeconds, SetupRawSeconds;
  Counters SetupCounters;

  // Measurements. Item times and per-pass rates come from untraced
  // passes only; in a traced run, traced and untraced passes alternate so
  // the difference between them is the tracing overhead.
  std::vector<double> ItemMs, TracedItemMs;
  /// Untraced item times and guest instructions, by program.
  std::vector<std::vector<double>> ProgramMs;
  std::vector<uint64_t> ProgramInsts;
  /// Per item: its fastest untraced measured time scaled to the reference
  /// host speed, and its guest instructions.
  std::vector<double> ItemBestMs, ItemBestRawMs;
  std::vector<uint64_t> ItemInsts;
  /// Host probe times of the measured passes.
  std::vector<double> ProbeMs;
  Counters LastPass;
  uint64_t Attempted = 0, Failed = 0;
  unsigned MeasuredPasses = 0;
  uint32_t FirstMeasuredItem = 0;
  std::map<std::string, unsigned> FailureReasons;
};

Error Bench::setupOnce() {
  removeTree(Scratch);
  if (Error E = createDirectories(Scratch))
    return E;
  Programs.clear();
  Regions.clear();
  WholeCPI.clear();
  SetupCounters.clear();
  for (const std::string &Name : drawPrograms(O.Seed, O.Programs)) {
    Scope Sp(Trace, "workloads.assemble");
    auto Image = workloads::buildWorkload(
        Name, O.Tiny ? workloads::InputSet::Test : workloads::InputSet::Train);
    if (!Image)
      return Image.takeError();
    Programs.push_back(
        {Name, std::make_shared<const std::vector<uint8_t>>(
                   std::move(*Image))});
  }
  if (O.Kind == Workload::Select)
    return Error::success();

  bool Sim = O.Kind == Workload::Simulate;
  if (Sim) {
    auto S = store::ChunkStore::open(Scratch + "/pool");
    if (!S)
      return S.takeError();
    Pool = std::move(*S);
  }
  uint64_t SavedBytes = 0, Slices = 0, K = 0;
  for (size_t P = 0; P < Programs.size(); ++P) {
    Selection S;
    if (Error E = profileAndSelect(Programs[P], O.Tiny, S))
      return E;
    if (Error E = captureRegions(Programs[P], Sim, S))
      return E;
    Slices += S.Slices;
    K += S.Sel.K;
    for (size_t I = 0; I < S.Pinballs.size(); ++I) {
      RegionItem R;
      R.Prog = P;
      R.Length = S.Sel.Regions[I].Length;
      R.Weight = S.Sel.Regions[I].Weight;
      if (Sim) {
        core::Pinball2ElfOptions Opts;
        Opts.TargetKind = core::Pinball2ElfOptions::Target::Guest;
        Opts.WarmupLength = S.Warmups[I];
        Expected<std::vector<uint8_t>> Elfie = makeError("unset");
        {
          Scope Sp(Trace, "core.emit_guest");
          Elfie = core::pinballToElf(S.Pinballs[I], Opts);
        }
        if (!Elfie)
          return Elfie.takeError();
        R.Artifact = Programs[P].Name + ".r" + std::to_string(I) + ".elfie";
        Scope Sp(Trace, "store.put");
        auto M = store::putArtifact(Pool, R.Artifact, *Elfie);
        if (!M)
          return M.takeError();
      } else {
        R.Dir = regionDir(Scratch + "/pb", Programs[P].Name, I);
      }
      Regions.push_back(R);
    }
    if (!Sim) {
      uint64_t Bytes = 0;
      if (Error E = savePinballs(S, Scratch + "/pb", Programs[P].Name, Bytes))
        return E;
      SavedBytes += Bytes;
    }
  }
  SetupCounters["simpoint.slices"] = static_cast<double>(Slices);
  SetupCounters["simpoint.k"] = static_cast<double>(K);
  SetupCounters["pinball.regions"] = static_cast<double>(Regions.size());
  if (!Sim) {
    SetupCounters["pinball.saved_mb"] = SavedBytes / 1048576.0;
    return Error::success();
  }
  auto Stats = Pool.stats();
  if (!Stats)
    return Stats.takeError();
  SetupCounters["store.pool_mb"] = Stats->ChunkBytes / 1048576.0;
  SetupCounters["store.dedup_ratio"] =
      Stats->ChunkBytes ? static_cast<double>(Stats->ArtifactBytes) /
                              static_cast<double>(Stats->ChunkBytes)
                        : 0;
  // Reference: the same model's whole-program simulation of each program.
  sim::MachineConfig Machine = validationMachine();
  for (const Program &P : Programs) {
    Scope Sp(Trace, "sim.whole");
    auto R = sim::simulateBinaryImage(*P.Image, Machine, {}, quietVM());
    if (!R)
      return R.takeError();
    if (R->Reason != vm::StopReason::AllExited || R->Stats.cpi() <= 0)
      return makeError("%s: whole-program simulation did not finish",
                       P.Name.c_str());
    WholeCPI.push_back(R->Stats.cpi());
  }
  return Error::success();
}

/// Self-test fault injection: corrupt one input after set-up so the items
/// that read it must fail their checks.
void Bench::injectFault() {
  if (O.Inject == "chunk-flip" && O.Kind == Workload::Simulate &&
      !Regions.empty()) {
    auto M = Pool.getManifest(Regions.front().Artifact);
    if (M && !M->Chunks.empty()) {
      std::string Path = Pool.chunkPath(M->Chunks.back().Digest);
      std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
      char B = 0;
      F.seekg(0);
      F.get(B);
      F.seekp(0);
      F.put(static_cast<char>(B ^ 0x5a));
      std::printf("# inject: flipped byte 0 of %s\n", Path.c_str());
    }
  } else if (O.Inject == "pinball-truncate" && O.Kind == Workload::Native &&
             !Regions.empty()) {
    std::string Path = Regions.front().Dir + "/image.text";
    std::error_code EC;
    uint64_t Size = std::filesystem::file_size(Path, EC);
    std::filesystem::resize_file(Path, Size / 2, EC);
    std::printf("# inject: truncated %s to %llu bytes\n", Path.c_str(),
                static_cast<unsigned long long>(Size / 2));
  } else if (!O.Inject.empty()) {
    std::printf("# inject: %s does not apply to workload %s\n",
                O.Inject.c_str(), O.KindName.c_str());
  }
}

bool Bench::runItem(size_t Index, uint64_t &GuestInsts, Counters &C,
                    std::string &Why) {
  switch (O.Kind) {
  case Workload::Select:
    return selectItem(Index, GuestInsts, C, Why);
  case Workload::Native:
    GuestInsts = Regions[Index].Length;
    return nativeItem(Regions[Index], C, Why);
  case Workload::Simulate:
    GuestInsts = Regions[Index].Length;
    return simulateItem(Regions[Index], C, Why);
  }
  return false;
}

bool Bench::selectItem(size_t Index, uint64_t &GuestInsts, Counters &C,
                       std::string &Why) {
  const Program &P = Programs[Index];
  Selection S;
  if (Error E = profileAndSelect(P, O.Tiny, S)) {
    Why = "select: " + E.message();
    return false;
  }
  if (Error E = captureRegions(P, /*WithWarmup=*/false, S)) {
    Why = "capture: " + E.message();
    return false;
  }
  uint64_t Bytes = 0;
  if (Error E = savePinballs(S, Scratch, P.Name, Bytes)) {
    Why = "save: " + E.message();
    return false;
  }
  GuestInsts = S.GuestInsts;
  C["simpoint.slices"] += static_cast<double>(S.Slices);
  C["simpoint.k"] += S.Sel.K;
  C["pinball.regions"] += static_cast<double>(S.Pinballs.size());
  C["pinball.saved_mb"] += Bytes / 1048576.0;
  return true;
}

bool Bench::nativeItem(RegionItem &R, Counters &C, std::string &Why) {
  Expected<pinball::Pinball> PB = makeError("unset");
  {
    Scope Sp(Trace, "pinball.load");
    PB = pinball::Pinball::load(R.Dir);
  }
  if (!PB) {
    Why = "load: " + PB.message();
    return false;
  }
  Expected<replay::ReplayResult> Rep = makeError("unset");
  {
    Scope Sp(Trace, "replay.jit");
    replay::ReplayOptions Opts;
    Opts.Config = quietVM();
    Opts.Config.EnableJit = true;
    Rep = replay::replayPinball(*PB, Opts);
  }
  if (!Rep) {
    Why = "replay: " + Rep.message();
    return false;
  }
  if (Rep->Diverge.diverged() || !Rep->SyscallLogFullyConsumed ||
      Rep->Reason == vm::StopReason::Faulted) {
    Why = formatString("replay diverged (stop %d, log consumed %d): %s",
                       static_cast<int>(Rep->Reason),
                       Rep->SyscallLogFullyConsumed ? 1 : 0,
                       Rep->Divergence.c_str());
    return false;
  }
  if (Rep->Retired != PB->Meta.RegionLength) {
    Why = "replay retired a different count than the region length";
    return false;
  }
  Expected<std::vector<uint8_t>> Elfie = makeError("unset");
  {
    Scope Sp(Trace, "core.emit_native");
    core::Pinball2ElfOptions Opts;
    Opts.Perfle = true;
    Elfie = core::pinballToElf(*PB, Opts);
  }
  if (!Elfie) {
    Why = "emit: " + Elfie.message();
    return false;
  }
  unsigned Errors = 0;
  {
    Scope Sp(Trace, "analyze.verify");
    auto Reader = elf::ELFReader::parseView(*Elfie);
    if (!Reader) {
      Why = "verify: " + Reader.message();
      return false;
    }
    analyze::AnalysisInput In;
    In.Elf = &*Reader;
    In.PB = &*PB;
    In.Kind = analyze::AnalysisInput::classify(*Reader);
    In.ExpectMarkers = 1;
    analyze::PassManager PM;
    analyze::addStandardPasses(PM);
    analyze::Report Rep;
    PM.runAll(In, Rep);
    Errors = Rep.errorCount();
  }
  if (Errors) {
    Why = "verify: static verification reported errors";
    return false;
  }
  uint64_t Budget = 0;
  for (const pinball::ThreadRegs &T : PB->Threads)
    Budget += T.RegionIcount;
  uint64_t Retired = 0;
  if (Error E = runNativeElfie(*Elfie, Retired)) {
    Why = "native: " + E.message();
    return false;
  }
  if (Retired != Budget) {
    Why = "native: perfle retired count differs from the budget";
    return false;
  }
  const auto &J = Rep->JitStats;
  const auto &D = Rep->VMStats;
  C["vm.jit_blocks"] += static_cast<double>(J.Blocks);
  C["vm.jit_hits"] += static_cast<double>(J.Hits);
  C["vm.jit_bailouts"] += static_cast<double>(J.Bailouts);
  C["vm.retired"] += static_cast<double>(Rep->Retired);
  C["vm.dcache_hits"] += static_cast<double>(D.Hits);
  C["vm.dcache_lookups"] += static_cast<double>(D.Hits + D.Misses);
  C["vm.cow_faults"] += static_cast<double>(Rep->MemStats.CowFaults);
  C["vm.dirty_mb"] += Rep->MemStats.DirtyBytes / 1048576.0;
  C["core.elfie_mb"] += Elfie->size() / 1048576.0;
  C["analyze.errors"] += Errors;
  return true;
}

bool Bench::simulateItem(RegionItem &R, Counters &C, std::string &Why) {
  Expected<std::vector<uint8_t>> Elfie = makeError("unset");
  {
    Scope Sp(Trace, "store.get");
    Elfie = store::loadArtifact(Pool, R.Artifact);
  }
  if (!Elfie) {
    Why = "store: " + Elfie.message();
    return false;
  }
  sim::MachineConfig Machine = validationMachine();
  std::string StatePath = Scratch + "/region.esimstate";
  Expected<sim::SimResult> Cold = makeError("unset");
  {
    Scope Sp(Trace, "sim.cold");
    sim::RunControls Ctl;
    Ctl.SaveStatePath = StatePath;
    Cold = sim::simulateBinaryImage(*Elfie, Machine, Ctl, quietVM());
  }
  if (!Cold || !Cold->StateSaved) {
    Why = "sim cold: " + (Cold ? std::string("no checkpoint written")
                               : Cold.message());
    return false;
  }
  Expected<sim::SimResult> Resume = makeError("unset");
  {
    Scope Sp(Trace, "sim.resume");
    sim::RunControls Ctl;
    Ctl.LoadStatePath = StatePath;
    Resume = sim::simulateBinaryImage(*Elfie, Machine, Ctl, quietVM());
  }
  if (!Resume || !Resume->StateLoaded) {
    Why = "sim resume: " + (Resume ? std::string("checkpoint not loaded")
                                   : Resume.message());
    return false;
  }
  if (simStatsBytes(Cold->Stats) != simStatsBytes(Resume->Stats) ||
      Cold->RoiRetired != Resume->RoiRetired) {
    Why = "sim: resumed SimStats differ from the cold run";
    return false;
  }
  double CPI = Cold->Stats.cpi();
  if (R.RefCPI < 0)
    R.RefCPI = CPI;
  else if (CPI != R.RefCPI) {
    Why = "sim: region CPI differs between passes";
    return false;
  }
  std::error_code EC;
  C["simstate.kb"] += std::filesystem::file_size(StatePath, EC) / 1024.0;
  const sim::SimStats &S = Cold->Stats;
  C["sim.insts"] += static_cast<double>(S.totalInstructions());
  C["sim.cycles"] += S.totalCycles();
  for (const sim::CoreStats &CS : S.Cores) {
    C["sim.l1d_misses"] += static_cast<double>(CS.L1DMisses);
    C["sim.l2_misses"] += static_cast<double>(CS.L2Misses);
    C["sim.l3_misses"] += static_cast<double>(CS.L3Misses);
    C["sim.branch_misses"] += static_cast<double>(CS.BranchMispredicts);
    C["sim.dtlb_misses"] += static_cast<double>(CS.DTLBMisses);
  }
  return true;
}

/// Mean over programs of |whole-program CPI - weighted region CPI| /
/// whole-program CPI, in percent. Regions that failed are left out of
/// their program's weights.
double Bench::simCpiErrorPct() const {
  if (O.Kind != Workload::Simulate || WholeCPI.empty())
    return 0;
  std::vector<double> Weighted(Programs.size(), 0), Covered(Programs.size(), 0);
  for (const RegionItem &R : Regions)
    if (R.RefCPI > 0) {
      Weighted[R.Prog] += R.Weight * R.RefCPI;
      Covered[R.Prog] += R.Weight;
    }
  double Sum = 0;
  unsigned N = 0;
  for (size_t P = 0; P < Programs.size(); ++P)
    if (Covered[P] > 0) {
      double Predicted = Weighted[P] / Covered[P];
      Sum += std::fabs(WholeCPI[P] - Predicted) / WholeCPI[P];
      ++N;
    }
  return N ? 100.0 * Sum / N : 0;
}

int Bench::run() {
  Trace.Enabled = O.Traced;
  // Set-ups and items alike are bracketed by host probes; the mean of the
  // two gauges the host's speed while the set-up or item ran.
  HostProbe Probe;
  for (unsigned Rep = 0; Rep < O.SetupReps; ++Rep) {
    Trace.Phase = Rep;
    double ProbeBefore = Probe.runMs();
    int32_t Root = Trace.open("setup");
    uint64_t T0 = nowNs();
    Error E = setupOnce();
    double Seconds = (nowNs() - T0) / 1e9;
    Trace.close(Root);
    double HostMs = (ProbeBefore + Probe.runMs()) / 2;
    SetupSeconds.push_back(Seconds * HostProbe::ReferenceMs / HostMs);
    SetupRawSeconds.push_back(Seconds);
    if (E) {
      std::fprintf(stderr, "pipebench: set-up failed: %s\n",
                   E.message().c_str());
      return 1;
    }
  }
  injectFault();
  ProgramMs.resize(Programs.size());
  ProgramInsts.resize(Programs.size());
  ItemBestMs.assign(itemCount(), HUGE_VAL);
  ItemBestRawMs.assign(itemCount(), HUGE_VAL);
  ItemInsts.assign(itemCount(), 0);

  // Pass 0 is the discarded warm-up; measured passes follow until the
  // time is up. A pass always runs every item once.
  bool TraceWanted = O.Traced;
  uint32_t ItemId = 0;
  uint64_t Start = 0;
  for (unsigned Pass = 0;; ++Pass) {
    bool Measured = Pass > 0;
    if (Pass == 1) {
      Start = nowNs();
      FirstMeasuredItem = ItemId + 1;
    }
    // Traced runs alternate untraced and traced passes.
    Trace.Enabled = TraceWanted && Measured && Pass % 2 == 0;
    Trace.Phase = Pass;
    Counters C;
    double ProbeBefore = Probe.runMs();
    for (size_t I = 0; I < itemCount(); ++I) {
      Trace.Item = ++ItemId;
      uint64_t Insts = 0;
      std::string Why;
      int32_t Root = Trace.open("item");
      uint64_t T0 = nowNs();
      bool Ok = runItem(I, Insts, C, Why);
      uint64_t T1 = nowNs();
      Trace.close(Root);
      if (O.Kind == Workload::Select)
        removeTree(Scratch + "/" + Programs[I].Name);
      double ProbeAfter = Probe.runMs();
      double HostMs = (ProbeBefore + ProbeAfter) / 2;
      ProbeBefore = ProbeAfter;
      if (!Measured)
        continue;
      ProbeMs.push_back(ProbeAfter);
      ++Attempted;
      if (!Ok) {
        ++Failed;
        ++FailureReasons[Why];
        continue;
      }
      double Ms = (T1 - T0) / 1e6;
      (Trace.Enabled ? TracedItemMs : ItemMs).push_back(Ms);
      if (!Trace.Enabled) {
        size_t P = O.Kind == Workload::Select ? I : Regions[I].Prog;
        ProgramMs[P].push_back(Ms);
        ProgramInsts[P] += Insts;
        ItemBestMs[I] = std::min(ItemBestMs[I],
                                 Ms * HostProbe::ReferenceMs / HostMs);
        ItemBestRawMs[I] = std::min(ItemBestRawMs[I], Ms);
        ItemInsts[I] = Insts;
      }
    }
    Trace.Item = 0;
    if (Measured) {
      ++MeasuredPasses;
      LastPass = C;
      double Elapsed = (nowNs() - Start) / 1e9;
      // A traced run needs at least one pass of each kind.
      if (Elapsed >= O.Seconds && (!O.Traced || MeasuredPasses >= 2))
        break;
    }
  }
  Trace.Enabled = false;
  report();
  removeTree(Scratch);
  return 0;
}

std::string fsTypeName(const std::string &Path) {
  struct statfs S;
  if (statfs(Path.c_str(), &S) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(S.f_type)) {
  case 0x01021994:
    return "tmpfs";
  case 0xEF53:
    return "ext2/3/4";
  case 0x58465342:
    return "xfs";
  case 0x9123683E:
    return "btrfs";
  case 0x794C7630:
    return "overlayfs";
  default:
    return formatString("0x%lx", static_cast<unsigned long>(S.f_type));
  }
}

std::string cpuModel() {
  std::ifstream F("/proc/cpuinfo");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("model name", 0) == 0)
      return Line.substr(Line.find(':') + 2);
  return "unknown";
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

void Bench::report() {
  char Host[256] = "unknown";
  gethostname(Host, sizeof(Host) - 1);
  std::printf("# workload %s seed %llu seconds %g trace %d%s\n",
              O.KindName.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Traced ? 1 : 0, O.Tiny ? " (tiny inputs)" : "");
  std::printf("# host %s nproc %ld cpu \"%s\" revision %s scratch-fs %s\n",
              Host, sysconf(_SC_NPROCESSORS_ONLN), cpuModel().c_str(),
              O.Revision.c_str(), fsTypeName(O.Work).c_str());
  std::string Names;
  for (const Program &P : Programs)
    Names += " " + P.Name;
  std::printf("# programs (%s inputs):%s\n", O.Tiny ? "test" : "train",
              Names.c_str());
  std::printf("# load: closed loop, one client, one item in flight; "
              "%zu items per pass, %u measured passes after 1 warm-up\n",
              itemCount(), MeasuredPasses);
  std::printf("# items: attempted %llu failed %llu timed %zu\n",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              ItemMs.size() + TracedItemMs.size());
  for (size_t P = 0; P < ProgramMs.size(); ++P)
    if (!ProgramMs[P].empty())
      std::printf("#   %-16s %4zu timed items, median %.4f ms, %llu guest "
                  "instructions\n",
                  Programs[P].Name.c_str(), ProgramMs[P].size(),
                  median(ProgramMs[P]),
                  static_cast<unsigned long long>(ProgramInsts[P]));
  for (const auto &[Why, N] : FailureReasons)
    std::printf("# failed x%u: %s\n", N, Why.c_str());

  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  std::vector<Metric> Out;
  if (!O.Traced) {
    // Each item's time is its fastest untraced measured run, scaled by the
    // host probes around it to the reference host speed: the host slows
    // down in episodes, and the scaling and the fastest run together take
    // most of that out (see README.md). Programs weigh equally in the rate
    // and the typical item time, however many regions SimPoint picked for
    // each and whichever programs the seed drew: pooled figures move with
    // the mix. Returns {rate, typical item time}.
    auto Figures = [&](const std::vector<double> &Best) {
      std::vector<double> Ns(Programs.size(), 0), Insts(Programs.size(), 0);
      std::vector<std::vector<double>> Ms(Programs.size());
      for (size_t I = 0; I < Best.size(); ++I)
        if (std::isfinite(Best[I])) {
          size_t P = O.Kind == Workload::Select ? I : Regions[I].Prog;
          Ns[P] += Best[I] * 1e6;
          Insts[P] += static_cast<double>(ItemInsts[I]);
          Ms[P].push_back(Best[I]);
        }
      std::vector<double> Rates, Medians;
      for (size_t P = 0; P < Programs.size(); ++P)
        if (!Ms[P].empty()) {
          Rates.push_back(Insts[P] / Ns[P] * 1e3);
          Medians.push_back(median(Ms[P]));
        }
      return std::make_pair(geomean(Rates), geomean(Medians));
    };
    auto [Rate, P50] = Figures(ItemBestMs);
    auto [RawRate, RawP50] = Figures(ItemBestRawMs);
    Out.push_back({"setup_s", median(SetupSeconds), "s"});
    Out.push_back({"guest_minst_per_s", Rate, "Minst/s"});
    Out.push_back({"item_ms_p50", P50, "ms"});
    Out.push_back({"peak_rss_mb", RU.ru_maxrss / 1024.0, "MB"});
    std::string Setups;
    for (double S : SetupRawSeconds)
      Setups += formatString(" %.4f", S);
    std::printf("# setup_s: median of %zu set-ups at the reference host "
                "speed; unscaled:%s s\n",
                SetupSeconds.size(), Setups.c_str());
    std::printf("# guest_minst_per_s, item_ms_p50: geometric means over "
                "programs of each item's fastest of %u passes, at the "
                "reference host speed (host probe %.1f ms); unscaled %.4f "
                "Minst/s, %.4f ms\n",
                MeasuredPasses, HostProbe::ReferenceMs, RawRate, RawP50);
    std::printf("# host probe: median %.4f ms, quartiles %.4f-%.4f ms "
                "(n=%zu)\n",
                median(ProbeMs), quantile(ProbeMs, 0.25),
                quantile(ProbeMs, 0.75), ProbeMs.size());
    std::printf("# pooled over all timed items, unscaled: median %.4f ms "
                "(n=%zu)\n",
                median(ItemMs), ItemMs.size());
    if (ItemMs.size() >= 100)
      std::printf("# item_ms_p90 %.4f ms pooled (n=%zu)\n",
                  quantile(ItemMs, 0.9), ItemMs.size());
    else
      std::printf("# item_ms_p90 not reported: %zu samples, 100 needed for "
                  "ten beyond it\n",
                  ItemMs.size());
    if (O.Kind == Workload::Simulate)
      std::printf("# sim_cpi_err_pct %.6f (reference: the same model's "
                  "whole-program simulation; the model is unvalidated "
                  "against hardware)\n",
                  simCpiErrorPct());
  } else {
    // Per-layer self times: mean per measured traced item for layers that
    // run inside items, else the median over set-ups of the set-up total.
    std::vector<uint64_t> Self = Trace.selfNs();
    std::map<std::string, double> ItemNs;
    std::map<std::string, std::vector<double>> SetupNs;
    std::set<uint32_t> Items;
    for (size_t I = 0; I < Trace.spans().size(); ++I) {
      const pipebench::Span &S = Trace.spans()[I];
      std::string Name = S.Name;
      if (S.Item >= FirstMeasuredItem) {
        ItemNs[Name] += static_cast<double>(Self[I]);
        Items.insert(S.Item);
      } else if (S.Item == 0) {
        auto &V = SetupNs[Name];
        V.resize(O.SetupReps, 0);
        V[S.Phase] += static_cast<double>(Self[I]);
      }
    }
    double NItems = std::max<size_t>(Items.size(), 1);
    auto LayerMs = [&](const std::string &Span) {
      if (ItemNs.count(Span))
        return ItemNs[Span] / NItems / 1e6;
      if (SetupNs.count(Span))
        return median(SetupNs[Span]) / 1e6;
      return 0.0;
    };
    Counters C = LastPass;
    for (const auto &[K, V] : SetupCounters)
      C[K] = V;
    auto Ratio = [&](const char *Num, const char *Den) {
      return C[Den] > 0 ? C[Num] / C[Den] : 0.0;
    };
    auto Mpki = [&](const char *Misses) {
      return C["sim.insts"] > 0 ? 1000.0 * C[Misses] / C["sim.insts"] : 0.0;
    };
    for (const char *L :
         {"workloads.assemble", "simpoint.bbv", "simpoint.kmeans",
          "pinball.capture", "pinball.save", "pinball.load", "replay.jit",
          "core.emit_native", "analyze.verify", "native.run", "store.get",
          "store.put", "core.emit_guest", "sim.whole", "sim.cold",
          "sim.resume"})
      Out.push_back({std::string(L) + "_ms", LayerMs(L), "ms"});
    Out.push_back({"simpoint.slices", C["simpoint.slices"], "count"});
    Out.push_back({"simpoint.k", C["simpoint.k"], "count"});
    Out.push_back({"pinball.regions", C["pinball.regions"], "count"});
    Out.push_back({"pinball.saved_mb", C["pinball.saved_mb"], "MB"});
    Out.push_back({"vm.jit_blocks", C["vm.jit_blocks"], "count"});
    Out.push_back({"vm.jit_native_ratio", Ratio("vm.jit_hits", "vm.retired"),
                   "ratio"});
    Out.push_back({"vm.jit_bailouts", C["vm.jit_bailouts"], "count"});
    Out.push_back({"vm.dcache_hit_ratio",
                   Ratio("vm.dcache_hits", "vm.dcache_lookups"), "ratio"});
    Out.push_back({"vm.cow_faults", C["vm.cow_faults"], "count"});
    Out.push_back({"vm.dirty_mb", C["vm.dirty_mb"], "MB"});
    Out.push_back({"core.elfie_mb", C["core.elfie_mb"], "MB"});
    Out.push_back({"analyze.errors", C["analyze.errors"], "count"});
    Out.push_back({"store.dedup_ratio", C["store.dedup_ratio"], "ratio"});
    Out.push_back({"store.pool_mb", C["store.pool_mb"], "MB"});
    Out.push_back({"simstate.kb", C["simstate.kb"], "KB"});
    Out.push_back({"sim.cpi", Ratio("sim.cycles", "sim.insts"), "cycles/inst"});
    Out.push_back({"sim.l1d_mpki", Mpki("sim.l1d_misses"), "MPKI"});
    Out.push_back({"sim.l2_mpki", Mpki("sim.l2_misses"), "MPKI"});
    Out.push_back({"sim.l3_mpki", Mpki("sim.l3_misses"), "MPKI"});
    Out.push_back({"sim.branch_mpki", Mpki("sim.branch_misses"), "MPKI"});
    Out.push_back({"sim.dtlb_mpki", Mpki("sim.dtlb_misses"), "MPKI"});
    Out.push_back({"sim_cpi_err_pct", simCpiErrorPct(), "%"});
    double Untraced = ItemMs.empty()
                          ? 0
                          : std::accumulate(ItemMs.begin(), ItemMs.end(), 0.0) /
                                ItemMs.size();
    double Traced =
        TracedItemMs.empty()
            ? 0
            : std::accumulate(TracedItemMs.begin(), TracedItemMs.end(), 0.0) /
                  TracedItemMs.size();
    Out.push_back({"trace.item_ms_mean", Traced, "ms"});
    Out.push_back({"trace.unattributed_ms", LayerMs("item"), "ms"});
    Out.push_back({"trace.overhead_ms", Traced - Untraced, "ms"});

    std::printf("# per-layer self time (item layers: mean per item over %zu "
                "traced items; set-up layers: median per set-up)\n",
                Items.size());
    std::printf("#   mean item %.4f ms traced (n=%zu), %.4f ms untraced "
                "(n=%zu): overhead %.4f ms\n",
                Traced, TracedItemMs.size(), Untraced, ItemMs.size(),
                Traced - Untraced);
    for (const auto &[Name, Ns] : ItemNs) {
      double Ms = Ns / NItems / 1e6;
      std::printf("#   item  %-20s %10.4f ms  %5.1f%% of item\n",
                  Name == "item" ? "(unattributed)" : Name.c_str(), Ms,
                  Traced > 0 ? 100 * Ms / Traced : 0);
    }
    for (const auto &[Name, V] : SetupNs)
      std::printf("#   setup %-20s %10.4f ms\n", Name.c_str(),
                  median(V) / 1e6);
    std::string Path = O.Work + "/trace-" + O.KindName + "-seed" +
                       std::to_string(O.Seed) + ".json";
    if (Trace.writeChromeJSON(Path))
      std::printf("# trace: %s (%zu spans, Chrome trace-event JSON)\n",
                  Path.c_str(), Trace.spans().size());
    else
      std::printf("# trace: could not write %s\n", Path.c_str());
  }

  for (const Metric &M : Out)
    std::printf("# %-24s %.6f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  std::string Json = formatString(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      Failed == 0 && Attempted > 0 ? "true" : "false",
      static_cast<unsigned long long>(Attempted),
      static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I < Out.size(); ++I)
    Json += formatString("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                         I ? ", " : "", Out[I].Name.c_str(), Out[I].Value,
                         Out[I].Unit.c_str());
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  if (Error E = createDirectories(O.Work)) {
    std::fprintf(stderr, "pipebench: %s\n", E.message().c_str());
    return 1;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Bench B(std::move(O));
  return B.run();
}
