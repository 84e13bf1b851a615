//===- tests/sim/SimGoldenTest.cpp - esim result goldens ------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins what esim reports for a matrix of inputs (ctest label `simstate`):
/// single- and multi-threaded ELFies, plain programs, constrained and free
/// pinballs and three multi-threaded registry workloads, on one and eight
/// cores, at warm-up lengths from 0 to 3001. Every configuration runs
/// cold, with -warmup-save and with -warmup-load. Each run is recorded as
///
///   <stats> <reason> roi=<n> warm=<n> ckpt=<n> <flags> <sidecar>
///
/// where <stats> and <sidecar> are the first 16 hex digits of the SHA-256
/// of the SimStats bytes and of the saved .esimstate file, and <flags>
/// spells MarkerSeen, WasElfie, StateSaved and StateLoaded as M, E, S, L
/// (or '-'). The sidecar is hashed in its version-1 rendering: sidecar
/// format 2 changed only the version word and, for a binary input, the
/// input digest (the artifact root, where version 1 recorded the SHA-256
/// of the whole image), so the record checks both against the input and
/// hashes the file with version 1's values in their place, resealed.
///
/// The goldens were recorded before the simulator's phases became
/// successive engine runs, and must not be re-recorded to make a change
/// pass. The values for a multi-threaded binary on one core and for a free
/// multi-threaded pinball that cross a warm-up boundary were re-recorded
/// when that change made their cold and save runs split the engine where
/// the resume does (see the comments at those entries). The <sidecar>
/// column of every save was re-recorded when the core and l3 payloads
/// became a cache's recency-ordered tag array (payload version 2): each
/// value is the digest of the sidecar recorded before, converted to that
/// layout (each set's valid ways by descending LRU stamp, the LRU clock
/// and the hit, miss and lookup counters dropped). No other column moved.
///
/// The same matrix runs two differentials that need no golden: a warm-up
/// and a whole run with the JIT on give the record of the run with
/// EnableJit = false.
///
//===----------------------------------------------------------------------===//

#include "sim/Frontend.h"

#include "../common/TestHelpers.h"
#include "WorkloadRegion.h"
#include "sim/SimState.h"
#include "store/Artifact.h"
#include "support/Sha256.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>

using namespace elfie;
using namespace elfie::sim;

namespace {

constexpr uint64_t Auto = UINT64_MAX;

/// One simulated configuration of an input.
struct Config {
  std::string Machine;
  uint64_t Warmup = Auto;
  uint64_t MaxInstructions = Auto;
  /// Pinball inputs only.
  bool Constrained = true;
};

/// An input and the configurations it runs under.
struct Input {
  std::string Name;
  std::vector<Config> Configs;
};

void PrintTo(const Input &I, std::ostream *OS) { *OS << I.Name; }

std::string configName(const Input &In, const Config &C) {
  std::string N = In.Name + "/" + C.Machine;
  if (In.Name.find("pinball") != std::string::npos)
    N += C.Constrained ? "-constrained" : "-free";
  N += C.Warmup == Auto ? "-wauto" : "-w" + std::to_string(C.Warmup);
  if (C.MaxInstructions != Auto)
    N += "-max" + std::to_string(C.MaxInstructions);
  return N;
}

// clang-format off
const std::map<std::string, std::string> &goldens() {
  static const std::map<std::string, std::string> G = {
      {"compute_elfie/nehalem-w0/cold",
       "9d96d69ec8af257d Stopped roi=8000 warm=0 ckpt=0 ME-- -"},
      {"compute_elfie/nehalem-w0/save",
       "9d96d69ec8af257d Stopped roi=8000 warm=0 ckpt=78 MES- d266e23db048b35f"},
      {"compute_elfie/nehalem-w0/load",
       "9d96d69ec8af257d Stopped roi=8000 warm=0 ckpt=78 ME-L -"},
      {"compute_elfie/nehalem-w1000/cold",
       "0e92f24beee47fbe Stopped roi=7000 warm=1000 ckpt=1078 ME-- -"},
      {"compute_elfie/nehalem-w1000/save",
       "0e92f24beee47fbe Stopped roi=7000 warm=1000 ckpt=1078 MES- 8ce029c6b39ede85"},
      {"compute_elfie/nehalem-w1000/load",
       "0e92f24beee47fbe Stopped roi=7000 warm=1000 ckpt=1078 ME-L -"},
      {"compute_elfie/nehalem-w3001/cold",
       "a63c97ece94b7aa8 Stopped roi=4999 warm=3001 ckpt=3079 ME-- -"},
      {"compute_elfie/nehalem-w3001/save",
       "a63c97ece94b7aa8 Stopped roi=4999 warm=3001 ckpt=3079 MES- 5b0b9d8240f86c52"},
      {"compute_elfie/nehalem-w3001/load",
       "a63c97ece94b7aa8 Stopped roi=4999 warm=3001 ckpt=3079 ME-L -"},
      {"compute_elfie/nehalem-wauto/cold",
       "0e92f24beee47fbe Stopped roi=7000 warm=1000 ckpt=1078 ME-- -"},
      {"compute_elfie/nehalem-wauto/save",
       "0e92f24beee47fbe Stopped roi=7000 warm=1000 ckpt=1078 MES- 8ce029c6b39ede85"},
      {"compute_elfie/nehalem-wauto/load",
       "0e92f24beee47fbe Stopped roi=7000 warm=1000 ckpt=1078 ME-L -"},
      {"compute_elfie/skylake-fs-wauto/cold",
       "276463fa7dae6d85 Stopped roi=7000 warm=1000 ckpt=1078 ME-- -"},
      {"compute_elfie/skylake-fs-wauto/save",
       "276463fa7dae6d85 Stopped roi=7000 warm=1000 ckpt=1078 MES- c1bd36c425906cb3"},
      {"compute_elfie/skylake-fs-wauto/load",
       "276463fa7dae6d85 Stopped roi=7000 warm=1000 ckpt=1078 ME-L -"},
      {"compute_plain/nehalem-w500-max5000/cold",
       "c97fb27e661b66f8 Stopped roi=5000 warm=500 ckpt=500 ---- -"},
      {"compute_plain/nehalem-w500-max5000/save",
       "c97fb27e661b66f8 Stopped roi=5000 warm=500 ckpt=500 --S- 11b8fc73363d5b5f"},
      {"compute_plain/nehalem-w500-max5000/load",
       "c97fb27e661b66f8 Stopped roi=5000 warm=500 ckpt=500 ---L -"},
      {"compute_plain/nehalem-w0/cold",
       "946047812eb2d774 AllExited roi=177803 warm=0 ckpt=0 ---- -"},
      {"compute_plain/nehalem-w0/save",
       "946047812eb2d774 AllExited roi=177803 warm=0 ckpt=0 --S- 6e0f977f49698917"},
      {"compute_plain/nehalem-w0/load",
       "946047812eb2d774 AllExited roi=177803 warm=0 ckpt=0 ---L -"},
      {"compute_plain/gainestown8-w0/cold",
       "2d25ceb03c65bbc8 AllExited roi=177803 warm=0 ckpt=0 ---- -"},
      {"compute_plain/gainestown8-w0/save",
       "2d25ceb03c65bbc8 AllExited roi=177803 warm=0 ckpt=0 --S- 6a092a6d0a933ed1"},
      {"compute_plain/gainestown8-w0/load",
       "2d25ceb03c65bbc8 AllExited roi=177803 warm=0 ckpt=0 ---L -"},
      // Recorded before the per-instruction observer hooks were removed:
      // the kernel-enabled machine charges the write and exit_group
      // syscalls of the measured run.
      {"compute_plain/skylake-fs-w0/cold",
       "60f2dd3806601b67 AllExited roi=177803 warm=0 ckpt=0 ---- -"},
      {"compute_plain/skylake-fs-w0/save",
       "60f2dd3806601b67 AllExited roi=177803 warm=0 ckpt=0 --S- 95c6b485bf919143"},
      {"compute_plain/skylake-fs-w0/load",
       "60f2dd3806601b67 AllExited roi=177803 warm=0 ckpt=0 ---L -"},
      {"mt_plain/nehalem-w0/cold",
       "97712c33cff62bc4 AllExited roi=448786 warm=0 ckpt=0 ---- -"},
      {"mt_plain/nehalem-w0/save",
       "97712c33cff62bc4 AllExited roi=448786 warm=0 ckpt=0 --S- 48a3bda980e169aa"},
      {"mt_plain/nehalem-w0/load",
       "97712c33cff62bc4 AllExited roi=448786 warm=0 ckpt=0 ---L -"},
      {"mt_plain/nehalem-w2000/cold",
       "299e745554ecf533 AllExited roi=446786 warm=2000 ckpt=2000 ---- -"},
      {"mt_plain/nehalem-w2000/save",
       "299e745554ecf533 AllExited roi=446786 warm=2000 ckpt=2000 --S- 4e35dadd71f08390"},
      {"mt_plain/nehalem-w2000/load",
       "299e745554ecf533 AllExited roi=446786 warm=2000 ckpt=2000 ---L -"},
      {"mt_plain/gainestown8-w2000/cold",
       "3e376d8373169016 AllExited roi=603825 warm=2000 ckpt=2000 ---- -"},
      {"mt_plain/gainestown8-w2000/save",
       "3e376d8373169016 AllExited roi=603825 warm=2000 ckpt=2000 --S- 8b800e7d3580bd5a"},
      {"mt_plain/gainestown8-w2000/load",
       "3e376d8373169016 AllExited roi=603825 warm=2000 ckpt=2000 ---L -"},
      {"mt_elfie/nehalem-w0/cold",
       "a6b8e17045a02984 Stopped roi=24000 warm=0 ckpt=0 ME-- -"},
      {"mt_elfie/nehalem-w0/save",
       "a6b8e17045a02984 Stopped roi=24000 warm=0 ckpt=177 MES- 4c08d48cb21d306f"},
      {"mt_elfie/nehalem-w0/load",
       "a6b8e17045a02984 Stopped roi=24000 warm=0 ckpt=177 ME-L -"},
      {"mt_elfie/nehalem-w2000/cold",
       "6fc1b447e3acdb90 Stopped roi=22000 warm=2000 ckpt=2177 ME-- -"},
      {"mt_elfie/nehalem-w2000/save",
       "6fc1b447e3acdb90 Stopped roi=22000 warm=2000 ckpt=2177 MES- c7be4d2d47a54114"},
      {"mt_elfie/nehalem-w2000/load",
       "6fc1b447e3acdb90 Stopped roi=22000 warm=2000 ckpt=2177 ME-L -"},
      {"mt_elfie/gainestown8-w0/cold",
       "eec2adeab90f5469 Stopped roi=24000 warm=0 ckpt=0 ME-- -"},
      {"mt_elfie/gainestown8-w0/save",
       "eec2adeab90f5469 Stopped roi=24000 warm=0 ckpt=127 MES- 1fd05902ea01e054"},
      {"mt_elfie/gainestown8-w0/load",
       "eec2adeab90f5469 Stopped roi=24000 warm=0 ckpt=127 ME-L -"},
      {"mt_elfie/gainestown8-w2000/cold",
       "075791c9320905fc Stopped roi=22000 warm=2000 ckpt=2127 ME-- -"},
      {"mt_elfie/gainestown8-w2000/save",
       "075791c9320905fc Stopped roi=22000 warm=2000 ckpt=2127 MES- 312ddbb9789d12f9"},
      {"mt_elfie/gainestown8-w2000/load",
       "075791c9320905fc Stopped roi=22000 warm=2000 ckpt=2127 ME-L -"},
      {"mt_pinball/nehalem-constrained-w0/cold",
       "59f3e7354bf4fabf BudgetReached roi=24000 warm=0 ckpt=0 ---- -"},
      {"mt_pinball/nehalem-constrained-w0/save",
       "59f3e7354bf4fabf BudgetReached roi=24000 warm=0 ckpt=0 --S- 4570446c3485e4b4"},
      {"mt_pinball/nehalem-constrained-w0/load",
       "59f3e7354bf4fabf BudgetReached roi=24000 warm=0 ckpt=0 ---L -"},
      {"mt_pinball/nehalem-free-w0/cold",
       "59f3e7354bf4fabf BudgetReached roi=24000 warm=0 ckpt=0 ---- -"},
      {"mt_pinball/nehalem-free-w0/save",
       "59f3e7354bf4fabf BudgetReached roi=24000 warm=0 ckpt=0 --S- 4570446c3485e4b4"},
      {"mt_pinball/nehalem-free-w0/load",
       "59f3e7354bf4fabf BudgetReached roi=24000 warm=0 ckpt=0 ---L -"},
      {"mt_pinball/nehalem-constrained-w4000/cold",
       "9ac6f68cd9df5a46 BudgetReached roi=20000 warm=4000 ckpt=4000 ---- -"},
      {"mt_pinball/nehalem-constrained-w4000/save",
       "9ac6f68cd9df5a46 BudgetReached roi=20000 warm=4000 ckpt=4000 --S- 76e6ca5554853a67"},
      {"mt_pinball/nehalem-constrained-w4000/load",
       "9ac6f68cd9df5a46 BudgetReached roi=20000 warm=4000 ckpt=4000 ---L -"},
      {"mt_pinball/nehalem-free-w4000/cold",
       "9ac6f68cd9df5a46 BudgetReached roi=20000 warm=4000 ckpt=4000 ---- -"},
      {"mt_pinball/nehalem-free-w4000/save",
       "9ac6f68cd9df5a46 BudgetReached roi=20000 warm=4000 ckpt=4000 --S- d9f4e26f742b6557"},
      {"mt_pinball/nehalem-free-w4000/load",
       "9ac6f68cd9df5a46 BudgetReached roi=20000 warm=4000 ckpt=4000 ---L -"},
      {"mt_pinball/gainestown8-constrained-w0/cold",
       "5a09e916fd264af5 BudgetReached roi=24000 warm=0 ckpt=0 ---- -"},
      {"mt_pinball/gainestown8-constrained-w0/save",
       "5a09e916fd264af5 BudgetReached roi=24000 warm=0 ckpt=0 --S- 61f1434b36f54204"},
      {"mt_pinball/gainestown8-constrained-w0/load",
       "5a09e916fd264af5 BudgetReached roi=24000 warm=0 ckpt=0 ---L -"},
      {"mt_pinball/gainestown8-free-w0/cold",
       "ef96a01cec5fc3ad BudgetReached roi=24000 warm=0 ckpt=0 ---- -"},
      {"mt_pinball/gainestown8-free-w0/save",
       "ef96a01cec5fc3ad BudgetReached roi=24000 warm=0 ckpt=0 --S- 61f1434b36f54204"},
      {"mt_pinball/gainestown8-free-w0/load",
       "ef96a01cec5fc3ad BudgetReached roi=24000 warm=0 ckpt=0 ---L -"},
      {"mt_pinball/gainestown8-constrained-w4000/cold",
       "6161eff354bb8156 BudgetReached roi=20000 warm=4000 ckpt=4000 ---- -"},
      {"mt_pinball/gainestown8-constrained-w4000/save",
       "6161eff354bb8156 BudgetReached roi=20000 warm=4000 ckpt=4000 --S- 2799f399c95759e5"},
      {"mt_pinball/gainestown8-constrained-w4000/load",
       "6161eff354bb8156 BudgetReached roi=20000 warm=4000 ckpt=4000 ---L -"},
      {"mt_pinball/gainestown8-free-w4000/cold",
       "6161eff354bb8156 BudgetReached roi=20000 warm=4000 ckpt=4000 ---- -"},
      {"mt_pinball/gainestown8-free-w4000/save",
       "6161eff354bb8156 BudgetReached roi=20000 warm=4000 ckpt=4000 --S- 1ab072bac6530619"},
      {"mt_pinball/gainestown8-free-w4000/load",
       "6161eff354bb8156 BudgetReached roi=20000 warm=4000 ckpt=4000 ---L -"},
      // Cold and save re-recorded to the resume's value: on one core they
      // now split the engine at the warm-up boundary as the resume
      // always did (before: 560e1527a0db5f46).
      {"bwaves_s_like_elfie/nehalem-w37/cold",
       "a1749778e40779b4 Stopped roi=59963 warm=37 ckpt=214 ME-- -"},
      {"bwaves_s_like_elfie/nehalem-w37/save",
       "a1749778e40779b4 Stopped roi=59963 warm=37 ckpt=214 MES- 3a040963a3196c3a"},
      {"bwaves_s_like_elfie/nehalem-w37/load",
       "a1749778e40779b4 Stopped roi=59963 warm=37 ckpt=214 ME-L -"},
      {"bwaves_s_like_elfie/gainestown8-w37/cold",
       "8539a5f80e374557 Stopped roi=59963 warm=37 ckpt=164 ME-- -"},
      {"bwaves_s_like_elfie/gainestown8-w37/save",
       "8539a5f80e374557 Stopped roi=59963 warm=37 ckpt=164 MES- 2468ce01c942d009"},
      {"bwaves_s_like_elfie/gainestown8-w37/load",
       "8539a5f80e374557 Stopped roi=59963 warm=37 ckpt=164 ME-L -"},
      // Cold and save re-recorded to the resume's value: on one core they
      // now split the engine at the warm-up boundary as the resume
      // always did (before: 5a3f21bb72e8ea63).
      {"bwaves_s_like_elfie/nehalem-w1013/cold",
       "ad2d6946f9317ae4 Stopped roi=58987 warm=1013 ckpt=1190 ME-- -"},
      {"bwaves_s_like_elfie/nehalem-w1013/save",
       "ad2d6946f9317ae4 Stopped roi=58987 warm=1013 ckpt=1190 MES- 358b1fa16b8570ba"},
      {"bwaves_s_like_elfie/nehalem-w1013/load",
       "ad2d6946f9317ae4 Stopped roi=58987 warm=1013 ckpt=1190 ME-L -"},
      {"bwaves_s_like_elfie/gainestown8-w1013/cold",
       "2c92f2edeb2d9896 Stopped roi=58987 warm=1013 ckpt=1140 ME-- -"},
      {"bwaves_s_like_elfie/gainestown8-w1013/save",
       "2c92f2edeb2d9896 Stopped roi=58987 warm=1013 ckpt=1140 MES- 78d72e80af0338ba"},
      {"bwaves_s_like_elfie/gainestown8-w1013/load",
       "2c92f2edeb2d9896 Stopped roi=58987 warm=1013 ckpt=1140 ME-L -"},
      {"bwaves_s_like_pinball/nehalem-constrained-w37/cold",
       "64937f8021fd3f72 BudgetReached roi=59963 warm=37 ckpt=37 ---- -"},
      {"bwaves_s_like_pinball/nehalem-constrained-w37/save",
       "64937f8021fd3f72 BudgetReached roi=59963 warm=37 ckpt=37 --S- c1e514072c305fc8"},
      {"bwaves_s_like_pinball/nehalem-constrained-w37/load",
       "64937f8021fd3f72 BudgetReached roi=59963 warm=37 ckpt=37 ---L -"},
      // Re-recorded: free replay now splits the engine at the warm-up
      // boundary in all three runs (before: 418329ad4eeabf9a).
      {"bwaves_s_like_pinball/nehalem-free-w37/cold",
       "e26c473402310f12 BudgetReached roi=59963 warm=37 ckpt=37 ---- -"},
      {"bwaves_s_like_pinball/nehalem-free-w37/save",
       "e26c473402310f12 BudgetReached roi=59963 warm=37 ckpt=37 --S- b7fb26388739fcc6"},
      {"bwaves_s_like_pinball/nehalem-free-w37/load",
       "e26c473402310f12 BudgetReached roi=59963 warm=37 ckpt=37 ---L -"},
      {"bwaves_s_like_pinball/nehalem-constrained-w1013/cold",
       "185c2fbea1febaac BudgetReached roi=58987 warm=1013 ckpt=1013 ---- -"},
      {"bwaves_s_like_pinball/nehalem-constrained-w1013/save",
       "185c2fbea1febaac BudgetReached roi=58987 warm=1013 ckpt=1013 --S- bfc75bf3eb51ab56"},
      {"bwaves_s_like_pinball/nehalem-constrained-w1013/load",
       "185c2fbea1febaac BudgetReached roi=58987 warm=1013 ckpt=1013 ---L -"},
      // Re-recorded: free replay now splits the engine at the warm-up
      // boundary in all three runs (before: 86f5371ea7c73132).
      {"bwaves_s_like_pinball/nehalem-free-w1013/cold",
       "d3650dd0779844d1 BudgetReached roi=58987 warm=1013 ckpt=1013 ---- -"},
      {"bwaves_s_like_pinball/nehalem-free-w1013/save",
       "d3650dd0779844d1 BudgetReached roi=58987 warm=1013 ckpt=1013 --S- a4499c3f050d250f"},
      {"bwaves_s_like_pinball/nehalem-free-w1013/load",
       "d3650dd0779844d1 BudgetReached roi=58987 warm=1013 ckpt=1013 ---L -"},
      // Cold and save re-recorded to the resume's value: on one core they
      // now split the engine at the warm-up boundary as the resume
      // always did (before: 5ad9d142de440d69).
      {"nab_s_like_elfie/nehalem-w37/cold",
       "5964d8f402134ddb Stopped roi=59963 warm=37 ckpt=214 ME-- -"},
      {"nab_s_like_elfie/nehalem-w37/save",
       "5964d8f402134ddb Stopped roi=59963 warm=37 ckpt=214 MES- 97ee0dbcdac6e53c"},
      {"nab_s_like_elfie/nehalem-w37/load",
       "5964d8f402134ddb Stopped roi=59963 warm=37 ckpt=214 ME-L -"},
      {"nab_s_like_elfie/gainestown8-w37/cold",
       "b5ca7ea02f2a68eb Stopped roi=59963 warm=37 ckpt=164 ME-- -"},
      {"nab_s_like_elfie/gainestown8-w37/save",
       "b5ca7ea02f2a68eb Stopped roi=59963 warm=37 ckpt=164 MES- 39bfd89ec1dd0c3c"},
      {"nab_s_like_elfie/gainestown8-w37/load",
       "b5ca7ea02f2a68eb Stopped roi=59963 warm=37 ckpt=164 ME-L -"},
      // Cold and save re-recorded to the resume's value: on one core they
      // now split the engine at the warm-up boundary as the resume
      // always did (before: ac3a44788dbc72e8).
      {"nab_s_like_elfie/nehalem-w1013/cold",
       "bf86fc41983d3da9 Stopped roi=58987 warm=1013 ckpt=1190 ME-- -"},
      {"nab_s_like_elfie/nehalem-w1013/save",
       "bf86fc41983d3da9 Stopped roi=58987 warm=1013 ckpt=1190 MES- 8c9a2a6714742c21"},
      {"nab_s_like_elfie/nehalem-w1013/load",
       "bf86fc41983d3da9 Stopped roi=58987 warm=1013 ckpt=1190 ME-L -"},
      {"nab_s_like_elfie/gainestown8-w1013/cold",
       "cd75955a988e3279 Stopped roi=58987 warm=1013 ckpt=1140 ME-- -"},
      {"nab_s_like_elfie/gainestown8-w1013/save",
       "cd75955a988e3279 Stopped roi=58987 warm=1013 ckpt=1140 MES- 5aadfb955e9e0110"},
      {"nab_s_like_elfie/gainestown8-w1013/load",
       "cd75955a988e3279 Stopped roi=58987 warm=1013 ckpt=1140 ME-L -"},
      {"nab_s_like_pinball/nehalem-constrained-w37/cold",
       "620f311d35337624 BudgetReached roi=59963 warm=37 ckpt=37 ---- -"},
      {"nab_s_like_pinball/nehalem-constrained-w37/save",
       "620f311d35337624 BudgetReached roi=59963 warm=37 ckpt=37 --S- c8737c6546ddd301"},
      {"nab_s_like_pinball/nehalem-constrained-w37/load",
       "620f311d35337624 BudgetReached roi=59963 warm=37 ckpt=37 ---L -"},
      // Re-recorded: free replay now splits the engine at the warm-up
      // boundary in all three runs (before: d9e51ffef055e973).
      {"nab_s_like_pinball/nehalem-free-w37/cold",
       "ec1fc8ac948fbd19 BudgetReached roi=59963 warm=37 ckpt=37 ---- -"},
      {"nab_s_like_pinball/nehalem-free-w37/save",
       "ec1fc8ac948fbd19 BudgetReached roi=59963 warm=37 ckpt=37 --S- 9c0f1e7f1e920ab4"},
      {"nab_s_like_pinball/nehalem-free-w37/load",
       "ec1fc8ac948fbd19 BudgetReached roi=59963 warm=37 ckpt=37 ---L -"},
      {"nab_s_like_pinball/nehalem-constrained-w1013/cold",
       "36946c82e9baa89f BudgetReached roi=58987 warm=1013 ckpt=1013 ---- -"},
      {"nab_s_like_pinball/nehalem-constrained-w1013/save",
       "36946c82e9baa89f BudgetReached roi=58987 warm=1013 ckpt=1013 --S- 2a563d0b47b4f713"},
      {"nab_s_like_pinball/nehalem-constrained-w1013/load",
       "36946c82e9baa89f BudgetReached roi=58987 warm=1013 ckpt=1013 ---L -"},
      // Re-recorded: free replay now splits the engine at the warm-up
      // boundary in all three runs (before: 822479cb52caafd5).
      {"nab_s_like_pinball/nehalem-free-w1013/cold",
       "d9fb89594ad6f356 BudgetReached roi=58987 warm=1013 ckpt=1013 ---- -"},
      {"nab_s_like_pinball/nehalem-free-w1013/save",
       "d9fb89594ad6f356 BudgetReached roi=58987 warm=1013 ckpt=1013 --S- 814d88076ca06af1"},
      {"nab_s_like_pinball/nehalem-free-w1013/load",
       "d9fb89594ad6f356 BudgetReached roi=58987 warm=1013 ckpt=1013 ---L -"},
      {"imagick_s_like_elfie/nehalem-w37/cold",
       "f765cb08e2a01126 Stopped roi=59963 warm=37 ckpt=115 ME-- -"},
      {"imagick_s_like_elfie/nehalem-w37/save",
       "f765cb08e2a01126 Stopped roi=59963 warm=37 ckpt=115 MES- 9189e453c0297dfe"},
      {"imagick_s_like_elfie/nehalem-w37/load",
       "f765cb08e2a01126 Stopped roi=59963 warm=37 ckpt=115 ME-L -"},
      {"imagick_s_like_elfie/gainestown8-w37/cold",
       "edbeaa017604ce8a Stopped roi=59963 warm=37 ckpt=115 ME-- -"},
      {"imagick_s_like_elfie/gainestown8-w37/save",
       "edbeaa017604ce8a Stopped roi=59963 warm=37 ckpt=115 MES- dac5a6c3b29a4741"},
      {"imagick_s_like_elfie/gainestown8-w37/load",
       "edbeaa017604ce8a Stopped roi=59963 warm=37 ckpt=115 ME-L -"},
      {"imagick_s_like_elfie/nehalem-w1013/cold",
       "3fc87c9fcc584f48 Stopped roi=58987 warm=1013 ckpt=1091 ME-- -"},
      {"imagick_s_like_elfie/nehalem-w1013/save",
       "3fc87c9fcc584f48 Stopped roi=58987 warm=1013 ckpt=1091 MES- 4a5d6a8aa55fa1f9"},
      {"imagick_s_like_elfie/nehalem-w1013/load",
       "3fc87c9fcc584f48 Stopped roi=58987 warm=1013 ckpt=1091 ME-L -"},
      {"imagick_s_like_elfie/gainestown8-w1013/cold",
       "a94bd9094793affc Stopped roi=58987 warm=1013 ckpt=1091 ME-- -"},
      {"imagick_s_like_elfie/gainestown8-w1013/save",
       "a94bd9094793affc Stopped roi=58987 warm=1013 ckpt=1091 MES- c9b34d37d9cd3421"},
      {"imagick_s_like_elfie/gainestown8-w1013/load",
       "a94bd9094793affc Stopped roi=58987 warm=1013 ckpt=1091 ME-L -"},
      {"imagick_s_like_pinball/nehalem-constrained-w37/cold",
       "c4f34d62e5042e79 BudgetReached roi=59963 warm=37 ckpt=37 ---- -"},
      {"imagick_s_like_pinball/nehalem-constrained-w37/save",
       "c4f34d62e5042e79 BudgetReached roi=59963 warm=37 ckpt=37 --S- dc599ac6773a159b"},
      {"imagick_s_like_pinball/nehalem-constrained-w37/load",
       "c4f34d62e5042e79 BudgetReached roi=59963 warm=37 ckpt=37 ---L -"},
      {"imagick_s_like_pinball/nehalem-free-w37/cold",
       "c4f34d62e5042e79 BudgetReached roi=59963 warm=37 ckpt=37 ---- -"},
      {"imagick_s_like_pinball/nehalem-free-w37/save",
       "c4f34d62e5042e79 BudgetReached roi=59963 warm=37 ckpt=37 --S- dc599ac6773a159b"},
      {"imagick_s_like_pinball/nehalem-free-w37/load",
       "c4f34d62e5042e79 BudgetReached roi=59963 warm=37 ckpt=37 ---L -"},
      {"imagick_s_like_pinball/nehalem-constrained-w1013/cold",
       "375fffd2ab2cf216 BudgetReached roi=58987 warm=1013 ckpt=1013 ---- -"},
      {"imagick_s_like_pinball/nehalem-constrained-w1013/save",
       "375fffd2ab2cf216 BudgetReached roi=58987 warm=1013 ckpt=1013 --S- 5183074b4c47968c"},
      {"imagick_s_like_pinball/nehalem-constrained-w1013/load",
       "375fffd2ab2cf216 BudgetReached roi=58987 warm=1013 ckpt=1013 ---L -"},
      {"imagick_s_like_pinball/nehalem-free-w1013/cold",
       "375fffd2ab2cf216 BudgetReached roi=58987 warm=1013 ckpt=1013 ---- -"},
      {"imagick_s_like_pinball/nehalem-free-w1013/save",
       "375fffd2ab2cf216 BudgetReached roi=58987 warm=1013 ckpt=1013 --S- 5183074b4c47968c"},
      {"imagick_s_like_pinball/nehalem-free-w1013/load",
       "375fffd2ab2cf216 BudgetReached roi=58987 warm=1013 ckpt=1013 ---L -"},
  };
  return G;
}
// clang-format on

std::string digest16(const uint8_t *Data, size_t Size) {
  return Sha256::digest(Data, Size).hex().substr(0, 16);
}

/// The simulator input: a binary image or a pinball.
struct Subject {
  std::vector<uint8_t> Image;
  std::optional<pinball::Pinball> PB;
};

std::string record(const SimResult &R, const std::string &SidecarPath,
                   const Subject &S) {
  BinaryWriter W;
  StateWriter SW(W);
  R.Stats.save(SW);
  static const char *const Reasons[] = {"AllExited", "Halted", "Faulted",
                                        "BudgetReached", "Stopped"};
  std::string Flags = {R.MarkerSeen ? 'M' : '-', R.WasElfie ? 'E' : '-',
                       R.StateSaved ? 'S' : '-', R.StateLoaded ? 'L' : '-'};
  std::string Sidecar = "-";
  if (R.StateSaved) {
    auto Bytes = readFileBytes(SidecarPath);
    EXPECT_TRUE(Bytes.hasValue()) << Bytes.message();
    if (Bytes) {
      std::vector<uint8_t> V1;
      if (S.PB) {
        V1 = test::versionOneSidecar(std::move(*Bytes));
      } else {
        Sha256Digest Root = store::artifactRoot(S.Image);
        Sha256Digest Whole = Sha256::digest(S.Image);
        V1 = test::versionOneSidecar(std::move(*Bytes), &Root, &Whole);
      }
      Sidecar = V1.empty() ? "not-a-v2-sidecar-of-this-input"
                           : digest16(V1.data(), V1.size());
    }
  }
  return digest16(W.bytes().data(), W.size()) + " " +
         Reasons[static_cast<int>(R.Reason)] +
         " roi=" + std::to_string(R.RoiRetired) +
         " warm=" + std::to_string(R.WarmupRetired) +
         " ckpt=" + std::to_string(R.CheckpointRetired) + " " + Flags + " " +
         Sidecar;
}

Expected<Subject> buildSubject(const std::string &Name,
                               const std::string &Dir) {
  Subject S;
  auto elfie = [&](Expected<pinball::Pinball> PB,
                   uint64_t WarmupLength) -> Expected<Subject> {
    if (!PB)
      return PB.takeError();
    auto Image = test::guestElfie(*PB, WarmupLength);
    if (!Image)
      return Image.takeError();
    S.Image = std::move(*Image);
    return std::move(S);
  };
  auto assemble = [&](const std::string &Src) -> Expected<Subject> {
    auto Image = easm::assembleToELF(Src, "prog.s");
    if (!Image)
      return Image.takeError();
    S.Image = std::move(*Image);
    return std::move(S);
  };
  auto mtCapture = [&] {
    return test::capture(Dir, test::multiThreadProgram(8, 4, 2000), 40000,
                         24000, pinball::LoggerOptions::fat());
  };
  if (Name == "compute_elfie")
    return elfie(test::capture(Dir, test::computeProgram(), 5000, 8000,
                               pinball::LoggerOptions::fat()),
                 /*WarmupLength=*/1000);
  if (Name == "compute_plain")
    return assemble(test::computeProgram());
  if (Name == "mt_plain")
    return assemble(test::multiThreadProgram(8, 4, 2000));
  if (Name == "mt_elfie")
    return elfie(mtCapture(), 0);
  std::string Workload = Name.substr(0, Name.rfind('_'));
  auto PB = Name == "mt_pinball" ? mtCapture()
                                 : test::captureWorkloadRegion(Dir, Workload);
  if (Name.ends_with("_elfie"))
    return elfie(std::move(PB), 0);
  if (!PB)
    return PB.takeError();
  S.PB = std::move(*PB);
  return S;
}

std::vector<Input> allInputs() {
  std::vector<Input> In = {
      {"compute_elfie",
       {{"nehalem", 0}, {"nehalem", 1000}, {"nehalem", 3001},
        {"nehalem"}, {"skylake-fs"}}},
      {"compute_plain",
       {{"nehalem", 500, 5000}, {"nehalem", 0}, {"gainestown8", 0},
        {"skylake-fs", 0}}},
      {"mt_plain", {{"nehalem", 0}, {"nehalem", 2000}, {"gainestown8", 2000}}},
      {"mt_elfie",
       {{"nehalem", 0}, {"nehalem", 2000}, {"gainestown8", 0},
        {"gainestown8", 2000}}},
      {"mt_pinball", {}},
  };
  for (const char *M : {"nehalem", "gainestown8"})
    for (uint64_t W : {0, 4000})
      for (bool C : {true, false})
        In[4].Configs.push_back({M, W, Auto, C});
  for (const char *W : {"bwaves_s_like", "nab_s_like", "imagick_s_like"}) {
    Input E{std::string(W) + "_elfie", {}}, P{std::string(W) + "_pinball", {}};
    for (uint64_t Warm : {37, 1013}) {
      E.Configs.push_back({"nehalem", Warm});
      E.Configs.push_back({"gainestown8", Warm});
      P.Configs.push_back({"nehalem", Warm, Auto, true});
      P.Configs.push_back({"nehalem", Warm, Auto, false});
    }
    In.push_back(E);
    In.push_back(P);
  }
  return In;
}

/// Simulates \p S on \p Machine under \p C in \p Mode: "cold", "save"
/// (to a fresh \p Sidecar) or "load" (from \p Sidecar).
Expected<SimResult> simulate(const Subject &S, const MachineConfig &Machine,
                             const Config &C, const char *Mode,
                             const std::string &Sidecar,
                             vm::VMConfig VC = {}) {
  RunControls Controls;
  Controls.WarmupInstructions = C.Warmup;
  Controls.MaxInstructions = C.MaxInstructions;
  if (Mode[0] == 's') {
    Controls.SaveStatePath = Sidecar;
    removeFile(Sidecar);
  } else if (Mode[0] == 'l') {
    Controls.LoadStatePath = Sidecar;
  }
  return S.PB ? simulatePinball(*S.PB, Machine, C.Constrained, Controls, VC)
              : simulateBinaryImage(S.Image, Machine, Controls, VC);
}

vm::VMConfig jitConfig(bool Jit, uint32_t Threshold) {
  vm::VMConfig VC;
  VC.EnableJit = Jit;
  VC.JitThreshold = Threshold;
  return VC;
}

class SimGolden : public testing::TestWithParam<Input> {};

TEST_P(SimGolden, ColdSaveLoadMatchGolden) {
  const Input &In = GetParam();
  std::string Dir = testing::TempDir() + "/elfie_sim_golden_" + In.Name;
  removeTree(Dir);
  ASSERT_FALSE(createDirectories(Dir).isError());
  auto S = buildSubject(In.Name, Dir);
  ASSERT_TRUE(S.hasValue()) << S.message();
  std::string Sidecar = Dir + "/state.esimstate";
  for (const Config &C : In.Configs) {
    MachineConfig Machine;
    ASSERT_TRUE(configByName(C.Machine, Machine));
    for (const char *Mode : {"cold", "save", "load"}) {
      auto R = simulate(*S, Machine, C, Mode, Sidecar);
      std::string Key = configName(In, C) + "/" + Mode;
      ASSERT_TRUE(R.hasValue()) << Key << ": " << R.message();
      std::string Got = record(*R, Sidecar, *S);
      auto It = goldens().find(Key);
      EXPECT_EQ(Got, It == goldens().end() ? "" : It->second)
          << "      {\"" << Key << "\",\n       \"" << Got << "\"},";
    }
  }
  removeTree(Dir);
}

// The warming differential: a warm-up run with the JIT on, at the default
// promotion threshold and at 1, gives the record an interpreted warm-up
// gives, SimStats and sidecar bytes included.
TEST_P(SimGolden, CompiledWarmupMatchesInterpretedWarmup) {
  const Input &In = GetParam();
  std::string Dir = testing::TempDir() + "/elfie_sim_warmdiff_" + In.Name;
  removeTree(Dir);
  ASSERT_FALSE(createDirectories(Dir).isError());
  auto S = buildSubject(In.Name, Dir);
  ASSERT_TRUE(S.hasValue()) << S.message();
  std::string Sidecar = Dir + "/state.esimstate";
  for (const Config &C : In.Configs) {
    MachineConfig Machine;
    ASSERT_TRUE(configByName(C.Machine, Machine));
    auto Save = [&](bool Jit, uint32_t Threshold) {
      auto R = simulate(*S, Machine, C, "save", Sidecar,
                        jitConfig(Jit, Threshold));
      EXPECT_TRUE(R.hasValue()) << configName(In, C) << ": " << R.message();
      return R ? record(*R, Sidecar, *S) : std::string();
    };
    std::string Interpreted = Save(false, 32);
    EXPECT_EQ(Save(true, 32), Interpreted) << configName(In, C);
    EXPECT_EQ(Save(true, 1), Interpreted) << configName(In, C) << " (hot)";
  }
  removeTree(Dir);
}

// The whole-run differential: a cold, save or load run with the JIT on, at
// the default promotion threshold and at 1, gives the record an
// interpreted run gives: SimStats, reason, counts and sidecar bytes. Each
// load reads the sidecar the save before it wrote.
TEST_P(SimGolden, CompiledRunMatchesInterpretedRun) {
  const Input &In = GetParam();
  std::string Dir = testing::TempDir() + "/elfie_sim_rundiff_" + In.Name;
  removeTree(Dir);
  ASSERT_FALSE(createDirectories(Dir).isError());
  auto S = buildSubject(In.Name, Dir);
  ASSERT_TRUE(S.hasValue()) << S.message();
  std::string Sidecar = Dir + "/state.esimstate";
  for (const Config &C : In.Configs) {
    MachineConfig Machine;
    ASSERT_TRUE(configByName(C.Machine, Machine));
    for (const char *Mode : {"cold", "save", "load"}) {
      std::string Key = configName(In, C) + "/" + Mode;
      auto Run = [&](bool Jit, uint32_t Threshold) {
        auto R = simulate(*S, Machine, C, Mode, Sidecar,
                          jitConfig(Jit, Threshold));
        EXPECT_TRUE(R.hasValue()) << Key << ": " << R.message();
        return R ? record(*R, Sidecar, *S) : std::string();
      };
      std::string Interpreted = Run(false, 32);
      EXPECT_EQ(Run(true, 32), Interpreted) << Key;
      EXPECT_EQ(Run(true, 1), Interpreted) << Key << " (hot)";
    }
  }
  removeTree(Dir);
}

INSTANTIATE_TEST_SUITE_P(Matrix, SimGolden, testing::ValuesIn(allInputs()),
                         [](const testing::TestParamInfo<Input> &I) {
                           return I.param.Name;
                         });

} // namespace
