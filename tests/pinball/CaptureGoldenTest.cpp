//===- tests/pinball/CaptureGoldenTest.cpp - Saved-pinball digests --------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Region capture is the start of the pipeline, so every change to the
/// VM's dispatch and scheduling path must leave the saved pinballs
/// byte-identical. These tests (`ctest -L jit`) pin the SHA-256 of the
/// files `Pinball::save` writes for every registry workload (test input):
/// one fat and one lazy capture each, plus seeded-schedule captures of the
/// multi-threaded workloads. Every case must reproduce its golden with the
/// fast-forward compiled (eager JIT) and interpreted.
///
//===----------------------------------------------------------------------===//

#include "pinball/Logger.h"

#include "support/FileIO.h"
#include "support/Sha256.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <map>

using namespace elfie;
using workloads::InputSet;

namespace {

constexpr uint64_t Seed = 0xC0FFEE;

struct Case {
  std::string Workload;
  bool Fat;
  uint64_t ScheduleSeed;
};

std::string caseName(const Case &C) {
  return C.Workload + (C.Fat ? "_fat" : "_lazy") +
         (C.ScheduleSeed ? "_seeded" : "");
}

void PrintTo(const Case &C, std::ostream *OS) { *OS << caseName(C); }

// Recorded with the per-instruction scheduler loops the VM had before
// run(), runThread() and stepThread() shared one dispatch slice.
const std::map<std::string, std::string> &goldens() {
  static const std::map<std::string, std::string> G = {
      {"perlbench_like_fat",
       "8935162e6df10107a4a6b6dc791f49a7295cfbe31ca89bf65b3101402359ab36"},
      {"perlbench_like_lazy",
       "c1c0f238f69bda0318ca93df1659e527a8b5d8bfc42eeb029e95d0dbed9e3df7"},
      {"gcc_like_fat",
       "546d87e8ae3faeed838c53108cd236f29cbe9e8dff32339e50e29a7c22b667bd"},
      {"gcc_like_lazy",
       "2946fb82fe7fe5431186af027be639ad511a3b3f4e1be38611dd9c1e36c6b37f"},
      {"mcf_like_fat",
       "5d9d49576d324d64c121c8fff04c274e6713a8041687c39acc95d012523e1d99"},
      {"mcf_like_lazy",
       "8136b2a1d9283a6913b981bf369be39428e0e89ec7e937e0e13fd21495ac4816"},
      {"omnetpp_like_fat",
       "b841dcb467bdd66936439059e96a012c8d24ff634886ab767a721f8362fc04ae"},
      {"omnetpp_like_lazy",
       "f97985de70e3b602fd59209810415240c62050e63552852417ec3f574ca8c5c2"},
      {"xalancbmk_like_fat",
       "a6f546005df70505b0163941f90483252bd2c32454b7676e45c8f7d0b75e80d9"},
      {"xalancbmk_like_lazy",
       "ea41a34b0d0c359ea1337d1d1ad49f933964b784bda5ecff657a381be9796452"},
      {"x264_like_fat",
       "cd53a27bb946de3d515c831834a1ee9824fa38cfb5b1cf6c8a4219f62ce50f79"},
      {"x264_like_lazy",
       "02461a7c5f3a8850ba8cdf326df787a0beed1879d1ecc598ae79df80a4f311d5"},
      {"deepsjeng_like_fat",
       "e88cda0e06138dad448dd300d1ea1a25191cdcfec1450f098d89ac790b19040e"},
      {"deepsjeng_like_lazy",
       "500741d00a791be5d5d6efdfa0c34aa18099de9d8711b0c0532550730586e406"},
      {"leela_like_fat",
       "2de9c2c1cb312da464c99f3f9ed217e58075f320f7de578ef784547f83bbc558"},
      {"leela_like_lazy",
       "30ef575081e58e6085ddc2c3a0e2f270a99d426764c3b64d45360b868cb6e033"},
      {"exchange2_like_fat",
       "beea46d1305a1b3e4c0905cbafd7f35c8e2bbcb4aaea222c096c1377651f0ca6"},
      {"exchange2_like_lazy",
       "7c73d9dfe4f523daf50da450ad9b830b84d228d2143d75fca828fd0ec3381745"},
      {"xz_like_fat",
       "3fd20070e36da0a540498080bc23d20da99224fe7a3e5c46fb147407e8ee22ee"},
      {"xz_like_lazy",
       "c34f4f7f58785d29c7823d1008d78756a3fadb6cc2909986a5b407df167fb452"},
      {"lbm_like_fat",
       "ad56e2a689cd18454c9f561c58a939b571117ad87cb7ce0281ce49e40687ab2f"},
      {"lbm_like_lazy",
       "80f8a1e4d7281b2f0947ed86c8973ce2481f65ae8c639e2c75fc0753ad0ec333"},
      {"namd_like_fat",
       "b82478725fa201e9bff0c65af436a1b4204701329330698637e266192c654a8d"},
      {"namd_like_lazy",
       "25cca1417e1c88c3662fc42bd2ecb009b13ab2f5755537ee9ac9fdafca3b98cc"},
      {"povray_like_fat",
       "3fd2b9e3227063b692b0383d6e57d72f33795470c1766f10d2cea4f3e394482b"},
      {"povray_like_lazy",
       "79c37f19fdee2a11b2e23fb15e20e230dda67c131e226562e42914e5d741549a"},
      {"roms_like_fat",
       "a86085cdc4d66e14f4f6e61b55bddc3b8380172077823254b1d4109df9d1a7f1"},
      {"roms_like_lazy",
       "ce3d43f8e03b0cb41f9cabd39c0fc9e22e10e5312d7c74b294eba11cbb8eb93f"},
      {"fotonik3d_like_fat",
       "efc1067d7044533574b881133beb9b4f1d3e3e1649a2b5d3124a7d160469e934"},
      {"fotonik3d_like_lazy",
       "7a252032a8bea7ad67e268354ddc67e18772a85d200a2f27f5c62ceaa35753c3"},
      {"cactus_like_fat",
       "12a5ad697ad7521e369969ac28371acd607a1b7c73b7781eddd56907a4ff93df"},
      {"cactus_like_lazy",
       "e5af4cb4774bbba872a8f518d8462fe8ad9a05b23e21c6b4a152ca335ce1d52c"},
      {"xz_s_fat",
       "c3588b9ac3895e7898f5415c3c65a81c56cb714e3d81f3cfc3e0a26eeef7d95e"},
      {"xz_s_lazy",
       "c28a2d9926a51094e04ae692ebce7ca410110b40313fea65aa49ae8108f69034"},
      {"bwaves_s_like_fat",
       "bb80ce105bad3b08b6f5735695e1785fcadfce1530c31335b786f9e1330132e3"},
      {"bwaves_s_like_lazy",
       "3aaa659161a15296e82d33915d0c559f7c4216422e907fec8b9d9978cc4a906c"},
      {"bwaves_s_like_fat_seeded",
       "c8353ed7cb71f18438bc3d3c12c08cbbe037560cf0dedc26ed2562b1d7d376c4"},
      {"bwaves_s_like_lazy_seeded",
       "e96d876be0abd45df9853eca483f091798b7d1f9b9bc22f2d6ac5631bd8bf8ab"},
      {"lbm_s_like_fat",
       "d23ee94f4e8d89f6e40d51f892028158673a89d976d88cea4e08750919bb9295"},
      {"lbm_s_like_lazy",
       "836357e1935e0cfc35abe1cbb064e49690981716150b14b253278ed9b5fde127"},
      {"lbm_s_like_fat_seeded",
       "a912b8907627a03ce36a593ead84565d465746da1802850015d3ce3a44b1aad1"},
      {"lbm_s_like_lazy_seeded",
       "c6f93252a062b7754a43dfcef60bf9b8e3c77abb962ad92cde87faa65c52bc6d"},
      {"imagick_s_like_fat",
       "c0433f8b34c93f6bf7a87e7dbf0380b818625a3658b8f1e6422852066af0c2be"},
      {"imagick_s_like_lazy",
       "8cea33a915470f8e197da8411159a37480972dd4d866232725cbd77dba013b64"},
      {"imagick_s_like_fat_seeded",
       "2be38233927b057ab327d80430fc54581d8826c19f44f7a62e3cf8517d88b2f9"},
      {"imagick_s_like_lazy_seeded",
       "8938cac9a24deec27b606d3045b749a1aeedbb8357e5f2fbb002743d11d372ad"},
      {"nab_s_like_fat",
       "eea149be1913f08aff404197223728333e7c59a41f57f78916d0735be8b2c894"},
      {"nab_s_like_lazy",
       "fab96301b5d314ccef023a3aa26dfcce39e498967cad6fca05aff91cb2c94992"},
      {"nab_s_like_fat_seeded",
       "b7ab65326e82fb2839b5631430a46c915673c2cba59fb2d500c66d3d2059a0e4"},
      {"nab_s_like_lazy_seeded",
       "5ba3e66f6bdebfecb72964dbcd571d8ee679a5b39553739318ecafb4d3fd3538"},
  };
  return G;
}

vm::VMConfig config(bool Jit, uint64_t ScheduleSeed) {
  vm::VMConfig C;
  C.EnableJit = Jit;
  C.JitThreshold = 4; // promote early so the fast-forward runs compiled
  C.ScheduleSeed = ScheduleSeed;
  C.StdoutSink = [](const char *, size_t) {};
  return C;
}

/// Instructions the whole program at \p Path retires under \p ScheduleSeed.
uint64_t totalRetired(const std::string &Path, const std::string &Name,
                      uint64_t ScheduleSeed) {
  vm::VM M(config(true, ScheduleSeed));
  EXPECT_FALSE(M.loadELFFile(Path).isError());
  EXPECT_FALSE(M.setupMainThread({Name}).isError());
  vm::RunResult R = M.run();
  EXPECT_EQ(R.Reason, vm::StopReason::AllExited) << R.FaultInfo.Message;
  return M.globalRetired();
}

/// Captures the case's region from the program at \p Path, saves it under
/// \p Dir and returns the SHA-256 over every saved file, in name order:
/// each file contributes its name, a NUL, its size and its bytes.
std::string captureDigest(const Case &C, const std::string &Path,
                          const std::string &Dir, bool Jit, uint64_t Total) {
  pinball::CaptureRequest Req;
  Req.ProgramPath = Path;
  Req.Args = {C.Workload};
  Req.RegionStart = Total / 3 + 7;
  Req.RegionLength = std::min<uint64_t>(60000, Total / 3);
  Req.Opts = C.Fat ? pinball::LoggerOptions::fat() : pinball::LoggerOptions();
  Req.Config = config(Jit, C.ScheduleSeed);
  Req.ProgramName = C.Workload;
  auto PB = pinball::captureRegion(Req);
  EXPECT_TRUE(PB.hasValue()) << PB.message();
  if (!PB)
    return "";
  removeTree(Dir);
  Error E = PB->save(Dir);
  EXPECT_FALSE(E.isError()) << E.message();
  auto Names = listDirectory(Dir);
  EXPECT_TRUE(Names.hasValue()) << Names.message();
  if (!Names)
    return "";
  Sha256 H;
  for (const std::string &N : *Names) {
    auto Bytes = readFileBytes(Dir + "/" + N);
    EXPECT_TRUE(Bytes.hasValue()) << Bytes.message();
    if (!Bytes)
      return "";
    uint64_t Size = Bytes->size();
    H.update(N.c_str(), N.size() + 1);
    H.update(&Size, sizeof(Size));
    H.update(*Bytes);
  }
  return H.final().hex();
}

class CaptureGolden : public testing::TestWithParam<Case> {};

TEST_P(CaptureGolden, JitAndInterpreterMatchGolden) {
  const Case &C = GetParam();
  // One directory per case: ctest runs the cases as parallel processes.
  std::string Dir = testing::TempDir() + "/elfie_capture_golden_" + caseName(C);
  removeTree(Dir);
  ASSERT_FALSE(createDirectories(Dir).isError());
  std::string Path = Dir + "/" + C.Workload + ".elf";
  Error E = workloads::buildWorkloadFile(C.Workload, InputSet::Test, Path);
  ASSERT_FALSE(E.isError()) << E.message();
  uint64_t Total = totalRetired(Path, C.Workload, C.ScheduleSeed);
  ASSERT_GT(Total, 1000u);
  auto It = goldens().find(caseName(C));
  std::string Golden = It == goldens().end() ? "" : It->second;
  EXPECT_EQ(captureDigest(C, Path, Dir + "/jit", true, Total), Golden)
      << "JIT fast-forward";
  EXPECT_EQ(captureDigest(C, Path, Dir + "/interp", false, Total), Golden)
      << "interpreted";
  removeTree(Dir);
}

std::vector<Case> allCases() {
  std::vector<Case> Cases;
  for (const workloads::WorkloadInfo &W : workloads::registry()) {
    Cases.push_back({W.Name, true, 0});
    Cases.push_back({W.Name, false, 0});
    if (W.MultiThreaded) {
      Cases.push_back({W.Name, true, Seed});
      Cases.push_back({W.Name, false, Seed});
    }
  }
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, CaptureGolden,
                         testing::ValuesIn(allCases()),
                         [](const testing::TestParamInfo<Case> &I) {
                           return caseName(I.param);
                         });

} // namespace
