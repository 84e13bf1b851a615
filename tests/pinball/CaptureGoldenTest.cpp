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
/// multi-threaded workloads. Every case must reproduce its goldens with the
/// JIT on (eager threshold, so the fast-forward and the region both run
/// compiled) and with the JIT off.
///
/// Each case has two goldens. The first was recorded from version-1
/// pinballs, before capture ran compiled and before zero pages were
/// written as payload-free records; it is checked against the version-1
/// rendering of the saved files (version word 1, each zero record expanded
/// to 4,096 zero bytes), so it still pins every captured byte, schedule
/// slice and first-use count. The second pins the version-2 files as
/// written.
///
//===----------------------------------------------------------------------===//

#include "pinball/Logger.h"

#include "pinball/Pinball.h"
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

// Version-1 digests, recorded with the per-instruction scheduler loops the
// VM had before run(), runThread() and stepThread() shared one dispatch
// slice, and with the region interpreted under an Instruction observer.
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

// Version-2 digests of the files as saved (zero pages as payload-free
// records).
const std::map<std::string, std::string> &goldensV2() {
  static const std::map<std::string, std::string> G = {
      {"perlbench_like_fat",
       "f7bd405508465d87fd8db2afd1002aeb87e89c08d8c401f1e3cedc7214f2b9f0"},
      {"perlbench_like_lazy",
       "26dc2d6fdde34024401ab430832e141cc2b4f1b5c811d06f6be10956e3b872b7"},
      {"gcc_like_fat",
       "e8bbcbb2f0c0ceee8168b8d36c852481067e37cfa25ccedc16a09ab02b71fd52"},
      {"gcc_like_lazy",
       "04f8da9380935ba08abd80d6511b64d5c3251244c1acc521e56acde46eb3748e"},
      {"mcf_like_fat",
       "db93e4e497b3fe8824129c6f05d5612b137afeb5b73b841f1896196dc49ab453"},
      {"mcf_like_lazy",
       "4b6977cd840a9a00c034e2446ee885a968cc19c09d53b8d866fc5de5b3b3c3ac"},
      {"omnetpp_like_fat",
       "f73f1897d4432b43990f79bf6f6c0d6fb3b6dbc5236a8ed56694e303f03f6f37"},
      {"omnetpp_like_lazy",
       "6a620ea1e1bd652affc8f97dd0d223e4f3c27696b00e6fd5cc87194c81af1f8e"},
      {"xalancbmk_like_fat",
       "6ad0d760d9a8251c37eeb8cbe87c79656e6d3fe1cf0b5c05ed8f067e4913a43f"},
      {"xalancbmk_like_lazy",
       "e1a3e1b706b5b6d488cf3a0cbd11253d71609e2164beb0f4907c0386b2dc5b13"},
      {"x264_like_fat",
       "9bde63ee9298baf9b0ec6a327eee0dd536138dad05292d96f67bd569945850f8"},
      {"x264_like_lazy",
       "9276a6164b43c6691c1024b49f4335620b20b7a911888fe4e4521a0eb0fe4e46"},
      {"deepsjeng_like_fat",
       "fa6709033df9d289397f029d2baa6b189ba51a242f47b252cd79dab6d03ab553"},
      {"deepsjeng_like_lazy",
       "5dd12a0939cf8ff0b269af924f45e49a66cd592e6a9cccef866c3cbce1a67534"},
      {"leela_like_fat",
       "e76287ef5d183ae81bf7d9ba76f45ef062bf31c661e1530136f7befce878c18e"},
      {"leela_like_lazy",
       "0114f3b46659fa55191c9150fd3c6525822ffb8de8f277e683253a9af53bf324"},
      {"exchange2_like_fat",
       "490fa63b29b81ac48d59c33fb6337556f58cfe13ca0ca81fa9f56c029273e540"},
      {"exchange2_like_lazy",
       "98bdb89e3fee60b731af91f2070e1ea042fd7f3f3f3c286e185c9ab98f02c96c"},
      {"xz_like_fat",
       "96a4d552847843a28b326140ee26c5610727361fcef1c88806c4fb4ce9791018"},
      {"xz_like_lazy",
       "29330d60246a13e6450251dae9cc9bfd79074d1fb375d81dd01eac7a623353a6"},
      {"lbm_like_fat",
       "145bc18633868900085b1399d951833555c89840da76700eb48877c2ec739b88"},
      {"lbm_like_lazy",
       "f5be4dab675fc07f145ac525ac8cb8adfda2ca9dff4ef19e4b3c5b039d8e43e0"},
      {"namd_like_fat",
       "1d470271286e423a9723a12aec22126b5f727ef4cc1cf4dc80e07201ff437a6b"},
      {"namd_like_lazy",
       "1706d79c2b75b58d017b527e0bf4b94c562a148db076ccac41a96818bbf98b65"},
      {"povray_like_fat",
       "9c2de74b92f19cfd1cb99fc0bef793a7f138e1c57f7b56b6594fa5b74cab051d"},
      {"povray_like_lazy",
       "e691664611808c4b7ab4d6844a3bc53e6c87ce5044434377d5835ad1d3ecb91d"},
      {"roms_like_fat",
       "bee601003b8b4417a6688b17c43bd172e14eec693d1ea841f05cd13642ab3226"},
      {"roms_like_lazy",
       "0f8728dec6704cb6b5701981853924c55709e30b01473fbaacb1b0038bbeb0e3"},
      {"fotonik3d_like_fat",
       "d3ffc59618e750155b18cb7e8a0546317b2d1d245655217a1eb973c30b5495b0"},
      {"fotonik3d_like_lazy",
       "a9c039abc459b25a1e82038c6894ff2337d5e061e1a7822f8c493c5717af6c29"},
      {"cactus_like_fat",
       "f7f68a4af6b40291c699693760e404b6278496ad6158f7e03e4042dfbbff263f"},
      {"cactus_like_lazy",
       "d01575ef70813b61001558c2affad456739251acd4924327a3b68d1130f059eb"},
      {"xz_s_fat",
       "15996ea4da06054cab379e9fcb904a814196e12c8058d1d40abfa42850cd3dc0"},
      {"xz_s_lazy",
       "29ed0e9d143a3a6d0fb6fbc13cdf14c4c6ac6b9d23b2b6b0ef9b5932d8802141"},
      {"bwaves_s_like_fat",
       "a60e962194a6da3e1fc85a4fc005a8666858a836805878b5816153398ce8f8c6"},
      {"bwaves_s_like_lazy",
       "dd0961d298f9851f25ddb7c3161b6784ddacd0b5460cc4f77952ab2609d9b0d0"},
      {"bwaves_s_like_fat_seeded",
       "cc17ef4b0b55c17df6f3d87a9915849a241a44a29b13acb7c725e9d1a6d4c033"},
      {"bwaves_s_like_lazy_seeded",
       "22c9d68b7dfdbfb124ea2a70d610649e6aa04ee078cd447cf1c5b0f9aa02b94b"},
      {"lbm_s_like_fat",
       "5c13dde0dce29a9f733cea2bf61376377fd5ce71e83647eca53754bfbed6f9d3"},
      {"lbm_s_like_lazy",
       "c2b064beafe00b8d11776a944deddf128a33675d808ec780929329564f3b6650"},
      {"lbm_s_like_fat_seeded",
       "6a9855219230b480888e15e9fe2d7eed514b90c6b67bec707b8b8be5d2fbb2eb"},
      {"lbm_s_like_lazy_seeded",
       "09d95ccb106ee1ddd0f0d2d09928741542e8fa58780d7b8371f018670911b027"},
      {"imagick_s_like_fat",
       "3b0873bb3ef7715a370237f373f95a029c018aa3b9f4d5de357e44696775994c"},
      {"imagick_s_like_lazy",
       "04cffb27614517c1b5d3644ff2a87de24b7913ac026eef1b1ae5b913ec87a1da"},
      {"imagick_s_like_fat_seeded",
       "bf3ddfe3870acd67797726fcaeadfe31f399785741e85657fd8fe9718be0177c"},
      {"imagick_s_like_lazy_seeded",
       "147702b5db7c273e754c193291f2e45146918f407f96263c15fa4d398f54c20d"},
      {"nab_s_like_fat",
       "f2cb6741230b923d46a8271304c633ad4ac8f8900c7607d29516c4c5d3c9e4e4"},
      {"nab_s_like_lazy",
       "99b89ee66a502c4f189bd2ac0a9a5b3be3c5dfd3f50143b5261f0b2b099d55bc"},
      {"nab_s_like_fat_seeded",
       "92b576c891181de49a77ec1add747e76c968aa684af890a4ef9cce04674702b6"},
      {"nab_s_like_lazy_seeded",
       "8d9eea8166237af89cf3f5aef2f2654c1dc6eac2042a23cb7187867c759cae7a"},
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

/// The version-1 bytes of the saved version-2 pinball file \p Name: the
/// header's version word becomes 1 and, in the page files, every
/// payload-free (zero) page record gets its 4,096 zero bytes back.
std::vector<uint8_t> denseV1(const std::string &Name,
                             const std::vector<uint8_t> &Bytes) {
  if (Name == "output.log" || Bytes.size() < 12)
    return Bytes;
  std::vector<uint8_t> Out = Bytes;
  uint32_t V1 = 1;
  std::memcpy(Out.data() + 4, &V1, sizeof(V1));
  const bool Inject = Name == "inject.pages";
  if (Name != "image.text" && !Inject)
    return Out;
  BinaryReader R(Bytes);
  R.skip(12);
  uint32_t N = R.readU32();
  BinaryWriter W;
  W.writeRaw(Out.data(), 16);
  const std::vector<uint8_t> Zero(vm::GuestPageSize, 0);
  for (uint32_t I = 0; I < N && !R.hadError(); ++I) {
    if (Inject)
      W.writeU64(R.readU64()); // FirstUseIcount
    W.writeU64(R.readU64());   // page address
    W.writeU8(R.readU8());     // permissions
    std::span<const uint8_t> Blob = R.readBlobView();
    if (Blob.empty())
      W.writeBlob(Zero.data(), Zero.size());
    else
      W.writeBlob(Blob.data(), Blob.size());
  }
  EXPECT_FALSE(R.hadError()) << Name;
  EXPECT_TRUE(R.atEnd()) << Name;
  return W.bytes();
}

/// The pinball saved at \p Dir loads back with \p PB's pages, page for
/// page: addresses, permissions, bytes, zero-page borrows, first-use counts.
void expectLoadsPageForPage(const pinball::Pinball &PB,
                            const std::string &Dir) {
  auto Loaded = pinball::Pinball::load(Dir);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  auto Same = [](const pinball::PageRecord &A, const pinball::PageRecord &B) {
    EXPECT_EQ(A.Addr, B.Addr);
    EXPECT_EQ(A.Perm, B.Perm) << std::hex << A.Addr;
    EXPECT_EQ(A.Bytes.isZero(), B.Bytes.isZero()) << std::hex << A.Addr;
    EXPECT_TRUE(A.Bytes == B.Bytes) << std::hex << A.Addr;
  };
  ASSERT_EQ(Loaded->Image.size(), PB.Image.size());
  for (size_t I = 0; I < PB.Image.size(); ++I)
    Same(Loaded->Image[I], PB.Image[I]);
  ASSERT_EQ(Loaded->Injects.size(), PB.Injects.size());
  for (size_t I = 0; I < PB.Injects.size(); ++I) {
    EXPECT_EQ(Loaded->Injects[I].FirstUseIcount, PB.Injects[I].FirstUseIcount);
    Same(Loaded->Injects[I].Page, PB.Injects[I].Page);
  }
}

struct Digests {
  std::string DenseV1; ///< over the version-1 rendering of each file
  std::string V2;      ///< over the files as saved
};

/// Captures the case's region from the program at \p Path, saves it under
/// \p Dir, checks that it loads back page for page, and returns two
/// SHA-256 digests over every saved file, in name order: each file
/// contributes its name, a NUL, its size and its bytes (version-1
/// rendering, then as saved).
Digests captureDigest(const Case &C, const std::string &Path,
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
    return {};
  removeTree(Dir);
  Error E = PB->save(Dir);
  EXPECT_FALSE(E.isError()) << E.message();
  expectLoadsPageForPage(*PB, Dir);
  auto Names = listDirectory(Dir);
  EXPECT_TRUE(Names.hasValue()) << Names.message();
  if (!Names)
    return {};
  Sha256 HDense, HV2;
  auto Add = [](Sha256 &H, const std::string &N,
                const std::vector<uint8_t> &Bytes) {
    uint64_t Size = Bytes.size();
    H.update(N.c_str(), N.size() + 1);
    H.update(&Size, sizeof(Size));
    H.update(Bytes);
  };
  for (const std::string &N : *Names) {
    auto Bytes = readFileBytes(Dir + "/" + N);
    EXPECT_TRUE(Bytes.hasValue()) << Bytes.message();
    if (!Bytes)
      return {};
    Add(HDense, N, denseV1(N, *Bytes));
    Add(HV2, N, *Bytes);
  }
  return {HDense.final().hex(), HV2.final().hex()};
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
  auto Golden = [&](const std::map<std::string, std::string> &G) {
    auto It = G.find(caseName(C));
    return It == G.end() ? std::string() : It->second;
  };
  for (bool Jit : {true, false}) {
    Digests D = captureDigest(C, Path, Dir + (Jit ? "/jit" : "/interp"),
                              Jit, Total);
    const char *Mode = Jit ? "JIT" : "interpreted";
    EXPECT_EQ(D.DenseV1, Golden(goldens())) << Mode << ", version-1 rendering";
    EXPECT_EQ(D.V2, Golden(goldensV2())) << Mode << ", version-2 files";
  }
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
