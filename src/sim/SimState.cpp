//===- sim/SimState.cpp ---------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/SimState.h"

#include "support/FileIO.h"
#include "support/Format.h"

#include <cstring>

using namespace elfie;
using namespace elfie::sim;

namespace {

constexpr char SimStateMagic[8] = {'E', 'S', 'I', 'M', 'S', 'T', '0', '1'};
constexpr uint32_t SimStatsPayloadVersion = 1;

/// The parsed-but-not-applied form: header info plus the file offset of
/// each component payload (its size is the component's PayloadBytes).
struct ParsedSidecar {
  SimStateInfo Info;
  std::vector<size_t> PayloadOffsets;
};

/// Structural parse + seal verification. The reader is bounds-checked, so
/// parsing untrusted bytes before the seal check is safe; checking the
/// structure first yields a more precise taxonomy (TRUNCATED vs SEAL).
Expected<ParsedSidecar> parseSidecar(const std::vector<uint8_t> &Bytes) {
  if (Bytes.size() < sizeof(SimStateMagic) ||
      std::memcmp(Bytes.data(), SimStateMagic, sizeof(SimStateMagic)) != 0)
    return makeCodedError("EFAULT.SIMSTATE.MAGIC",
                          "not a warmup-checkpoint sidecar (bad magic)");
  BinaryReader R(Bytes.data(), Bytes.size());
  R.skip(sizeof(SimStateMagic));

  ParsedSidecar P;
  P.Info.FormatVersion = R.readU32();
  if (P.Info.FormatVersion != SimStateFormatVersion)
    return makeCodedError("EFAULT.SIMSTATE.VERSION",
                          "unsupported sidecar format version %u "
                          "(this build reads version %u)",
                          P.Info.FormatVersion, SimStateFormatVersion);

  SimStateMeta &Meta = P.Info.Meta;
  Meta.ConfigName = R.readString();
  R.readRaw(Meta.ConfigFP.Bytes.data(), Meta.ConfigFP.Bytes.size());
  R.readRaw(Meta.InputDigest.Bytes.data(), Meta.InputDigest.Bytes.size());
  Meta.WarmupInstructions = R.readU64();
  Meta.CheckpointRetired = R.readU64();
  Meta.DetailedBudget = R.readU64();

  uint32_t NumComponents = R.readU32();
  for (uint32_t I = 0; !R.hadError() && I < NumComponents; ++I) {
    SimStateComponentInfo CI;
    CI.Id = R.readString();
    CI.Version = R.readU32();
    std::span<const uint8_t> Payload = R.readBlobView();
    CI.PayloadBytes = Payload.size();
    P.Info.Components.push_back(std::move(CI));
    P.PayloadOffsets.push_back(Payload.data() - Bytes.data());
  }
  if (R.hadError() || R.remaining() != 32)
    return makeCodedError("EFAULT.SIMSTATE.TRUNCATED",
                          "sidecar structure is truncated or carries "
                          "trailing bytes (%zu bytes after the component "
                          "table, expected the 32-byte seal)",
                          R.hadError() ? static_cast<size_t>(0)
                                       : R.remaining());

  Sha256Digest Seal = Sha256::digest(Bytes.data(), Bytes.size() - 32);
  if (std::memcmp(Seal.Bytes.data(), Bytes.data() + Bytes.size() - 32, 32) !=
      0)
    return makeCodedError("EFAULT.SIMSTATE.SEAL",
                          "sidecar seal mismatch (content digest %s)",
                          Seal.hex().c_str());
  return P;
}

/// Entry \p I of the component table: the stats, core I-1, or the L3.
void saveComponent(const TimingModel &Model, size_t I, StateWriter &W) {
  if (I == 0)
    Model.stats().save(W);
  else if (I <= Model.numCores())
    Model.core(I - 1).saveState(W);
  else
    Model.l3().saveState(W);
}

Error loadComponent(TimingModel &Model, size_t I, StateReader &R) {
  if (I == 0)
    return Model.stats().load(R);
  if (I <= Model.numCores())
    return Model.core(I - 1).loadState(R);
  return Model.l3().loadState(R);
}

} // namespace

std::string sim::simStatePathFor(std::string InputPath) {
  while (InputPath.size() > 1 && InputPath.back() == '/')
    InputPath.pop_back();
  return InputPath + ".esimstate";
}

std::vector<SimStateComponentId>
sim::simStateComponentTable(const MachineConfig &Machine) {
  std::vector<SimStateComponentId> Table = {{"stats", SimStatsPayloadVersion}};
  for (unsigned I = 0; I < Machine.NumCores; ++I)
    Table.push_back({formatString("core%u", I), CoreState::StateVersion});
  Table.push_back({"l3", Cache::StateVersion});
  return Table;
}

std::vector<uint8_t> sim::encodeSimStateComponents(const TimingModel &Model) {
  std::vector<SimStateComponentId> Table =
      simStateComponentTable(Model.config());
  BinaryWriter W;
  W.writeU32(static_cast<uint32_t>(Table.size()));
  for (size_t I = 0; I < Table.size(); ++I) {
    BinaryWriter Payload;
    StateWriter SW(Payload);
    saveComponent(Model, I, SW);
    W.writeString(Table[I].Id);
    W.writeU32(Table[I].Version);
    W.writeBlob(Payload.bytes().data(), Payload.size());
  }
  return W.bytes();
}

Error sim::writeSimState(const std::string &Path, const SimStateMeta &Meta,
                         std::span<const uint8_t> Components) {
  BinaryWriter W;
  W.writeRaw(SimStateMagic, sizeof(SimStateMagic));
  W.writeU32(SimStateFormatVersion);
  W.writeString(Meta.ConfigName);
  W.writeRaw(Meta.ConfigFP.Bytes.data(), Meta.ConfigFP.Bytes.size());
  W.writeRaw(Meta.InputDigest.Bytes.data(), Meta.InputDigest.Bytes.size());
  W.writeU64(Meta.WarmupInstructions);
  W.writeU64(Meta.CheckpointRetired);
  W.writeU64(Meta.DetailedBudget);
  W.writeRaw(Components.data(), Components.size());
  Sha256Digest Seal = Sha256::digest(W.bytes().data(), W.size());
  W.writeRaw(Seal.Bytes.data(), Seal.Bytes.size());
  return writeFileAtomic(Path, W.bytes().data(), W.size())
      .withContext("writing warmup checkpoint '" + Path + "'");
}

Expected<SimStateInfo> sim::inspectSimState(const std::string &Path) {
  auto Bytes = readFileBytes(Path);
  if (!Bytes)
    return Bytes.takeError();
  auto P = parseSidecar(*Bytes);
  if (!P)
    return P.takeError().withContext("inspecting '" + Path + "'");
  return std::move(P->Info);
}

Error SimStateFile::fail(Error E) const {
  return E.withContext("loading warmup checkpoint '" + Path + "'");
}

Expected<SimStateFile> SimStateFile::open(const std::string &Path,
                                          const MachineConfig &Machine) {
  SimStateFile F;
  F.Path = Path;
  auto Bytes = readFileBytes(Path);
  if (!Bytes)
    return Bytes.takeError();
  F.Bytes = std::move(*Bytes);
  auto P = parseSidecar(F.Bytes);
  if (!P)
    return F.fail(P.takeError());
  F.Info = std::move(P->Info);
  F.PayloadOffsets = std::move(P->PayloadOffsets);

  const SimStateMeta &Meta = F.Info.Meta;
  Sha256Digest WantFP = configFingerprint(Machine);
  if (Meta.ConfigName != Machine.Name || Meta.ConfigFP != WantFP)
    return F.fail(makeCodedError(
        "EFAULT.SIMSTATE.CONFIG",
        "checkpoint was taken under config '%s' (fingerprint %.16s...), "
        "refusing to resume under '%s' (%.16s...)",
        Meta.ConfigName.c_str(), Meta.ConfigFP.hex().c_str(),
        Machine.Name.c_str(), WantFP.hex().c_str()));
  return F;
}

Error SimStateFile::checkInput(const Sha256Digest &InputDigest) const {
  if (Info.Meta.InputDigest == InputDigest)
    return Error::success();
  return fail(makeCodedError(
      "EFAULT.SIMSTATE.INPUT",
      "checkpoint belongs to a different input (sidecar digest %.16s..., "
      "input digest %.16s...)",
      Info.Meta.InputDigest.hex().c_str(), InputDigest.hex().c_str()));
}

Error SimStateFile::apply(TimingModel &Model) const {
  // The component table must be exactly what this machine enumerates.
  std::vector<SimStateComponentId> Want =
      simStateComponentTable(Model.config());
  if (Info.Components.size() != Want.size())
    return fail(makeCodedError(
        "EFAULT.SIMSTATE.COMPONENT",
        "component count mismatch: sidecar has %zu, machine expects %zu",
        Info.Components.size(), Want.size()));
  for (size_t I = 0; I < Want.size(); ++I) {
    const SimStateComponentInfo &CI = Info.Components[I];
    if (CI.Id != Want[I].Id)
      return fail(makeCodedError("EFAULT.SIMSTATE.COMPONENT",
                                 "component %zu is '%s', expected '%s'", I,
                                 CI.Id.c_str(), Want[I].Id.c_str()));
    if (CI.Version != Want[I].Version)
      return fail(makeCodedError(
          "EFAULT.SIMSTATE.VERSION",
          "component '%s' has payload version %u, this build reads %u",
          CI.Id.c_str(), CI.Version, Want[I].Version));
  }

  for (size_t I = 0; I < Want.size(); ++I) {
    const SimStateComponentInfo &CI = Info.Components[I];
    BinaryReader PR(Bytes.data() + PayloadOffsets[I], CI.PayloadBytes);
    StateReader SR(PR);
    if (Error E = loadComponent(Model, I, SR))
      return fail(std::move(E));
    if (PR.hadError() || !PR.atEnd())
      return fail(makeCodedError("EFAULT.SIMSTATE.COMPONENT",
                                 "component '%s' payload size mismatch",
                                 CI.Id.c_str()));
  }
  return Error::success();
}
