//===- sim/SimState.cpp ---------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/SimState.h"

#include "support/FileIO.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace elfie;
using namespace elfie::sim;

namespace {

constexpr char SimStateMagic[8] = {'E', 'S', 'I', 'M', 'S', 'T', '0', '1'};
constexpr uint32_t SimStatsPayloadVersion = 1;

/// Entry \p I of the component table: the stats, core I-1, or the L3.
void saveComponent(const TimingModel &Model, size_t I, StateWriter &W) {
  if (I == 0)
    Model.stats().save(W);
  else if (I <= Model.numCores())
    Model.core(I - 1).saveState(W);
  else
    Model.l3().saveState(W);
}

/// The header of \p Meta: everything before the component table.
void writeHeader(BinaryWriter &W, const SimStateMeta &Meta) {
  W.writeRaw(SimStateMagic, sizeof(SimStateMagic));
  W.writeU32(SimStateFormatVersion);
  W.writeString(Meta.ConfigName);
  W.writeRaw(Meta.ConfigFP.Bytes.data(), Meta.ConfigFP.Bytes.size());
  W.writeRaw(Meta.InputDigest.Bytes.data(), Meta.InputDigest.Bytes.size());
  W.writeU64(Meta.WarmupInstructions);
  W.writeU64(Meta.CheckpointRetired);
  W.writeU64(Meta.DetailedBudget);
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
  // A sizing pass, so the table is encoded once, into the final buffer,
  // behind a blank header of the same size and ahead of the seal.
  SimStateMeta Blank;
  Blank.ConfigName = Model.config().Name;
  BinaryWriter W;
  writeHeader(W, Blank);
  std::vector<uint32_t> Sizes;
  size_t Bytes = W.size() + 4 + 32;
  for (size_t I = 0; I < Table.size(); ++I) {
    StateWriter Count;
    saveComponent(Model, I, Count);
    Sizes.push_back(static_cast<uint32_t>(Count.size()));
    Bytes += 4 + Table[I].Id.size() + 4 + 4 + Count.size();
  }
  W.reserve(Bytes);
  W.writeU32(static_cast<uint32_t>(Table.size()));
  for (size_t I = 0; I < Table.size(); ++I) {
    W.writeString(Table[I].Id);
    W.writeU32(Table[I].Version);
    W.writeU32(Sizes[I]); // the payload's blob length
    StateWriter SW(W);
    saveComponent(Model, I, SW);
  }
  W.writeRaw(Sha256Digest().Bytes.data(), 32);
  return W.take();
}

Error sim::writeSimState(const std::string &Path, const SimStateMeta &Meta,
                         std::vector<uint8_t> Sidecar) {
  BinaryWriter Header;
  writeHeader(Header, Meta);
  // The blank header in front is as long as this one when their first 16
  // bytes (magic, version, config name length) agree.
  assert(Sidecar.size() >= Header.size() + 4 + 32 &&
         std::equal(Sidecar.begin(), Sidecar.begin() + 16,
                    Header.bytes().begin()) &&
         "the sidecar was encoded for a config name of another length");
  std::memcpy(Sidecar.data(), Header.bytes().data(), Header.size());
  size_t Sealed = Sidecar.size() - 32;
  Sha256Digest Seal = Sha256::digest(Sidecar.data(), Sealed);
  std::memcpy(Sidecar.data() + Sealed, Seal.Bytes.data(), 32);
  return writeFileAtomic(Path, Sidecar.data(), Sidecar.size())
      .withContext("writing warmup checkpoint '" + Path + "'");
}

Error sim::checkWarmupBudget(uint64_t Warmup, uint64_t Region) {
  if (Warmup < Region)
    return Error::success();
  return makeCodedError(
      "EFAULT.SIMSTATE.BUDGET",
      "warmup length %llu must be smaller than the region length %llu",
      static_cast<unsigned long long>(Warmup),
      static_cast<unsigned long long>(Region));
}

Error SimStateFile::fail(Error E) const {
  return E.withContext("loading warmup checkpoint '" + Path + "'");
}

Expected<SimStateFile> SimStateFile::open(const std::string &Path) {
  SimStateFile F;
  F.Path = Path;
  auto Bytes = readFileBytes(Path);
  if (!Bytes)
    return Bytes.takeError();
  F.Bytes = std::move(*Bytes);
  const std::vector<uint8_t> &B = F.Bytes;

  // The reader is bounds-checked, so parsing untrusted bytes before the
  // seal check is safe; checking the structure first yields a more
  // precise taxonomy (TRUNCATED vs SEAL).
  if (B.size() < sizeof(SimStateMagic) ||
      std::memcmp(B.data(), SimStateMagic, sizeof(SimStateMagic)) != 0)
    return F.fail(
        makeCodedError("EFAULT.SIMSTATE.MAGIC",
                       "not a warmup-checkpoint sidecar (bad magic)"));
  BinaryReader R(B.data(), B.size());
  R.skip(sizeof(SimStateMagic));
  uint32_t FormatVersion = R.readU32();
  if (FormatVersion != SimStateFormatVersion)
    return F.fail(makeCodedError("EFAULT.SIMSTATE.VERSION",
                                 "unsupported sidecar format version %u "
                                 "(this build reads version %u)",
                                 FormatVersion, SimStateFormatVersion));

  SimStateMeta &Meta = F.Meta;
  Meta.ConfigName = R.readString();
  R.readRaw(Meta.ConfigFP.Bytes.data(), Meta.ConfigFP.Bytes.size());
  R.readRaw(Meta.InputDigest.Bytes.data(), Meta.InputDigest.Bytes.size());
  Meta.WarmupInstructions = R.readU64();
  Meta.CheckpointRetired = R.readU64();
  Meta.DetailedBudget = R.readU64();

  uint32_t NumComponents = R.readU32();
  for (uint32_t I = 0; I < NumComponents; ++I) {
    Component C;
    C.Id = R.readString();
    C.Version = R.readU32();
    std::span<const uint8_t> Payload = R.readBlobView();
    if (R.hadError())
      break;
    C.Offset = Payload.data() - B.data();
    C.Size = Payload.size();
    F.Components.push_back(std::move(C));
  }
  if (R.hadError() || R.remaining() != 32)
    return F.fail(makeCodedError(
        "EFAULT.SIMSTATE.TRUNCATED",
        "sidecar structure is truncated or carries trailing bytes (%zu "
        "bytes after the component table, expected the 32-byte seal)",
        R.hadError() ? static_cast<size_t>(0) : R.remaining()));

  Sha256Digest Seal = Sha256::digest(B.data(), B.size() - 32);
  if (std::memcmp(Seal.Bytes.data(), B.data() + B.size() - 32, 32) != 0)
    return F.fail(makeCodedError("EFAULT.SIMSTATE.SEAL",
                                 "sidecar seal mismatch (content digest %s)",
                                 Seal.hex().c_str()));
  return F;
}

Error SimStateFile::checkConfig(const MachineConfig &Machine) const {
  Sha256Digest WantFP = configFingerprint(Machine);
  if (Meta.ConfigName == Machine.Name && Meta.ConfigFP == WantFP)
    return Error::success();
  return fail(makeCodedError(
      "EFAULT.SIMSTATE.CONFIG",
      "checkpoint was taken under config '%s' (fingerprint %.16s...), "
      "refusing to resume under '%s' (%.16s...)",
      Meta.ConfigName.c_str(), Meta.ConfigFP.hex().c_str(),
      Machine.Name.c_str(), WantFP.hex().c_str()));
}

Error SimStateFile::checkInput(const Sha256Digest &InputDigest) const {
  if (Meta.InputDigest == InputDigest)
    return Error::success();
  return fail(makeCodedError(
      "EFAULT.SIMSTATE.INPUT",
      "checkpoint belongs to a different input (sidecar digest %.16s..., "
      "input digest %.16s...)",
      Meta.InputDigest.hex().c_str(), InputDigest.hex().c_str()));
}

Error SimStateFile::apply(TimingModel &Model) const {
  // The component table must be exactly what this machine enumerates.
  std::vector<SimStateComponentId> Want =
      simStateComponentTable(Model.config());
  if (Components.size() != Want.size())
    return fail(makeCodedError(
        "EFAULT.SIMSTATE.COMPONENT",
        "component count mismatch: sidecar has %zu, machine expects %zu",
        Components.size(), Want.size()));
  for (size_t I = 0; I < Want.size(); ++I) {
    const Component &C = Components[I];
    if (C.Id != Want[I].Id)
      return fail(makeCodedError("EFAULT.SIMSTATE.COMPONENT",
                                 "component %zu is '%s', expected '%s'", I,
                                 C.Id.c_str(), Want[I].Id.c_str()));
    if (C.Version != Want[I].Version)
      return fail(makeCodedError(
          "EFAULT.SIMSTATE.VERSION",
          "component '%s' has payload version %u, this build reads %u",
          C.Id.c_str(), C.Version, Want[I].Version));
  }

  for (size_t I = 0; I < Want.size(); ++I) {
    const Component &C = Components[I];
    BinaryReader PR(Bytes.data() + C.Offset, C.Size);
    StateReader SR(PR);
    if (Error E = loadComponent(Model, I, SR))
      return fail(std::move(E));
    if (PR.hadError() || !PR.atEnd())
      return fail(makeCodedError("EFAULT.SIMSTATE.COMPONENT",
                                 "component '%s' payload size mismatch",
                                 C.Id.c_str()));
  }
  return Error::success();
}
