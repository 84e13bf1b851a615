//===- fault/FaultPlan.h - Deterministic I/O fault injection ---*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded fault-injection plan installed as the support-layer IOFaultHook.
/// Tools opt in explicitly (installFaultHookFromEnv reads ELFIE_FAULT_SPEC),
/// so production runs pay nothing; tests and the efault driver use it to
/// prove every writer is crash-safe and every reader fails closed.
///
/// Spec grammar (comma separated):  <op>:<nth>:<kind>[,seed=<n>]
///   op    = read | write           which I/O direction to target
///   nth   = 1-based operation index at which the fault fires
///   kind  = enospc | eio | short | flip | kill
/// Example: ELFIE_FAULT_SPEC="write:3:kill" kills the process on its third
/// file write, mid-emission — the atomic-rename discipline must leave no
/// partial artifact behind.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_FAULT_FAULTPLAN_H
#define ELFIE_FAULT_FAULTPLAN_H

#include "support/Error.h"
#include "support/FileIO.h"
#include "support/RNG.h"

#include <string>
#include <vector>

namespace elfie {
namespace fault {

/// One injected fault: fire on the Nth read or write.
struct FaultSpec {
  enum class Op { Read, Write };
  enum class Kind {
    Enospc, ///< fail the operation with an ENOSPC-style error
    Eio,    ///< fail the operation with an EIO-style error
    Short,  ///< truncate the data to a random prefix
    Flip,   ///< flip one random byte
    Kill,   ///< _exit the process (simulated power loss / SIGKILL)
  };
  Op O = Op::Write;
  uint64_t Nth = 1; ///< 1-based index of the matching operation
  Kind K = Kind::Eio;
};

/// Parses one "<op>:<nth>:<kind>" clause.
Expected<FaultSpec> parseFaultSpec(const std::string &Text);

/// A deterministic injection plan; implements the support-layer hook.
class FaultPlan : public IOFaultHook {
public:
  explicit FaultPlan(uint64_t Seed = 0) : Rand(Seed) {}

  void add(FaultSpec S) { Specs.push_back(S); }

  /// Parses a full ELFIE_FAULT_SPEC string ("write:2:flip,seed=7").
  Error parse(const std::string &SpecText);

  Error onWrite(const std::string &Path,
                std::vector<uint8_t> &Data) override;
  Error onRead(const std::string &Path, std::vector<uint8_t> &Data) override;

  uint64_t writesSeen() const { return Writes; }

private:
  Error apply(const FaultSpec &S, const std::string &Path,
              std::vector<uint8_t> &Data);
  std::vector<FaultSpec> Specs;
  RNG Rand;
  uint64_t Reads = 0;
  uint64_t Writes = 0;
};

/// If ELFIE_FAULT_SPEC is set, parses it and installs a process-lifetime
/// FaultPlan as the I/O hook. Returns true when a hook was installed;
/// prints to stderr and _exits with ExitUsage on a malformed spec. Writer
/// tools (elogger, pinball2elf, pinball_sysstate) call this first thing in
/// main().
bool installFaultHookFromEnv();

} // namespace fault
} // namespace elfie

#endif // ELFIE_FAULT_FAULTPLAN_H
