//===- analyze/cfg/CFG.h - conservative CFG over EG64 code ------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recovers a conservative control-flow graph from EG64 code without
/// executing it (DESIGN.md §13). EG64 makes this exact for direct control
/// flow: instructions are fixed 8-byte words and every control-flow target
/// must be 8-aligned, so linear disassembly cannot lose sync. Blocks are
/// decoded with the same shared walker the EVM's DecodeCache uses
/// (isa/BlockDecode.h), which keeps block shapes — and therefore the
/// JIT-translatability classification — identical between static analysis
/// and execution.
///
/// The walk is conservative in two documented ways: register-indirect
/// `jalr` targets are not resolved (each site is counted, and calls are
/// assumed to return to their fall-through point), and block-entry
/// register state is unknown, so only targets and addresses computable
/// from instruction immediates are checked. Violations found on *direct*
/// edges are definite corruption; fall-through-class edges may be
/// artifacts of those assumptions, which is what the EdgeKind on every
/// issue records.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_ANALYZE_CFG_CFG_H
#define ELFIE_ANALYZE_CFG_CFG_H

#include "analyze/cfg/CodeSource.h"
#include "isa/BlockDecode.h"
#include "vm/DecodeCache.h"

#include <map>
#include <set>
#include <span>
#include <vector>

namespace elfie {
namespace analyze {
namespace cfg {

/// How control reaches a target. Direct = encoded in the transferring
/// instruction (branch/jump displacement, `jalr r0` immediate, or an
/// analysis seed); Fall = fall-through, call-return resumption, post-
/// syscall resumption, or a page-boundary block split.
enum class EdgeKind : uint8_t { Direct, Fall };

/// One basic block: a straight-line decode starting at StartPC.
/// Overlapping blocks are possible (a jump into the middle of another
/// block starts a new one), exactly like the EVM's DecodeCache.
struct CFGBlock {
  uint64_t StartPC = 0;
  std::vector<isa::Inst> Insts;
  isa::BlockEnd End = isa::BlockEnd::Terminator;
  std::vector<uint64_t> Succs; ///< start PCs the walk continued into
  bool EndsInIndirect = false; ///< terminator is jalr with a register base
  bool HasJalrImmTarget = false; ///< terminator is `jalr rD, r0, imm`
  uint64_t JalrImmTarget = 0;

  uint64_t pcAt(size_t I) const { return StartPC + isa::InstSize * I; }
  uint64_t lastPC() const { return pcAt(Insts.size() - 1); }
};

/// A violation the walk ran into. PC is the offending address, FromPC the
/// control-transfer (or block start) that led there; Edge says whether
/// the path to it was direct (definite) or fall-through (conservative).
struct CFGIssue {
  enum Kind : uint8_t {
    TargetMisaligned, ///< control flow reaches a non-8-aligned address
    TargetUnmapped,   ///< target address is not mapped
    TargetNotExec,    ///< target page is mapped but not executable
    BadInst,          ///< reachable word does not decode
    FetchFault,       ///< reachable word cannot be read
  };
  Kind K;
  uint64_t PC = 0;
  uint64_t FromPC = 0;
  EdgeKind Edge = EdgeKind::Direct;
};

struct CFGOptions {
  /// Blocks never cross a page boundary (DecodeCache parity). 0 disables.
  uint64_t PageSize = vm::GuestPageSize;
  size_t MaxBlockInsts = vm::DecodeCache::MaxBlockInsts;
  /// Walk budget; hitting it sets CFG::Truncated.
  size_t MaxBlocks = 1 << 20;
  /// Treat `jalr rD, r0, imm` as a direct jump to imm and keep walking.
  /// The startup-reachability pass turns this off: there the jalr *is*
  /// the captured-PC jump and its target is validated by the caller.
  bool FollowJalrImm = true;
  /// Suppress the fall-through edge after a syscall whose number is
  /// statically known to be Exit/ExitGroup (dataflow-assisted; avoids
  /// walking into whatever follows a terminal exit).
  bool ExitAwareSyscalls = true;
};

/// The recovered graph.
struct CFG {
  std::map<uint64_t, CFGBlock> Blocks; ///< keyed by StartPC
  std::vector<uint64_t> Seeds;         ///< as given, in order
  std::vector<CFGIssue> Issues;
  std::set<uint64_t> InstPCs; ///< unique reachable instruction addresses
  uint64_t IndirectSites = 0; ///< unresolved register-indirect jalr sites
  bool Truncated = false;     ///< MaxBlocks budget hit

  const CFGBlock *block(uint64_t PC) const {
    auto It = Blocks.find(PC);
    return It == Blocks.end() ? nullptr : &It->second;
  }
};

/// Walks \p CS from every seed and returns the graph.
CFG buildCFG(const CodeSource &CS, std::span<const uint64_t> Seeds,
             const CFGOptions &Opts = {});

} // namespace cfg
} // namespace analyze
} // namespace elfie

#endif // ELFIE_ANALYZE_CFG_CFG_H
