//===- analyze/cfg/CFG.cpp ------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analyze/cfg/CFG.h"
#include "analyze/cfg/Dataflow.h"

#include <deque>

using namespace elfie;
using namespace elfie::analyze;
using namespace elfie::analyze::cfg;
using isa::Opcode;

namespace {

struct WorkItem {
  uint64_t PC;
  uint64_t FromPC;
  EdgeKind Edge;
};

/// True when a syscall terminating a block provably never falls through:
/// its number register is a known Exit/ExitGroup at the syscall site.
bool syscallIsExit(const CFGBlock &B) {
  RegState S;
  for (size_t I = 0; I + 1 < B.Insts.size(); ++I)
    applyInst(B.Insts[I], B.pcAt(I), S);
  if (!S.known(isa::SysNrReg))
    return false;
  uint64_t Nr = S.get(isa::SysNrReg);
  return Nr == static_cast<uint64_t>(isa::Sys::Exit) ||
         Nr == static_cast<uint64_t>(isa::Sys::ExitGroup);
}

} // namespace

CFG cfg::buildCFG(const CodeSource &CS, std::span<const uint64_t> Seeds,
                  const CFGOptions &Opts) {
  CFG G;
  G.Seeds.assign(Seeds.begin(), Seeds.end());

  std::deque<WorkItem> Work;
  std::set<uint64_t> Queued; // block starts ever enqueued
  auto Push = [&](uint64_t PC, uint64_t From, EdgeKind Edge) {
    if (Queued.insert(PC).second)
      Work.push_back({PC, From, Edge});
  };
  for (uint64_t S : Seeds)
    Push(S, 0, EdgeKind::Direct);

  while (!Work.empty()) {
    WorkItem W = Work.front();
    Work.pop_front();
    if (G.Blocks.size() >= Opts.MaxBlocks) {
      G.Truncated = true;
      break;
    }

    // Validate the entry address before decoding; misaligned and
    // last-page targets never become blocks (the EVM would not cache
    // them either).
    if (W.PC % isa::InstSize != 0) {
      G.Issues.push_back({CFGIssue::TargetMisaligned, W.PC, W.FromPC, W.Edge});
      continue;
    }
    uint8_t Perm = CS.perm(W.PC);
    if (Perm == vm::PermNone) {
      G.Issues.push_back({CFGIssue::TargetUnmapped, W.PC, W.FromPC, W.Edge});
      continue;
    }
    if (!(Perm & vm::PermExec)) {
      G.Issues.push_back({CFGIssue::TargetNotExec, W.PC, W.FromPC, W.Edge});
      continue;
    }
    if (Opts.PageSize && W.PC > UINT64_MAX - Opts.PageSize) {
      // Starting in the last page would wrap the walker's page limit;
      // nothing legitimate lives there (the EVM falls back to per-step
      // decode and the emitters never place code that high).
      G.Issues.push_back({CFGIssue::TargetUnmapped, W.PC, W.FromPC, W.Edge});
      continue;
    }

    CFGBlock B;
    B.StartPC = W.PC;
    uint64_t EndPC = 0;
    B.End = isa::decodeStraightLine(
        [&](uint64_t P, uint8_t *Raw) { return CS.fetchWord(P, Raw); }, W.PC,
        Opts.PageSize, Opts.MaxBlockInsts, B.Insts, EndPC);

    if (B.Insts.empty()) {
      // The entry word itself is unreadable or undecodable. Permission
      // checks above passed, so a fetch failure here means the mapping
      // is shorter than a full word (or crosses into unmapped space).
      G.Issues.push_back({B.End == isa::BlockEnd::FetchFault
                              ? CFGIssue::FetchFault
                              : CFGIssue::BadInst,
                          EndPC, W.FromPC, W.Edge});
      continue;
    }

    for (size_t I = 0; I < B.Insts.size(); ++I)
      G.InstPCs.insert(B.pcAt(I));

    auto Succ = [&](uint64_t To, EdgeKind Edge) {
      B.Succs.push_back(To);
      Push(To, B.lastPC(), Edge);
    };

    switch (B.End) {
    case isa::BlockEnd::FetchFault:
    case isa::BlockEnd::BadEncoding: {
      // A valid prefix ran into a bad word: execution falling through the
      // prefix would fault there.
      G.Issues.push_back({B.End == isa::BlockEnd::FetchFault
                              ? CFGIssue::FetchFault
                              : CFGIssue::BadInst,
                          EndPC, B.StartPC, EdgeKind::Fall});
      break;
    }
    case isa::BlockEnd::PageBoundary:
    case isa::BlockEnd::Cap:
      // Straight-line continuation in the next block.
      Succ(EndPC, EdgeKind::Fall);
      break;
    case isa::BlockEnd::Terminator: {
      const isa::Inst &T = B.Insts.back();
      uint64_t TPC = B.lastPC();
      if (isa::isBranch(T.Op)) {
        Succ(TPC + T.Imm, EdgeKind::Direct);
        Succ(TPC + isa::InstSize, EdgeKind::Fall);
        break;
      }
      switch (T.Op) {
      case Opcode::Jmp:
        Succ(TPC + T.Imm, EdgeKind::Direct);
        break;
      case Opcode::Jal:
        Succ(TPC + T.Imm, EdgeKind::Direct);
        // Calls are assumed to return: resume after the call site.
        if (T.Rd != isa::RegZero)
          Succ(TPC + isa::InstSize, EdgeKind::Fall);
        break;
      case Opcode::Jalr:
        if (T.Rs1 == isa::RegZero) {
          B.HasJalrImmTarget = true;
          B.JalrImmTarget = static_cast<uint64_t>(
              static_cast<int64_t>(T.Imm));
          if (Opts.FollowJalrImm)
            Succ(B.JalrImmTarget, EdgeKind::Direct);
        } else {
          B.EndsInIndirect = true;
          ++G.IndirectSites;
        }
        // An indirect call still returns to its fall-through point; a
        // plain indirect jump (rd == r0, e.g. a return) does not.
        if (T.Rd != isa::RegZero)
          Succ(TPC + isa::InstSize, EdgeKind::Fall);
        break;
      case Opcode::Halt:
        break;
      case Opcode::Syscall:
        if (!(Opts.ExitAwareSyscalls && syscallIsExit(B)))
          Succ(TPC + isa::InstSize, EdgeKind::Fall);
        break;
      case Opcode::Marker:
        Succ(TPC + isa::InstSize, EdgeKind::Fall);
        break;
      default:
        // isBlockTerminator() admits nothing else.
        break;
      }
      break;
    }
    }

    G.Blocks.emplace(B.StartPC, std::move(B));
  }
  return G;
}
