//===- analyze/cfg/CodePasses.cpp -----------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analyze/cfg/CodePasses.h"
#include "analyze/cfg/Dataflow.h"

#include "pinball/Pinball.h"
#include "support/Format.h"
#include "support/Json.h"
#include "x86/JITEmitter.h"

#include <algorithm>
#include <optional>

using namespace elfie;
using namespace elfie::analyze;
using namespace elfie::analyze::cfg;
using isa::Opcode;

const char *cfg::sysFamilyName(SysFamily F) {
  switch (F) {
  case SysFamily::Exit:
    return "exit";
  case SysFamily::FileIO:
    return "file-io";
  case SysFamily::Heap:
    return "heap";
  case SysFamily::Clock:
    return "clock";
  case SysFamily::Thread:
    return "thread";
  }
  return "?";
}

SysFamily cfg::sysFamily(isa::Sys Nr) {
  switch (Nr) {
  case isa::Sys::Exit:
  case isa::Sys::ExitGroup:
    return SysFamily::Exit;
  case isa::Sys::Write:
  case isa::Sys::Read:
  case isa::Sys::Open:
  case isa::Sys::Close:
  case isa::Sys::Lseek:
    return SysFamily::FileIO;
  case isa::Sys::Brk:
  case isa::Sys::MmapAnon:
  case isa::Sys::Munmap:
    return SysFamily::Heap;
  case isa::Sys::ClockGetTimeNs:
    return SysFamily::Clock;
  case isa::Sys::Clone:
  case isa::Sys::GetTid:
  case isa::Sys::Yield:
    return SysFamily::Thread;
  }
  return SysFamily::Exit;
}

static bool validSysNr(uint64_t Nr) {
  return Nr <= static_cast<uint64_t>(isa::Sys::Munmap);
}

Provisioning cfg::provisioningFromPinball(const pinball::Pinball &PB) {
  Provisioning P;
  for (const pinball::SyscallRecord &R : PB.Syscalls)
    P.RecordedNrs.insert(R.Nr);
  return P;
}

unsigned CodeAnalysis::count(Severity S) const {
  unsigned N = 0;
  for (const Finding &F : Findings)
    if (F.Sev == S)
      ++N;
  return N;
}

namespace {

/// Per-site dataflow facts, merged across every block containing the site
/// (overlapping blocks can disagree because block-entry state differs; a
/// site resolved in any containing block counts as resolved).
struct SysSite {
  std::set<uint64_t> KnownNrs;
  bool Unknown = false;
};
struct MemSite {
  MemRef Ref;
  std::set<uint64_t> KnownAddrs;
  bool Unknown = false;
};

const char *issueCode(CFGIssue::Kind K) {
  switch (K) {
  case CFGIssue::TargetMisaligned:
    return "CODE.TARGET";
  case CFGIssue::TargetUnmapped:
    return "CODE.TARGET_UNMAPPED";
  case CFGIssue::TargetNotExec:
    return "CODE.TARGET_NOTEXEC";
  case CFGIssue::BadInst:
  case CFGIssue::FetchFault:
    return "CODE.BADINST";
  }
  return "CODE.TARGET";
}

/// The severity policy (DESIGN.md §13): a violation on a direct edge is
/// encoded in the instruction bytes — definite corruption — while a
/// fall-through-class edge may be an artifact of the conservative walk
/// (assumed call returns, unknown exit syscalls, page splits). Unmapped
/// targets additionally degrade on partial images, where the page may
/// simply not have been captured.
Severity issueSeverity(const CFGIssue &Q, bool CompleteImage) {
  if (Q.Edge != EdgeKind::Direct)
    return Severity::Warning;
  if (Q.K == CFGIssue::TargetUnmapped && !CompleteImage)
    return Severity::Warning;
  return Severity::Error;
}

std::string issueMessage(const CFGIssue &Q) {
  auto From = [&]() -> std::string {
    if (!Q.FromPC)
      return "seed (thread start PC or entry)";
    return formatString("%s at %#llx",
                        Q.Edge == EdgeKind::Direct ? "direct transfer"
                                                   : "fall-through",
                        static_cast<unsigned long long>(Q.FromPC));
  };
  unsigned long long PC = Q.PC;
  switch (Q.K) {
  case CFGIssue::TargetMisaligned:
    return formatString("control flow reaches misaligned address %#llx "
                        "(via %s)",
                        PC, From().c_str());
  case CFGIssue::TargetUnmapped:
    return formatString("control flow reaches unmapped address %#llx "
                        "(via %s)",
                        PC, From().c_str());
  case CFGIssue::TargetNotExec:
    return formatString("control flow reaches non-executable address "
                        "%#llx (via %s)",
                        PC, From().c_str());
  case CFGIssue::BadInst:
    return formatString("reachable word at %#llx does not decode as EG64 "
                        "(via %s)",
                        PC, From().c_str());
  case CFGIssue::FetchFault:
    return formatString("reachable word at %#llx cannot be read (via %s)",
                        PC, From().c_str());
  }
  return "";
}

} // namespace

CodeAnalysis cfg::analyzeCode(const CodeSource &CS,
                              std::span<const uint64_t> Seeds,
                              const AnalyzeOptions &Opts,
                              const Provisioning *Prov) {
  CodeAnalysis A;
  A.Graph = buildCFG(CS, Seeds, Opts.Walk);
  const CFG &G = A.Graph;
  CodeReport &R = A.Report;
  auto Add = [&](Severity S, const char *Code, uint64_t Addr,
                 std::string Msg) {
    A.Findings.push_back({S, Code, Addr, std::move(Msg)});
  };

  R.Seeds = Seeds.size();
  R.Blocks = G.Blocks.size();
  R.Insts = G.InstPCs.size();
  R.IndirectSites = G.IndirectSites;
  R.Truncated = G.Truncated;

  // Walk issues -> findings.
  for (const CFGIssue &Q : G.Issues)
    Add(issueSeverity(Q, Opts.CompleteImage), issueCode(Q.K), Q.PC,
        issueMessage(Q));

  // Per-site dataflow over every block (constants merged per unique PC).
  std::map<uint64_t, isa::Inst> ByPC;
  std::map<uint64_t, SysSite> SysAt;
  std::map<uint64_t, MemSite> MemAt;
  for (const auto &[Start, B] : G.Blocks) {
    RegState S;
    for (size_t I = 0; I < B.Insts.size(); ++I) {
      const isa::Inst &In = B.Insts[I];
      uint64_t PC = B.pcAt(I);
      ByPC.emplace(PC, In);
      if (In.Op == Opcode::Syscall) {
        SysSite &Site = SysAt[PC];
        if (S.known(isa::SysNrReg))
          Site.KnownNrs.insert(S.get(isa::SysNrReg));
        else
          Site.Unknown = true;
      }
      MemRef MR;
      if (memRef(In, MR)) {
        MemSite &Site = MemAt[PC];
        Site.Ref = MR;
        if (S.known(MR.AddrReg))
          Site.KnownAddrs.insert(S.get(MR.AddrReg) +
                                 static_cast<uint64_t>(MR.Disp));
        else
          Site.Unknown = true;
      }
      applyInst(In, PC, S);
    }
  }

  // --- Syscall footprint ---
  std::set<SysFamily> Reachable;
  for (const auto &[PC, Site] : SysAt) {
    if (Site.KnownNrs.empty() && Site.Unknown) {
      ++R.UnknownSyscallSites;
      continue;
    }
    for (uint64_t Nr : Site.KnownNrs) {
      ++R.SyscallSites[Nr];
      if (!validSysNr(Nr)) {
        Add(Severity::Warning, "CODE.SYSCALL_BAD", PC,
            formatString("syscall site at %#llx uses invalid number %llu",
                         static_cast<unsigned long long>(PC),
                         static_cast<unsigned long long>(Nr)));
        continue;
      }
      Reachable.insert(sysFamily(static_cast<isa::Sys>(Nr)));
    }
  }
  for (SysFamily F : Reachable)
    R.Families.push_back(sysFamilyName(F));
  if (Prov) {
    R.ProvisioningKnown = true;
    // The runtime natively serves every family except file I/O; file
    // proxies exist exactly for the calls the pinball's log recorded.
    std::set<SysFamily> Provisioned = {SysFamily::Exit, SysFamily::Heap,
                                       SysFamily::Clock, SysFamily::Thread};
    for (uint64_t Nr : Prov->RecordedNrs)
      if (validSysNr(Nr))
        Provisioned.insert(sysFamily(static_cast<isa::Sys>(Nr)));
    for (SysFamily F : Reachable)
      if (!Provisioned.count(F)) {
        R.Unprovisioned.push_back(sysFamilyName(F));
        Add(Severity::Warning, "CODE.SYSCALL_UNPROVISIONED", 0,
            formatString("reachable syscall family '%s' has no SYSSTATE "
                         "provisioning (no such call in the pinball log)",
                         sysFamilyName(F)));
      }
  }

  // --- Static memory footprint + SMC ---
  uint64_t UnknownStoreSites = 0;
  for (const auto &[PC, Site] : MemAt) {
    const MemRef &MR = Site.Ref;
    if (Site.KnownAddrs.empty()) {
      if (MR.IsLoad)
        ++R.UnknownLoads;
      if (MR.IsStore) {
        ++R.UnknownStores;
        ++UnknownStoreSites;
      }
      continue;
    }
    if (MR.IsLoad)
      ++R.ResolvedLoads;
    if (MR.IsStore)
      ++R.ResolvedStores;
    for (uint64_t Addr : Site.KnownAddrs) {
      uint64_t Last = Addr + (MR.Size ? MR.Size - 1 : 0);
      uint8_t P0 = CS.perm(Addr);
      uint8_t P1 = Last < Addr ? vm::PermNone : CS.perm(Last);
      uint8_t Both = P0 & P1;
      if (P0 == vm::PermNone || P1 == vm::PermNone) {
        Add(Opts.CompleteImage ? Severity::Error : Severity::Warning,
            "CODE.MEM_UNMAPPED", PC,
            formatString("%s at %#llx addresses unmapped memory %#llx",
                         MR.IsStore ? "store" : "load",
                         static_cast<unsigned long long>(PC),
                         static_cast<unsigned long long>(Addr)));
        continue;
      }
      if (MR.IsLoad && !(Both & vm::PermRead))
        Add(Severity::Error, "CODE.MEM_PERM", PC,
            formatString("load at %#llx reads non-readable memory %#llx",
                         static_cast<unsigned long long>(PC),
                         static_cast<unsigned long long>(Addr)));
      if (MR.IsStore && !(Both & vm::PermWrite))
        Add(Severity::Error, "CODE.MEM_PERM", PC,
            formatString("store at %#llx writes non-writable memory %#llx",
                         static_cast<unsigned long long>(PC),
                         static_cast<unsigned long long>(Addr)));
      if (MR.IsStore && (Both & vm::PermWrite) && (Both & vm::PermExec)) {
        ++R.SmcSites;
        Add(Severity::Warning, "CODE.SMC", PC,
            formatString("store at %#llx targets executable page %#llx "
                         "(self-modifying code: expect decode/JIT cache "
                         "invalidation traffic)",
                         static_cast<unsigned long long>(PC),
                         static_cast<unsigned long long>(
                             Addr & ~vm::GuestPageMask)));
      }
    }
  }
  R.WritableExecPages = CS.hasWritableExec();
  if (UnknownStoreSites && R.WritableExecPages)
    Add(Severity::Note, "CODE.SMC_POSSIBLE", 0,
        formatString("%llu store site(s) with unresolved targets while the "
                     "image maps writable+executable pages; self-modifying "
                     "code cannot be ruled out",
                     static_cast<unsigned long long>(UnknownStoreSites)));

  // --- JIT translatability ---
  for (const auto &[PC, In] : ByPC) {
    if (x86::jitNeedsInterpreter(In.Op))
      ++R.BailoutOps[isa::opcodeName(In.Op)];
    else
      ++R.TranslatableInsts;
  }

  // --- Summary notes ---
  if (R.Truncated)
    Add(Severity::Warning, "CODE.TRUNCATED", 0,
        formatString("walk stopped at the %llu-block budget; results below "
                     "are a lower bound",
                     static_cast<unsigned long long>(Opts.Walk.MaxBlocks)));
  Add(Severity::Note, "CODE.SUMMARY", 0,
      formatString("%llu seed(s): %llu block(s), %llu reachable "
                   "instruction(s), %llu unresolved indirect site(s)",
                   static_cast<unsigned long long>(R.Seeds),
                   static_cast<unsigned long long>(R.Blocks),
                   static_cast<unsigned long long>(R.Insts),
                   static_cast<unsigned long long>(R.IndirectSites)));
  {
    std::string Fam;
    for (const std::string &F : R.Families)
      Fam += (Fam.empty() ? "" : ", ") + F;
    if (Fam.empty() && !R.UnknownSyscallSites)
      Fam = "none";
    Add(Severity::Note, "CODE.SYSCALLS", 0,
        formatString("reachable syscall families: %s (%llu unresolved "
                     "site(s))",
                     Fam.empty() ? "unknown" : Fam.c_str(),
                     static_cast<unsigned long long>(
                         R.UnknownSyscallSites)));
  }
  Add(Severity::Note, "CODE.JIT", 0,
      formatString("jit-translatable: %.1f%% (%llu of %llu reachable "
                   "instructions)",
                   R.translatablePct(),
                   static_cast<unsigned long long>(R.TranslatableInsts),
                   static_cast<unsigned long long>(R.Insts)));
  return A;
}

//===----------------------------------------------------------------------===//
// Renderers
//===----------------------------------------------------------------------===//

std::string cfg::renderCodeText(const CodeAnalysis &A) {
  const CodeReport &R = A.Report;
  std::string Out;
  Out += formatString("blocks: %llu  insts: %llu  indirect-sites: %llu%s\n",
                      static_cast<unsigned long long>(R.Blocks),
                      static_cast<unsigned long long>(R.Insts),
                      static_cast<unsigned long long>(R.IndirectSites),
                      R.Truncated ? "  (truncated)" : "");
  Out += "syscalls:";
  if (R.SyscallSites.empty() && !R.UnknownSyscallSites)
    Out += " none";
  for (const auto &[Nr, N] : R.SyscallSites)
    Out += formatString(" nr%llu x%llu",
                        static_cast<unsigned long long>(Nr),
                        static_cast<unsigned long long>(N));
  if (R.UnknownSyscallSites)
    Out += formatString(" unknown x%llu", static_cast<unsigned long long>(
                                              R.UnknownSyscallSites));
  Out += '\n';
  Out += formatString("memory: loads %llu resolved / %llu unknown; stores "
                      "%llu resolved / %llu unknown\n",
                      static_cast<unsigned long long>(R.ResolvedLoads),
                      static_cast<unsigned long long>(R.UnknownLoads),
                      static_cast<unsigned long long>(R.ResolvedStores),
                      static_cast<unsigned long long>(R.UnknownStores));
  Out += formatString("smc: %llu known site(s); writable+exec pages: %s\n",
                      static_cast<unsigned long long>(R.SmcSites),
                      R.WritableExecPages ? "yes" : "no");
  Out += formatString("jit: %.1f%% translatable (%llu of %llu)",
                      R.translatablePct(),
                      static_cast<unsigned long long>(R.TranslatableInsts),
                      static_cast<unsigned long long>(R.Insts));
  for (const auto &[Op, N] : R.BailoutOps)
    Out += formatString(" %s=%llu", Op.c_str(),
                        static_cast<unsigned long long>(N));
  Out += '\n';
  Report Rep;
  for (const Finding &F : A.Findings)
    Rep.add(F.Sev, F.Code, F.Addr, F.Message);
  Out += Rep.renderText();
  return Out;
}

std::string cfg::renderCodeJSON(const CodeAnalysis &A) {
  const CodeReport &R = A.Report;
  JsonWriter W;
  W.beginObject();
  W.key("schema").value(ReportSchemaVersion);
  W.key("tool").value("ecfg");
  W.key("seeds").value(R.Seeds);
  W.key("blocks").value(R.Blocks);
  W.key("insts").value(R.Insts);
  W.key("indirect_sites").value(R.IndirectSites);
  W.key("truncated").value(R.Truncated);
  W.key("syscalls").beginObject().key("sites").beginObject();
  for (const auto &[Nr, N] : R.SyscallSites)
    W.key(std::to_string(Nr)).value(N);
  W.endObject();
  W.key("unknown_sites").value(R.UnknownSyscallSites);
  W.key("families").beginArray();
  for (const std::string &F : R.Families)
    W.value(F);
  W.endArray().key("unprovisioned").beginArray();
  for (const std::string &F : R.Unprovisioned)
    W.value(F);
  W.endArray();
  W.key("provisioning_known").value(R.ProvisioningKnown);
  W.endObject();
  W.key("memory").beginObject();
  W.key("resolved_loads").value(R.ResolvedLoads);
  W.key("unknown_loads").value(R.UnknownLoads);
  W.key("resolved_stores").value(R.ResolvedStores);
  W.key("unknown_stores").value(R.UnknownStores);
  W.endObject();
  W.key("smc").beginObject();
  W.key("known_sites").value(R.SmcSites);
  W.key("writable_exec_pages").value(R.WritableExecPages);
  W.endObject();
  W.key("jit").beginObject();
  W.key("translatable_insts").value(R.TranslatableInsts);
  W.key("translatable_pct").value(R.translatablePct(), 1);
  W.key("bailouts").beginObject();
  for (const auto &[Op, N] : R.BailoutOps)
    W.key(Op).value(N);
  W.endObject().endObject();
  writeFindingsJSON(W, A.Findings);
  W.endObject();
  return W.str() + "\n";
}

std::string cfg::renderCodeDot(const CodeAnalysis &A) {
  // Graphviz rendering of the recovered CFG. Bailout blocks (those with
  // at least one interpreter-bailout instruction) are shaded; dashed
  // edges are fall-through-class, solid edges direct.
  constexpr size_t MaxNodes = 2000;
  const CFG &G = A.Graph;
  std::string Out = "digraph cfg {\n  node [shape=box, fontname=\"mono\"];\n";
  size_t N = 0;
  for (const auto &[Start, B] : G.Blocks) {
    if (++N > MaxNodes) {
      Out += formatString("  // %llu more block(s) omitted\n",
                          static_cast<unsigned long long>(G.Blocks.size() -
                                                          MaxNodes));
      break;
    }
    bool Bails = false;
    for (const isa::Inst &I : B.Insts)
      if (x86::jitNeedsInterpreter(I.Op))
        Bails = true;
    Out += formatString("  \"0x%llx\" [label=\"0x%llx\\n%zu inst(s)%s\"%s];\n",
                        static_cast<unsigned long long>(Start),
                        static_cast<unsigned long long>(Start),
                        B.Insts.size(), Bails ? "\\nbails" : "",
                        Bails ? ", style=filled, fillcolor=lightgray" : "");
    for (uint64_t To : B.Succs)
      Out += formatString("  \"0x%llx\" -> \"0x%llx\";\n",
                          static_cast<unsigned long long>(Start),
                          static_cast<unsigned long long>(To));
    if (B.EndsInIndirect)
      Out += formatString("  \"0x%llx\" -> \"indirect\" [style=dotted];\n",
                          static_cast<unsigned long long>(Start));
  }
  Out += "}\n";
  return Out;
}
