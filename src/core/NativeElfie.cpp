//===- core/NativeElfie.cpp - native x86-64 ELFie emission ----------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Emits a native, statically linked x86-64 ELFie from a pinball:
/// startup code (stack remap, sysstate preopen, thread creation), the
/// runtime (syscall stub, graceful/ungraceful exits, perfle reporting),
/// the AOT translation of the guest code pages, and the data image.
/// See core/Pinball2Elf.h for the big picture.
///
//===----------------------------------------------------------------------===//

#include "core/Pinball2Elf.h"

#include "elf/ELFWriter.h"
#include "support/Format.h"
#include "support/Watchdog.h"
#include "x86/Encoder.h"
#include "x86/Translator.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace elfie;
using namespace elfie::core;
using namespace elfie::x86;
using pinball::PageRecord;
using pinball::Pinball;

namespace {

// The perfle report line, "elfie-perf: thread <t> retired <n> cycles <c>",
// in the pieces the runtime writes around its three decimal numbers;
// parsePerfle reads the same pieces back.
constexpr const char *PerfPieceA = "elfie-perf: thread ";
constexpr const char *PerfPieceB = " retired ";
constexpr const char *PerfPieceC = " cycles ";

// Linux x86-64 syscall numbers used by the runtime.
enum : uint32_t {
  NR_read = 0,
  NR_write = 1,
  NR_open = 2,
  NR_close = 3,
  NR_lseek = 8,
  NR_mmap = 9,
  NR_munmap = 11,
  NR_rt_sigaction = 13,
  NR_rt_sigreturn = 15,
  NR_sched_yield = 24,
  NR_dup2 = 33,
  NR_alarm = 37,
  NR_clone = 56,
  NR_exit = 60,
  NR_sigaltstack = 131,
  NR_gettid = 186,
  NR_clock_gettime = 228,
  NR_exit_group = 231,
};

// Signal-delivery ABI constants (kernel, x86-64). The kernel struct
// sigaction is {handler, sa_flags, restorer, mask} (32 bytes) and requires
// SA_RESTORER; siginfo carries si_addr at +16; the saved user context puts
// gregs at +40 in kernel sigcontext order (R8..R15 = 0..7, RIP = 16).
enum : uint32_t {
  SIG_ILL = 4,
  SIG_BUS = 7,
  SIG_FPE = 8,
  SIG_SEGV = 11,
  SIG_ALRM = 14,
};
constexpr uint64_t SigActionFlags = 0x0C000004; // SIGINFO|RESTORER|ONSTACK
constexpr int32_t SigInfoAddrOff = 16;
constexpr int32_t UCtxSavedR15Off = 40 + 7 * 8;  // gregs[7]
constexpr int32_t UCtxSavedRipOff = 40 + 16 * 8; // gregs[16]

// elfie_fault_report block layout (64 bytes in .elfie.data; statically
// checkable by everify's REACH pass, populated by the abort stub and the
// signal handler before exit).
constexpr const char FaultReportMagic[8] = {'E', 'F', 'L', 'T',
                                            'R', 'P', 'T', '1'};
enum : int32_t {
  FltMagicOff = 0,
  FltKindOff = 8, // 0 none, 1 signal, 2 divergence, 3 watchdog
  FltSignalOff = 16,
  FltAddrOff = 24,
  FltRipOff = 32,
  FltSlotOff = 40,
  FltIcountLeftOff = 48,
  FltReportSize = 64,
};

constexpr uint64_t CloneFlags = 0x50f00; // VM|FS|FILES|SIGHAND|THREAD|SYSVSEM
constexpr int32_t MmapFixedAnon = 0x32;  // PRIVATE|ANON|FIXED

/// Builds the ELFie's data image with named offsets.
class DataBuilder {
public:
  size_t reserve(size_t Size, size_t Align = 8) {
    size_t Off = (Bytes.size() + Align - 1) & ~(Align - 1);
    Bytes.resize(Off + Size, 0);
    return Off;
  }
  size_t addString(const std::string &S) {
    size_t Off = reserve(S.size() + 1, 1);
    std::memcpy(Bytes.data() + Off, S.data(), S.size());
    return Off;
  }
  void poke64(size_t Off, uint64_t V) {
    std::memcpy(Bytes.data() + Off, &V, 8);
  }
  void pokeBytes(size_t Off, const void *P, size_t N) {
    std::memcpy(Bytes.data() + Off, P, N);
  }
  std::vector<uint8_t> &bytes() { return Bytes; }

private:
  std::vector<uint8_t> Bytes;
};

class NativeEmitter {
public:
  NativeEmitter(const Pinball &PB, const Pinball2ElfOptions &Opts)
      : PB(PB), Opts(Opts) {}

  Expected<std::vector<uint8_t>> emit();

private:
  uint64_t dataAddr(size_t Off) const {
    return NativeLayout::HostDataBase + Off;
  }
  uint64_t ctxAddr(unsigned Slot) const {
    return dataAddr(CtxOff) + uint64_t(Slot) * CtxLayout::Size;
  }
  uint64_t stackTop(unsigned Slot) const {
    return NativeLayout::HostStackBase +
           (uint64_t(Slot) + 1) * NativeLayout::HostStackSize;
  }

  void layoutData();
  void emitStartup();
  void emitThreadEntryCommon();
  void emitTableLookupAndJump(); // rax = guest pc -> jmp translation
  void emitRuntime();
  void emitSyscallStub();
  void emitFmtDec();
  void emitFaultHandler(); // signal/watchdog containment + restorer
  void emitReport(); // inline report fragment (uses r15 ctx)
  void fillContexts();
  uint64_t watchdogSeconds() const;

  const Pinball &PB;
  const Pinball2ElfOptions &Opts;

  Encoder E;
  DataBuilder Data;

  // Data offsets.
  size_t LiveThreadsOff = 0, NextSlotOff = 0, BrkTopOff = 0,
         MmapCursorOff = 0, ReportLockOff = 0;
  size_t StashTableOff = 0;
  size_t FdTableOff = 0;
  size_t BannerOff = 0;
  size_t PerfA = 0, PerfB = 0, PerfC = 0, PerfNl = 0; // message pieces
  size_t AbortMsgOff = 0;
  size_t FaultReportOff = 0; ///< 64-byte elfie_fault_report block
  size_t SigActOff = 0;      ///< 32-byte kernel struct sigaction
  size_t FltA = 0, FltB = 0, FltC = 0, FltD = 0, FltE = 0; // msg pieces
  size_t TableOff = 0;
  size_t CtxOff = 0;
  size_t PreTouchOff = 0; ///< table of guest page addresses

  std::string Banner;
  std::string AbortMsg;

  unsigned NumStartThreads = 0;
  unsigned TotalSlots = 0;
  std::vector<const PageRecord *> StackPages;
  std::vector<const PageRecord *> NormalPages;
  sysstate::SysState SysState;
  std::vector<const sysstate::FileProxy *> Preopens;

  uint64_t CodeLo = 0, CodeHi = 0;

  // Labels.
  Label ThreadEntryCommon, FmtDec, ExitBudget, ExitCommon, Abort, Syscall;
  Label FaultHandler, Restorer;
  // Encoder offsets for symbols.
  size_t StartupOff = 0, ThreadEntryOff = 0, ExitOff = 0, SyscallOff = 0,
         AbortOff = 0, FaultHandlerOff = 0, RestorerOff = 0;

  std::unique_ptr<Translator> Xlate;
};

void NativeEmitter::layoutData() {
  // Globals.
  LiveThreadsOff = Data.reserve(8);
  NextSlotOff = Data.reserve(8);
  BrkTopOff = Data.reserve(8);
  MmapCursorOff = Data.reserve(8);
  ReportLockOff = Data.reserve(8);
  Data.poke64(LiveThreadsOff, NumStartThreads);
  Data.poke64(NextSlotOff, NumStartThreads);
  Data.poke64(BrkTopOff, PB.Meta.BrkAtStart ? PB.Meta.BrkAtStart
                                            : isa::HeapBase);
  Data.poke64(MmapCursorOff, 0x20000000ull);

  // Stash table: guest addresses of relocated stack pages, in stash order.
  StashTableOff = Data.reserve(StackPages.size() * 8);
  for (size_t I = 0; I < StackPages.size(); ++I)
    Data.poke64(StashTableOff + I * 8, StackPages[I]->Addr);

  // Sysstate preopen table: {fd, pathAddr, flags} triples.
  std::vector<size_t> PathOffsets;
  for (const auto *F : Preopens)
    PathOffsets.push_back(Data.addString(F->ProxyName));
  FdTableOff = Data.reserve(Preopens.size() * 24);
  for (size_t I = 0; I < Preopens.size(); ++I) {
    Data.poke64(FdTableOff + I * 24 + 0,
                static_cast<uint64_t>(Preopens[I]->Fd));
    Data.poke64(FdTableOff + I * 24 + 8, dataAddr(PathOffsets[I]));
    // O_RDONLY unless the region writes through the descriptor.
    Data.poke64(FdTableOff + I * 24 + 16,
                Preopens[I]->Written ? uint64_t(0x42) /*O_RDWR|O_CREAT*/
                                     : 0);
  }

  // Strings.
  Banner = formatString("elfie: %s region @%llu len %llu threads %u\n",
                        PB.Meta.ProgramName.c_str(),
                        static_cast<unsigned long long>(PB.Meta.RegionStart),
                        static_cast<unsigned long long>(PB.Meta.RegionLength),
                        NumStartThreads);
  BannerOff = Data.addString(Banner);
  AbortMsg = "elfie: execution diverged from the captured region\n";
  AbortMsgOff = Data.addString(AbortMsg);
  PerfA = Data.addString(PerfPieceA);
  PerfB = Data.addString(PerfPieceB);
  PerfC = Data.addString(PerfPieceC);
  PerfNl = Data.addString("\n");
  FltA = Data.addString("elfie-fault: signal ");
  FltB = Data.addString(" addr ");
  FltC = Data.addString(" rip ");
  FltD = Data.addString(" slot ");
  FltE = Data.addString(" icount-left ");

  // elfie_fault_report: magic now, everything else at fault time.
  FaultReportOff = Data.reserve(FltReportSize, 8);
  Data.pokeBytes(FaultReportOff + FltMagicOff, FaultReportMagic, 8);

  // Kernel struct sigaction {handler, flags, restorer, mask}. The handler
  // and restorer addresses are poked after code emission fixes them.
  SigActOff = Data.reserve(32, 8);
  Data.poke64(SigActOff + 8, SigActionFlags);

  // Pre-touch table: every loader-mapped guest page, so startup can fault
  // them in before any measurement begins (all application pages are in
  // memory by elfie_on_start, paper §II-B5).
  PreTouchOff = Data.reserve(NormalPages.size() * 8);
  for (size_t I = 0; I < NormalPages.size(); ++I)
    Data.poke64(PreTouchOff + I * 8, NormalPages[I]->Addr);

  // Address-translation table (content filled after translation).
  TableOff = Data.reserve(static_cast<size_t>(CodeHi - CodeLo), 8);

  // Thread contexts.
  CtxOff = Data.reserve(size_t(TotalSlots) * CtxLayout::Size, 64);
}

void NativeEmitter::fillContexts() {
  for (unsigned I = 0; I < NumStartThreads; ++I) {
    const pinball::ThreadRegs &T = PB.Threads[I];
    size_t Base = CtxOff + size_t(I) * CtxLayout::Size;
    for (unsigned R = 0; R < isa::NumGPRs; ++R)
      Data.poke64(Base + CtxLayout::gpr(R), R == 0 ? 0 : T.GPR[R]);
    for (unsigned R = 0; R < isa::NumFPRs; ++R) {
      uint64_t Bits;
      std::memcpy(&Bits, &T.FPR[R], 8);
      Data.poke64(Base + CtxLayout::fpr(R), Bits);
    }
    uint64_t Budget =
        Opts.EmitICountChecks ? T.RegionIcount : uint64_t(INT64_MAX);
    Data.poke64(Base + CtxLayout::ICountOff, Budget);
    Data.poke64(Base + CtxLayout::BudgetOff, Budget);
    Data.poke64(Base + CtxLayout::SlotOff, I);
    Data.poke64(Base + CtxLayout::StartPCOff, T.PC);
  }
}

void NativeEmitter::emitTableLookupAndJump() {
  // rax = guest code address. Clobbers rdx. Jumps to the translation or to
  // the abort stub.
  E.testRegImm32(RAX, 7);
  E.jcc(CondNE, Abort);
  E.movRegImm64(RDX, CodeLo);
  E.subRegReg(RAX, RDX);
  E.movRegImm64(RDX, CodeHi - CodeLo);
  E.cmpRegReg(RAX, RDX);
  E.jcc(CondAE, Abort);
  E.movRegImm64(RDX, dataAddr(TableOff));
  E.addRegReg(RDX, RAX);
  E.movRegMem(RAX, RDX, 0);
  E.testRegReg(RAX, RAX);
  E.jcc(CondE, Abort);
  E.jmpReg(RAX);
}

uint64_t NativeEmitter::watchdogSeconds() const {
  if (Opts.WatchdogSecs)
    return Opts.WatchdogSecs;
  // Budget-scaled via the shared rule (support/Watchdog.h): generous
  // headroom over any plausible execution rate (50M retired/s is far below
  // real hardware), bounded so a corrupt region length cannot disable the
  // guard. ereplay/evm and efleet derive their timeouts from the same rule.
  return scaledWatchdogSeconds(PB.Meta.RegionLength);
}

void NativeEmitter::emitStartup() {
  StartupOff = E.here();
  // Run on slot 0's host stack from the first instruction: the kernel's
  // initial stack may be about to be overwritten by the remap below.
  E.movRegImm64(RAX, stackTop(0) - 64);
  E.movRegReg(RSP, RAX);

  // --- Divergence containment: trap the fault signals process-wide and
  // arm the watchdog before anything can go wrong, so even a corrupt
  // stash/preopen table dies with the structured report. ---
  for (uint32_t Sig : {SIG_ILL, SIG_BUS, SIG_FPE, SIG_SEGV, SIG_ALRM}) {
    E.movRegImm32(RDI, Sig);
    E.movRegImm64(RSI, dataAddr(SigActOff));
    E.xorRegReg(RDX, RDX);
    E.movRegImm32(R10, 8); // sigsetsize
    E.movRegImm32(RAX, NR_rt_sigaction);
    E.syscall();
  }
  E.movRegImm32(RDI, static_cast<uint32_t>(watchdogSeconds()));
  E.movRegImm32(RAX, NR_alarm);
  E.syscall();

  // --- Stack-collision workaround (paper Figs. 4/5): map the guest stack
  // range fresh and copy the checkpointed stack pages from the stash. ---
  if (!StackPages.empty()) {
    E.movRegImm64(R12, dataAddr(StashTableOff));
    E.movRegImm64(R13, NativeLayout::StashBase);
    E.movRegImm64(R14, StackPages.size());
    Label Loop;
    E.bind(Loop);
    // mmap(guestAddr, 4096, RW, FIXED|ANON, -1, 0)
    E.movRegMem(RDI, R12, 0);
    E.movRegImm32(RSI, 4096);
    E.movRegImm32(RDX, 3);
    E.movRegImm32(R10, MmapFixedAnon);
    E.movRegImm64(R8, static_cast<uint64_t>(-1));
    E.xorRegReg(R9, R9);
    E.movRegImm32(RAX, NR_mmap);
    E.syscall();
    // copy the page from the stash
    E.movRegMem(RDI, R12, 0);
    E.movRegReg(RSI, R13);
    E.movRegImm32(RCX, 4096);
    E.repMovsb();
    E.addRegImm32(R12, 8);
    E.addRegImm32(R13, 4096);
    E.subRegImm32(R14, 1);
    E.jcc(CondNE, Loop);
  }

  // --- Sysstate descriptor preopen (paper §II-C2): open FD_<n> proxies in
  // the working directory and dup2() them onto the captured fds. ---
  if (!Preopens.empty()) {
    E.movRegImm64(R12, dataAddr(FdTableOff));
    E.movRegImm64(R14, Preopens.size());
    Label Loop, Next;
    E.bind(Loop);
    E.movRegMem(RDI, R12, 8);  // path
    E.movRegMem(RSI, R12, 16); // flags
    E.movRegImm32(RDX, 0644);
    E.movRegImm32(RAX, NR_open);
    E.syscall();
    E.testRegReg(RAX, RAX);
    E.jcc(CondS, Next); // open failed; leave the fd dead
    E.movRegReg(RBX, RAX);
    E.movRegReg(RDI, RAX);
    E.movRegMem(RSI, R12, 0); // target fd
    E.cmpRegReg(RDI, RSI);
    E.jcc(CondE, Next); // already the right descriptor
    E.movRegImm32(RAX, NR_dup2);
    E.syscall();
    E.movRegReg(RDI, RBX);
    E.movRegImm32(RAX, NR_close);
    E.syscall();
    E.bind(Next);
    E.addRegImm32(R12, 24);
    E.subRegImm32(R14, 1);
    E.jcc(CondNE, Loop);
  }

  // --- Pre-touch all guest pages (fault them in before any counters
  // start; the stash loop above already touched the stack pages). ---
  if (!NormalPages.empty()) {
    E.movRegImm64(R12, dataAddr(PreTouchOff));
    E.movRegImm64(R14, NormalPages.size());
    Label Loop;
    E.bind(Loop);
    E.movRegMem(RAX, R12, 0);
    E.movzxRegMem8(RCX, RAX, 0); // read one byte of the page
    E.addRegImm32(R12, 8);
    E.subRegImm32(R14, 1);
    E.jcc(CondNE, Loop);
  }

  // --- elfie_on_start banner ---
  if (Opts.Verbose) {
    E.movRegImm32(RDI, 2);
    E.movRegImm64(RSI, dataAddr(BannerOff));
    E.movRegImm32(RDX, static_cast<uint32_t>(Banner.size()));
    E.movRegImm32(RAX, NR_write);
    E.syscall();
  }

  // --- Recreate the checkpointed threads (paper Fig. 6): one clone() per
  // thread beyond the first; each child stack top carries its context
  // pointer. ---
  for (unsigned I = 1; I < NumStartThreads; ++I) {
    E.movRegImm64(RAX, ctxAddr(I));
    E.movRegImm64(RCX, stackTop(I) - 8);
    E.movMemReg(RCX, 0, RAX);
    E.movRegImm64(RDI, CloneFlags);
    E.movRegReg(RSI, RCX);
    E.xorRegReg(RDX, RDX);
    E.xorRegReg(R10, R10);
    E.xorRegReg(R8, R8);
    E.movRegImm32(RAX, NR_clone);
    E.syscall();
    E.testRegReg(RAX, RAX);
    E.jcc(CondE, ThreadEntryCommon); // child
  }
  // The initial thread becomes guest thread 0.
  E.movRegImm64(RAX, ctxAddr(0));
  E.pushReg(RAX);
  E.jmp(ThreadEntryCommon);
}

void NativeEmitter::emitThreadEntryCommon() {
  ThreadEntryOff = E.here();
  E.bind(ThreadEntryCommon);
  // [rsp] = context pointer (pushed by startup / placed by clone).
  E.popReg(R15);

  // Per-thread alternate signal stack (sigaltstack is per-thread): the
  // fault handler must run even when the guest stack pointer is the thing
  // that diverged. stack_t {ss_sp, ss_flags, ss_size} built on the host
  // stack.
  E.movRegMem(RAX, R15, CtxLayout::SlotOff);
  E.shlRegImm(RAX, 14); // NativeLayout::AltStackSize == 1 << 14
  E.movRegImm64(RCX, NativeLayout::AltStackBase);
  E.addRegReg(RAX, RCX);
  E.subRegImm32(RSP, 32);
  E.movMemReg(RSP, 0, RAX); // ss_sp
  E.xorRegReg(RCX, RCX);
  E.movMemReg(RSP, 8, RCX); // ss_flags (+ padding)
  E.movRegImm32(RCX, static_cast<uint32_t>(NativeLayout::AltStackSize));
  E.movMemReg(RSP, 16, RCX); // ss_size
  E.movRegReg(RDI, RSP);
  E.xorRegReg(RSI, RSI);
  E.movRegImm32(RAX, NR_sigaltstack);
  E.syscall();
  E.addRegImm32(RSP, 32);
  if (Opts.Perfle) {
    E.rdtsc();
    E.shlRegImm(RDX, 32);
    E.orRegReg(RAX, RDX);
    E.movMemReg(R15, CtxLayout::StartTscOff, RAX);
  }
  if (Opts.EmitMarkers) {
    // elfie_on_thread_start + ROI-begin marker.
    E.movRegImm32(RBX, static_cast<uint32_t>(Opts.MarkerTag));
    E.emitBytes({0x64, 0x67, 0x90});
  }
  E.movRegMem(RAX, R15, CtxLayout::StartPCOff);
  emitTableLookupAndJump();
}

void NativeEmitter::emitFmtDec() {
  // fmt_dec: rax = value, rdi = buffer end. Returns rsi = start, rdx = len.
  // Clobbers rax, rcx, r8. Used by perfle reporting and by the fault
  // handler, so it is emitted unconditionally.
  E.bind(FmtDec);
  E.movRegReg(R8, RDI);
  E.movRegImm32(RCX, 10);
  Label Loop;
  E.bind(Loop);
  E.xorRegReg(RDX, RDX);
  E.divReg(RCX);
  E.addRegImm32(RDX, '0');
  E.subRegImm32(RDI, 1);
  E.movMemReg8(RDI, 0, RDX);
  E.testRegReg(RAX, RAX);
  E.jcc(CondNE, Loop);
  E.movRegReg(RSI, RDI);
  E.movRegReg(RDX, R8);
  E.subRegReg(RDX, RSI);
  E.ret();
}

void NativeEmitter::emitReport() {
  // Uses r15 (ctx). Clobbers caller-saved registers and rbx.
  auto WriteStr = [&](size_t StrOff, size_t Len) {
    E.movRegImm32(RDI, 2);
    E.movRegImm64(RSI, dataAddr(StrOff));
    E.movRegImm32(RDX, static_cast<uint32_t>(Len));
    E.movRegImm32(RAX, NR_write);
    E.syscall();
  };
  auto WriteDec = [&]() {
    // value in rax
    E.subRegImm32(RSP, 32);
    E.leaRegMem(RDI, RSP, 32);
    E.call(FmtDec);
    E.movRegImm32(RDI, 2);
    E.movRegImm32(RAX, NR_write);
    E.syscall();
    E.addRegImm32(RSP, 32);
  };

  // Spinlock so multi-threaded reports do not interleave.
  Label Spin, Locked;
  E.bind(Spin);
  E.movRegImm32(RAX, 1);
  E.movRegImm64(RCX, dataAddr(ReportLockOff));
  E.xchgMemReg(RCX, 0, RAX);
  E.testRegReg(RAX, RAX);
  E.jcc(CondE, Locked);
  E.pause();
  E.jmp(Spin);
  E.bind(Locked);

  WriteStr(PerfA, std::strlen(PerfPieceA));
  E.movRegMem(RAX, R15, CtxLayout::SlotOff);
  WriteDec();
  WriteStr(PerfB, std::strlen(PerfPieceB));
  E.movRegMem(RAX, R15, CtxLayout::BudgetOff);
  E.subRegMem(RAX, R15, CtxLayout::ICountOff);
  WriteDec();
  WriteStr(PerfC, std::strlen(PerfPieceC));
  E.rdtsc();
  E.shlRegImm(RDX, 32);
  E.orRegReg(RAX, RDX);
  E.subRegMem(RAX, R15, CtxLayout::StartTscOff);
  WriteDec();
  WriteStr(PerfNl, 1);

  // Release the lock.
  E.xorRegReg(RAX, RAX);
  E.movRegImm64(RCX, dataAddr(ReportLockOff));
  E.movMemReg(RCX, 0, RAX);
}

void NativeEmitter::emitRuntime() {
  emitFmtDec();

  // --- Graceful exit (paper §II-C1) ---
  E.bind(ExitBudget);
  // The countdown went to -1: the pending instruction did not retire.
  E.incMem(R15, CtxLayout::ICountOff);
  ExitOff = E.here();
  E.bind(ExitCommon);
  if (Opts.Perfle)
    emitReport();
  // lock dec LiveThreads; the last thread exits the whole group.
  E.movRegImm64(RAX, static_cast<uint64_t>(-1));
  E.movRegImm64(RCX, dataAddr(LiveThreadsOff));
  E.lockXaddMemReg(RCX, 0, RAX);
  Label Last;
  E.cmpRegImm32(RAX, 1);
  E.jcc(CondE, Last);
  E.xorRegReg(RDI, RDI);
  E.movRegImm32(RAX, NR_exit);
  E.syscall();
  E.bind(Last);
  E.xorRegReg(RDI, RDI);
  E.movRegImm32(RAX, NR_exit_group);
  E.syscall();

  // --- Ungraceful exit (divergence, §II-C1): fill the fault report so
  // post-mortem tooling sees what diverged, then exit 127. r15 is the
  // thread context at every abort site (table lookup + syscall stub). ---
  AbortOff = E.here();
  E.bind(Abort);
  E.movRegImm64(RCX, dataAddr(FaultReportOff));
  E.movRegImm32(RAX, 2); // kind = divergence
  E.movMemReg(RCX, FltKindOff, RAX);
  E.movRegMem(RAX, R15, CtxLayout::SlotOff);
  E.movMemReg(RCX, FltSlotOff, RAX);
  E.movRegMem(RAX, R15, CtxLayout::ICountOff);
  E.movMemReg(RCX, FltIcountLeftOff, RAX);
  E.movRegImm32(RDI, 2);
  E.movRegImm64(RSI, dataAddr(AbortMsgOff));
  E.movRegImm32(RDX, static_cast<uint32_t>(AbortMsg.size()));
  E.movRegImm32(RAX, NR_write);
  E.syscall();
  E.movRegImm32(RDI, ExitElfieDivergence);
  E.movRegImm32(RAX, NR_exit_group);
  E.syscall();

  emitSyscallStub();
  emitFaultHandler();
}

void NativeEmitter::emitFaultHandler() {
  // SA_SIGINFO entry: rdi = signal, rsi = siginfo*, rdx = ucontext*.
  // Runs on the per-thread altstack; fills elfie_fault_report, prints one
  // "elfie-fault:" line to stderr, and exits the whole group with the
  // documented code (126 hardware signal, 125 watchdog). Never returns.
  FaultHandlerOff = E.here();
  E.bind(FaultHandler);
  E.movRegReg(R12, RDI);                     // signal number
  E.movRegMem(R13, RSI, SigInfoAddrOff);     // si_addr
  E.movRegMem(R14, RDX, UCtxSavedRipOff);    // faulting host RIP
  E.movRegMem(RBX, RDX, UCtxSavedR15Off);    // interrupted thread's r15

  E.movRegImm64(RCX, dataAddr(FaultReportOff));
  Label KindWatch, KindDone;
  E.cmpRegImm32(R12, SIG_ALRM);
  E.jcc(CondE, KindWatch);
  E.movRegImm32(RAX, 1); // kind = signal
  E.jmp(KindDone);
  E.bind(KindWatch);
  E.movRegImm32(RAX, 3); // kind = watchdog
  E.bind(KindDone);
  E.movMemReg(RCX, FltKindOff, RAX);
  E.movMemReg(RCX, FltSignalOff, R12);
  E.movMemReg(RCX, FltAddrOff, R13);
  E.movMemReg(RCX, FltRipOff, R14);

  // The interrupted r15 is only a *candidate* context pointer — divergent
  // code may have clobbered it. Range-check against the context array
  // before dereferencing, or the handler itself would fault.
  uint64_t CtxBase = dataAddr(CtxOff);
  Label NoCtx, CtxDone;
  E.movRegImm64(RAX, CtxBase);
  E.cmpRegReg(RBX, RAX);
  E.jcc(CondB, NoCtx);
  E.movRegImm64(RAX, CtxBase + uint64_t(TotalSlots) * CtxLayout::Size);
  E.cmpRegReg(RBX, RAX);
  E.jcc(CondAE, NoCtx);
  E.movRegMem(RAX, RBX, CtxLayout::SlotOff);
  E.movMemReg(RCX, FltSlotOff, RAX);
  E.movRegMem(RAX, RBX, CtxLayout::ICountOff);
  E.movMemReg(RCX, FltIcountLeftOff, RAX);
  E.jmp(CtxDone);
  E.bind(NoCtx);
  E.movRegImm64(RAX, static_cast<uint64_t>(-1));
  E.movMemReg(RCX, FltSlotOff, RAX);
  E.movMemReg(RCX, FltIcountLeftOff, RAX);
  E.bind(CtxDone);

  // One structured line on stderr:
  // "elfie-fault: signal N addr N rip N slot N icount-left N\n".
  auto WriteStr = [&](size_t StrOff, size_t Len) {
    E.movRegImm32(RDI, 2);
    E.movRegImm64(RSI, dataAddr(StrOff));
    E.movRegImm32(RDX, static_cast<uint32_t>(Len));
    E.movRegImm32(RAX, NR_write);
    E.syscall();
  };
  auto WriteDecFromReport = [&](int32_t FieldOff) {
    E.movRegImm64(RCX, dataAddr(FaultReportOff));
    E.movRegMem(RAX, RCX, FieldOff);
    E.subRegImm32(RSP, 32);
    E.leaRegMem(RDI, RSP, 32);
    E.call(FmtDec);
    E.movRegImm32(RDI, 2);
    E.movRegImm32(RAX, NR_write);
    E.syscall();
    E.addRegImm32(RSP, 32);
  };
  WriteStr(FltA, std::strlen("elfie-fault: signal "));
  WriteDecFromReport(FltSignalOff);
  WriteStr(FltB, std::strlen(" addr "));
  WriteDecFromReport(FltAddrOff);
  WriteStr(FltC, std::strlen(" rip "));
  WriteDecFromReport(FltRipOff);
  WriteStr(FltD, std::strlen(" slot "));
  WriteDecFromReport(FltSlotOff);
  WriteStr(FltE, std::strlen(" icount-left "));
  WriteDecFromReport(FltIcountLeftOff);
  WriteStr(PerfNl, 1);

  Label WatchExit;
  E.cmpRegImm32(R12, SIG_ALRM);
  E.jcc(CondE, WatchExit);
  E.movRegImm32(RDI, ExitElfieSignal);
  E.movRegImm32(RAX, NR_exit_group);
  E.syscall();
  E.bind(WatchExit);
  E.movRegImm32(RDI, ExitWatchdog);
  E.movRegImm32(RAX, NR_exit_group);
  E.syscall();

  // The kernel requires SA_RESTORER on x86-64; the restorer is never
  // reached (the handler exits) but must exist and be well-formed.
  RestorerOff = E.here();
  E.bind(Restorer);
  E.movRegImm32(RAX, NR_rt_sigreturn);
  E.syscall();
}

void NativeEmitter::emitSyscallStub() {
  SyscallOff = E.here();
  E.bind(Syscall);
  auto GuestArg = [&](unsigned N) {
    return CtxLayout::gpr(isa::SysArgReg0 + N); // a1..a6 offsets
  };
  auto StoreResultAndRet = [&]() {
    E.movMemReg(R15, CtxLayout::gpr(isa::SysRetReg), RAX);
    E.ret();
  };

  E.movRegMem(RAX, R15, CtxLayout::gpr(isa::SysNrReg));

  Label HExit, HExitGroup, HWrite, HRead, HOpen, HClose, HLseek, HBrk,
      HClock, HClone, HGettid, HYield, HMmap, HMunmap, Unknown;
  struct Case {
    isa::Sys Nr;
    Label *L;
  } Cases[] = {
      {isa::Sys::Exit, &HExit},       {isa::Sys::ExitGroup, &HExitGroup},
      {isa::Sys::Write, &HWrite},     {isa::Sys::Read, &HRead},
      {isa::Sys::Open, &HOpen},       {isa::Sys::Close, &HClose},
      {isa::Sys::Lseek, &HLseek},     {isa::Sys::Brk, &HBrk},
      {isa::Sys::ClockGetTimeNs, &HClock}, {isa::Sys::Clone, &HClone},
      {isa::Sys::GetTid, &HGettid},   {isa::Sys::Yield, &HYield},
      {isa::Sys::MmapAnon, &HMmap},   {isa::Sys::Munmap, &HMunmap},
  };
  for (const Case &C : Cases) {
    E.cmpRegImm32(RAX, static_cast<int32_t>(C.Nr));
    E.jcc(CondE, *C.L);
  }
  E.bind(Unknown);
  E.jmp(Abort); // unknown guest syscall: divergence

  // exit(code): the thread ends gracefully.
  E.bind(HExit);
  E.jmp(ExitCommon);

  // exit_group(code)
  E.bind(HExitGroup);
  E.movRegMem(R12, R15, GuestArg(0));
  if (Opts.Perfle)
    emitReport();
  E.movRegReg(RDI, R12);
  E.movRegImm32(RAX, NR_exit_group);
  E.syscall();

  // Simple pass-through 3-argument syscalls.
  auto PassThrough3 = [&](Label &L, uint32_t HostNr) {
    E.bind(L);
    E.movRegMem(RDI, R15, GuestArg(0));
    E.movRegMem(RSI, R15, GuestArg(1));
    E.movRegMem(RDX, R15, GuestArg(2));
    E.movRegImm32(RAX, HostNr);
    E.syscall();
    StoreResultAndRet();
  };
  PassThrough3(HWrite, NR_write);
  PassThrough3(HRead, NR_read);
  PassThrough3(HOpen, NR_open);
  PassThrough3(HLseek, NR_lseek);

  E.bind(HClose);
  E.movRegMem(RDI, R15, GuestArg(0));
  E.movRegImm32(RAX, NR_close);
  E.syscall();
  StoreResultAndRet();

  // brk(addr): grow-only emulation on top of the captured heap.
  {
    E.bind(HBrk);
    Label Query, Store;
    E.movRegMem(RDI, R15, GuestArg(0));
    E.movRegImm64(RCX, dataAddr(BrkTopOff));
    E.movRegMem(RAX, RCX, 0); // current top
    E.testRegReg(RDI, RDI);
    E.jcc(CondE, Query);
    E.cmpRegReg(RDI, RAX);
    E.jcc(CondBE, Query); // shrink/equal: refuse, return current
    E.movRegReg(RBX, RDI); // new top
    E.movRegReg(RBP, RAX); // old top
    // oldAligned = align_up(oldTop); len = align_up(newTop) - oldAligned
    E.addRegImm32(RBP, 4095);
    E.andRegImm32(RBP, ~4095);
    E.movRegReg(RSI, RBX);
    E.addRegImm32(RSI, 4095);
    E.andRegImm32(RSI, ~4095);
    E.subRegReg(RSI, RBP);
    Label NoMap;
    E.testRegReg(RSI, RSI);
    E.jcc(CondE, NoMap);
    E.movRegReg(RDI, RBP);
    E.movRegImm32(RDX, 3);
    E.movRegImm32(R10, MmapFixedAnon);
    E.movRegImm64(R8, static_cast<uint64_t>(-1));
    E.xorRegReg(R9, R9);
    E.movRegImm32(RAX, NR_mmap);
    E.syscall();
    E.bind(NoMap);
    E.movRegImm64(RCX, dataAddr(BrkTopOff));
    E.movMemReg(RCX, 0, RBX);
    E.movRegReg(RAX, RBX);
    E.jmp(Store);
    E.bind(Query);
    // rax already holds the current top.
    E.bind(Store);
    StoreResultAndRet();
  }

  // clock_gettime_ns: CLOCK_MONOTONIC in nanoseconds.
  {
    E.bind(HClock);
    E.subRegImm32(RSP, 16);
    E.movRegImm32(RDI, 1); // CLOCK_MONOTONIC
    E.movRegReg(RSI, RSP);
    E.movRegImm32(RAX, NR_clock_gettime);
    E.syscall();
    E.movRegMem(RAX, RSP, 0); // tv_sec
    E.movRegImm64(RCX, 1000000000ull);
    E.imulRegReg(RAX, RCX);
    E.addRegMem(RAX, RSP, 8); // + tv_nsec
    E.addRegImm32(RSP, 16);
    StoreResultAndRet();
  }

  // clone(entry, stack, arg) -> child tid (slot index).
  {
    E.bind(HClone);
    Label Fail;
    E.movRegImm32(RAX, 1);
    E.movRegImm64(RCX, dataAddr(NextSlotOff));
    E.lockXaddMemReg(RCX, 0, RAX); // rax = slot
    E.cmpRegImm32(RAX, static_cast<int32_t>(TotalSlots));
    E.jcc(CondAE, Fail);
    E.movRegReg(RBX, RAX); // slot
    // ctx = CtxBase + slot * CtxSize
    E.movRegReg(RBP, RAX);
    E.shlRegImm(RBP, 9); // CtxLayout::Size == 512
    E.movRegImm64(RCX, dataAddr(CtxOff));
    E.addRegReg(RBP, RCX);
    // Child context: entry/sp/arg from the parent's a1..a3.
    E.movRegMem(RDX, R15, GuestArg(0));
    E.movMemReg(RBP, CtxLayout::StartPCOff, RDX);
    E.movRegMem(RDX, R15, GuestArg(1));
    E.movMemReg(RBP, CtxLayout::gpr(isa::RegSP), RDX);
    E.movRegMem(RDX, R15, GuestArg(2));
    E.movMemReg(RBP, CtxLayout::gpr(1), RDX);
    E.movRegImm64(RDX, static_cast<uint64_t>(INT64_MAX));
    E.movMemReg(RBP, CtxLayout::ICountOff, RDX);
    E.movMemReg(RBP, CtxLayout::BudgetOff, RDX);
    E.movMemReg(RBP, CtxLayout::SlotOff, RBX);
    // LiveThreads++
    E.movRegImm32(RAX, 1);
    E.movRegImm64(RCX, dataAddr(LiveThreadsOff));
    E.lockXaddMemReg(RCX, 0, RAX);
    // child host stack top = HostStackBase + (slot+1)*HostStackSize
    E.movRegReg(RDI, RBX);
    E.addRegImm32(RDI, 1);
    E.shlRegImm(RDI, 16); // HostStackSize == 1<<16
    E.movRegImm64(RCX, NativeLayout::HostStackBase);
    E.addRegReg(RDI, RCX);
    E.subRegImm32(RDI, 8);
    E.movMemReg(RDI, 0, RBP); // ctx at the top of the child stack
    E.movRegReg(RSI, RDI);
    E.movRegImm64(RDI, CloneFlags);
    E.xorRegReg(RDX, RDX);
    E.xorRegReg(R10, R10);
    E.xorRegReg(R8, R8);
    E.movRegImm32(RAX, NR_clone);
    E.syscall();
    E.testRegReg(RAX, RAX);
    E.jcc(CondE, ThreadEntryCommon); // child bootstraps itself
    E.movRegReg(RAX, RBX);           // parent: child guest tid = slot
    StoreResultAndRet();
    E.bind(Fail);
    E.movRegImm64(RAX, static_cast<uint64_t>(-11)); // -EAGAIN
    StoreResultAndRet();
  }

  E.bind(HGettid);
  E.movRegMem(RAX, R15, CtxLayout::SlotOff);
  StoreResultAndRet();

  E.bind(HYield);
  E.movRegImm32(RAX, NR_sched_yield);
  E.syscall();
  StoreResultAndRet();

  // mmap_anon(addr, len)
  {
    E.bind(HMmap);
    Label Fixed;
    E.movRegMem(RDI, R15, GuestArg(0));
    E.testRegReg(RDI, RDI);
    E.jcc(CondNE, Fixed);
    // Bump the cursor by align_up(len).
    E.movRegMem(RAX, R15, GuestArg(1));
    E.addRegImm32(RAX, 4095);
    E.andRegImm32(RAX, ~4095);
    E.movRegImm64(RCX, dataAddr(MmapCursorOff));
    E.lockXaddMemReg(RCX, 0, RAX);
    E.movRegReg(RDI, RAX);
    E.bind(Fixed);
    E.movRegReg(RBX, RDI); // result address
    E.movRegMem(RSI, R15, GuestArg(1));
    E.movRegImm32(RDX, 3);
    E.movRegImm32(R10, MmapFixedAnon);
    E.movRegImm64(R8, static_cast<uint64_t>(-1));
    E.xorRegReg(R9, R9);
    E.movRegImm32(RAX, NR_mmap);
    E.syscall();
    E.movRegReg(RAX, RBX);
    StoreResultAndRet();
  }

  E.bind(HMunmap);
  E.movRegMem(RDI, R15, GuestArg(0));
  E.movRegMem(RSI, R15, GuestArg(1));
  E.movRegImm32(RAX, NR_munmap);
  E.syscall();
  StoreResultAndRet();
}

Expected<std::vector<uint8_t>> NativeEmitter::emit() {
  if (PB.Threads.empty())
    return makeError("pinball has no threads");
  if (!PB.isFat())
    return makeError("native ELFie emission requires a fat pinball "
                     "(-log:fat 1); regular pinballs lack the pages an "
                     "unconstrained run needs (paper §II-A)");
  NumStartThreads = static_cast<unsigned>(PB.Threads.size());
  TotalSlots = NumStartThreads + Opts.MaxDynThreads;

  // Partition pages: checkpointed stack pages are stashed (§II-B3).
  for (const PageRecord &P : PB.Image) {
    bool IsStack =
        P.Addr >= PB.Meta.StackBase && P.Addr < PB.Meta.StackTop;
    (IsStack ? StackPages : NormalPages).push_back(&P);
  }

  // Compute the guest code range.
  bool AnyCode = false;
  for (const PageRecord *P : NormalPages) {
    if (!(P->Perm & vm::PermExec))
      continue;
    if (!AnyCode) {
      CodeLo = P->Addr;
      CodeHi = P->Addr + vm::GuestPageSize;
      AnyCode = true;
    } else {
      CodeLo = std::min(CodeLo, P->Addr);
      CodeHi = std::max(CodeHi, P->Addr + vm::GuestPageSize);
    }
  }
  if (!AnyCode)
    return makeError("pinball contains no executable pages");

  if (Opts.EmbedSysstate) {
    SysState = sysstate::analyze(PB);
    for (const sysstate::FileProxy &F : SysState.Files)
      if (F.OpenedBeforeRegion)
        Preopens.push_back(&F);
  }

  layoutData();
  fillContexts();

  // Emit code: startup, bootstrap, runtime, then the translation.
  TranslatorConfig TC;
  TC.HostCodeBase = NativeLayout::HostCodeBase;
  TC.TableBase = dataAddr(TableOff);
  TC.EmitICountChecks = Opts.EmitICountChecks;
  Xlate = std::make_unique<Translator>(E, TC);
  for (const PageRecord *P : NormalPages)
    if (P->Perm & vm::PermExec)
      Xlate->addCodePage(P->Addr, P->Bytes.data(), P->Bytes.size());

  emitStartup();
  emitThreadEntryCommon();
  emitRuntime();

  Translator::RuntimeLabels RT;
  RT.SyscallStub = &Syscall;
  RT.CountdownExit = &ExitBudget;
  RT.HaltExit = &ExitCommon;
  RT.AbortStub = &Abort;
  if (Error Err = Xlate->translateAll(RT))
    return Err;

  // Fill the address table now that host offsets are known.
  std::vector<uint8_t> Table = Xlate->buildAddressTable();
  Data.pokeBytes(TableOff, Table.data(), Table.size());

  // Complete the sigaction struct: the handler and restorer addresses were
  // only fixed by code emission above.
  Data.poke64(SigActOff + 0, NativeLayout::HostCodeBase + FaultHandlerOff);
  Data.poke64(SigActOff + 16, NativeLayout::HostCodeBase + RestorerOff);

  // ---- Assemble the ELF ----
  elf::ELFWriter W(elf::ET_EXEC, elf::EM_X86_64);
  W.setEntry(NativeLayout::HostCodeBase + StartupOff);

  // Guest pages at their original addresses; runs of consecutive pages
  // with equal permissions become one section each (paper §II-B2, Fig. 3).
  addPageRunSections(W, NormalPages);
  // Stashed stack pages, loaded at the stash address, never at the real
  // stack address (the loader must not map them there: §II-B3).
  if (!StackPages.empty()) {
    std::vector<std::span<const uint8_t>> Stash;
    Stash.reserve(StackPages.size());
    for (const PageRecord *P : StackPages)
      Stash.push_back({P->Bytes.data(), P->Bytes.size()});
    W.addSectionChunks(".elfie.stash", elf::SHF_ALLOC,
                       NativeLayout::StashBase, std::move(Stash),
                       vm::GuestPageSize);
  }
  // Runtime code + data.
  unsigned CodeSec =
      W.addSection(".elfie.text", elf::SHF_ALLOC | elf::SHF_EXECINSTR,
                   NativeLayout::HostCodeBase, E.code(), vm::GuestPageSize);
  unsigned DataSec =
      W.addSection(".elfie.data", elf::SHF_ALLOC | elf::SHF_WRITE,
                   NativeLayout::HostDataBase, Data.bytes(),
                   vm::GuestPageSize);
  // Host thread stacks: zero pages, no file payload.
  W.addNoBitsSection(".elfie.stacks", elf::SHF_ALLOC | elf::SHF_WRITE,
                     NativeLayout::HostStackBase,
                     uint64_t(TotalSlots) * NativeLayout::HostStackSize,
                     vm::GuestPageSize);
  // Per-thread alternate signal stacks for the fault handler.
  W.addNoBitsSection(".elfie.altstack", elf::SHF_ALLOC | elf::SHF_WRITE,
                     NativeLayout::AltStackBase,
                     uint64_t(TotalSlots) * NativeLayout::AltStackSize,
                     vm::GuestPageSize);

  // Debugging symbols (paper §II-B5).
  W.addSymbol("elfie_on_start", NativeLayout::HostCodeBase + StartupOff,
              CodeSec, elf::STB_GLOBAL, elf::STT_FUNC);
  W.addSymbol("elfie_on_thread_start",
              NativeLayout::HostCodeBase + ThreadEntryOff, CodeSec,
              elf::STB_GLOBAL, elf::STT_FUNC);
  W.addSymbol("elfie_on_exit", NativeLayout::HostCodeBase + ExitOff, CodeSec,
              elf::STB_GLOBAL, elf::STT_FUNC);
  W.addSymbol("elfie_syscall", NativeLayout::HostCodeBase + SyscallOff,
              CodeSec, elf::STB_GLOBAL, elf::STT_FUNC);
  W.addSymbol("elfie_abort", NativeLayout::HostCodeBase + AbortOff, CodeSec,
              elf::STB_GLOBAL, elf::STT_FUNC);
  W.addSymbol("elfie_on_fault", NativeLayout::HostCodeBase + FaultHandlerOff,
              CodeSec, elf::STB_GLOBAL, elf::STT_FUNC);
  W.addSymbol("elfie_fault_report", dataAddr(FaultReportOff), DataSec,
              elf::STB_GLOBAL, elf::STT_OBJECT, FltReportSize);
  addRegionSymbols(W, PB, Opts, [&](unsigned I) {
    W.addSymbol(formatString(".t%u.ctx", I), ctxAddr(I), DataSec,
                elf::STB_LOCAL, elf::STT_OBJECT, CtxLayout::Size);
    for (unsigned R = 0; R < isa::NumGPRs; ++R)
      W.addSymbol(formatString(".t%u.r%u", I, R),
                  ctxAddr(I) + CtxLayout::gpr(R), DataSec, elf::STB_LOCAL,
                  elf::STT_OBJECT, 8);
  });
  // Runtime tables, for everify and post-mortem inspection: the stash
  // table (8-byte guest address per stashed stack page) and the sysstate
  // preopen table ({fd, path address, open flags} triples, 24 bytes each).
  if (!StackPages.empty())
    W.addSymbol("elfie_stash_table", dataAddr(StashTableOff), DataSec,
                elf::STB_GLOBAL, elf::STT_OBJECT, StackPages.size() * 8);
  if (!Preopens.empty())
    W.addSymbol("elfie_fd_table", dataAddr(FdTableOff), DataSec,
                elf::STB_GLOBAL, elf::STT_OBJECT, Preopens.size() * 24);

  return W.finalize();
}

} // namespace

Expected<std::vector<uint8_t>>
core::emitNativeElfie(const Pinball &PB, const Pinball2ElfOptions &Opts) {
  NativeEmitter Emitter(PB, Opts);
  return Emitter.emit();
}

std::vector<PerfleLine> core::parsePerfle(const std::string &Stderr) {
  const std::string Format = std::string(PerfPieceA) + "%llu" + PerfPieceB +
                             "%llu" + PerfPieceC + "%llu";
  std::vector<PerfleLine> Out;
  for (const std::string &Line : splitString(Stderr, '\n')) {
    unsigned long long T, N, C;
    if (std::sscanf(Line.c_str(), Format.c_str(), &T, &N, &C) == 3)
      Out.push_back({T, N, C});
  }
  return Out;
}
