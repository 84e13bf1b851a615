//===- x86/JITEmitter.h - template JIT for hot EG64 blocks ------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles hot EG64 basic blocks into host x86-64 code for the EVM's
/// in-process JIT (`ereplay -jit` / `esim -jit`, DESIGN.md §12). Unlike the
/// AOT Translator (which emits a whole ELFie with its own runtime), the JIT
/// executes *inside* the EVM and must preserve its observable semantics
/// exactly:
///
///  * Guest registers live directly in the VM's ThreadState (no copy in or
///    out). %r14 holds the ThreadState base, %r15 the JitExecContext base,
///    %r13 the block-log cursor and %r12 its stride; all are callee-saved
///    so helper calls preserve them. GPR slot 0 is never written (r0 stays
///    zero).
///  * Instead of the Translator's per-instruction countdown, each block
///    entry performs one check: `cmp qword [ctx+Countdown], NumInsts; jl
///    out`. Every exit path subtracts exactly the instructions retired on
///    that path, so the dispatcher always knows the precise retired count
///    and can stop the machine at *any* instruction boundary (the property
///    the lockstep differential test leans on). A short-countdown exit
///    retires nothing; the dispatcher interprets the tail of the quantum.
///  * Guest loads/stores call back into the VM through function pointers in
///    the context (the VM keeps a software TLB on that path). A helper
///    reports a fault by clearing ctx.MemOk; the emitted check exits with
///    the faulting instruction *not* retired so the interpreter can re-run
///    it and produce the canonical fault.
///  * Stores additionally test ctx.Pending, which the VM sets when a store
///    invalidated compiled code, so no stale block runs past that point.
///  * Syscalls, markers, halt, pause, and atomics are not translated: the
///    block's compilable prefix ends there and the bail exit hands the
///    instruction to the interpreter (bailout taxonomy in DESIGN.md §12).
///    The AOT atomics lowering does not carry over: it works on host
///    addresses, and JIT memory goes through the VM helpers.
///  * Instructions that touch only guest registers are lowered by
///    x86/Lowering, exactly as in the AOT Translator; this file keeps the
///    helper-call memory path and the exit protocol, which share no code
///    with the Translator's direct memory access and label jumps.
///  * Each chain exit ends in a patchable `jmp rel32` (initially rel32=0,
///    falling through to a return stub). The block cache patches it to the
///    target's entry once that target is compiled — direct-threaded
///    superblock chaining without re-entering the dispatcher.
///  * A block that passes its entry check appends its block-cache id (a
///    patchable imm32) to the dispatch's block log: `mov dword [r13], id;
///    add r13, r12`. The trampoline loads the log cursor into %r13 and the
///    stride into %r12 and stores the cursor back on return, so a chain
///    needs no extra exit; a zero stride (nobody reads the log) keeps every
///    block on one slot. Every logged block but the last retired its whole
///    prefix, which is how the dispatcher replays the chain block by block.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_X86_JITEMITTER_H
#define ELFIE_X86_JITEMITTER_H

#include "isa/ISA.h"
#include "x86/Encoder.h"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace elfie {
namespace x86 {

/// Why a compiled block returned to the dispatcher (%rax at exit).
enum JitExitKind : uint32_t {
  JitExitCountdown = 0, ///< entry check failed; nothing retired
  JitExitChain = 1,     ///< ran to the end; chain target not compiled (yet)
  JitExitIndirect = 2,  ///< jalr taken; ctx.NextPC holds the runtime target
  JitExitBail = 3,      ///< next instruction needs the interpreter
  JitExitMemRetry = 4,  ///< load/store faulted; instruction NOT retired
  JitExitInvalidate = 5 ///< a store invalidated compiled code; stop here
};

/// True when the JIT hands \p Op back to the interpreter instead of
/// translating it (the bailout set: syscalls, markers, halt, pause, and
/// atomics — DESIGN.md §12). Exported so the static JIT-translatability
/// analysis (src/analyze/cfg) classifies instructions with the exact
/// predicate the emitter compiles with; the two cannot drift.
bool jitNeedsInterpreter(isa::Opcode Op);

/// Kind selector passed to the load helper: bits 0-1 hold log2 of the
/// width in bytes, bit 2 is set when the value is sign-extended.
enum JitLoadKind : uint32_t {
  JitLoadU8 = 0,
  JitLoadU16 = 1,
  JitLoadU32 = 2,
  JitLoadU64 = 3,
  JitLoadS8 = 4,
  JitLoadS16 = 5,
  JitLoadS32 = 6,
};

/// The load helper's kind for a load of \p Width bytes (1, 2, 4 or 8).
inline JitLoadKind jitLoadKind(unsigned Width, bool Signed) {
  return static_cast<JitLoadKind>(std::countr_zero(Width) | (Signed ? 4 : 0));
}
inline unsigned jitLoadWidth(uint64_t Kind) { return 1u << (Kind & 3); }
inline bool jitLoadSigned(uint64_t Kind) { return Kind & 4; }

/// Guest memory helpers the emitted code calls through the context. The
/// cookie is the VM. On fault the helper clears ctx.MemOk and the load
/// helper's result is ignored. The store helper receives the width in
/// bytes.
using JitLoadFn = uint64_t (*)(void *Cookie, uint64_t Addr, uint64_t Kind);
using JitStoreFn = void (*)(void *Cookie, uint64_t Addr, uint64_t Value,
                            uint64_t Size);

/// Runtime offsets the emitter addresses state through. Unlike the AOT
/// CtxLayout these are not fixed constants: the thread-state offsets come
/// from offsetof() on the VM's real ThreadState, the context offsets from
/// offsetof() on JitExecContext (both owned by src/vm, which fills this in
/// — src/x86 stays independent of the VM headers).
struct JitLayout {
  // Offsets into the execution context (%r15 base).
  int32_t CountdownOff = 0; ///< i64 instructions this dispatch may retire
  int32_t NextPCOff = 0;    ///< u64 guest PC to resume at after the exit
  int32_t MemOkOff = 0;     ///< u64, cleared by a faulting memory helper
  int32_t PendingOff = 0;   ///< u64, set when compiled code was invalidated
  int32_t CookieOff = 0;    ///< void* helper cookie (the VM)
  int32_t LoadFnOff = 0;    ///< JitLoadFn
  int32_t StoreFnOff = 0;   ///< JitStoreFn
  int32_t ThreadOff = 0;    ///< ThreadState* of the dispatched thread
  int32_t LogPosOff = 0;    ///< uint32_t* next block-log slot
  int32_t LogStrideOff = 0; ///< u64 bytes the cursor advances per block
  // Offsets into the thread state (%r14 base).
  int32_t GprOff = 0; ///< 16 x u64
  int32_t FprOff = 0; ///< 16 x f64
};

/// A patchable chain exit: `JmpOff` is the offset (within the block's code)
/// of an `E9 rel32` whose rel32 is 0 (fall through to the return stub). The
/// block cache patches it once code for TargetPC exists.
struct JitChainExit {
  size_t JmpOff;
  uint64_t TargetPC;
};

/// One compiled block: position-independent except for the chain exits.
struct JitBlockCode {
  std::vector<uint8_t> Code;
  std::vector<JitChainExit> Exits;
  /// Instructions in the compiled prefix — the entry check constant and the
  /// maximum any path through the block retires.
  uint32_t NumInsts = 0;
  /// Offset (within Code) of the imm32 the block logs on entry; the block
  /// cache patches its id there.
  size_t LogIdOff = 0;
};

/// Compiles the longest translatable prefix of the decoded block starting
/// at \p StartPC. Returns false (and leaves \p Out empty) when the first
/// instruction already needs the interpreter.
bool emitJitBlock(uint64_t StartPC, const isa::Inst *Insts, size_t N,
                  const JitLayout &L, JitBlockCode &Out);

/// Emits the dispatch trampoline `uint64_t(void *Ctx, const void *Entry)`:
/// saves callee-saved registers, loads %r15/%r14 and the block-log
/// cursor and stride, calls the block, stores the cursor back, and returns
/// its exit kind. Emit once at the start of the executable buffer.
void emitJitTrampoline(Encoder &E, const JitLayout &L);

/// A W^X mmap'd code buffer. Writable only inside beginWrite()/endWrite()
/// windows; executable otherwise.
class ExecBuffer {
public:
  ExecBuffer() = default;
  ~ExecBuffer();
  ExecBuffer(const ExecBuffer &) = delete;
  ExecBuffer &operator=(const ExecBuffer &) = delete;

  /// Maps \p Bytes of RW memory. Returns false when mmap fails.
  bool init(size_t Bytes);
  bool ready() const { return Base != nullptr; }

  /// Flips the whole buffer writable / executable-only.
  void beginWrite();
  void endWrite();

  /// Appends \p N bytes (16-byte aligned start) inside a write window.
  /// Returns the offset, or SIZE_MAX when the buffer is full.
  size_t append(const uint8_t *Bytes, size_t N);

  /// Drops everything appended after offset \p Mark (full flush support).
  void resetTo(size_t Mark) { Used = Mark; }

  /// Patches the rel32 of the `E9` jmp at \p JmpOff to land on \p Target
  /// (both buffer offsets). Must be inside a write window.
  void patchJmp(size_t JmpOff, size_t Target);

  /// Overwrites the 4 bytes at \p Off with \p V. Must be inside a write
  /// window.
  void patch32(size_t Off, uint32_t V);

  const uint8_t *data() const { return Base; }
  size_t used() const { return Used; }
  size_t capacity() const { return Cap; }

private:
  uint8_t *Base = nullptr;
  size_t Cap = 0;
  size_t Used = 0;
  bool Writable = false;
};

} // namespace x86
} // namespace elfie

#endif // ELFIE_X86_JITEMITTER_H
