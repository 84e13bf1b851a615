//===- x86/Translator.h - EG64 -> x86-64 AOT translation --------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates the checkpointed EG64 code pages of a pinball into native
/// x86-64 code for the emitted ELFie. This is the piece that differs most
/// from Intel's pinball2elf — their guest ISA *is* the host ISA, so their
/// ELFies reuse the checkpointed code bytes directly; here the guest is
/// EG64, so pinball2elf compiles the code pages (exact linear disassembly,
/// possible because EG64 is fixed-width with aligned control-flow targets)
/// and the ELFie executes the translation natively. See DESIGN.md §2.
///
/// Translation model:
///  * %r15 holds the current thread's guest context block; guest registers
///    live at fixed offsets (GPR slot 0 is never written, keeping r0 == 0).
///  * Before each guest instruction the translator emits the graceful-exit
///    countdown: `dec qword [r15 + ICountOff]; js exit_stub` — exactly the
///    per-thread retired-instruction budget of paper §II-C1, implemented in
///    software instead of a PMU counter (see DESIGN.md §2 substitutions).
///  * Direct branches resolve at translation time; indirect jumps (`jalr`)
///    go through an address-translation table (guest offset -> host
///    address) with bounds/alignment checks that route divergence to the
///    abort stub (the "ungraceful exit" of §II-C1 becomes a controlled
///    SIGILL or error exit).
///  * `syscall` calls the runtime stub; `marker` emits an SSC-style marker
///    (`mov ebx, tag; 0x64 0x67 0x90`) so x86 analysis tools can find ROI
///    boundaries (§II-B5).
///  * Instructions that touch only guest registers (ALU, div/rem guards,
///    FP) are lowered by x86/Lowering, shared with the JIT. This file keeps
///    what differs: direct guest-memory access, label/abort-stub control
///    flow, and the fence/marker/syscall/halt/pause and atomic lowerings
///    the JIT leaves to the interpreter (DESIGN.md §12).
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_X86_TRANSLATOR_H
#define ELFIE_X86_TRANSLATOR_H

#include "isa/ISA.h"
#include "support/Error.h"
#include "x86/Encoder.h"

#include <cstdint>
#include <map>
#include <vector>

namespace elfie {
namespace x86 {

/// Guest-context block layout (offsets off %r15). One block per thread,
/// pre-initialized from the pinball's .reg data — the ELFie's "thread
/// context" data section (paper Fig. 3).
struct CtxLayout {
  static constexpr int32_t GprOff = 0;     ///< 16 x u64
  static constexpr int32_t FprOff = 128;   ///< 16 x f64 (as bits)
  static constexpr int32_t ICountOff = 256; ///< remaining budget (i64)
  static constexpr int32_t BudgetOff = 264; ///< initial budget
  static constexpr int32_t SlotOff = 272;   ///< thread slot index
  static constexpr int32_t StartTscOff = 280;
  static constexpr int32_t StartPCOff = 288; ///< guest pc to start at
  static constexpr int32_t Size = 512;

  static int32_t gpr(unsigned R) { return GprOff + 8 * static_cast<int>(R); }
  static int32_t fpr(unsigned R) { return FprOff + 8 * static_cast<int>(R); }
};

/// Translator configuration: absolute addresses fixed by pinball2elf's
/// ELFie layout.
struct TranslatorConfig {
  /// Absolute virtual address the encoder's output will be loaded at.
  uint64_t HostCodeBase = 0;
  /// Absolute virtual address of the guest->host address table. Entry i
  /// (8 bytes) corresponds to guest address CodeLo + 8*i and holds the
  /// absolute host address of its translation (0 = not code).
  uint64_t TableBase = 0;
  /// When false, omit the per-instruction countdown (used by ELFies meant
  /// to run under an external tool that enforces the region end, §II-C1).
  bool EmitICountChecks = true;
};

/// One translated guest code range.
class Translator {
public:
  Translator(Encoder &E, TranslatorConfig Config)
      : E(E), Config(Config) {}

  /// Registers the contents of a captured executable page.
  void addCodePage(uint64_t GuestAddr, const uint8_t *Bytes, size_t Size);

  /// Runtime entry points the translation jumps into (labels in the same
  /// encoder, bound by the runtime emitter before or after this call).
  struct RuntimeLabels {
    Label *SyscallStub = nullptr;   ///< guest `syscall`
    Label *CountdownExit = nullptr; ///< budget exhausted (un-retires one)
    Label *HaltExit = nullptr;      ///< guest `halt` (already retired)
    Label *AbortStub = nullptr;     ///< divergence (ungraceful exit)
  };

  /// Translates everything registered.
  Error translateAll(const RuntimeLabels &RT);

  /// Bounds of the translated guest code range.
  uint64_t codeLo() const { return CodeLo; }
  uint64_t codeHi() const { return CodeHi; }

  /// Encoder offset of the translation of \p GuestAddr; returns false when
  /// the address is not translated code.
  bool hostOffsetFor(uint64_t GuestAddr, size_t &Out) const;

  /// Builds the address-translation table: one u64 host absolute address
  /// per 8 guest bytes in [codeLo, codeHi), 0 for non-code slots. Call
  /// after translateAll().
  std::vector<uint8_t> buildAddressTable() const;

  /// Number of guest instructions translated.
  size_t translatedCount() const { return InstOffsets.size(); }

private:
  void translateInst(uint64_t PC, const isa::Inst &I,
                     const RuntimeLabels &RT);
  Label &labelFor(uint64_t GuestAddr);
  void storeLinkAddress(unsigned GuestReg, uint64_t Value);

  Encoder &E;
  TranslatorConfig Config;
  std::map<uint64_t, std::vector<uint8_t>> Pages;
  uint64_t CodeLo = 0, CodeHi = 0;
  std::map<uint64_t, Label> Labels;      // guest addr -> host label
  std::map<uint64_t, size_t> InstOffsets; // guest addr -> encoder offset
};

} // namespace x86
} // namespace elfie

#endif // ELFIE_X86_TRANSLATOR_H
