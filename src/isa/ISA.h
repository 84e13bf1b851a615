//===- isa/ISA.h - The EG64 guest instruction set ---------------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// EG64: the guest ISA used in place of x86 throughout this reproduction
/// (see DESIGN.md §2/§4). It is a 64-bit little-endian RISC-style ISA with a
/// **fixed 8-byte instruction word**:
///
///   byte 0   opcode
///   byte 1   rd   (destination register, or marker kind)
///   byte 2   rs1
///   byte 3   rs2
///   bytes 4-7  imm32 (signed, little-endian)
///
/// All control-flow targets must be 8-byte aligned, which makes linear
/// disassembly of code pages exact — the property pinball2elf relies on to
/// translate checkpointed code pages without a code-discovery heuristic.
///
/// Architectural state: r0 (hardwired zero), r1..r15 64-bit GPRs (r15 = sp
/// by convention), f0..f15 IEEE-754 doubles, pc. There is no flags register;
/// comparisons write 0/1 into a GPR (RISC-V style). Integer division follows
/// RISC-V semantics (div by zero => all-ones / rs1; INT64_MIN/-1 =>
/// INT64_MIN / 0) so that native translation can reproduce them exactly.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_ISA_ISA_H
#define ELFIE_ISA_ISA_H

#include <array>
#include <cstdint>
#include <string>

namespace elfie {
namespace isa {

/// Number of integer and floating-point registers.
constexpr unsigned NumGPRs = 16;
constexpr unsigned NumFPRs = 16;

/// Size of every instruction in bytes.
constexpr uint64_t InstSize = 8;

/// Conventional register roles.
constexpr unsigned RegZero = 0; ///< r0: hardwired zero
constexpr unsigned RegSP = 15;  ///< r15: stack pointer by convention
constexpr unsigned RegLR = 14;  ///< r14: link register by convention

/// Default guest address-space layout (the EVM loader and the workload
/// suite use these; nothing in the ISA itself depends on them).
constexpr uint64_t TextBase = 0x10000;
constexpr uint64_t HeapBase = 0x10000000;
constexpr uint64_t DefaultStackTop = 0x7f0000000;

/// EG64 opcodes. Gaps between groups leave room for extensions; the decoder
/// rejects anything not listed here.
enum class Opcode : uint8_t {
  // Miscellaneous.
  Nop = 0x00,
  Halt = 0x01,    ///< stop the whole machine (testing convenience)
  Marker = 0x02,  ///< ROI marker: rd = kind, imm = tag (see MarkerKind)
  Syscall = 0x03, ///< number in r7, args r1..r6, result in r1
  Fence = 0x04,   ///< memory fence (total order point in the EVM)
  Pause = 0x05,   ///< spin-loop hint; retires like a nop

  // Integer ALU, register forms: rd = rs1 op rs2.
  Add = 0x10,
  Sub = 0x11,
  Mul = 0x12,
  Mulh = 0x13, ///< high 64 bits of the signed 128-bit product
  Div = 0x14,
  Divu = 0x15,
  Rem = 0x16,
  Remu = 0x17,
  And = 0x18,
  Or = 0x19,
  Xor = 0x1a,
  Shl = 0x1b,
  Shr = 0x1c, ///< logical right shift
  Sar = 0x1d, ///< arithmetic right shift
  Slt = 0x1e, ///< rd = (int64)rs1 < (int64)rs2
  Sltu = 0x1f,
  Seq = 0x20, ///< rd = rs1 == rs2
  Mov = 0x21, ///< rd = rs1

  // Integer ALU, immediate forms: rd = rs1 op sext(imm32).
  Addi = 0x30,
  Muli = 0x31,
  Andi = 0x32,
  Ori = 0x33,
  Xori = 0x34,
  Shli = 0x35,
  Shri = 0x36,
  Sari = 0x37,
  Slti = 0x38,
  Sltui = 0x39,
  Ldi = 0x3a,  ///< rd = sext(imm32)
  Ldih = 0x3b, ///< rd = (imm32 << 32) | (rd & 0xffffffff)

  // Loads: rd = mem[rs1 + imm]; zero-extending unless noted.
  Ld1 = 0x40,
  Ld2 = 0x41,
  Ld4 = 0x42,
  Ld8 = 0x43,
  Ld1s = 0x44, ///< sign-extending
  Ld2s = 0x45,
  Ld4s = 0x46,
  // Stores: mem[rs1 + imm] = rd (low bytes).
  St1 = 0x47,
  St2 = 0x48,
  St4 = 0x49,
  St8 = 0x4a,

  // Control flow. Branch displacement imm32 is in bytes relative to the
  // branch's own address; it must be a multiple of 8.
  Beq = 0x50,
  Bne = 0x51,
  Blt = 0x52, ///< signed
  Bge = 0x53, ///< signed
  Bltu = 0x54,
  Bgeu = 0x55,
  Jmp = 0x56,  ///< pc += imm
  Jal = 0x57,  ///< rd = pc + 8; pc += imm
  Jalr = 0x58, ///< rd = pc + 8; pc = r[rs1] + imm (must be 8-aligned)

  // Atomics (sequentially consistent in the EVM).
  AmoAdd = 0x60,  ///< rd = mem[rs1]; mem[rs1] += rs2 (64-bit)
  AmoSwap = 0x61, ///< rd = mem[rs1]; mem[rs1] = rs2
  Cas = 0x62,     ///< t = mem[rs1]; if (t == rd) mem[rs1] = rs2; rd = t

  // Floating point (IEEE double).
  Fadd = 0x70,
  Fsub = 0x71,
  Fmul = 0x72,
  Fdiv = 0x73,
  Fmin = 0x74,
  Fmax = 0x75,
  Fsqrt = 0x76, ///< f[rd] = sqrt(f[rs1])
  Fneg = 0x77,
  Fabs = 0x78,
  Fmov = 0x79,
  Feq = 0x7a, ///< r[rd] = f[rs1] == f[rs2]
  Flt = 0x7b,
  Fle = 0x7c,
  Fld = 0x7d,    ///< f[rd] = mem64[r[rs1] + imm]
  Fst = 0x7e,    ///< mem64[r[rs1] + imm] = f[rd]
  Fcvtid = 0x7f, ///< f[rd] = (double)(int64)r[rs1]
  Fcvtdi = 0x80, ///< r[rd] = (int64)trunc(f[rs1])
  FmvToF = 0x81, ///< f[rd] = bits(r[rs1])
  FmvToI = 0x82, ///< r[rd] = bits(f[rs1])
};

/// Marker kinds accepted by `--roi-start [TYPE:]TAG` (paper §II-B5); the
/// simulators in src/sim recognize all three.
enum class MarkerKind : uint8_t {
  Sniper = 0,
  SSC = 1,
  Simics = 2,
};

/// Conventional marker tags.
enum : int32_t {
  MarkerTagRoiStart = 1,
  MarkerTagRoiEnd = 2,
};

/// EVM system call numbers (guest ABI; see DESIGN.md §4).
enum class Sys : uint64_t {
  Exit = 0,      ///< exit(code): terminate the calling thread
  ExitGroup = 1, ///< exit_group(code): terminate all threads
  Write = 2,     ///< write(fd, buf, len)
  Read = 3,      ///< read(fd, buf, len)
  Open = 4,      ///< open(path, flags, mode)
  Close = 5,     ///< close(fd)
  Lseek = 6,     ///< lseek(fd, off, whence)
  Brk = 7,       ///< brk(addr); brk(0) queries
  ClockGetTimeNs = 8, ///< returns nanoseconds (non-repeatable!)
  Clone = 9,     ///< clone(entry, stack, arg) -> child tid
  GetTid = 10,   ///< gettid()
  Yield = 11,    ///< sched_yield()
  MmapAnon = 12, ///< mmap_anon(addr, len) -> addr (0 addr = any)
  Munmap = 13,   ///< munmap(addr, len)
};

/// open() flag bits in the guest ABI.
enum : uint64_t {
  GuestO_RDONLY = 0,
  GuestO_WRONLY = 1,
  GuestO_RDWR = 2,
  GuestO_CREAT = 0x40,
  GuestO_TRUNC = 0x200,
  GuestO_APPEND = 0x400,
};

/// lseek() whence values in the guest ABI (match Linux).
enum : uint64_t { GuestSEEK_SET = 0, GuestSEEK_CUR = 1, GuestSEEK_END = 2 };

/// Syscall ABI register assignments.
constexpr unsigned SysNrReg = 7;     ///< r7 holds the syscall number
constexpr unsigned SysArgReg0 = 1;   ///< r1..r6 hold arguments
constexpr unsigned SysRetReg = 1;    ///< r1 receives the result

/// A decoded instruction.
struct Inst {
  Opcode Op = Opcode::Nop;
  uint8_t Rd = 0;
  uint8_t Rs1 = 0;
  uint8_t Rs2 = 0;
  int32_t Imm = 0;

  bool operator==(const Inst &Other) const = default;
};

/// Encodes \p I into its 8-byte representation.
uint64_t encode(const Inst &I);

/// Decodes 8 bytes. Returns false (and leaves \p Out untouched) for invalid
/// encodings: unknown opcodes or out-of-range register fields.
bool decode(uint64_t Word, Inst &Out);

/// Decodes from a byte pointer (little-endian).
bool decode(const uint8_t *Bytes, Inst &Out);

/// True when \p Op is a valid EG64 opcode value.
bool isValidOpcode(uint8_t Op);

/// Operand form: which instruction fields an opcode uses and how. Each form
/// is one assembler syntax and one disassembly layout.
enum class Form : uint8_t {
  None,   ///< no operands
  Marker, ///< kind (the rd field), tag (imm)
  RRR,    ///< rd, rs1, rs2
  RR,     ///< rd, rs1
  RRI,    ///< rd, rs1, imm
  RI,     ///< rd, imm
  Load,   ///< rd, imm(rs1)
  Store,  ///< rd, imm(rs1); rd is the value stored
  Branch, ///< rs1, rs2, target (pc + imm)
  Jmp,    ///< target (pc + imm)
  Jal,    ///< rd, target (pc + imm)
  Jalr,   ///< rd, rs1, imm
  Atomic, ///< rd, (rs1), rs2
  FFF,    ///< fd, fs1, fs2
  FF,     ///< fd, fs1
  RFF,    ///< rd, fs1, fs2
  FLoad,  ///< fd, imm(rs1)
  FStore, ///< fd, imm(rs1); fd is the value stored
  FR,     ///< fd, rs1
  RF,     ///< rd, fs1
};

/// True when instructions of form \p F write GPR rd.
constexpr bool writesGpr(Form F) {
  switch (F) {
  case Form::RRR:
  case Form::RR:
  case Form::RRI:
  case Form::RI:
  case Form::Load:
  case Form::Jal:
  case Form::Jalr:
  case Form::Atomic:
  case Form::RFF:
  case Form::RF:
    return true;
  default:
    return false;
  }
}

/// Control-flow class. Each class includes the ones before it: a branch is
/// control flow, and control flow ends a decoded block.
enum class Flow : uint8_t {
  Straight,    ///< falls through to pc + 8
  Terminator,  ///< falls through but ends a decoded block: syscall, marker
  ControlFlow, ///< jmp, jal, jalr, halt
  Branch,      ///< conditional branches
};

/// The guest memory an instruction accesses. Loads and stores address
/// r[rs1] + imm; atomics address r[rs1] (no displacement), read it and
/// write it.
enum class Access : uint8_t { None, Load, Store, Atomic };

/// One opcode's static facts. isa/ISA.cpp holds exactly one row per
/// opcode; every consumer reads the row instead of listing opcodes.
struct OpInfo {
  Opcode Op = Opcode::Nop;
  const char *Name = nullptr; ///< nullptr: the byte is not an opcode
  Form Operands = Form::None;
  Flow Control = Flow::Straight;
  Access Mem = Access::None;
  uint8_t Width = 0;   ///< access width in bytes (Mem != None)
  bool Signed = false; ///< the loaded value is sign-extended
};

/// The rows indexed by opcode byte; bytes that are no opcode hold a row
/// with a null Name.
extern const std::array<OpInfo, 256> OpInfoByCode;

inline const OpInfo &opInfo(Opcode Op) {
  return OpInfoByCode[static_cast<uint8_t>(Op)];
}

/// Conditional branches only.
inline bool isBranch(Opcode Op) { return opInfo(Op).Control == Flow::Branch; }
/// Branches, jumps, jal/jalr and halt.
inline bool isControlFlow(Opcode Op) {
  return opInfo(Op).Control >= Flow::ControlFlow;
}
/// True when \p Op must terminate a decoded straight-line block (the EVM's
/// decode cache): control flow (incl. halt), syscalls, and markers.
inline bool isBlockTerminator(Opcode Op) {
  return opInfo(Op).Control >= Flow::Terminator;
}

/// Mnemonic for \p Op ("add", "ld8", ...). Unknown opcodes yield "<bad>".
const char *opcodeName(Opcode Op);

/// Looks up an opcode by mnemonic; returns false when unknown.
bool opcodeFromName(const std::string &Name, Opcode &Out);

/// Canonical register names: "r0".."r15" with aliases "sp" (r15), "lr" (r14)
/// and "zero" (r0); FP registers are "f0".."f15".
std::string gprName(unsigned Reg);
std::string fprName(unsigned Reg);

/// Renders \p I at address \p PC as assembly text (branch targets are shown
/// resolved to absolute addresses).
std::string disassemble(const Inst &I, uint64_t PC);

} // namespace isa
} // namespace elfie

#endif // ELFIE_ISA_ISA_H
