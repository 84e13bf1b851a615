//===- x86/Encoder.cpp ----------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "x86/Encoder.h"

#include <cstring>

using namespace elfie;
using namespace elfie::x86;

void Encoder::dword(uint32_t V) {
  for (int I = 0; I < 4; ++I)
    byte(static_cast<uint8_t>(V >> (8 * I)));
}

void Encoder::qword(uint64_t V) {
  for (int I = 0; I < 8; ++I)
    byte(static_cast<uint8_t>(V >> (8 * I)));
}

void Encoder::rex(bool W, uint8_t RegField, uint8_t RmField) {
  uint8_t B = 0x40;
  if (W)
    B |= 0x08;
  if (RegField >= 8)
    B |= 0x04;
  if (RmField >= 8)
    B |= 0x01;
  byte(B);
}

void Encoder::modrmReg(uint8_t RegField, uint8_t Rm) {
  byte(static_cast<uint8_t>(0xC0 | ((RegField & 7) << 3) | (Rm & 7)));
}

void Encoder::modrmMem(uint8_t RegField, uint8_t Base, int32_t Disp) {
  // Always emit the disp32 form: mod=10. RSP/R12 bases need a SIB byte;
  // RBP/R13 are fine with mod=10.
  byte(static_cast<uint8_t>(0x80 | ((RegField & 7) << 3) | (Base & 7)));
  if ((Base & 7) == 4) // RSP/R12: SIB with no index
    byte(0x24);
  dword(static_cast<uint32_t>(Disp));
}

// ---- Labels ----

void Encoder::bind(Label &L) {
  assert(!L.Bound && "label bound twice");
  L.Bound = true;
  L.Off = Code.size();
  for (size_t FixupOff : L.Fixups) {
    int64_t Rel = static_cast<int64_t>(L.Off) -
                  (static_cast<int64_t>(FixupOff) + 4);
    patch32(FixupOff, static_cast<uint32_t>(static_cast<int32_t>(Rel)));
  }
  L.Fixups.clear();
}

void Encoder::emitRel32To(Label &L) {
  if (L.Bound) {
    int64_t Rel = static_cast<int64_t>(L.Off) -
                  (static_cast<int64_t>(Code.size()) + 4);
    dword(static_cast<uint32_t>(static_cast<int32_t>(Rel)));
  } else {
    L.Fixups.push_back(Code.size());
    dword(0);
  }
}

void Encoder::jmp(Label &L) {
  byte(0xE9);
  emitRel32To(L);
}

void Encoder::jcc(Cond C, Label &L) {
  byte(0x0F);
  byte(static_cast<uint8_t>(0x80 | C));
  emitRel32To(L);
}

void Encoder::call(Label &L) {
  byte(0xE8);
  emitRel32To(L);
}

void Encoder::jmpTo(size_t TargetOffset) {
  byte(0xE9);
  int64_t Rel = static_cast<int64_t>(TargetOffset) -
                (static_cast<int64_t>(Code.size()) + 4);
  dword(static_cast<uint32_t>(static_cast<int32_t>(Rel)));
}

void Encoder::repMovsb() {
  byte(0xF3);
  byte(0xA4);
}

void Encoder::patch32(size_t Offset, uint32_t Value) {
  assert(Offset + 4 <= Code.size());
  std::memcpy(Code.data() + Offset, &Value, 4);
}

// ---- Moves ----

void Encoder::movRegImm64(Reg Dst, uint64_t Imm) {
  rex(true, 0, Dst);
  byte(static_cast<uint8_t>(0xB8 | (Dst & 7)));
  qword(Imm);
}

void Encoder::movRegImm32(Reg Dst, uint32_t Imm) {
  if (Dst >= 8)
    byte(0x41);
  byte(static_cast<uint8_t>(0xB8 | (Dst & 7)));
  dword(Imm);
}

void Encoder::movRegReg(Reg Dst, Reg Src) {
  rex(true, Src, Dst);
  byte(0x89);
  modrmReg(Src, Dst);
}

void Encoder::movRegMem(Reg Dst, Reg Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x8B);
  modrmMem(Dst, Base, Disp);
}

void Encoder::movMemReg(Reg Base, int32_t Disp, Reg Src) {
  rex(true, Src, Base);
  byte(0x89);
  modrmMem(Src, Base, Disp);
}

void Encoder::movMemImm32(Reg Base, int32_t Disp, int32_t Imm) {
  rex(true, 0, Base);
  byte(0xC7);
  modrmMem(0, Base, Disp);
  dword(static_cast<uint32_t>(Imm));
}

void Encoder::movMem32Imm32(Reg Base, int32_t Disp, uint32_t Imm) {
  rex(false, 0, Base);
  byte(0xC7);
  modrmMem(0, Base, Disp);
  dword(Imm);
}

void Encoder::movMemReg8(Reg Base, int32_t Disp, Reg Src) {
  // A REX prefix is always emitted so SPL/BPL/SIL/DIL encode correctly.
  rex(false, Src, Base);
  byte(0x88);
  modrmMem(Src, Base, Disp);
}

void Encoder::movMemReg16(Reg Base, int32_t Disp, Reg Src) {
  byte(0x66);
  rex(false, Src, Base);
  byte(0x89);
  modrmMem(Src, Base, Disp);
}

void Encoder::movMemReg32(Reg Base, int32_t Disp, Reg Src) {
  rex(false, Src, Base);
  byte(0x89);
  modrmMem(Src, Base, Disp);
}

void Encoder::movzxRegMem8(Reg Dst, Reg Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x0F);
  byte(0xB6);
  modrmMem(Dst, Base, Disp);
}

void Encoder::movzxRegMem16(Reg Dst, Reg Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x0F);
  byte(0xB7);
  modrmMem(Dst, Base, Disp);
}

void Encoder::movRegMem32(Reg Dst, Reg Base, int32_t Disp) {
  rex(false, Dst, Base);
  byte(0x8B);
  modrmMem(Dst, Base, Disp);
}

void Encoder::movsxRegMem8(Reg Dst, Reg Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x0F);
  byte(0xBE);
  modrmMem(Dst, Base, Disp);
}

void Encoder::movsxRegMem16(Reg Dst, Reg Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x0F);
  byte(0xBF);
  modrmMem(Dst, Base, Disp);
}

void Encoder::movsxRegMem32(Reg Dst, Reg Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x63);
  modrmMem(Dst, Base, Disp);
}

// ---- ALU ----

namespace {
// Helper opcode constants for the common op r64, r/m64 pattern.
} // namespace

void Encoder::addRegReg(Reg Dst, Reg Src) {
  rex(true, Src, Dst);
  byte(0x01);
  modrmReg(Src, Dst);
}

void Encoder::addRegImm32(Reg Dst, int32_t Imm) {
  rex(true, 0, Dst);
  byte(0x81);
  modrmReg(0, Dst);
  dword(static_cast<uint32_t>(Imm));
}

void Encoder::addRegMem(Reg Dst, Reg Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x03);
  modrmMem(Dst, Base, Disp);
}

void Encoder::subRegReg(Reg Dst, Reg Src) {
  rex(true, Src, Dst);
  byte(0x29);
  modrmReg(Src, Dst);
}

void Encoder::subRegImm32(Reg Dst, int32_t Imm) {
  rex(true, 0, Dst);
  byte(0x81);
  modrmReg(5, Dst);
  dword(static_cast<uint32_t>(Imm));
}

void Encoder::subRegMem(Reg Dst, Reg Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x2B);
  modrmMem(Dst, Base, Disp);
}

void Encoder::andRegReg(Reg Dst, Reg Src) {
  rex(true, Src, Dst);
  byte(0x21);
  modrmReg(Src, Dst);
}

void Encoder::andRegImm32(Reg Dst, int32_t Imm) {
  rex(true, 0, Dst);
  byte(0x81);
  modrmReg(4, Dst);
  dword(static_cast<uint32_t>(Imm));
}

void Encoder::andRegMem(Reg Dst, Reg Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x23);
  modrmMem(Dst, Base, Disp);
}

void Encoder::orRegReg(Reg Dst, Reg Src) {
  rex(true, Src, Dst);
  byte(0x09);
  modrmReg(Src, Dst);
}

void Encoder::orRegMem(Reg Dst, Reg Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x0B);
  modrmMem(Dst, Base, Disp);
}

void Encoder::xorRegReg(Reg Dst, Reg Src) {
  rex(true, Src, Dst);
  byte(0x31);
  modrmReg(Src, Dst);
}

void Encoder::xorRegMem(Reg Dst, Reg Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x33);
  modrmMem(Dst, Base, Disp);
}

void Encoder::imulRegReg(Reg Dst, Reg Src) {
  rex(true, Dst, Src);
  byte(0x0F);
  byte(0xAF);
  modrmReg(Dst, Src);
}

void Encoder::imulRegMem(Reg Dst, Reg Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x0F);
  byte(0xAF);
  modrmMem(Dst, Base, Disp);
}

void Encoder::imulMem(Reg Base, int32_t Disp) {
  rex(true, 0, Base);
  byte(0xF7);
  modrmMem(5, Base, Disp);
}

void Encoder::idivReg(Reg Divisor) {
  rex(true, 0, Divisor);
  byte(0xF7);
  modrmReg(7, Divisor);
}

void Encoder::divReg(Reg Divisor) {
  rex(true, 0, Divisor);
  byte(0xF7);
  modrmReg(6, Divisor);
}

void Encoder::cqo() {
  byte(0x48);
  byte(0x99);
}

void Encoder::negReg(Reg R) {
  rex(true, 0, R);
  byte(0xF7);
  modrmReg(3, R);
}

void Encoder::notReg(Reg R) {
  rex(true, 0, R);
  byte(0xF7);
  modrmReg(2, R);
}

void Encoder::shlRegCl(Reg R) {
  rex(true, 0, R);
  byte(0xD3);
  modrmReg(4, R);
}

void Encoder::shrRegCl(Reg R) {
  rex(true, 0, R);
  byte(0xD3);
  modrmReg(5, R);
}

void Encoder::sarRegCl(Reg R) {
  rex(true, 0, R);
  byte(0xD3);
  modrmReg(7, R);
}

void Encoder::shlRegImm(Reg R, uint8_t Imm) {
  rex(true, 0, R);
  byte(0xC1);
  modrmReg(4, R);
  byte(Imm);
}

void Encoder::shrRegImm(Reg R, uint8_t Imm) {
  rex(true, 0, R);
  byte(0xC1);
  modrmReg(5, R);
  byte(Imm);
}

void Encoder::sarRegImm(Reg R, uint8_t Imm) {
  rex(true, 0, R);
  byte(0xC1);
  modrmReg(7, R);
  byte(Imm);
}

void Encoder::cmpRegReg(Reg A, Reg B) {
  rex(true, B, A);
  byte(0x39);
  modrmReg(B, A);
}

void Encoder::cmpRegImm32(Reg A, int32_t Imm) {
  rex(true, 0, A);
  byte(0x81);
  modrmReg(7, A);
  dword(static_cast<uint32_t>(Imm));
}

void Encoder::cmpRegMem(Reg A, Reg Base, int32_t Disp) {
  rex(true, A, Base);
  byte(0x3B);
  modrmMem(A, Base, Disp);
}

void Encoder::cmpMemImm32(Reg Base, int32_t Disp, int32_t Imm) {
  rex(true, 0, Base);
  byte(0x81);
  modrmMem(7, Base, Disp);
  dword(static_cast<uint32_t>(Imm));
}
void Encoder::addMemImm32(Reg Base, int32_t Disp, int32_t Imm) {
  rex(true, 0, Base);
  byte(0x81);
  modrmMem(0, Base, Disp);
  dword(static_cast<uint32_t>(Imm));
}

void Encoder::testRegReg(Reg A, Reg B) {
  rex(true, B, A);
  byte(0x85);
  modrmReg(B, A);
}

void Encoder::testRegImm32(Reg A, int32_t Imm) {
  rex(true, 0, A);
  byte(0xF7);
  modrmReg(0, A);
  dword(static_cast<uint32_t>(Imm));
}

void Encoder::setcc(Cond C, Reg Dst) {
  // setcc dl ; movzx rdx, dl
  rex(false, 0, Dst);
  byte(0x0F);
  byte(static_cast<uint8_t>(0x90 | C));
  modrmReg(0, Dst);
  rex(true, Dst, Dst);
  byte(0x0F);
  byte(0xB6);
  modrmReg(Dst, Dst);
}

void Encoder::leaRegMem(Reg Dst, Reg Base, int32_t Disp) {
  rex(true, Dst, Base);
  byte(0x8D);
  modrmMem(Dst, Base, Disp);
}

void Encoder::decMem(Reg Base, int32_t Disp) {
  rex(true, 0, Base);
  byte(0xFF);
  modrmMem(1, Base, Disp);
}

void Encoder::incMem(Reg Base, int32_t Disp) {
  rex(true, 0, Base);
  byte(0xFF);
  modrmMem(0, Base, Disp);
}

// ---- Control ----

void Encoder::jmpReg(Reg R) {
  if (R >= 8)
    byte(0x41);
  byte(0xFF);
  modrmReg(4, R);
}

void Encoder::callReg(Reg R) {
  if (R >= 8)
    byte(0x41);
  byte(0xFF);
  modrmReg(2, R);
}

void Encoder::ret() { byte(0xC3); }

void Encoder::pushReg(Reg R) {
  if (R >= 8)
    byte(0x41);
  byte(static_cast<uint8_t>(0x50 | (R & 7)));
}

void Encoder::popReg(Reg R) {
  if (R >= 8)
    byte(0x41);
  byte(static_cast<uint8_t>(0x58 | (R & 7)));
}

// ---- Atomics ----

void Encoder::lockXaddMemReg(Reg Base, int32_t Disp, Reg Src) {
  byte(0xF0);
  rex(true, Src, Base);
  byte(0x0F);
  byte(0xC1);
  modrmMem(Src, Base, Disp);
}

void Encoder::xchgMemReg(Reg Base, int32_t Disp, Reg Src) {
  rex(true, Src, Base);
  byte(0x87);
  modrmMem(Src, Base, Disp);
}

void Encoder::lockCmpxchgMemReg(Reg Base, int32_t Disp, Reg Src) {
  byte(0xF0);
  rex(true, Src, Base);
  byte(0x0F);
  byte(0xB1);
  modrmMem(Src, Base, Disp);
}

void Encoder::mfence() {
  byte(0x0F);
  byte(0xAE);
  byte(0xF0);
}

void Encoder::pause() {
  byte(0xF3);
  byte(0x90);
}

// ---- SSE2 ----

void Encoder::movsdXmmMem(XmmReg Dst, Reg Base, int32_t Disp) {
  byte(0xF2);
  if (Base >= 8)
    byte(0x41);
  byte(0x0F);
  byte(0x10);
  modrmMem(Dst, Base, Disp);
}

void Encoder::movsdMemXmm(Reg Base, int32_t Disp, XmmReg Src) {
  byte(0xF2);
  if (Base >= 8)
    byte(0x41);
  byte(0x0F);
  byte(0x11);
  modrmMem(Src, Base, Disp);
}

static void sseOp(Encoder &E, uint8_t Prefix, uint8_t Op, XmmReg Dst,
                  XmmReg Src) {
  // Both operands are XMM0..3, so no REX needed.
  E.emitBytes({Prefix, 0x0F, Op,
               static_cast<uint8_t>(0xC0 | ((Dst & 7) << 3) | (Src & 7))});
}

void Encoder::addsd(XmmReg Dst, XmmReg Src) { sseOp(*this, 0xF2, 0x58, Dst, Src); }
void Encoder::subsd(XmmReg Dst, XmmReg Src) { sseOp(*this, 0xF2, 0x5C, Dst, Src); }
void Encoder::mulsd(XmmReg Dst, XmmReg Src) { sseOp(*this, 0xF2, 0x59, Dst, Src); }
void Encoder::divsd(XmmReg Dst, XmmReg Src) { sseOp(*this, 0xF2, 0x5E, Dst, Src); }
void Encoder::minsd(XmmReg Dst, XmmReg Src) { sseOp(*this, 0xF2, 0x5D, Dst, Src); }
void Encoder::maxsd(XmmReg Dst, XmmReg Src) { sseOp(*this, 0xF2, 0x5F, Dst, Src); }
void Encoder::sqrtsd(XmmReg Dst, XmmReg Src) { sseOp(*this, 0xF2, 0x51, Dst, Src); }
void Encoder::ucomisd(XmmReg A, XmmReg B) { sseOp(*this, 0x66, 0x2E, A, B); }

void Encoder::cvtsi2sd(XmmReg Dst, Reg Src) {
  byte(0xF2);
  rex(true, Dst, Src);
  byte(0x0F);
  byte(0x2A);
  modrmReg(Dst, Src);
}

void Encoder::cvttsd2si(Reg Dst, XmmReg Src) {
  byte(0xF2);
  rex(true, Dst, Src);
  byte(0x0F);
  byte(0x2C);
  modrmReg(Dst, Src);
}

void Encoder::movqXmmReg(XmmReg Dst, Reg Src) {
  byte(0x66);
  rex(true, Dst, Src);
  byte(0x0F);
  byte(0x6E);
  modrmReg(Dst, Src);
}

void Encoder::movqRegXmm(Reg Dst, XmmReg Src) {
  byte(0x66);
  rex(true, Src, Dst);
  byte(0x0F);
  byte(0x7E);
  modrmReg(Src, Dst);
}

// ---- System ----

void Encoder::syscall() {
  byte(0x0F);
  byte(0x05);
}

void Encoder::rdtsc() {
  byte(0x0F);
  byte(0x31);
}

void Encoder::nop() { byte(0x90); }

void Encoder::ud2() {
  byte(0x0F);
  byte(0x0B);
}

void Encoder::int3() { byte(0xCC); }
