//===- x86/Translator.cpp -------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "x86/Translator.h"

#include "x86/Lowering.h"

#include <cstring>

using namespace elfie;
using namespace elfie::x86;
using isa::Inst;
using isa::Opcode;

/// The guest register file: the thread's context block at %r15.
static constexpr StateRef Ctx{R15, CtxLayout::GprOff, CtxLayout::FprOff};

void Translator::addCodePage(uint64_t GuestAddr, const uint8_t *Bytes,
                             size_t Size) {
  std::vector<uint8_t> Copy(Bytes, Bytes + Size);
  if (Pages.empty()) {
    CodeLo = GuestAddr;
    CodeHi = GuestAddr + Size;
  } else {
    CodeLo = std::min(CodeLo, GuestAddr);
    CodeHi = std::max(CodeHi, GuestAddr + Size);
  }
  Pages[GuestAddr] = std::move(Copy);
}

Label &Translator::labelFor(uint64_t GuestAddr) { return Labels[GuestAddr]; }

void Translator::storeLinkAddress(unsigned GuestReg, uint64_t Value) {
  if (Value <= 0x7fffffffull) {
    E.movMemImm32(R15, CtxLayout::gpr(GuestReg),
                  static_cast<int32_t>(Value));
  } else {
    E.movRegImm64(RDX, Value);
    E.movMemReg(R15, CtxLayout::gpr(GuestReg), RDX);
  }
}

Error Translator::translateAll(const RuntimeLabels &RT) {
  if (Pages.empty())
    return makeError("no executable pages to translate");

  // Translate pages in address order; each 8-byte slot gets a label bound
  // at its translation. Slots that fail to decode jump to the abort stub
  // (data bytes inside an executable page).
  for (const auto &[PageAddr, Bytes] : Pages) {
    for (size_t Off = 0; Off + 8 <= Bytes.size(); Off += 8) {
      uint64_t PC = PageAddr + Off;
      Label &L = labelFor(PC);
      E.bind(L);
      InstOffsets[PC] = E.here();
      Inst I;
      if (!isa::decode(Bytes.data() + Off, I)) {
        E.jmp(*RT.AbortStub);
        continue;
      }
      translateInst(PC, I, RT);
    }
  }

  // Bind any labels created for branch targets that fall in gaps between
  // captured pages: executing them means divergence -> abort.
  for (auto &[Addr, L] : Labels)
    if (!L.isBound()) {
      E.bind(L);
      E.jmp(*RT.AbortStub);
    }
  return Error::success();
}

bool Translator::hostOffsetFor(uint64_t GuestAddr, size_t &Out) const {
  auto It = InstOffsets.find(GuestAddr);
  if (It == InstOffsets.end())
    return false;
  Out = It->second;
  return true;
}

std::vector<uint8_t> Translator::buildAddressTable() const {
  size_t Slots = static_cast<size_t>((CodeHi - CodeLo) / 8);
  std::vector<uint8_t> Table(Slots * 8, 0);
  for (const auto &[Addr, Off] : InstOffsets) {
    uint64_t Host = Config.HostCodeBase + Off;
    size_t Slot = static_cast<size_t>((Addr - CodeLo) / 8);
    std::memcpy(Table.data() + Slot * 8, &Host, 8);
  }
  return Table;
}

void Translator::translateInst(uint64_t PC, const Inst &I,
                               const RuntimeLabels &RT) {
  Label &SyscallStub = *RT.SyscallStub;
  Label &AbortStub = *RT.AbortStub;
  // Graceful-exit countdown (software retired-instruction counter). When
  // the counter goes negative the current instruction has NOT retired;
  // the countdown-exit stub un-decrements before accounting.
  if (Config.EmitICountChecks) {
    E.decMem(R15, CtxLayout::ICountOff);
    E.jcc(CondS, *RT.CountdownExit);
  }
  // Register-only instructions lower as in the JIT (x86/Lowering).
  if (lowerDataOp(E, Ctx, I))
    return;

  auto Imm64 = [&]() { return static_cast<int64_t>(I.Imm); };

  // Emits a direct control transfer to guest address \p Target.
  auto JumpTo = [&](uint64_t Target) {
    if (Target < CodeLo || Target >= CodeHi || (Target & 7)) {
      E.jmp(AbortStub);
      return;
    }
    E.jmp(labelFor(Target));
  };

  const isa::OpInfo &Row = isa::opInfo(I.Op);
  // Loads and stores: effective address into RAX, value through RDX.
  auto LoadEA = [&]() {
    loadGpr(E, Ctx, RAX, I.Rs1);
    if (I.Imm != 0)
      E.leaRegMem(RAX, RAX, I.Imm);
  };
  switch (Row.Operands) {
  case isa::Form::Load:
  case isa::Form::FLoad:
    LoadEA();
    if (Row.Width == 1)
      Row.Signed ? E.movsxRegMem8(RDX, RAX, 0) : E.movzxRegMem8(RDX, RAX, 0);
    else if (Row.Width == 2)
      Row.Signed ? E.movsxRegMem16(RDX, RAX, 0)
                 : E.movzxRegMem16(RDX, RAX, 0);
    else if (Row.Width == 4)
      Row.Signed ? E.movsxRegMem32(RDX, RAX, 0) : E.movRegMem32(RDX, RAX, 0);
    else
      E.movRegMem(RDX, RAX, 0);
    if (Row.Operands == isa::Form::FLoad)
      storeFprBits(E, Ctx, I.Rd, RDX);
    else
      storeGpr(E, Ctx, I.Rd, RDX);
    return;
  case isa::Form::Store:
  case isa::Form::FStore:
    LoadEA();
    if (Row.Operands == isa::Form::FStore)
      loadFprBits(E, Ctx, RDX, I.Rd);
    else
      loadGpr(E, Ctx, RDX, I.Rd);
    if (Row.Width == 1)
      E.movMemReg8(RAX, 0, RDX);
    else if (Row.Width == 2)
      E.movMemReg16(RAX, 0, RDX);
    else if (Row.Width == 4)
      E.movMemReg32(RAX, 0, RDX);
    else
      E.movMemReg(RAX, 0, RDX);
    return;
  case isa::Form::Branch: {
    Cond C = branchCond(I.Op);
    uint64_t Target = PC + Imm64();
    loadGpr(E, Ctx, RAX, I.Rs1);
    E.cmpRegMem(RAX, R15, CtxLayout::gpr(I.Rs2));
    if (Target < CodeLo || Target >= CodeHi || (Target & 7)) {
      // Taken path diverges out of the captured code: abort if taken.
      E.jcc(C, AbortStub);
    } else {
      E.jcc(C, labelFor(Target));
    }
    return;
  }
  default:
    break;
  }

  switch (I.Op) {
  case Opcode::Fence:
    E.mfence();
    break;
  case Opcode::Pause:
    E.pause();
    break;
  case Opcode::Halt:
    // Guest machine stop: treat as region end (halt itself retires).
    E.jmp(*RT.HaltExit);
    break;
  case Opcode::Marker:
    // SSC-style marker so x86 tools can locate ROI boundaries.
    E.movRegImm32(RBX, static_cast<uint32_t>(I.Imm));
    E.emitBytes({0x64, 0x67, 0x90});
    break;
  case Opcode::Syscall:
    E.call(SyscallStub);
    break;
  case Opcode::Jmp:
    JumpTo(PC + Imm64());
    break;
  case Opcode::Jal: {
    if (I.Rd != isa::RegZero)
      storeLinkAddress(I.Rd, PC + 8);
    JumpTo(PC + Imm64());
    break;
  }
  case Opcode::Jalr: {
    if (I.Rd != isa::RegZero)
      storeLinkAddress(I.Rd, PC + 8);
    loadGpr(E, Ctx, RAX, I.Rs1);
    if (I.Imm != 0)
      E.leaRegMem(RAX, RAX, I.Imm);
    // Alignment check.
    E.testRegImm32(RAX, 7);
    E.jcc(CondNE, AbortStub);
    // Bounds check and table lookup.
    E.movRegImm64(RDX, CodeLo);
    E.subRegReg(RAX, RDX);
    E.movRegImm64(RDX, CodeHi - CodeLo);
    E.cmpRegReg(RAX, RDX);
    E.jcc(CondAE, AbortStub);
    E.movRegImm64(RDX, Config.TableBase);
    E.addRegReg(RDX, RAX);
    E.movRegMem(RAX, RDX, 0);
    E.testRegReg(RAX, RAX);
    E.jcc(CondE, AbortStub);
    E.jmpReg(RAX);
    break;
  }

  case Opcode::AmoAdd:
    loadGpr(E, Ctx, RAX, I.Rs2);
    loadGpr(E, Ctx, RCX, I.Rs1);
    E.lockXaddMemReg(RCX, 0, RAX);
    storeGpr(E, Ctx, I.Rd, RAX);
    break;
  case Opcode::AmoSwap:
    loadGpr(E, Ctx, RAX, I.Rs2);
    loadGpr(E, Ctx, RCX, I.Rs1);
    E.xchgMemReg(RCX, 0, RAX);
    storeGpr(E, Ctx, I.Rd, RAX);
    break;
  case Opcode::Cas:
    loadGpr(E, Ctx, RAX, I.Rd); // expected
    loadGpr(E, Ctx, RDX, I.Rs2); // new value
    loadGpr(E, Ctx, RCX, I.Rs1); // address
    E.lockCmpxchgMemReg(RCX, 0, RDX);
    storeGpr(E, Ctx, I.Rd, RAX); // rax holds the old value either way
    break;

  default:
    break; // register-only: lowered by lowerDataOp above
  }
}
