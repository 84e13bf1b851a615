//===- tests/vm/RawVM.h - VMs over hand-built instruction lists -*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tiny programs built directly from isa::Inst lists into an RWX page,
/// bypassing the assembler and loader: the self-modifying-code tests need
/// code in a *writable* page, which the ELF loader never produces.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_TESTS_VM_RAWVM_H
#define ELFIE_TESTS_VM_RAWVM_H

#include "isa/ISA.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace elfie {
namespace test {

constexpr uint64_t CodeBase = 0x10000;

inline isa::Inst I3(isa::Opcode Op, uint8_t Rd, uint8_t Rs1, uint8_t Rs2,
                    int32_t Imm) {
  isa::Inst I;
  I.Op = Op;
  I.Rd = Rd;
  I.Rs1 = Rs1;
  I.Rs2 = Rs2;
  I.Imm = Imm;
  return I;
}

/// Hot configuration: promote after a handful of entries so short test
/// programs exercise compiled dispatch.
inline vm::VMConfig jitConfig(bool Enable) {
  vm::VMConfig C;
  C.EnableJit = Enable;
  C.JitThreshold = 4;
  return C;
}

/// A VM with \p Prog in an RWX page at \p Base and one thread at its start.
inline std::unique_ptr<vm::VM> rawVM(const std::vector<isa::Inst> &Prog,
                                     vm::VMConfig Config = vm::VMConfig(),
                                     uint64_t Base = CodeBase) {
  if (!Config.StdoutSink)
    Config.StdoutSink = [](const char *, size_t) {};
  auto M = std::make_unique<vm::VM>(Config);
  M->mem().map(Base, vm::GuestPageSize, vm::PermRWX);
  for (size_t K = 0; K < Prog.size(); ++K) {
    uint64_t Word = isa::encode(Prog[K]);
    EXPECT_EQ(M->mem().poke(Base + K * isa::InstSize, &Word, 8),
              vm::MemFault::None);
  }
  vm::ThreadState T;
  T.PC = Base;
  M->spawnThread(T);
  return M;
}

} // namespace test
} // namespace elfie

#endif // ELFIE_TESTS_VM_RAWVM_H
