//===- easm/Assembler.cpp -------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "easm/Assembler.h"

#include "elf/ELFTypes.h"
#include "elf/ELFWriter.h"
#include "support/FileIO.h"
#include "support/Format.h"

#include <algorithm>
#include <cctype>
#include <cstring>

using namespace elfie;
using namespace elfie::easm;
using isa::Inst;
using isa::Opcode;

namespace {

/// A parsed operand.
struct Operand {
  enum Kind { IntReg, FpReg, Imm, Sym, Mem } K;
  unsigned Reg = 0;        // IntReg/FpReg; Mem base register
  int64_t Value = 0;       // Imm; Mem displacement; Sym addend
  std::string Symbol;      // Sym
};

/// A line item scheduled for pass 2.
struct PendingInst {
  Opcode Op;
  uint8_t Rd = 0, Rs1 = 0, Rs2 = 0;
  // The immediate is either a literal or a symbol reference.
  bool ImmIsSym = false;
  bool ImmIsBranchTarget = false; // pc-relative resolution
  bool ImmIsHigh32 = false;       // take bits 63..32 of the value (ldih)
  int64_t ImmLiteral = 0;
  std::string ImmSymbol;
  int64_t ImmAddend = 0;
  uint64_t Address = 0;
  int Line = 0;
};

struct DataFixup {
  size_t SectionIndex;
  size_t Offset;     // byte offset in section data
  unsigned Size;     // 1/2/4/8
  std::string Symbol;
  int64_t Addend;
  int Line;
};

struct SectionState {
  std::string Name;
  uint64_t BaseAddr = 0;
  bool BaseSet = false;
  uint64_t Flags = 0;
  bool IsNoBits = false;
  std::vector<uint8_t> Data;
  uint64_t Size = 0; // tracks .bss too
};

class Assembler {
public:
  Assembler(const std::string &Source, const std::string &SourceName)
      : Source(Source), SourceName(SourceName) {
    SectionState Text, Data, Bss;
    Text.Name = ".text";
    Text.Flags = elf::SHF_ALLOC | elf::SHF_EXECINSTR;
    Data.Name = ".data";
    Data.Flags = elf::SHF_ALLOC | elf::SHF_WRITE;
    Bss.Name = ".bss";
    Bss.Flags = elf::SHF_ALLOC | elf::SHF_WRITE;
    Bss.IsNoBits = true;
    Sections = {Text, Data, Bss};
  }

  Expected<AssembledProgram> run();

private:
  struct InstRecord : PendingInst {
    size_t SectionIndex = 0;
    size_t Offset = 0;
  };

  Error fail(std::string Msg) {
    return Error::failure(formatString("%s:%d: %s", SourceName.c_str(),
                                       LineNo, Msg.c_str()));
  }

  SectionState &cur() { return Sections[CurSection]; }

  Error processLine(std::string Line);
  Error processDirective(const std::string &Dir, const std::string &Args);
  Error processInstruction(const std::string &Mnemonic,
                           std::vector<Operand> &Ops);
  Error parseOperands(const std::string &Text, std::vector<Operand> &Ops);
  bool parseRegister(std::string Tok, Operand &Out);
  Error resolveLayout();
  Error encodeAll(AssembledProgram &Out);

  void emit(PendingInst P) {
    InstRecord R;
    static_cast<PendingInst &>(R) = std::move(P);
    R.Line = LineNo;
    R.SectionIndex = CurSection;
    R.Offset = cur().Size;
    Insts.push_back(std::move(R));
    cur().Size += isa::InstSize;
  }

  PendingInst make(Opcode Op, uint8_t Rd = 0, uint8_t Rs1 = 0,
                     uint8_t Rs2 = 0, int64_t Imm = 0) {
    PendingInst P;
    P.Op = Op;
    P.Rd = Rd;
    P.Rs1 = Rs1;
    P.Rs2 = Rs2;
    P.ImmLiteral = Imm;
    return P;
  }

  void emitBytes(const void *P, size_t N) {
    assert(!cur().IsNoBits && "emitting bytes into .bss");
    const uint8_t *B = static_cast<const uint8_t *>(P);
    cur().Data.insert(cur().Data.end(), B, B + N);
    cur().Size += N;
  }

  const std::string &Source;
  std::string SourceName;
  int LineNo = 0;

  std::vector<SectionState> Sections;
  size_t CurSection = 0;

  std::vector<InstRecord> Insts;
  std::vector<DataFixup> Fixups;
  // Label -> (section index, offset within section).
  std::map<std::string, std::pair<size_t, uint64_t>> Labels;
  std::map<std::string, int64_t> Equates;
  std::vector<std::string> Globals;
};

Error Assembler::processLine(std::string Line) {
  // Strip comments (# and ;) outside of string literals.
  bool InString = false;
  for (size_t I = 0; I < Line.size(); ++I) {
    char C = Line[I];
    if (C == '"' && (I == 0 || Line[I - 1] != '\\'))
      InString = !InString;
    else if (!InString && (C == '#' || C == ';')) {
      Line.resize(I);
      break;
    }
  }
  Line = trimString(Line);
  if (Line.empty())
    return Error::success();

  // Labels: one or more "name:" prefixes.
  while (true) {
    size_t Colon = Line.find(':');
    if (Colon == std::string::npos)
      break;
    std::string Candidate = trimString(Line.substr(0, Colon));
    bool IsIdent = !Candidate.empty();
    for (char C : Candidate)
      if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_' &&
          C != '.' && C != '$')
        IsIdent = false;
    if (!IsIdent)
      break;
    if (Labels.count(Candidate))
      return fail(formatString("label '%s' redefined", Candidate.c_str()));
    Labels[Candidate] = {CurSection, cur().Size};
    Line = trimString(Line.substr(Colon + 1));
    if (Line.empty())
      return Error::success();
  }

  // Directive or instruction.
  size_t SpacePos = Line.find_first_of(" \t");
  std::string Head = Line.substr(0, SpacePos);
  std::string Rest = SpacePos == std::string::npos
                         ? std::string()
                         : trimString(Line.substr(SpacePos));
  if (Head[0] == '.')
    return processDirective(Head, Rest);

  std::vector<Operand> Ops;
  if (Error E = parseOperands(Rest, Ops))
    return E;
  return processInstruction(Head, Ops);
}

bool Assembler::parseRegister(std::string Tok, Operand &Out) {
  for (char &C : Tok)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  if (Tok == "zero") {
    Out = {Operand::IntReg, isa::RegZero, 0, ""};
    return true;
  }
  if (Tok == "sp") {
    Out = {Operand::IntReg, isa::RegSP, 0, ""};
    return true;
  }
  if (Tok == "lr") {
    Out = {Operand::IntReg, isa::RegLR, 0, ""};
    return true;
  }
  if (Tok.size() >= 2 && (Tok[0] == 'r' || Tok[0] == 'f')) {
    bool AllDigits = true;
    for (size_t I = 1; I < Tok.size(); ++I)
      if (!std::isdigit(static_cast<unsigned char>(Tok[I])))
        AllDigits = false;
    if (AllDigits) {
      unsigned N = static_cast<unsigned>(std::strtoul(Tok.c_str() + 1,
                                                      nullptr, 10));
      if (N < isa::NumGPRs) {
        Out = {Tok[0] == 'r' ? Operand::IntReg : Operand::FpReg, N, 0, ""};
        return true;
      }
    }
  }
  return false;
}

Error Assembler::parseOperands(const std::string &Text,
                               std::vector<Operand> &Ops) {
  if (trimString(Text).empty())
    return Error::success();
  // Split on commas not inside parens/strings.
  std::vector<std::string> Parts;
  std::string Cur;
  int Depth = 0;
  bool InString = false;
  for (char C : Text) {
    if (C == '"')
      InString = !InString;
    if (!InString) {
      if (C == '(')
        ++Depth;
      if (C == ')')
        --Depth;
      if (C == ',' && Depth == 0) {
        Parts.push_back(trimString(Cur));
        Cur.clear();
        continue;
      }
    }
    Cur.push_back(C);
  }
  Parts.push_back(trimString(Cur));

  for (std::string &Tok : Parts) {
    if (Tok.empty())
      return fail("empty operand");
    Operand Op;
    // Memory operand: disp(reg) or (reg).
    size_t Paren = Tok.find('(');
    if (Paren != std::string::npos && Tok.back() == ')') {
      std::string DispText = trimString(Tok.substr(0, Paren));
      std::string RegText =
          trimString(Tok.substr(Paren + 1, Tok.size() - Paren - 2));
      Operand Base;
      if (!parseRegister(RegText, Base) || Base.K != Operand::IntReg)
        return fail(formatString("bad base register '%s'", RegText.c_str()));
      int64_t Disp = 0;
      if (!DispText.empty()) {
        if (auto It = Equates.find(DispText); It != Equates.end())
          Disp = It->second;
        else if (!parseInt64(DispText, Disp))
          return fail(
              formatString("bad displacement '%s'", DispText.c_str()));
      }
      Op.K = Operand::Mem;
      Op.Reg = Base.Reg;
      Op.Value = Disp;
      Ops.push_back(Op);
      continue;
    }
    if (parseRegister(Tok, Op)) {
      Ops.push_back(Op);
      continue;
    }
    // Equate?
    if (auto It = Equates.find(Tok); It != Equates.end()) {
      Op.K = Operand::Imm;
      Op.Value = It->second;
      Ops.push_back(Op);
      continue;
    }
    // Integer literal?
    int64_t V;
    if (parseInt64(Tok, V)) {
      Op.K = Operand::Imm;
      Op.Value = V;
      Ops.push_back(Op);
      continue;
    }
    // Symbol, optionally with +N / -N addend.
    std::string Name = Tok;
    int64_t Addend = 0;
    size_t PM = Tok.find_first_of("+-", 1);
    if (PM != std::string::npos) {
      Name = trimString(Tok.substr(0, PM));
      std::string AddText = Tok.substr(PM);
      AddText.erase(std::remove_if(AddText.begin(), AddText.end(),
                                   [](unsigned char C) {
                                     return std::isspace(C);
                                   }),
                    AddText.end());
      if (!parseInt64(AddText, Addend))
        return fail(formatString("bad symbol addend '%s'", AddText.c_str()));
    }
    Op.K = Operand::Sym;
    Op.Symbol = Name;
    Op.Value = Addend;
    Ops.push_back(Op);
  }
  return Error::success();
}

Error Assembler::processDirective(const std::string &Dir,
                                  const std::string &Args) {
  auto SwitchTo = [&](size_t Idx) {
    CurSection = Idx;
    return Error::success();
  };
  if (Dir == ".text")
    return SwitchTo(0);
  if (Dir == ".data")
    return SwitchTo(1);
  if (Dir == ".bss")
    return SwitchTo(2);
  if (Dir == ".global" || Dir == ".globl") {
    Globals.push_back(trimString(Args));
    return Error::success();
  }
  if (Dir == ".org") {
    uint64_t Addr;
    if (!parseUInt64(trimString(Args), Addr))
      return fail(formatString("bad .org address '%s'", Args.c_str()));
    if (cur().Size != 0)
      return fail(".org must precede any content in the section");
    cur().BaseAddr = Addr;
    cur().BaseSet = true;
    return Error::success();
  }
  if (Dir == ".align") {
    uint64_t A;
    if (!parseUInt64(trimString(Args), A) || A == 0 || (A & (A - 1)))
      return fail(formatString("bad alignment '%s'", Args.c_str()));
    uint64_t Pad = (A - (cur().Size % A)) % A;
    if (cur().IsNoBits)
      cur().Size += Pad;
    else {
      std::vector<uint8_t> Zeros(Pad, 0);
      emitBytes(Zeros.data(), Zeros.size());
    }
    return Error::success();
  }
  if (Dir == ".space" || Dir == ".zero") {
    uint64_t N;
    if (!parseUInt64(trimString(Args), N))
      return fail(formatString("bad .space size '%s'", Args.c_str()));
    if (cur().IsNoBits)
      cur().Size += N;
    else {
      std::vector<uint8_t> Zeros(N, 0);
      emitBytes(Zeros.data(), Zeros.size());
    }
    return Error::success();
  }
  if (Dir == ".equ" || Dir == ".set") {
    std::vector<std::string> Parts = splitString(Args, ',');
    if (Parts.size() != 2)
      return fail(".equ expects NAME, VALUE");
    int64_t V;
    std::string ValText = trimString(Parts[1]);
    if (auto It = Equates.find(ValText); It != Equates.end())
      V = It->second;
    else if (!parseInt64(ValText, V))
      return fail(formatString("bad .equ value '%s'", ValText.c_str()));
    Equates[trimString(Parts[0])] = V;
    return Error::success();
  }
  if (Dir == ".ascii" || Dir == ".asciz") {
    std::string T = trimString(Args);
    if (T.size() < 2 || T.front() != '"' || T.back() != '"')
      return fail(".ascii expects a quoted string");
    std::string Out;
    for (size_t I = 1; I + 1 < T.size(); ++I) {
      char C = T[I];
      if (C == '\\' && I + 2 < T.size() + 1) {
        char N = T[++I];
        switch (N) {
        case 'n': Out.push_back('\n'); break;
        case 't': Out.push_back('\t'); break;
        case '0': Out.push_back('\0'); break;
        case '\\': Out.push_back('\\'); break;
        case '"': Out.push_back('"'); break;
        default: Out.push_back(N); break;
        }
      } else {
        Out.push_back(C);
      }
    }
    if (Dir == ".asciz")
      Out.push_back('\0');
    emitBytes(Out.data(), Out.size());
    return Error::success();
  }
  if (Dir == ".byte" || Dir == ".half" || Dir == ".word" || Dir == ".quad") {
    unsigned Size = Dir == ".byte"   ? 1
                    : Dir == ".half" ? 2
                    : Dir == ".word" ? 4
                                     : 8;
    std::vector<Operand> Ops;
    if (Error E = parseOperands(Args, Ops))
      return E;
    for (const Operand &Op : Ops) {
      if (Op.K == Operand::Imm) {
        uint64_t V = static_cast<uint64_t>(Op.Value);
        emitBytes(&V, Size);
      } else if (Op.K == Operand::Sym) {
        if (Size != 8)
          return fail("symbol data values must be .quad");
        Fixups.push_back({CurSection, cur().Data.size(), Size, Op.Symbol,
                          Op.Value, LineNo});
        uint64_t Zero = 0;
        emitBytes(&Zero, Size);
      } else {
        return fail("bad data value operand");
      }
    }
    return Error::success();
  }
  return fail(formatString("unknown directive '%s'", Dir.c_str()));
}

Error Assembler::processInstruction(const std::string &Mnemonic,
                                    std::vector<Operand> &Ops) {
  auto Need = [&](size_t N) { return Ops.size() == N; };
  auto IsIR = [&](size_t I) { return Ops[I].K == Operand::IntReg; };
  auto IsFR = [&](size_t I) { return Ops[I].K == Operand::FpReg; };
  auto IsMem = [&](size_t I) { return Ops[I].K == Operand::Mem; };
  auto IsImmOrSym = [&](size_t I) {
    return Ops[I].K == Operand::Imm || Ops[I].K == Operand::Sym;
  };
  auto SetImm = [&](PendingInst &P, const Operand &Op,
                    bool BranchTarget = false) {
    if (Op.K == Operand::Sym) {
      P.ImmIsSym = true;
      P.ImmSymbol = Op.Symbol;
      P.ImmAddend = Op.Value;
    } else {
      P.ImmLiteral = Op.Value;
    }
    P.ImmIsBranchTarget = BranchTarget;
  };

  std::string M = Mnemonic;
  for (char &C : M)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));

  // ---- Pseudo-instructions ----
  if (M == "li" || M == "la") {
    if (!Need(2) || !IsIR(0) || !IsImmOrSym(1))
      return fail(formatString("%s expects: rd, value", M.c_str()));
    PendingInst Lo = make(Opcode::Ldi, Ops[0].Reg);
    SetImm(Lo, Ops[1]);
    emit(Lo);
    PendingInst Hi = make(Opcode::Ldih, Ops[0].Reg);
    SetImm(Hi, Ops[1]);
    Hi.ImmIsHigh32 = true;
    emit(Hi);
    return Error::success();
  }
  if (M == "call") {
    if (!Need(1) || !IsImmOrSym(0))
      return fail("call expects a target");
    PendingInst P = make(Opcode::Jal, isa::RegLR);
    SetImm(P, Ops[0], /*BranchTarget=*/true);
    emit(P);
    return Error::success();
  }
  if (M == "ret") {
    if (!Need(0))
      return fail("ret takes no operands");
    emit(make(Opcode::Jalr, isa::RegZero, isa::RegLR));
    return Error::success();
  }
  if (M == "b" || M == "j") {
    if (!Need(1) || !IsImmOrSym(0))
      return fail("jump expects a target");
    PendingInst P = make(Opcode::Jmp);
    SetImm(P, Ops[0], true);
    emit(P);
    return Error::success();
  }
  if (M == "beqz" || M == "bnez") {
    if (!Need(2) || !IsIR(0) || !IsImmOrSym(1))
      return fail(formatString("%s expects: rs, target", M.c_str()));
    PendingInst P = make(M == "beqz" ? Opcode::Beq : Opcode::Bne, 0,
                           Ops[0].Reg, isa::RegZero);
    SetImm(P, Ops[1], true);
    emit(P);
    return Error::success();
  }
  if (M == "mv") {
    if (!Need(2) || !IsIR(0) || !IsIR(1))
      return fail("mv expects: rd, rs");
    emit(make(Opcode::Mov, Ops[0].Reg, Ops[1].Reg));
    return Error::success();
  }
  if (M == "push") {
    if (!Need(1) || !IsIR(0))
      return fail("push expects a register");
    emit(make(Opcode::Addi, isa::RegSP, isa::RegSP, 0, -8));
    emit(make(Opcode::St8, Ops[0].Reg, isa::RegSP));
    return Error::success();
  }
  if (M == "pop") {
    if (!Need(1) || !IsIR(0))
      return fail("pop expects a register");
    emit(make(Opcode::Ld8, Ops[0].Reg, isa::RegSP));
    emit(make(Opcode::Addi, isa::RegSP, isa::RegSP, 0, 8));
    return Error::success();
  }

  // ---- Real instructions ----
  Opcode Op;
  if (!isa::opcodeFromName(M, Op))
    return fail(formatString("unknown mnemonic '%s'", M.c_str()));

  using isa::Form;
  switch (isa::opInfo(Op).Operands) {
  case Form::None:
    if (!Need(0))
      return fail(formatString("%s takes no operands", M.c_str()));
    emit(make(Op));
    return Error::success();

  case Form::Marker: {
    if (!Need(2) || Ops[0].K != Operand::Imm || Ops[1].K != Operand::Imm)
      return fail(formatString("%s expects: kind, tag", M.c_str()));
    PendingInst P = make(Op, static_cast<uint8_t>(Ops[0].Value));
    P.ImmLiteral = Ops[1].Value;
    emit(P);
    return Error::success();
  }

  case Form::RRR:
    if (!Need(3) || !IsIR(0) || !IsIR(1) || !IsIR(2))
      return fail(formatString("%s expects: rd, rs1, rs2", M.c_str()));
    emit(make(Op, Ops[0].Reg, Ops[1].Reg, Ops[2].Reg));
    return Error::success();

  case Form::RR:
    if (!Need(2) || !IsIR(0) || !IsIR(1))
      return fail(formatString("%s expects: rd, rs", M.c_str()));
    emit(make(Op, Ops[0].Reg, Ops[1].Reg));
    return Error::success();

  case Form::RRI: {
    if (!Need(3) || !IsIR(0) || !IsIR(1) || !IsImmOrSym(2))
      return fail(formatString("%s expects: rd, rs1, imm", M.c_str()));
    PendingInst P = make(Op, Ops[0].Reg, Ops[1].Reg);
    SetImm(P, Ops[2]);
    emit(P);
    return Error::success();
  }

  case Form::RI: {
    if (!Need(2) || !IsIR(0) || !IsImmOrSym(1))
      return fail(formatString("%s expects: rd, imm", M.c_str()));
    PendingInst P = make(Op, Ops[0].Reg);
    SetImm(P, Ops[1]);
    P.ImmIsHigh32 = Op == Opcode::Ldih;
    emit(P);
    return Error::success();
  }

  case Form::Load:
  case Form::Store:
    if (!Need(2) || !IsIR(0) || !IsMem(1))
      return fail(formatString("%s expects: reg, disp(base)", M.c_str()));
    emit(make(Op, Ops[0].Reg, Ops[1].Reg, 0, Ops[1].Value));
    return Error::success();

  case Form::Branch: {
    if (!Need(3) || !IsIR(0) || !IsIR(1) || !IsImmOrSym(2))
      return fail(formatString("%s expects: rs1, rs2, target", M.c_str()));
    PendingInst P = make(Op, 0, Ops[0].Reg, Ops[1].Reg);
    SetImm(P, Ops[2], true);
    emit(P);
    return Error::success();
  }

  case Form::Jmp: {
    if (!Need(1) || !IsImmOrSym(0))
      return fail(formatString("%s expects a target", M.c_str()));
    PendingInst P = make(Op);
    SetImm(P, Ops[0], true);
    emit(P);
    return Error::success();
  }

  case Form::Jal: {
    if (!Need(2) || !IsIR(0) || !IsImmOrSym(1))
      return fail(formatString("%s expects: rd, target", M.c_str()));
    PendingInst P = make(Op, Ops[0].Reg);
    SetImm(P, Ops[1], true);
    emit(P);
    return Error::success();
  }

  case Form::Jalr: {
    if (Ops.size() == 2 && IsIR(0) && IsIR(1)) {
      emit(make(Op, Ops[0].Reg, Ops[1].Reg));
      return Error::success();
    }
    if (!Need(3) || !IsIR(0) || !IsIR(1) || !IsImmOrSym(2))
      return fail(formatString("%s expects: rd, rs1[, imm]", M.c_str()));
    PendingInst P = make(Op, Ops[0].Reg, Ops[1].Reg);
    SetImm(P, Ops[2]);
    emit(P);
    return Error::success();
  }

  case Form::Atomic:
    if (!Need(3) || !IsIR(0) || !IsMem(1) || !IsIR(2))
      return fail(formatString("%s expects: rd, (addr), rs2", M.c_str()));
    if (Ops[1].Value != 0)
      return fail("atomic operations take an undisplaced (reg) address");
    emit(make(Op, Ops[0].Reg, Ops[1].Reg, Ops[2].Reg));
    return Error::success();

  case Form::FFF:
    if (!Need(3) || !IsFR(0) || !IsFR(1) || !IsFR(2))
      return fail(formatString("%s expects: fd, fs1, fs2", M.c_str()));
    emit(make(Op, Ops[0].Reg, Ops[1].Reg, Ops[2].Reg));
    return Error::success();

  case Form::FF:
    if (!Need(2) || !IsFR(0) || !IsFR(1))
      return fail(formatString("%s expects: fd, fs", M.c_str()));
    emit(make(Op, Ops[0].Reg, Ops[1].Reg));
    return Error::success();

  case Form::RFF:
    if (!Need(3) || !IsIR(0) || !IsFR(1) || !IsFR(2))
      return fail(formatString("%s expects: rd, fs1, fs2", M.c_str()));
    emit(make(Op, Ops[0].Reg, Ops[1].Reg, Ops[2].Reg));
    return Error::success();

  case Form::FLoad:
  case Form::FStore:
    if (!Need(2) || !IsFR(0) || !IsMem(1))
      return fail(formatString("%s expects: freg, disp(base)", M.c_str()));
    emit(make(Op, Ops[0].Reg, Ops[1].Reg, 0, Ops[1].Value));
    return Error::success();

  case Form::FR:
    if (!Need(2) || !IsFR(0) || !IsIR(1))
      return fail(formatString("%s expects: fd, rs", M.c_str()));
    emit(make(Op, Ops[0].Reg, Ops[1].Reg));
    return Error::success();

  case Form::RF:
    if (!Need(2) || !IsIR(0) || !IsFR(1))
      return fail(formatString("%s expects: rd, fs", M.c_str()));
    emit(make(Op, Ops[0].Reg, Ops[1].Reg));
    return Error::success();
  }
  return fail(formatString("unhandled mnemonic '%s'", M.c_str()));
}

Error Assembler::resolveLayout() {
  // .text defaults to TextBase; .data/.bss follow page-aligned unless .org
  // pinned them.
  SectionState &Text = Sections[0];
  if (!Text.BaseSet)
    Text.BaseAddr = isa::TextBase;
  uint64_t Cursor = Text.BaseAddr + Text.Size;
  for (size_t I = 1; I < Sections.size(); ++I) {
    SectionState &S = Sections[I];
    if (!S.BaseSet)
      S.BaseAddr = elf::alignUp(Cursor, elf::PageSize);
    Cursor = S.BaseAddr + S.Size;
  }
  return Error::success();
}

Error Assembler::encodeAll(AssembledProgram &Out) {
  auto SymbolAddress = [&](const std::string &Name, uint64_t &Addr) {
    auto It = Labels.find(Name);
    if (It == Labels.end())
      return false;
    Addr = Sections[It->second.first].BaseAddr + It->second.second;
    return true;
  };

  // Instruction encoding with symbol resolution.
  for (InstRecord &R : Insts) {
    SectionState &S = Sections[R.SectionIndex];
    uint64_t Address = S.BaseAddr + R.Offset;
    int64_t ImmValue = R.ImmLiteral;
    if (R.ImmIsSym) {
      uint64_t Target;
      if (!SymbolAddress(R.ImmSymbol, Target))
        return Error::failure(formatString(
            "%s:%d: undefined symbol '%s'", SourceName.c_str(), R.Line,
            R.ImmSymbol.c_str()));
      ImmValue = static_cast<int64_t>(Target) + R.ImmAddend;
    }
    if (R.ImmIsBranchTarget) {
      int64_t Disp = ImmValue - static_cast<int64_t>(Address);
      if (Disp % 8 != 0)
        return Error::failure(
            formatString("%s:%d: branch target is not 8-byte aligned",
                         SourceName.c_str(), R.Line));
      if (Disp < INT32_MIN || Disp > INT32_MAX)
        return Error::failure(formatString(
            "%s:%d: branch displacement out of range", SourceName.c_str(),
            R.Line));
      ImmValue = Disp;
    } else if (R.ImmIsHigh32) {
      ImmValue = static_cast<int64_t>(static_cast<uint64_t>(ImmValue) >> 32);
    } else if (R.Op == Opcode::Ldi && R.ImmIsSym) {
      ImmValue = static_cast<int32_t>(static_cast<uint64_t>(ImmValue));
    }
    if (!R.ImmIsBranchTarget && !R.ImmIsHigh32 &&
        (ImmValue < INT32_MIN || ImmValue > INT32_MAX) &&
        R.Op != Opcode::Ldi)
      return Error::failure(
          formatString("%s:%d: immediate %lld out of 32-bit range",
                       SourceName.c_str(), R.Line,
                       static_cast<long long>(ImmValue)));

    Inst I;
    I.Op = R.Op;
    I.Rd = R.Rd;
    I.Rs1 = R.Rs1;
    I.Rs2 = R.Rs2;
    I.Imm = static_cast<int32_t>(ImmValue);
    uint64_t Word = isa::encode(I);
    if (S.Data.size() < R.Offset + 8)
      S.Data.resize(R.Offset + 8);
    std::memcpy(S.Data.data() + R.Offset, &Word, 8);
  }

  // Data fixups (.quad label).
  for (const DataFixup &F : Fixups) {
    uint64_t Addr;
    if (!SymbolAddress(F.Symbol, Addr))
      return Error::failure(formatString("%s:%d: undefined symbol '%s'",
                                         SourceName.c_str(), F.Line,
                                         F.Symbol.c_str()));
    uint64_t V = Addr + static_cast<uint64_t>(F.Addend);
    std::memcpy(Sections[F.SectionIndex].Data.data() + F.Offset, &V, F.Size);
  }

  for (SectionState &S : Sections) {
    if (S.Size == 0)
      continue;
    AssembledSection A;
    A.Name = S.Name;
    A.BaseAddr = S.BaseAddr;
    A.Flags = S.Flags;
    A.IsNoBits = S.IsNoBits;
    A.Size = S.Size;
    if (!S.IsNoBits) {
      S.Data.resize(S.Size);
      A.Data = std::move(S.Data);
    }
    Out.Sections.push_back(std::move(A));
  }

  for (const auto &[Name, Loc] : Labels)
    Out.Symbols[Name] = Sections[Loc.first].BaseAddr + Loc.second;
  Out.GlobalSymbols = Globals;

  uint64_t Entry = Sections[0].BaseAddr;
  if (auto It = Out.Symbols.find("_start"); It != Out.Symbols.end())
    Entry = It->second;
  Out.Entry = Entry;
  return Error::success();
}

Expected<AssembledProgram> Assembler::run() {
  size_t Start = 0;
  while (Start <= Source.size()) {
    size_t End = Source.find('\n', Start);
    std::string Line = Source.substr(
        Start, End == std::string::npos ? std::string::npos : End - Start);
    ++LineNo;
    if (Error E = processLine(std::move(Line)))
      return E;
    if (End == std::string::npos)
      break;
    Start = End + 1;
  }
  if (Error E = resolveLayout())
    return E;
  AssembledProgram Out;
  if (Error E = encodeAll(Out))
    return E;
  return Out;
}

} // namespace

Expected<AssembledProgram>
easm::assembleString(const std::string &Source,
                     const std::string &SourceName) {
  Assembler A(Source, SourceName);
  return A.run();
}

Expected<std::vector<uint8_t>>
easm::assembleToELF(const std::string &Source,
                    const std::string &SourceName) {
  auto Prog = assembleString(Source, SourceName);
  if (!Prog)
    return Prog.takeError();

  elf::ELFWriter W(elf::ET_EXEC, elf::EM_EG64);
  W.setEntry(Prog->Entry);
  std::map<std::string, unsigned> SectionIndices;
  for (AssembledSection &S : Prog->Sections) {
    unsigned Idx =
        S.IsNoBits
            ? W.addNoBitsSection(S.Name, S.Flags, S.BaseAddr, S.Size)
            : W.addSection(S.Name, S.Flags, S.BaseAddr, std::move(S.Data));
    SectionIndices[S.Name] = Idx;
  }
  auto SectionFor = [&](uint64_t Addr) -> unsigned {
    for (const AssembledSection &S : Prog->Sections)
      if (Addr >= S.BaseAddr && Addr < S.BaseAddr + S.Size)
        return SectionIndices[S.Name];
    return elf::SHN_ABS;
  };
  for (const auto &[Name, Addr] : Prog->Symbols) {
    bool IsGlobal = false;
    for (const std::string &G : Prog->GlobalSymbols)
      if (G == Name)
        IsGlobal = true;
    W.addSymbol(Name, Addr, SectionFor(Addr),
                IsGlobal ? elf::STB_GLOBAL : elf::STB_LOCAL);
  }
  return W.finalize();
}

Error easm::assembleToFile(const std::string &Source,
                           const std::string &SourceName,
                           const std::string &OutPath) {
  auto Image = assembleToELF(Source, SourceName);
  if (!Image)
    return Image.takeError();
  if (Error E = writeFile(OutPath, Image->data(), Image->size()))
    return E;
  return makeExecutable(OutPath);
}
