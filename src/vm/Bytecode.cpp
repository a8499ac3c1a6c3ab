//===- vm/Bytecode.cpp ---------------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Bytecode.h"

#include "interp/Interpreter.h"
#include "ir/BasicBlock.h"
#include "ir/Instruction.h"
#include "ir/Module.h"
#include "support/Casting.h"

#include <bit>
#include <cinttypes>
#include <cstdio>

using namespace ipas;
using namespace ipas::vm;

const char *ipas::vm::vmOpName(VmOp Op) {
  static const char *const Names[] = {
#define IPAS_VM_OP_NAME(N) #N,
      IPAS_VM_OPS(IPAS_VM_OP_NAME)
#undef IPAS_VM_OP_NAME
  };
  return Names[static_cast<unsigned>(Op)];
}

namespace {

/// Flip width of a committed value: the i1/64-bit split RtValue::flipBit
/// derives from the result type.
uint8_t widthOf(Type T) { return T.isI1() ? 1 : 64; }

class Compiler {
public:
  Compiler(const ModuleLayout &Layout, VmProgram &P, std::string &Err)
      : Layout(Layout), P(P), Err(Err) {}

  bool run() {
    const Module &M = Layout.module();
    for (size_t I = 0; I != M.numFunctions(); ++I) {
      FnIndex[M.function(I)] = static_cast<uint32_t>(I);
      P.FunctionIndex[M.function(I)->name()] = static_cast<uint32_t>(I);
    }
    P.Functions.resize(M.numFunctions());
    for (size_t I = 0; I != M.numFunctions(); ++I)
      if (!compileFunction(M.function(I), P.Functions[I]))
        return false;
    return true;
  }

private:
  bool fail(const std::string &Msg) {
    Err = Msg;
    return false;
  }

  size_t emit(VmInst In) {
    P.Code.push_back(In);
    return P.Code.size() - 1;
  }

  static size_t leadingPhis(const BasicBlock *BB) {
    size_t N = 0;
    while (N < BB->size() && BB->at(N)->opcode() == Opcode::Phi)
      ++N;
    return N;
  }

  uint16_t constReg(uint64_t Bits) {
    auto It = ConstReg.find(Bits);
    if (It != ConstReg.end())
      return It->second;
    uint16_t Reg = static_cast<uint16_t>(VF->ConstBase + VF->ConstPool.size());
    VF->ConstPool.push_back(Bits);
    ConstReg.emplace(Bits, Reg);
    return Reg;
  }

  /// Register holding \p V in the current frame (allocating a constant
  /// register on first use).
  uint16_t regOf(const Value *V) {
    switch (V->kind()) {
    case ValueKind::Argument:
      return static_cast<uint16_t>(cast<Argument>(V)->index());
    case ValueKind::Instruction:
      return static_cast<uint16_t>(
          Layout.slotOfInstruction(cast<Instruction>(V)));
    case ValueKind::ConstantInt:
      return constReg(
          static_cast<uint64_t>(cast<ConstantInt>(V)->value()));
    case ValueKind::ConstantFP:
      return constReg(std::bit_cast<uint64_t>(cast<ConstantFP>(V)->value()));
    }
    return 0;
  }

  /// Emits the pre-resolved phi moves for the CFG edge From -> To: each
  /// leading phi's incoming value is copied into its staging register.
  /// Stage ops are pure data movement (no step), mirroring the
  /// interpreter's simultaneous read of all incoming values.
  bool emitEdgeMoves(const BasicBlock *From, const BasicBlock *To) {
    size_t NumPhis = leadingPhis(To);
    for (size_t K = 0; K != NumPhis; ++K) {
      const auto *Phi = cast<PhiInst>(To->at(K));
      const Value *V = Phi->incomingValueFor(From);
      if (!V)
        return fail("phi in '" + VF->Name +
                    "' has no incoming value for a predecessor edge");
      VmInst In;
      In.Op = VmOp::Stage;
      In.A = StageReg.at(Phi);
      In.B = regOf(V);
      In.Id = Phi->id();
      emit(In);
    }
    return true;
  }

  bool compileFunction(const Function *F, VmFunction &Out) {
    VF = &Out;
    ConstReg.clear();
    StageReg.clear();
    BlockPC.clear();
    BlockFixups.clear();
    Trampolines.clear();

    Out.Name = F->name();
    Out.CodeStart = static_cast<uint32_t>(P.Code.size());
    Out.NumArgs = static_cast<uint16_t>(F->numArgs());
    Out.RetWidth =
        F->returnType().isVoid() ? 0 : widthOf(F->returnType());

    unsigned FrameSlots = Layout.frameSlots(F);
    unsigned NumStage = 0;
    for (size_t BI = 0; BI != F->numBlocks(); ++BI) {
      const BasicBlock *BB = F->block(BI);
      size_t NumPhis = leadingPhis(BB);
      for (size_t K = 0; K != NumPhis; ++K)
        StageReg[cast<PhiInst>(BB->at(K))] =
            static_cast<uint16_t>(FrameSlots + NumStage++);
      // The interpreter's phi group covers only the leading run; a phi
      // below a non-phi instruction is outside both contracts.
      for (size_t K = NumPhis; K != BB->size(); ++K)
        if (BB->at(K)->opcode() == Opcode::Phi)
          return fail("phi below non-phi instruction in '" + Out.Name + "'");
    }
    if (FrameSlots + NumStage >= kNoReg)
      return fail("function '" + Out.Name + "' needs too many registers");
    Out.FirstStage = static_cast<uint16_t>(FrameSlots);
    Out.NumRegs = static_cast<uint16_t>(FrameSlots + NumStage);
    Out.ConstBase = Out.NumRegs;

    if (leadingPhis(F->entry()) != 0)
      return fail("entry block of '" + Out.Name + "' has phis");

    for (size_t BI = 0; BI != F->numBlocks(); ++BI) {
      const BasicBlock *BB = F->block(BI);
      BlockPC[BB] = static_cast<int32_t>(P.Code.size());
      size_t NumPhis = leadingPhis(BB);
      if (NumPhis) {
        VmInst In;
        In.Op = VmOp::PhiCommit;
        In.A = static_cast<uint16_t>(NumPhis);
        In.X = static_cast<int32_t>(P.PhiMetas.size());
        In.Id = BB->at(0)->id();
        for (size_t K = 0; K != NumPhis; ++K) {
          const auto *Phi = cast<PhiInst>(BB->at(K));
          VmPhiMeta Meta;
          Meta.Dest =
              static_cast<uint16_t>(Layout.slotOfInstruction(Phi));
          Meta.Stage = StageReg.at(Phi);
          Meta.Width = widthOf(Phi->type());
          Meta.Id = Phi->id();
          P.PhiMetas.push_back(Meta);
        }
        emit(In);
      }
      for (size_t K = NumPhis; K != BB->size(); ++K)
        if (!compileInst(BB, BB->at(K)))
          return false;
    }

    // Edge trampolines for conditional branches into phi blocks: the
    // moves belong to the edge, so they run only once the condition has
    // picked it. Each trampoline ends in a step-free Goto (the
    // interpreter's CondBr transfers control directly).
    for (const PendingTrampoline &T : Trampolines) {
      int32_t PC = static_cast<int32_t>(P.Code.size());
      if (T.Field == 0)
        P.Code[T.InstIdx].X = PC;
      else
        P.Code[T.InstIdx].Y = PC;
      if (!emitEdgeMoves(T.From, T.To))
        return false;
      VmInst Go;
      Go.Op = VmOp::Goto;
      BlockFixups.push_back({emit(Go), 0, T.To});
    }

    for (const Fixup &Fx : BlockFixups) {
      auto It = BlockPC.find(Fx.Target);
      if (It == BlockPC.end())
        return fail("branch to unknown block in '" + Out.Name + "'");
      if (Fx.Field == 0)
        P.Code[Fx.InstIdx].X = It->second;
      else
        P.Code[Fx.InstIdx].Y = It->second;
    }

    Out.CodeEnd = static_cast<uint32_t>(P.Code.size());
    if (Out.regsTotal() >= kNoReg)
      return fail("function '" + Out.Name + "' needs too many registers");
    if (P.Code.size() > static_cast<size_t>(INT32_MAX))
      return fail("program too large for 32-bit code offsets");
    return true;
  }

  bool compileInst(const BasicBlock *BB, const Instruction *I) {
    VmInst In;
    In.Id = I->id();
    auto dest = [&]() {
      return static_cast<uint16_t>(Layout.slotOfInstruction(I));
    };

    switch (I->opcode()) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::AShr: {
      unsigned Sel = 0;
      switch (I->opcode()) {
      case Opcode::Add: Sel = 0; break;
      case Opcode::Sub: Sel = 1; break;
      case Opcode::Mul: Sel = 2; break;
      case Opcode::And: Sel = 3; break;
      case Opcode::Or: Sel = 4; break;
      case Opcode::Xor: Sel = 5; break;
      case Opcode::Shl: Sel = 6; break;
      default: Sel = 7; break; // AShr
      }
      if (I->type().isI1()) {
        In.Op = VmOp::BinI1;
        In.D = static_cast<uint16_t>(Sel);
      } else {
        In.Op = static_cast<VmOp>(static_cast<unsigned>(VmOp::BinAdd) + Sel);
      }
      In.A = dest();
      In.B = regOf(I->operand(0));
      In.C = regOf(I->operand(1));
      break;
    }
    case Opcode::SDiv:
    case Opcode::SRem:
      In.Op = I->opcode() == Opcode::SDiv ? VmOp::SDiv : VmOp::SRem;
      In.A = dest();
      In.B = regOf(I->operand(0));
      In.C = regOf(I->operand(1));
      break;
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv: {
      unsigned Sel = static_cast<unsigned>(I->opcode()) -
                     static_cast<unsigned>(Opcode::FAdd);
      In.Op = static_cast<VmOp>(static_cast<unsigned>(VmOp::FAdd) + Sel);
      In.A = dest();
      In.B = regOf(I->operand(0));
      In.C = regOf(I->operand(1));
      break;
    }
    case Opcode::ICmp:
    case Opcode::FCmp: {
      const auto *Cmp = cast<CmpInst>(I);
      // Pointer compares are unsigned, like the interpreter's eval.
      VmOp BaseOp = I->opcode() == Opcode::FCmp ? VmOp::FCmpEQ
                    : Cmp->lhs()->type().isPtr() ? VmOp::UCmpEQ
                                                 : VmOp::ICmpEQ;
      unsigned Sel = 0;
      switch (Cmp->predicate()) {
      case CmpPredicate::EQ: Sel = 0; break;
      case CmpPredicate::NE: Sel = 1; break;
      case CmpPredicate::LT: Sel = 2; break;
      case CmpPredicate::LE: Sel = 3; break;
      case CmpPredicate::GT: Sel = 4; break;
      case CmpPredicate::GE: Sel = 5; break;
      }
      In.Op = static_cast<VmOp>(static_cast<unsigned>(BaseOp) + Sel);
      In.A = dest();
      In.B = regOf(I->operand(0));
      In.C = regOf(I->operand(1));
      break;
    }
    case Opcode::SIToFP:
      In.Op = VmOp::SIToFP;
      In.A = dest();
      In.B = regOf(I->operand(0));
      break;
    case Opcode::FPToSI:
      In.Op = VmOp::FPToSI;
      In.A = dest();
      In.B = regOf(I->operand(0));
      break;
    case Opcode::ZExt:
      In.Op = VmOp::ZExt;
      In.A = dest();
      In.B = regOf(I->operand(0));
      break;
    case Opcode::BitcastF2I:
    case Opcode::BitcastI2F:
      In.Op = VmOp::Bitcast;
      In.A = dest();
      In.B = regOf(I->operand(0));
      break;
    case Opcode::Alloca:
      In.Op = VmOp::Alloca;
      In.A = dest();
      In.X = static_cast<int32_t>(P.Aux64.size());
      P.Aux64.push_back(cast<AllocaInst>(I)->slotCount());
      break;
    case Opcode::Load:
      In.Op = I->type().isI1() ? VmOp::LoadI1 : VmOp::Load;
      In.A = dest();
      In.B = regOf(I->operand(0));
      break;
    case Opcode::Store:
      In.Op = VmOp::Store;
      In.B = regOf(I->operand(0)); // value
      In.C = regOf(I->operand(1)); // address
      break;
    case Opcode::Gep:
      In.Op = VmOp::Gep;
      In.A = dest();
      In.B = regOf(I->operand(0));
      In.C = regOf(I->operand(1));
      break;
    case Opcode::Select:
      In.Op = I->type().isI1() ? VmOp::SelectI1 : VmOp::Select;
      In.A = dest();
      In.B = regOf(I->operand(0));
      In.C = regOf(I->operand(1));
      In.D = regOf(I->operand(2));
      break;
    case Opcode::Check:
      In.Op = VmOp::Check;
      In.B = regOf(I->operand(0));
      In.C = regOf(I->operand(1));
      break;
    case Opcode::Call:
      return compileCall(cast<CallInst>(I));
    case Opcode::Br: {
      const auto *Br = cast<BranchInst>(I);
      // Unconditional edge: the moves can sit inline before the branch
      // (staging registers are invisible to the program).
      if (!emitEdgeMoves(BB, Br->target()))
        return false;
      In.Op = VmOp::Br;
      BlockFixups.push_back({P.Code.size(), 0, Br->target()});
      emit(In);
      return true;
    }
    case Opcode::CondBr: {
      const auto *CBr = cast<CondBranchInst>(I);
      In.Op = VmOp::CondBr;
      In.B = regOf(CBr->condition());
      size_t Idx = emit(In);
      auto edge = [&](int Field, const BasicBlock *To) {
        if (leadingPhis(To) == 0)
          BlockFixups.push_back({Idx, Field, To});
        else
          Trampolines.push_back({Idx, Field, BB, To});
      };
      edge(0, CBr->trueTarget());
      edge(1, CBr->falseTarget());
      return true;
    }
    case Opcode::Ret: {
      const auto *Ret = cast<RetInst>(I);
      if (Ret->hasReturnValue()) {
        In.Op = VmOp::Ret;
        In.B = regOf(I->operand(0));
      } else {
        In.Op = VmOp::RetVoid;
      }
      break;
    }
    case Opcode::Phi:
      return fail("phi below non-phi instruction in '" + VF->Name + "'");
    }
    emit(In);
    return true;
  }

  bool compileCall(const CallInst *Call) {
    VmInst In;
    In.Id = Call->id();
    if (!Call->isIntrinsicCall()) {
      In.Op = VmOp::Call;
      In.A = Call->producesValue()
                 ? static_cast<uint16_t>(Layout.slotOfInstruction(Call))
                 : kNoReg;
      In.B = static_cast<uint16_t>(Call->numArgs());
      auto It = FnIndex.find(Call->callee());
      if (It == FnIndex.end())
        return fail("call to unknown function in '" + VF->Name + "'");
      In.X = static_cast<int32_t>(It->second);
      In.Y = static_cast<int32_t>(P.ArgRegs.size());
      for (unsigned K = 0; K != Call->numArgs(); ++K)
        P.ArgRegs.push_back(regOf(Call->arg(K)));
      emit(In);
      return true;
    }

    auto unary = [&](VmOp Op) {
      In.Op = Op;
      In.A = static_cast<uint16_t>(Layout.slotOfInstruction(Call));
      In.B = regOf(Call->arg(0));
    };
    auto binary = [&](VmOp Op) {
      unary(Op);
      In.C = regOf(Call->arg(1));
    };
    // A collective carries what a multi-rank VmContext suspends with:
    // the intrinsic (X) and how many of B, C, D are its arguments (Y).
    auto collective = [&](int32_t NumArgs) {
      In.X = static_cast<int32_t>(Call->intrinsicId());
      In.Y = NumArgs;
    };
    switch (Call->intrinsicId()) {
    case Intrinsic::Sqrt: unary(VmOp::ISqrt); break;
    case Intrinsic::Fabs: unary(VmOp::IFabs); break;
    case Intrinsic::Sin: unary(VmOp::ISin); break;
    case Intrinsic::Cos: unary(VmOp::ICos); break;
    case Intrinsic::Exp: unary(VmOp::IExp); break;
    case Intrinsic::Log: unary(VmOp::ILog); break;
    case Intrinsic::Pow: binary(VmOp::IPow); break;
    case Intrinsic::Floor: unary(VmOp::IFloor); break;
    case Intrinsic::FMin: binary(VmOp::IFMin); break;
    case Intrinsic::FMax: binary(VmOp::IFMax); break;
    case Intrinsic::IMin: binary(VmOp::IIMin); break;
    case Intrinsic::IMax: binary(VmOp::IIMax); break;
    case Intrinsic::Malloc: unary(VmOp::IMalloc); break;
    case Intrinsic::Free:
      In.Op = VmOp::IFree;
      In.B = regOf(Call->arg(0));
      break;
    case Intrinsic::RandSeed:
      In.Op = VmOp::IRandSeed;
      In.B = regOf(Call->arg(0));
      break;
    case Intrinsic::RandI64: unary(VmOp::IRandI64); break;
    case Intrinsic::RandF64:
      In.Op = VmOp::IRandF64;
      In.A = static_cast<uint16_t>(Layout.slotOfInstruction(Call));
      break;
    case Intrinsic::MpiRank:
      In.Op = VmOp::IMpiRank;
      In.A = static_cast<uint16_t>(Layout.slotOfInstruction(Call));
      break;
    case Intrinsic::MpiSize:
      In.Op = VmOp::IMpiSize;
      In.A = static_cast<uint16_t>(Layout.slotOfInstruction(Call));
      break;
    case Intrinsic::MpiBarrier:
      In.Op = VmOp::IMpiBarrier;
      collective(0);
      break;
    case Intrinsic::MpiAllreduceSumD:
    case Intrinsic::MpiAllreduceMaxD:
    case Intrinsic::MpiAllreduceSumI:
      unary(VmOp::IMpiIdentity);
      collective(1);
      break;
    case Intrinsic::MpiBcastD:
    case Intrinsic::MpiBcastI:
      binary(VmOp::IMpiIdentity); // value, root
      collective(2);
      break;
    case Intrinsic::MpiAllgatherD:
    case Intrinsic::MpiAlltoallD:
      In.Op = VmOp::IMpiCopy;
      In.B = regOf(Call->arg(0)); // send
      In.C = regOf(Call->arg(1)); // recv
      In.D = regOf(Call->arg(2)); // slot count
      collective(3);
      break;
    case Intrinsic::None:
      return fail("intrinsic call without id in '" + VF->Name + "'");
    }
    emit(In);
    return true;
  }

  struct Fixup {
    size_t InstIdx;
    int Field; ///< 0 = X, 1 = Y.
    const BasicBlock *Target;
  };
  struct PendingTrampoline {
    size_t InstIdx;
    int Field;
    const BasicBlock *From;
    const BasicBlock *To;
  };

  const ModuleLayout &Layout;
  VmProgram &P;
  std::string &Err;
  VmFunction *VF = nullptr;
  std::map<const Function *, uint32_t> FnIndex;
  std::map<uint64_t, uint16_t> ConstReg;
  std::map<const Instruction *, uint16_t> StageReg;
  std::map<const BasicBlock *, int32_t> BlockPC;
  std::vector<Fixup> BlockFixups;
  std::vector<PendingTrampoline> Trampolines;
};

} // namespace

std::unique_ptr<VmProgram> ipas::vm::compile(const ModuleLayout &Layout,
                                             std::string *Err) {
  auto P = std::make_unique<VmProgram>();
  std::string LocalErr;
  Compiler C(Layout, *P, LocalErr);
  if (!C.run()) {
    if (Err)
      *Err = LocalErr;
    return nullptr;
  }
  return P;
}

bool ipas::vm::injectSelftestBug(VmProgram &P) {
  // Prefer an operand swap on a non-commutative op; fall back to turning
  // an addition into a subtraction.
  for (VmInst &In : P.Code) {
    if (In.Op == VmOp::BinSub || In.Op == VmOp::SDiv || In.Op == VmOp::SRem ||
        In.Op == VmOp::FSub || In.Op == VmOp::FDiv) {
      std::swap(In.B, In.C);
      return true;
    }
  }
  for (VmInst &In : P.Code) {
    if (In.Op == VmOp::ICmpLT) {
      In.Op = VmOp::ICmpLE;
      return true;
    }
    if (In.Op == VmOp::BinAdd) {
      In.Op = VmOp::BinSub;
      return true;
    }
  }
  return false;
}

namespace {

std::string regName(const VmFunction &F, uint16_t R) {
  char Buf[16];
  if (R == kNoReg)
    return "-";
  if (R >= F.ConstBase)
    std::snprintf(Buf, sizeof(Buf), "c%u", R - F.ConstBase);
  else if (R >= F.FirstStage)
    std::snprintf(Buf, sizeof(Buf), "s%u", R - F.FirstStage);
  else
    std::snprintf(Buf, sizeof(Buf), "r%u", R);
  return Buf;
}

void disassembleFunction(const VmProgram &P, const VmFunction &F,
                         std::string &Out) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "func %s: args=%u slots=%u stage=%u consts=%zu ret=w%u\n",
                F.Name.c_str(), F.NumArgs, F.FirstStage,
                F.NumRegs - F.FirstStage, F.ConstPool.size(), F.RetWidth);
  Out += Buf;
  for (size_t K = 0; K != F.ConstPool.size(); ++K) {
    std::snprintf(Buf, sizeof(Buf), "  const c%zu = 0x%016" PRIx64 "\n", K,
                  F.ConstPool[K]);
    Out += Buf;
  }
  auto reg = [&](uint16_t R) { return regName(F, R); };
  for (uint32_t PC = F.CodeStart; PC != F.CodeEnd; ++PC) {
    const VmInst &In = P.Code[PC];
    std::snprintf(Buf, sizeof(Buf), "  %4u: %-10s", PC, vmOpName(In.Op));
    Out += Buf;
    switch (In.Op) {
    case VmOp::BinAdd:
    case VmOp::BinSub:
    case VmOp::BinMul:
    case VmOp::BinAnd:
    case VmOp::BinOr:
    case VmOp::BinXor:
    case VmOp::BinShl:
    case VmOp::BinAShr:
    case VmOp::SDiv:
    case VmOp::SRem:
    case VmOp::FAdd:
    case VmOp::FSub:
    case VmOp::FMul:
    case VmOp::FDiv:
    case VmOp::ICmpEQ:
    case VmOp::ICmpNE:
    case VmOp::ICmpLT:
    case VmOp::ICmpLE:
    case VmOp::ICmpGT:
    case VmOp::ICmpGE:
    case VmOp::UCmpEQ:
    case VmOp::UCmpNE:
    case VmOp::UCmpLT:
    case VmOp::UCmpLE:
    case VmOp::UCmpGT:
    case VmOp::UCmpGE:
    case VmOp::FCmpEQ:
    case VmOp::FCmpNE:
    case VmOp::FCmpLT:
    case VmOp::FCmpLE:
    case VmOp::FCmpGT:
    case VmOp::FCmpGE:
    case VmOp::Gep:
    case VmOp::IPow:
    case VmOp::IFMin:
    case VmOp::IFMax:
    case VmOp::IIMin:
    case VmOp::IIMax:
      std::snprintf(Buf, sizeof(Buf), "%s <- %s, %s  id=%u",
                    reg(In.A).c_str(), reg(In.B).c_str(), reg(In.C).c_str(),
                    In.Id);
      break;
    case VmOp::BinI1:
      std::snprintf(Buf, sizeof(Buf), "%s <- %s, %s sel=%u  id=%u",
                    reg(In.A).c_str(), reg(In.B).c_str(), reg(In.C).c_str(),
                    In.D, In.Id);
      break;
    case VmOp::SIToFP:
    case VmOp::FPToSI:
    case VmOp::ZExt:
    case VmOp::Bitcast:
    case VmOp::Load:
    case VmOp::LoadI1:
    case VmOp::ISqrt:
    case VmOp::IFabs:
    case VmOp::ISin:
    case VmOp::ICos:
    case VmOp::IExp:
    case VmOp::ILog:
    case VmOp::IFloor:
    case VmOp::IMalloc:
    case VmOp::IRandI64:
    case VmOp::IMpiIdentity:
      std::snprintf(Buf, sizeof(Buf), "%s <- %s  id=%u", reg(In.A).c_str(),
                    reg(In.B).c_str(), In.Id);
      break;
    case VmOp::Stage:
      std::snprintf(Buf, sizeof(Buf), "%s <- %s", reg(In.A).c_str(),
                    reg(In.B).c_str());
      break;
    case VmOp::Alloca:
      std::snprintf(Buf, sizeof(Buf), "%s <- %" PRIu64 " slots  id=%u",
                    reg(In.A).c_str(), P.Aux64[In.X], In.Id);
      break;
    case VmOp::Store:
      std::snprintf(Buf, sizeof(Buf), "[%s] <- %s  id=%u", reg(In.C).c_str(),
                    reg(In.B).c_str(), In.Id);
      break;
    case VmOp::Select:
    case VmOp::SelectI1:
      std::snprintf(Buf, sizeof(Buf), "%s <- %s ? %s : %s  id=%u",
                    reg(In.A).c_str(), reg(In.B).c_str(), reg(In.C).c_str(),
                    reg(In.D).c_str(), In.Id);
      break;
    case VmOp::Check:
      std::snprintf(Buf, sizeof(Buf), "%s == %s  id=%u", reg(In.B).c_str(),
                    reg(In.C).c_str(), In.Id);
      break;
    case VmOp::PhiCommit: {
      std::snprintf(Buf, sizeof(Buf), "n=%u", In.A);
      Out += Buf;
      for (unsigned K = 0; K != In.A; ++K) {
        const VmPhiMeta &M = P.PhiMetas[In.X + K];
        std::snprintf(Buf, sizeof(Buf), " [%s <- %s w%u id=%u]",
                      regName(F, M.Dest).c_str(), regName(F, M.Stage).c_str(),
                      M.Width, M.Id);
        Out += Buf;
      }
      Buf[0] = 0;
      break;
    }
    case VmOp::Br:
    case VmOp::Goto:
      std::snprintf(Buf, sizeof(Buf), "-> %d%s", In.X,
                    In.X == static_cast<int32_t>(PC) + 1 ? "  ; fallthrough"
                                                         : "");
      break;
    case VmOp::CondBr:
      std::snprintf(Buf, sizeof(Buf), "%s ? -> %d : -> %d  id=%u",
                    reg(In.B).c_str(), In.X, In.Y, In.Id);
      break;
    case VmOp::Call:
      std::snprintf(Buf, sizeof(Buf), "%s <- %s(", reg(In.A).c_str(),
                    P.Functions[In.X].Name.c_str());
      Out += Buf;
      for (unsigned K = 0; K != In.B; ++K) {
        if (K)
          Out += ", ";
        Out += reg(P.ArgRegs[In.Y + K]);
      }
      std::snprintf(Buf, sizeof(Buf), ")  id=%u", In.Id);
      break;
    case VmOp::Ret:
      std::snprintf(Buf, sizeof(Buf), "%s  id=%u", reg(In.B).c_str(), In.Id);
      break;
    case VmOp::RetVoid:
    case VmOp::IMpiBarrier:
      std::snprintf(Buf, sizeof(Buf), "id=%u", In.Id);
      break;
    case VmOp::IFree:
    case VmOp::IRandSeed:
      std::snprintf(Buf, sizeof(Buf), "%s  id=%u", reg(In.B).c_str(), In.Id);
      break;
    case VmOp::IRandF64:
    case VmOp::IMpiRank:
    case VmOp::IMpiSize:
      std::snprintf(Buf, sizeof(Buf), "%s <-  id=%u", reg(In.A).c_str(),
                    In.Id);
      break;
    case VmOp::IMpiCopy:
      std::snprintf(Buf, sizeof(Buf), "[%s] <- [%s] x %s  id=%u",
                    reg(In.C).c_str(), reg(In.B).c_str(), reg(In.D).c_str(),
                    In.Id);
      break;
    }
    Out += Buf;
    Out += '\n';
  }
}

} // namespace

std::string ipas::vm::disassemble(const VmProgram &P,
                                  const std::string &FnName) {
  std::string Out;
  for (const VmFunction &F : P.Functions) {
    if (!FnName.empty() && F.Name != FnName)
      continue;
    disassembleFunction(P, F, Out);
  }
  return Out;
}
