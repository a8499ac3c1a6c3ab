//===- interp/Interpreter.cpp -------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <atomic>
#include <cmath>

using namespace ipas;

namespace {

/// Pre-resolved global metric handles so the per-context flush costs a
/// handful of relaxed atomic adds instead of name lookups.
struct InterpMetrics {
  obs::Counter *Op[NumOpcodeKinds];
  obs::Counter *Steps;
  obs::Counter *ValueSteps;
  obs::Counter *Runs;
  obs::Counter *ExecMicros;
  obs::Counter *MemLoads;
  obs::Counter *MemStores;
  obs::Gauge *StepRate;

  InterpMetrics() {
    auto &R = obs::MetricsRegistry::global();
    for (unsigned K = 0; K != NumOpcodeKinds; ++K)
      Op[K] = &R.counter(std::string("interp.op.") +
                         opcodeName(static_cast<Opcode>(K)));
    Steps = &R.counter("interp.steps");
    ValueSteps = &R.counter("interp.value_steps");
    Runs = &R.counter("interp.runs");
    ExecMicros = &R.counter("interp.exec_micros");
    MemLoads = &R.counter("interp.mem.loads");
    MemStores = &R.counter("interp.mem.stores");
    StepRate = &R.gauge("interp.steps_per_sec");
  }

  static InterpMetrics &get() {
    static InterpMetrics M;
    return M;
  }
};

} // namespace

// Out-of-line key function anchoring the observer vtable.
ExecObserver::~ExecObserver() = default;

const char *ipas::runStatusName(RunStatus S) {
  switch (S) {
  case RunStatus::Running:
    return "running";
  case RunStatus::Blocked:
    return "blocked";
  case RunStatus::Finished:
    return "finished";
  case RunStatus::Trapped:
    return "trapped";
  case RunStatus::Detected:
    return "detected";
  case RunStatus::OutOfSteps:
    return "out-of-steps";
  }
  return "<bad status>";
}

const char *ipas::trapKindName(TrapKind K) {
  switch (K) {
  case TrapKind::None:
    return "none";
  case TrapKind::OutOfBounds:
    return "out-of-bounds access";
  case TrapKind::DivByZero:
    return "integer division by zero";
  case TrapKind::OutOfMemory:
    return "heap exhausted";
  case TrapKind::StackOverflow:
    return "stack overflow";
  case TrapKind::CallDepthExceeded:
    return "call depth exceeded";
  case TrapKind::MpiMismatch:
    return "mismatched MPI collective";
  case TrapKind::BadEntry:
    return "missing or mismatched entry function";
  }
  return "<bad trap>";
}

//===----------------------------------------------------------------------===//
// ModuleLayout
//===----------------------------------------------------------------------===//

static uint64_t nextLayoutId() {
  static std::atomic<uint64_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

ModuleLayout::ModuleLayout(const Module &M) : M(M), Id(nextLayoutId()) {
  InstSlot.assign(M.numInstructions(), 0);
  for (Function *F : M) {
    unsigned Next = F->numArgs();
    for (BasicBlock *BB : *F)
      for (Instruction *I : *BB) {
        assert(I->id() < InstSlot.size() &&
               "Module::renumber() must run before building a layout");
        if (I->producesValue())
          InstSlot[I->id()] = Next++;
      }
    FrameSlots[F] = Next;
  }
}

//===----------------------------------------------------------------------===//
// ExecutionContext
//===----------------------------------------------------------------------===//

ExecutionContext::ExecutionContext(const ModuleLayout &Layout,
                                   const Config &Cfg)
    : Layout(Layout), Cfg(Cfg), Mem(Cfg.Mem),
      WorkloadRng(Cfg.WorkloadRngSeed),
      CollectStats(obs::statsEnabled()) {}

ExecutionContext::ExecutionContext(const ModuleLayout &Layout)
    : ExecutionContext(Layout, Config()) {}

ExecutionContext::~ExecutionContext() {
  if (!CollectStats || !Steps)
    return;
  InterpMetrics &M = InterpMetrics::get();
  for (unsigned K = 0; K != NumOpcodeKinds; ++K)
    if (OpCount[K])
      M.Op[K]->inc(OpCount[K]);
  M.Steps->inc(Steps);
  M.ValueSteps->inc(ValueSteps);
  M.Runs->inc(1);
  M.MemLoads->inc(opcodeCount(Opcode::Load));
  M.MemStores->inc(opcodeCount(Opcode::Store));
  if (ExecMicros) {
    M.ExecMicros->inc(ExecMicros);
    double Secs = static_cast<double>(M.ExecMicros->value()) / 1e6;
    if (Secs > 0.0)
      M.StepRate->set(static_cast<double>(M.Steps->value()) / Secs);
  }
}

void ExecutionContext::start(const Function *Entry,
                             const std::vector<RtValue> &Args) {
  assert(!Started && "context already started");
  assert(Entry->numArgs() == Args.size() && "entry argument count mismatch");
  Started = true;
  pushFrame(Entry, Args);
}

void ExecutionContext::pushFrame(const Function *Fn,
                                 std::vector<RtValue> Args) {
  Frame F;
  F.Fn = Fn;
  F.Block = Fn->entry();
  F.InstIdx = 0;
  F.SavedStackPtr = Mem.stackPointer();
  F.Slots.assign(Layout.frameSlots(Fn), RtValue());
  for (size_t I = 0; I != Args.size(); ++I)
    F.Slots[I] = Args[I];
  CallStack.push_back(std::move(F));
}

RtValue ExecutionContext::eval(const Frame &F, const Value *V) const {
  switch (V->kind()) {
  case ValueKind::ConstantInt:
    return RtValue::fromI64(static_cast<const ConstantInt *>(V)->value());
  case ValueKind::ConstantFP:
    return RtValue::fromF64(static_cast<const ConstantFP *>(V)->value());
  case ValueKind::Argument:
    return F.Slots[static_cast<const Argument *>(V)->index()];
  case ValueKind::Instruction:
    return F.Slots[Layout.slotOfInstruction(
        static_cast<const Instruction *>(V))];
  }
  return RtValue();
}

void ExecutionContext::writeResult(Frame &F, const Instruction *I,
                                   RtValue V) {
  if (ValueStepTrace)
    ValueStepTrace->push_back(I->id());
  if (ValueSteps == Plan.TargetValueStep) {
    V.flipBit(static_cast<unsigned>(Plan.BitDraw), I->type());
    FaultInjected = true;
    FaultedId = I->id();
  }
  if (Obs)
    Obs->onValueCommit(I, V, ValueSteps);
  ++ValueSteps;
  F.Slots[Layout.slotOfInstruction(I)] = V;
}

RunStatus ExecutionContext::run(uint64_t MaxSteps) {
  uint64_t T0 = CollectStats ? obs::monotonicMicros() : 0;
  RunStatus Result;
  while (true) {
    if (Status != RunStatus::Running) {
      Result = Status;
      break;
    }
    if (Steps >= MaxSteps) {
      Result = RunStatus::OutOfSteps;
      break;
    }
    stepOnce();
  }
  if (CollectStats)
    ExecMicros += obs::monotonicMicros() - T0;
  return Result;
}

void ExecutionContext::returnFromFrame(bool HasValue, RtValue V) {
  Frame Done = std::move(CallStack.back());
  CallStack.pop_back();
  Mem.restoreStackPointer(Done.SavedStackPtr);
  if (CallStack.empty()) {
    ReturnValue = V;
    Status = RunStatus::Finished;
    return;
  }
  Frame &Caller = CallStack.back();
  const auto *Call = cast<CallInst>(Caller.Block->at(Caller.InstIdx));
  if (HasValue && Call->producesValue())
    writeResult(Caller, Call, V);
  ++Caller.InstIdx;
}

void ExecutionContext::execPhis(Frame &F) {
  // All phis at the block top read their incoming values simultaneously.
  const BasicBlock *BB = F.Block;
  size_t NumPhis = 0;
  while (NumPhis < BB->size() && BB->at(NumPhis)->opcode() == Opcode::Phi)
    ++NumPhis;
  std::vector<RtValue> Incoming(NumPhis);
  for (size_t K = 0; K != NumPhis; ++K) {
    const auto *Phi = cast<PhiInst>(BB->at(K));
    const Value *V = Phi->incomingValueFor(F.PrevBlock);
    assert(V && "phi has no incoming value for the predecessor");
    if (Obs)
      Obs->onPhiChoice(Phi, V);
    Incoming[K] = eval(F, V);
  }
  for (size_t K = 0; K != NumPhis; ++K) {
    ++Steps;
    countOp(Opcode::Phi);
    countSite(BB->at(K));
    writeResult(F, BB->at(K), Incoming[K]);
  }
  F.InstIdx = NumPhis;
}

void ExecutionContext::stepOnce() {
  Frame &F = CallStack.back();
  const Instruction *I = F.Block->at(F.InstIdx);

  if (I->opcode() == Opcode::Phi) {
    execPhis(F);
    return;
  }

  // Calls manage their own step accounting and instruction-pointer
  // movement (they may push a frame or block on MPI).
  if (I->opcode() == Opcode::Call) {
    execCall(F, cast<CallInst>(I));
    return;
  }

  ++Steps;
  countOp(I->opcode());
  countSite(I);
  switch (I->opcode()) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::AShr: {
    uint64_t A = eval(F, I->operand(0)).Bits;
    uint64_t B = eval(F, I->operand(1)).Bits;
    uint64_t R = 0;
    switch (I->opcode()) {
    case Opcode::Add:
      R = A + B;
      break;
    case Opcode::Sub:
      R = A - B;
      break;
    case Opcode::Mul:
      R = A * B;
      break;
    case Opcode::And:
      R = A & B;
      break;
    case Opcode::Or:
      R = A | B;
      break;
    case Opcode::Xor:
      R = A ^ B;
      break;
    case Opcode::Shl:
      R = A << (B & 63);
      break;
    default:
      R = static_cast<uint64_t>(static_cast<int64_t>(A) >>
                                (B & 63));
      break;
    }
    if (I->type().isI1())
      R &= 1;
    RtValue V;
    V.Bits = R;
    writeResult(F, I, V);
    ++F.InstIdx;
    return;
  }
  case Opcode::SDiv:
  case Opcode::SRem: {
    int64_t A = eval(F, I->operand(0)).asI64();
    int64_t B = eval(F, I->operand(1)).asI64();
    // Division by zero and INT64_MIN / -1 raise SIGFPE on x86.
    if (B == 0 || (A == INT64_MIN && B == -1)) {
      raiseTrap(TrapKind::DivByZero);
      return;
    }
    int64_t R = I->opcode() == Opcode::SDiv ? A / B : A % B;
    writeResult(F, I, RtValue::fromI64(R));
    ++F.InstIdx;
    return;
  }
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv: {
    double A = eval(F, I->operand(0)).asF64();
    double B = eval(F, I->operand(1)).asF64();
    double R;
    switch (I->opcode()) {
    case Opcode::FAdd:
      R = A + B;
      break;
    case Opcode::FSub:
      R = A - B;
      break;
    case Opcode::FMul:
      R = A * B;
      break;
    default:
      R = A / B; // IEEE: inf/NaN, never traps
      break;
    }
    writeResult(F, I, RtValue::fromF64(R));
    ++F.InstIdx;
    return;
  }
  case Opcode::ICmp: {
    const auto *Cmp = cast<CmpInst>(I);
    bool Unsigned = Cmp->lhs()->type().isPtr();
    RtValue AV = eval(F, I->operand(0));
    RtValue BV = eval(F, I->operand(1));
    bool R = false;
    if (Unsigned) {
      uint64_t A = AV.Bits, B = BV.Bits;
      switch (Cmp->predicate()) {
      case CmpPredicate::EQ:
        R = A == B;
        break;
      case CmpPredicate::NE:
        R = A != B;
        break;
      case CmpPredicate::LT:
        R = A < B;
        break;
      case CmpPredicate::LE:
        R = A <= B;
        break;
      case CmpPredicate::GT:
        R = A > B;
        break;
      case CmpPredicate::GE:
        R = A >= B;
        break;
      }
    } else {
      int64_t A = AV.asI64(), B = BV.asI64();
      switch (Cmp->predicate()) {
      case CmpPredicate::EQ:
        R = A == B;
        break;
      case CmpPredicate::NE:
        R = A != B;
        break;
      case CmpPredicate::LT:
        R = A < B;
        break;
      case CmpPredicate::LE:
        R = A <= B;
        break;
      case CmpPredicate::GT:
        R = A > B;
        break;
      case CmpPredicate::GE:
        R = A >= B;
        break;
      }
    }
    writeResult(F, I, RtValue::fromBool(R));
    ++F.InstIdx;
    return;
  }
  case Opcode::FCmp: {
    const auto *Cmp = cast<CmpInst>(I);
    double A = eval(F, I->operand(0)).asF64();
    double B = eval(F, I->operand(1)).asF64();
    bool R = false;
    switch (Cmp->predicate()) {
    case CmpPredicate::EQ:
      R = A == B;
      break;
    case CmpPredicate::NE:
      R = A != B; // true on NaN, matching C
      break;
    case CmpPredicate::LT:
      R = A < B;
      break;
    case CmpPredicate::LE:
      R = A <= B;
      break;
    case CmpPredicate::GT:
      R = A > B;
      break;
    case CmpPredicate::GE:
      R = A >= B;
      break;
    }
    writeResult(F, I, RtValue::fromBool(R));
    ++F.InstIdx;
    return;
  }
  case Opcode::SIToFP:
    writeResult(F, I,
                RtValue::fromF64(static_cast<double>(
                    eval(F, I->operand(0)).asI64())));
    ++F.InstIdx;
    return;
  case Opcode::FPToSI: {
    double V = eval(F, I->operand(0)).asF64();
    // Out-of-range conversions produce the x86 "integer indefinite".
    int64_t R;
    if (std::isnan(V) || V >= 9.2233720368547758e18 ||
        V <= -9.2233720368547758e18)
      R = INT64_MIN;
    else
      R = static_cast<int64_t>(V);
    writeResult(F, I, RtValue::fromI64(R));
    ++F.InstIdx;
    return;
  }
  case Opcode::ZExt: {
    RtValue V;
    V.Bits = eval(F, I->operand(0)).Bits & 1;
    writeResult(F, I, V);
    ++F.InstIdx;
    return;
  }
  case Opcode::BitcastF2I:
  case Opcode::BitcastI2F:
    writeResult(F, I, eval(F, I->operand(0)));
    ++F.InstIdx;
    return;
  case Opcode::Alloca: {
    const auto *A = cast<AllocaInst>(I);
    uint64_t Addr = Mem.allocaBytes(A->slotCount() * 8);
    if (!Addr) {
      raiseTrap(TrapKind::StackOverflow);
      return;
    }
    writeResult(F, I, RtValue::fromPtr(Addr));
    ++F.InstIdx;
    return;
  }
  case Opcode::Load: {
    uint64_t Addr = eval(F, I->operand(0)).asPtr();
    if (!Mem.validRange(Addr, 8)) {
      raiseTrap(TrapKind::OutOfBounds);
      return;
    }
    if (Obs)
      Obs->onLoad(I, Addr);
    RtValue V;
    V.Bits = Mem.read64(Addr);
    if (I->type().isI1())
      V.Bits &= 1;
    writeResult(F, I, V);
    ++F.InstIdx;
    return;
  }
  case Opcode::Store: {
    RtValue V = eval(F, I->operand(0));
    uint64_t Addr = eval(F, I->operand(1)).asPtr();
    if (!Mem.validRange(Addr, 8)) {
      raiseTrap(TrapKind::OutOfBounds);
      return;
    }
    if (Obs)
      Obs->onStore(I, Addr, V);
    Mem.write64(Addr, V.Bits);
    ++F.InstIdx;
    return;
  }
  case Opcode::Gep: {
    uint64_t Base = eval(F, I->operand(0)).asPtr();
    uint64_t Index = eval(F, I->operand(1)).Bits;
    writeResult(F, I, RtValue::fromPtr(Base + Index * 8));
    ++F.InstIdx;
    return;
  }
  case Opcode::Select: {
    bool C = eval(F, I->operand(0)).asBool();
    writeResult(F, I, eval(F, I->operand(C ? 1 : 2)));
    ++F.InstIdx;
    return;
  }
  case Opcode::Check: {
    uint64_t A = eval(F, I->operand(0)).Bits;
    uint64_t B = eval(F, I->operand(1)).Bits;
    if (Obs) {
      RtValue AV, BV;
      AV.Bits = A;
      BV.Bits = B;
      Obs->onCheck(I, AV, BV);
    }
    if (A != B) {
      Status = RunStatus::Detected;
      return;
    }
    ++F.InstIdx;
    return;
  }
  case Opcode::Br: {
    const auto *Br = cast<BranchInst>(I);
    F.PrevBlock = F.Block;
    F.Block = Br->target();
    F.InstIdx = 0;
    return;
  }
  case Opcode::CondBr: {
    const auto *CBr = cast<CondBranchInst>(I);
    bool C = eval(F, I->operand(0)).asBool();
    if (Obs)
      Obs->onCondBranch(I, C);
    F.PrevBlock = F.Block;
    F.Block = C ? CBr->trueTarget() : CBr->falseTarget();
    F.InstIdx = 0;
    return;
  }
  case Opcode::Ret: {
    const auto *Ret = cast<RetInst>(I);
    bool HasValue = Ret->hasReturnValue();
    RtValue V = HasValue ? eval(F, I->operand(0)) : RtValue();
    if (Obs)
      Obs->onReturn(I, HasValue, V);
    returnFromFrame(HasValue, V);
    return;
  }
  case Opcode::Phi:
  case Opcode::Call:
    break; // handled above
  }
  assert(false && "unhandled opcode in stepOnce");
}

void ExecutionContext::execCall(Frame &F, const CallInst *Call) {
  if (!Call->isIntrinsicCall()) {
    if (CallStack.size() >= Cfg.MaxCallDepth) {
      raiseTrap(TrapKind::CallDepthExceeded);
      return;
    }
    ++Steps;
    countOp(Opcode::Call);
    countSite(Call);
    std::vector<RtValue> Args(Call->numArgs());
    for (unsigned K = 0; K != Call->numArgs(); ++K)
      Args[K] = eval(F, Call->arg(K));
    if (Obs)
      Obs->onCall(Call, Args);
    pushFrame(Call->callee(), std::move(Args));
    // The caller's InstIdx advances when the callee returns.
    return;
  }
  execIntrinsic(F, Call);
}

/// Copies \p Count doubles between two (validated) regions of \p Mem.
static bool copySlots(Memory &Mem, uint64_t Dst, uint64_t Src,
                      uint64_t Count) {
  if (!Mem.validRange(Src, Count * 8) || !Mem.validRange(Dst, Count * 8))
    return false;
  for (uint64_t K = 0; K != Count; ++K)
    Mem.write64(Dst + K * 8, Mem.read64(Src + K * 8));
  return true;
}

bool ExecutionContext::execMpiSingleRank(Frame &F, const CallInst *Call) {
  // Single-process semantics: collectives are identities, gathers are
  // local copies.
  switch (Call->intrinsicId()) {
  case Intrinsic::MpiRank:
    writeResult(F, Call, RtValue::fromI64(0));
    return true;
  case Intrinsic::MpiSize:
    writeResult(F, Call, RtValue::fromI64(1));
    return true;
  case Intrinsic::MpiBarrier:
    return true;
  case Intrinsic::MpiAllreduceSumD:
  case Intrinsic::MpiAllreduceMaxD:
  case Intrinsic::MpiAllreduceSumI:
    writeResult(F, Call, eval(F, Call->arg(0)));
    return true;
  case Intrinsic::MpiBcastD:
  case Intrinsic::MpiBcastI:
    writeResult(F, Call, eval(F, Call->arg(0)));
    return true;
  case Intrinsic::MpiAllgatherD:
  case Intrinsic::MpiAlltoallD: {
    uint64_t Send = eval(F, Call->arg(0)).asPtr();
    uint64_t Recv = eval(F, Call->arg(1)).asPtr();
    int64_t N = eval(F, Call->arg(2)).asI64();
    if (N < 0 || !copySlots(Mem, Recv, Send, static_cast<uint64_t>(N))) {
      raiseTrap(TrapKind::OutOfBounds);
      return false;
    }
    return true;
  }
  default:
    assert(false && "not an MPI intrinsic");
    return true;
  }
}

void ExecutionContext::execIntrinsic(Frame &F, const CallInst *Call) {
  Intrinsic Id = Call->intrinsicId();

  if (isMpiIntrinsic(Id) || Id == Intrinsic::MpiRank ||
      Id == Intrinsic::MpiSize) {
    if (Cfg.NumRanks <= 1) {
      ++Steps;
      countOp(Opcode::Call);
      countSite(Call);
      if (execMpiSingleRank(F, Call))
        ++F.InstIdx;
      return;
    }
    // Rank and size resolve locally even in multi-rank mode.
    if (Id == Intrinsic::MpiRank || Id == Intrinsic::MpiSize) {
      ++Steps;
      countOp(Opcode::Call);
      countSite(Call);
      writeResult(F, Call,
                  RtValue::fromI64(Id == Intrinsic::MpiRank ? Cfg.Rank
                                                            : Cfg.NumRanks));
      ++F.InstIdx;
      return;
    }
    // Blocking collective: suspend until the scheduler resolves it. The
    // step is accounted when the call completes.
    Pending.Op = Id;
    for (unsigned K = 0; K != Call->numArgs() && K != 3; ++K)
      Pending.Args[K] = eval(F, Call->arg(K));
    Status = RunStatus::Blocked;
    return;
  }

  ++Steps;
  countOp(Opcode::Call);
  countSite(Call);
  auto Ret = [&](RtValue V) {
    writeResult(F, Call, V);
    ++F.InstIdx;
  };
  auto A0 = [&]() { return eval(F, Call->arg(0)); };
  auto A1 = [&]() { return eval(F, Call->arg(1)); };

  switch (Id) {
  case Intrinsic::Sqrt:
    Ret(RtValue::fromF64(std::sqrt(A0().asF64())));
    return;
  case Intrinsic::Fabs:
    Ret(RtValue::fromF64(std::fabs(A0().asF64())));
    return;
  case Intrinsic::Sin:
    Ret(RtValue::fromF64(std::sin(A0().asF64())));
    return;
  case Intrinsic::Cos:
    Ret(RtValue::fromF64(std::cos(A0().asF64())));
    return;
  case Intrinsic::Exp:
    Ret(RtValue::fromF64(std::exp(A0().asF64())));
    return;
  case Intrinsic::Log:
    Ret(RtValue::fromF64(std::log(A0().asF64())));
    return;
  case Intrinsic::Pow:
    Ret(RtValue::fromF64(std::pow(A0().asF64(), A1().asF64())));
    return;
  case Intrinsic::Floor:
    Ret(RtValue::fromF64(std::floor(A0().asF64())));
    return;
  case Intrinsic::FMin:
    Ret(RtValue::fromF64(std::fmin(A0().asF64(), A1().asF64())));
    return;
  case Intrinsic::FMax:
    Ret(RtValue::fromF64(std::fmax(A0().asF64(), A1().asF64())));
    return;
  case Intrinsic::IMin:
    Ret(RtValue::fromI64(std::min(A0().asI64(), A1().asI64())));
    return;
  case Intrinsic::IMax:
    Ret(RtValue::fromI64(std::max(A0().asI64(), A1().asI64())));
    return;
  case Intrinsic::Malloc: {
    int64_t Slots = A0().asI64();
    if (Slots < 0) {
      raiseTrap(TrapKind::OutOfMemory);
      return;
    }
    uint64_t Addr = Mem.mallocBytes(static_cast<uint64_t>(Slots) * 8);
    if (!Addr) {
      raiseTrap(TrapKind::OutOfMemory);
      return;
    }
    Ret(RtValue::fromPtr(Addr));
    return;
  }
  case Intrinsic::Free:
    Mem.free(A0().asPtr());
    ++F.InstIdx;
    return;
  case Intrinsic::RandSeed:
    WorkloadRng.reseed(static_cast<uint64_t>(A0().asI64()));
    ++F.InstIdx;
    return;
  case Intrinsic::RandI64: {
    int64_t Bound = A0().asI64();
    Ret(RtValue::fromI64(
        Bound <= 0 ? 0
                   : static_cast<int64_t>(WorkloadRng.nextBelow(
                         static_cast<uint64_t>(Bound)))));
    return;
  }
  case Intrinsic::RandF64:
    Ret(RtValue::fromF64(WorkloadRng.nextDouble()));
    return;
  default:
    assert(false && "unhandled intrinsic");
    ++F.InstIdx;
    return;
  }
}

void ExecutionContext::completePendingCall(RtValue Result) {
  assert(Status == RunStatus::Blocked && "no pending call to complete");
  Frame &F = CallStack.back();
  const auto *Call = cast<CallInst>(F.Block->at(F.InstIdx));
  ++Steps;
  countOp(Opcode::Call);
  countSite(Call);
  if (Call->producesValue())
    writeResult(F, Call, Result);
  ++F.InstIdx;
  Pending.Op = Intrinsic::None;
  Status = RunStatus::Running;
}

void ExecutionContext::failPending(TrapKind K) {
  assert(Status == RunStatus::Blocked && "no pending call to fail");
  Pending.Op = Intrinsic::None;
  raiseTrap(K);
}
