//===- fault/ProgramExecutor.cpp ----------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fault/ProgramExecutor.h"

#include "interp/CostProfiler.h"
#include "ir/Module.h"
#include "vm/VM.h"

using namespace ipas;

namespace {

/// The entry's arguments, with the output pointer appended when the
/// harness has an output region.
std::vector<RtValue> callArgs(const ProgramExecutor::Config &Cfg,
                              uint64_t OutPtr) {
  std::vector<RtValue> Args = Cfg.Args;
  if (Cfg.OutputSlots)
    Args.push_back(RtValue::fromPtr(OutPtr));
  return Args;
}

} // namespace

ProgramExecutor::ProgramExecutor(Config C) : Cfg(std::move(C)) {}

ProgramExecutor::~ProgramExecutor() = default;

ExecutionRecord ProgramExecutor::failedRun(TrapKind Trap) {
  ExecutionRecord R;
  R.Status = RunStatus::Trapped;
  R.Trap = Trap;
  return R;
}

ProgramExecutor::Run ProgramExecutor::run(const ModuleLayout &Layout,
                                          const FaultPlan *Plan,
                                          uint64_t StepBudget,
                                          const Instruments &With) {
  const Function *Entry = Layout.module().getFunction(Cfg.Entry);
  size_t Arity = Cfg.Args.size() + (Cfg.OutputSlots ? 1 : 0);
  if (!Entry || Entry->numArgs() != Arity)
    return Run{failedRun(TrapKind::BadEntry), RtValue(), {}};

  if (Backend != ExecBackend::Vm)
    return runInterp(Layout, Entry, Plan, StepBudget, With);

  const char *Reason = nullptr;
  if (With.Obs)
    Reason = "observer";
  else if (With.Prof &&
           With.Prof->mode() != CostProfiler::Mode::Counting)
    Reason = "profile_context";
  else if (With.Prof && With.Trace)
    Reason = "other"; // the VM traces or profiles a run, not both
  else if (std::unique_ptr<vm::VmContext> Ctx = acquireVm(Layout))
    return runVm(std::move(Ctx), Entry, Plan, StepBudget, With);
  else
    Reason = "compile";
  Run R = runInterp(Layout, Entry, Plan, StepBudget, With);
  R.Rec.FallbackReason = noteVmFallback(Reason);
  return R;
}

ProgramExecutor::Run
ProgramExecutor::runInterp(const ModuleLayout &Layout, const Function *Entry,
                           const FaultPlan *Plan, uint64_t StepBudget,
                           const Instruments &With) {
  ExecutionContext::Config CtxCfg;
  CtxCfg.Mem = Cfg.Mem;
  CtxCfg.WorkloadRngSeed = Cfg.WorkloadRngSeed;
  ExecutionContext Ctx(Layout, CtxCfg);
  uint64_t OutPtr = 0;
  if (Cfg.OutputSlots && !(OutPtr = Ctx.hostAlloc(Cfg.OutputSlots)))
    return Run{failedRun(TrapKind::OutOfMemory), RtValue(), {}};

  if (Plan)
    Ctx.setFaultPlan(*Plan);
  if (With.Trace)
    Ctx.setValueStepTrace(With.Trace);
  if (With.Obs)
    Ctx.setObserver(With.Obs);
  if (With.Prof)
    With.Prof->attach(Ctx, Entry); // arms site counts (+observer when needed)
  Ctx.start(Entry, callArgs(Cfg, OutPtr));
  RunStatus S = Ctx.run(StepBudget);

  Run R;
  R.Rec.Status = S;
  R.Rec.Trap = Ctx.trap();
  R.Rec.Steps = Ctx.steps();
  R.Rec.ValueSteps = Ctx.valueSteps();
  R.Rec.CriticalPathCycles = Ctx.steps(); // serial: no communication cost
  R.Rec.FaultInjected = Ctx.faultWasInjected();
  R.Rec.FaultedInstructionId = Ctx.faultedInstructionId();
  if (S == RunStatus::Finished) {
    R.ReturnValue = Ctx.returnValue();
    if (Cfg.OutputSlots)
      R.Output = readOutputSlots(Ctx.memory(), OutPtr, Cfg.OutputSlots);
  }
  return R;
}

const vm::VmProgram *
ProgramExecutor::vmProgram(const ModuleLayout &Layout) {
  std::lock_guard<std::mutex> Lock(VmMutex);
  return compiled(Layout);
}

const vm::VmProgram *ProgramExecutor::compiled(const ModuleLayout &Layout) {
  if (VmLayoutId != Layout.id()) {
    VmLayoutId = Layout.id();
    VmPool.clear();
    VmProg = vm::compile(Layout);
    if (VmProg) {
      VmEntryIndex = VmProg->indexOf(Cfg.Entry);
      if (VmEntryIndex == UINT32_MAX)
        VmProg.reset();
    }
  }
  return VmProg.get();
}

std::unique_ptr<vm::VmContext>
ProgramExecutor::acquireVm(const ModuleLayout &Layout) {
  std::lock_guard<std::mutex> Lock(VmMutex);
  if (!compiled(Layout))
    return nullptr;
  if (VmPool.empty()) {
    vm::VmContext::Config CtxCfg;
    CtxCfg.Mem = Cfg.Mem;
    CtxCfg.WorkloadRngSeed = Cfg.WorkloadRngSeed;
    return std::make_unique<vm::VmContext>(*VmProg, CtxCfg);
  }
  std::unique_ptr<vm::VmContext> Ctx = std::move(VmPool.back());
  VmPool.pop_back();
  return Ctx;
}

ProgramExecutor::Run
ProgramExecutor::runVm(std::unique_ptr<vm::VmContext> Ctx,
                       const Function *Entry, const FaultPlan *Plan,
                       uint64_t StepBudget, const Instruments &With) {
  Run R;
  uint64_t OutPtr = 0;
  if (Cfg.OutputSlots && !(OutPtr = Ctx->hostAlloc(Cfg.OutputSlots))) {
    R.Rec = failedRun(TrapKind::OutOfMemory);
  } else {
    // Counting-mode profiling and value-step traces run natively in the
    // VM dispatch loop; counts, stream hashes and trace entries land in
    // the caller's buffers, bit-identical to the interpreter's.
    ProfileHook Hook;
    if (With.Prof)
      Hook = With.Prof->countingHook(Entry);
    vm::VmContext::Result V = Ctx->run(VmEntryIndex, callArgs(Cfg, OutPtr),
                                       Plan, StepBudget,
                                       With.Prof ? &Hook : nullptr,
                                       With.Trace);
    R.Rec.Status = V.Status;
    R.Rec.Trap = V.Trap;
    R.Rec.Steps = V.Steps;
    R.Rec.ValueSteps = V.ValueSteps;
    R.Rec.CriticalPathCycles = V.Steps; // serial: no communication cost
    R.Rec.FaultInjected = V.FaultInjected;
    R.Rec.FaultedInstructionId = V.FaultedInstructionId;
    if (V.Status == RunStatus::Finished) {
      R.ReturnValue = V.ReturnValue;
      if (Cfg.OutputSlots)
        R.Output = readOutputSlots(Ctx->memory(), OutPtr, Cfg.OutputSlots);
    }
  }
  R.Rec.BackendUsed = ExecBackend::Vm;

  std::lock_guard<std::mutex> Lock(VmMutex);
  VmPool.push_back(std::move(Ctx));
  return R;
}
