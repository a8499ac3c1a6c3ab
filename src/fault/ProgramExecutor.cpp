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

/// Caps on one program's clean-run checkpoints: their number and their
/// snapshot bytes. At input level 1, IS's heap snapshots (up to 164 KiB)
/// fill the byte cap with three, the start included; HPCCG's and FFT's
/// smaller ones are bounded by their run lengths, 14 and 9.
constexpr size_t MaxCheckpoints = 16;
constexpr size_t MaxCheckpointBytes = 512 * 1024;
/// Steps between the first checkpoints; thinning doubles it. Programs
/// shorter than 16 strides keep fewer checkpoints. Each checkpoint taken
/// costs a snapshot copy, and every thinning wastes the copies it drops,
/// so a short first stride makes the clean run pay for copies it
/// discards. The paper workloads' runs end at a stride of at least this.
constexpr uint64_t FirstCheckpointStride = 65536;

using Checkpoint = vm::VmContext::Checkpoint;

/// Runs the clean run \p Ctx has start()ed to its end, checkpointing it
/// every Stride steps. A checkpoint that would exceed a cap first thins
/// the list: every other checkpoint goes (the first stays) and the stride
/// doubles, so the survivors stay evenly spaced and the run never runs
/// twice; the new checkpoint is copied only if it survives. Checkpoint 0
/// is the state right after start(); restoring it zeroes the registers
/// above the live extent, as every injected run's restore does, so the
/// checkpoints do not depend on what ran in \p Ctx before.
void captureCleanRun(vm::VmContext &Ctx, uint64_t StepBudget,
                     std::vector<Checkpoint> &Points) {
  Points.push_back(Ctx.checkpoint());
  Ctx.restore(Points[0]);
  size_t Bytes = Points[0].bytes();
  uint64_t Stride = FirstCheckpointStride;
  for (;;) {
    uint64_t Stop = (Ctx.steps() / Stride + 1) * Stride;
    vm::VmContext::Result V = Ctx.resume(std::min(Stop, StepBudget));
    if (V.Status != RunStatus::OutOfSteps || V.Steps >= StepBudget)
      return;
    size_t Index = Points.size(); // where the new checkpoint would go
    const size_t Need = Ctx.checkpointBytes();
    bool Keep = true;
    while (Keep && (Index + 1 > MaxCheckpoints ||
                    Bytes + Need > MaxCheckpointBytes)) {
      Bytes = Points[0].bytes();
      for (size_t K = 2; K < Points.size(); K += 2) {
        Bytes += Points[K].bytes();
        Points[K / 2] = std::move(Points[K]);
      }
      Points.resize((Points.size() + 1) / 2);
      Stride *= 2;
      Keep = Index % 2 == 0;
      Index /= 2;
    }
    if (Keep) {
      Points.push_back(Ctx.checkpoint());
      Bytes += Need;
    }
  }
}

} // namespace

/// The first clean, uninstrumented VM run on the current layout.
struct ProgramExecutor::CleanRun {
  std::vector<Checkpoint> Points; ///< In step order; [0] is the start.
  Run Final;
};

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
  else if (VmLease L = acquireVm(Layout, Plan, With); L.Ctx)
    return runVm(std::move(L), Entry, Plan, StepBudget, With);
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
    Clean.reset();
    Capturing = false;
    VmProg = vm::compile(Layout);
    if (VmProg) {
      VmEntryIndex = VmProg->indexOf(Cfg.Entry);
      if (VmEntryIndex == UINT32_MAX)
        VmProg.reset();
    }
  }
  return VmProg.get();
}

std::vector<ProgramExecutor::CheckpointMark> ProgramExecutor::checkpoints() {
  std::lock_guard<std::mutex> Lock(VmMutex);
  std::vector<CheckpointMark> Marks;
  if (Clean)
    for (const Checkpoint &C : Clean->Points)
      Marks.push_back({C.steps(), C.valueSteps()});
  return Marks;
}

ProgramExecutor::VmLease
ProgramExecutor::acquireVm(const ModuleLayout &Layout, const FaultPlan *Plan,
                           const Instruments &With) {
  std::lock_guard<std::mutex> Lock(VmMutex);
  VmLease L;
  if (!compiled(Layout))
    return L;
  if (!With.Prof && !With.Trace) {
    if (Plan)
      L.Clean = Clean;
    else if (!Clean && !Capturing)
      L.Capture = Capturing = true;
  }
  if (VmPool.empty()) {
    vm::VmContext::Config CtxCfg;
    CtxCfg.Mem = Cfg.Mem;
    CtxCfg.WorkloadRngSeed = Cfg.WorkloadRngSeed;
    L.Ctx = std::make_unique<vm::VmContext>(*VmProg, CtxCfg);
  } else {
    L.Ctx = std::move(VmPool.back());
    VmPool.pop_back();
  }
  return L;
}

ProgramExecutor::Run ProgramExecutor::vmRun(const vm::VmContext &Ctx,
                                            uint64_t OutPtr) const {
  Run R;
  R.Rec.Status = Ctx.status();
  R.Rec.Trap = Ctx.trap();
  R.Rec.Steps = Ctx.steps();
  R.Rec.ValueSteps = Ctx.valueSteps();
  R.Rec.CriticalPathCycles = Ctx.steps(); // serial: no communication cost
  R.Rec.FaultInjected = Ctx.faultWasInjected();
  R.Rec.FaultedInstructionId = Ctx.faultedInstructionId();
  if (R.Rec.Status == RunStatus::Finished) {
    R.ReturnValue = Ctx.returnValue();
    if (Cfg.OutputSlots)
      R.Output = readOutputSlots(Ctx.memory(), OutPtr, Cfg.OutputSlots);
  }
  return R;
}

ProgramExecutor::Run
ProgramExecutor::runFromCheckpoints(vm::VmContext &Ctx, const CleanRun &Clean,
                                    const FaultPlan &Plan, uint64_t StepBudget,
                                    uint64_t OutPtr) const {
  // Fast-forward: up to its target value step the run is the clean run,
  // and a checkpoint below the budget is reached within it.
  const std::vector<Checkpoint> &Points = Clean.Points;
  size_t From = 0;
  while (From + 1 < Points.size() &&
         Points[From + 1].valueSteps() <= Plan.TargetValueStep &&
         Points[From + 1].steps() < StepBudget)
    ++From;
  Ctx.restore(Points[From]);
  uint64_t Skipped = Points[From].steps();

  // Cut-off: a state equal to a later checkpoint's, once the fault has
  // fired, runs on exactly as the clean run did. Stopping at a checkpoint
  // below the budget stops where the budget check would stop the run
  // first, so a run that ends or overshoots the budget there is final.
  if (Clean.Final.Rec.Steps < StepBudget) {
    for (size_t K = From + 1; K < Points.size(); ++K) {
      vm::VmContext::Result V = Ctx.resume(Points[K].steps());
      if (V.Status != RunStatus::OutOfSteps || V.Steps >= StepBudget)
        break;
      if (V.FaultInjected && Ctx.matches(Points[K])) {
        Run R = Clean.Final;
        R.Rec.FaultInjected = true;
        R.Rec.FaultedInstructionId = V.FaultedInstructionId;
        R.Rec.SkippedSteps = Skipped + (R.Rec.Steps - V.Steps);
        R.Rec.Converged = true;
        return R;
      }
    }
  }
  Ctx.resume(StepBudget);
  Run R = vmRun(Ctx, OutPtr);
  R.Rec.SkippedSteps = Skipped;
  return R;
}

ProgramExecutor::Run ProgramExecutor::runVm(VmLease L, const Function *Entry,
                                            const FaultPlan *Plan,
                                            uint64_t StepBudget,
                                            const Instruments &With) {
  vm::VmContext &Ctx = *L.Ctx;
  Run R;
  std::shared_ptr<CleanRun> Captured;
  uint64_t OutPtr = 0;
  if (Cfg.OutputSlots && !(OutPtr = Ctx.hostAlloc(Cfg.OutputSlots))) {
    R.Rec = failedRun(TrapKind::OutOfMemory);
  } else if (With.Prof || With.Trace) {
    // Counting-mode profiling and value-step traces run natively in the
    // VM dispatch loop; counts, stream hashes and trace entries land in
    // the caller's buffers, bit-identical to the interpreter's.
    ProfileHook Hook;
    if (With.Prof)
      Hook = With.Prof->countingHook(Entry);
    Ctx.run(VmEntryIndex, callArgs(Cfg, OutPtr), Plan, StepBudget,
            With.Prof ? &Hook : nullptr, With.Trace);
    R = vmRun(Ctx, OutPtr);
  } else {
    Ctx.start(VmEntryIndex, callArgs(Cfg, OutPtr), Plan);
    if (L.Capture) {
      Captured = std::make_shared<CleanRun>();
      captureCleanRun(Ctx, StepBudget, Captured->Points);
      R = vmRun(Ctx, OutPtr);
      Captured->Final = R;
    } else if (L.Clean) {
      R = runFromCheckpoints(Ctx, *L.Clean, *Plan, StepBudget, OutPtr);
    } else {
      Ctx.resume(StepBudget);
      R = vmRun(Ctx, OutPtr);
    }
  }
  R.Rec.BackendUsed = ExecBackend::Vm;

  std::lock_guard<std::mutex> Lock(VmMutex);
  if (L.Capture) {
    Capturing = false;
    // Only a finished clean run of the current program is the clean run.
    if (Captured && R.Rec.Status == RunStatus::Finished &&
        &Ctx.program() == VmProg.get())
      Clean = std::move(Captured);
  }
  VmPool.push_back(std::move(L.Ctx));
  return R;
}
