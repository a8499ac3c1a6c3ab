//===- workloads/WorkloadHarness.cpp ------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/WorkloadHarness.h"

#include "ir/Module.h"

#include <optional>

using namespace ipas;

namespace {

/// A workload run: run(<params...>, double* out) with the output region
/// host-allocated in the workload's memory configuration.
ProgramExecutor::Config serialConfig(const Workload &W,
                                     const std::vector<int64_t> &Params,
                                     uint64_t WorkloadSeed) {
  ProgramExecutor::Config Cfg;
  Cfg.Entry = Workload::EntryName;
  for (int64_t P : Params)
    Cfg.Args.push_back(RtValue::fromI64(P));
  Cfg.Mem = W.memoryConfig(Params);
  Cfg.WorkloadRngSeed = WorkloadSeed;
  Cfg.OutputSlots = W.outputSlots(Params);
  return Cfg;
}

} // namespace

WorkloadHarness::WorkloadHarness(const Workload &W, int InputLevel,
                                 int NumRanks, uint64_t WorkloadSeed)
    : W(W), Params(W.inputParams(InputLevel)), NumRanks(NumRanks),
      WorkloadSeed(WorkloadSeed),
      Exec(serialConfig(W, Params, WorkloadSeed)) {}

bool WorkloadHarness::verifyAgainstGolden(
    const std::vector<RtValue> &Output) {
  if (Output.empty())
    return false;
  if (Golden.empty()) {
    // First clean run: the output becomes the golden reference, but it
    // must still satisfy the workload's internal invariants.
    bool Ok = W.verify(Output, Output, Params);
    if (Ok)
      Golden = Output;
    return Ok;
  }
  return W.verify(Output, Golden, Params);
}

ExecutionRecord WorkloadHarness::verify(const ProgramExecutor::Run &R) {
  ExecutionRecord Rec = R.Rec;
  if (Rec.Status == RunStatus::Finished)
    Rec.OutputValid = verifyAgainstGolden(R.Output);
  return Rec;
}

ExecutionRecord WorkloadHarness::run(const ModuleLayout &Layout,
                                     const FaultPlan *Plan,
                                     uint64_t StepBudget,
                                     const Instruments &With) {
  if (NumRanks <= 1)
    return verify(Exec.run(Layout, Plan, StepBudget, With));
  return runParallel(Layout, Plan, StepBudget, With);
}

ExecutionRecord WorkloadHarness::runParallel(const ModuleLayout &Layout,
                                             const FaultPlan *Plan,
                                             uint64_t StepBudget,
                                             const Instruments &With) {
  // Fault injection into parallel jobs is driven per rank via MpiJob
  // directly; a plan or instrument handed to this run would be ignored
  // and an injection would read as Masked, so refuse it in every build.
  const Function *Entry = Layout.module().getFunction(Workload::EntryName);
  if (Plan || With.Obs || With.Prof || With.Trace || !Entry ||
      Entry->numArgs() != Params.size() + 1)
    return ProgramExecutor::failedRun(TrapKind::BadEntry);

  MpiJob::Config JobCfg;
  JobCfg.NumRanks = NumRanks;
  JobCfg.Rank.Mem = W.memoryConfig(Params);
  JobCfg.Rank.WorkloadRngSeed = WorkloadSeed;
  JobCfg.StepBudgetPerRank = StepBudget;
  // The engine is chosen as for serial runs: the VM ranks execute the
  // executor's compiled program; a module the VM cannot compile runs on
  // the interpreter, tagged like a serial run.
  const char *Fallback = nullptr;
  std::optional<MpiJob> Job;
  if (Exec.backend() == ExecBackend::Vm) {
    if (const vm::VmProgram *Prog = Exec.vmProgram(Layout))
      Job.emplace(*Prog, JobCfg);
    else
      Fallback = noteVmFallback("compile");
  }
  if (!Job)
    Job.emplace(Layout, JobCfg);

  uint64_t Slots = W.outputSlots(Params);
  std::vector<uint64_t> OutPtrs(static_cast<size_t>(NumRanks), 0);
  for (int Rank = 0; Rank != NumRanks; ++Rank)
    OutPtrs[static_cast<size_t>(Rank)] = Job->hostAlloc(Rank, Slots);
  // Every rank has the same heap, so one failed output allocation means
  // all failed; refuse the run instead of handing ranks a null buffer.
  if (OutPtrs[0] == 0) {
    ExecutionRecord R = ProgramExecutor::failedRun(TrapKind::OutOfMemory);
    R.FallbackReason = Fallback;
    return R;
  }
  Job->start(Entry, [&](int Rank) {
    std::vector<RtValue> Args;
    for (int64_t P : Params)
      Args.push_back(RtValue::fromI64(P));
    Args.push_back(RtValue::fromPtr(OutPtrs[static_cast<size_t>(Rank)]));
    return Args;
  });
  JobResult JR = Job->run();

  ExecutionRecord R;
  R.Status = JR.Status;
  R.Trap = JR.Trap;
  R.Steps = JR.TotalSteps;
  R.ValueSteps = Job->valueSteps(0);
  R.CriticalPathCycles = JR.CriticalPathCycles;
  R.BackendUsed = Job->runsOnVm() ? ExecBackend::Vm : ExecBackend::Interp;
  R.FallbackReason = Fallback;
  if (JR.Status == RunStatus::Finished) {
    // Rank 0's output is canonical (every rank assembles the full result).
    R.OutputValid =
        verifyAgainstGolden(Job->readSlots(0, OutPtrs[0], Slots));
  }
  return R;
}
