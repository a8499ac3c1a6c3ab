//===- workloads/WorkloadHarness.h - Workloads as injectable programs -----===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef IPAS_WORKLOADS_WORKLOADHARNESS_H
#define IPAS_WORKLOADS_WORKLOADHARNESS_H

#include "fault/ProgramExecutor.h"
#include "mpi/SimMpi.h"
#include "workloads/Workload.h"

namespace ipas {

/// Executes a workload (serial or multi-rank) under the campaign driver.
/// The first clean execution captures the golden output used by the
/// verification routine. Fault injection is supported for serial runs
/// (the paper's coverage methodology, §6); multi-rank runs are used for
/// the scalability measurements. Serial runs execute through a
/// ProgramExecutor (so on the VM when it is preferred); multi-rank runs
/// always run on SimMPI over the interpreter.
class WorkloadHarness : public ProgramHarness {
public:
  WorkloadHarness(const Workload &W, int InputLevel, int NumRanks = 1,
                  uint64_t WorkloadSeed = 0x1234abcd);

  /// See ProgramExecutor::setBackend. Multi-rank runs stay on the
  /// interpreter and are tagged with the `mpi` fallback reason.
  void setPreferredBackend(ExecBackend B) override { Exec.setBackend(B); }

  ExecutionRecord execute(const ModuleLayout &Layout, const FaultPlan *Plan,
                          uint64_t StepBudget) override;

  /// Clean serial run with value-step tracing (see ProgramHarness).
  std::vector<unsigned> traceValueSteps(const ModuleLayout &Layout) override;

  /// Propagation tracing is defined for serial runs only (coverage
  /// campaigns are serial; see execute()).
  bool supportsObservation() const override { return NumRanks <= 1; }
  ExecutionRecord executeObserved(const ModuleLayout &Layout,
                                  const FaultPlan *Plan, uint64_t StepBudget,
                                  ExecObserver &Obs) override;

  /// Cost profiling rides the same serial clean-run machinery.
  bool supportsProfiling() const override { return NumRanks <= 1; }
  ExecutionRecord executeProfiled(const ModuleLayout &Layout,
                                  CostProfiler &Prof) override;

  /// Golden output captured by the first clean run (empty before that).
  const std::vector<RtValue> &golden() const { return Golden; }

  const std::vector<int64_t> &params() const { return Params; }

private:
  ExecutionRecord executeParallel(const ModuleLayout &Layout,
                                  uint64_t StepBudget);
  /// Applies verifyAgainstGolden() to a finished serial run's output.
  ExecutionRecord verify(const ProgramExecutor::Run &R);
  bool verifyAgainstGolden(const std::vector<RtValue> &Output);

  const Workload &W;
  std::vector<int64_t> Params;
  int NumRanks;
  uint64_t WorkloadSeed;
  ProgramExecutor Exec;
  std::vector<RtValue> Golden;
};

} // namespace ipas

#endif // IPAS_WORKLOADS_WORKLOADHARNESS_H
