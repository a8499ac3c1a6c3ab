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
/// verification routine. Fault injection and instruments are supported
/// for serial runs (the paper's coverage methodology, §6); multi-rank
/// runs are used for the scalability measurements. Every run executes on
/// the preferred engine: serial runs through a ProgramExecutor,
/// multi-rank runs as a SimMPI job whose ranks are VM contexts over the
/// executor's compiled program (or interpreter contexts).
class WorkloadHarness : public ProgramHarness {
public:
  WorkloadHarness(const Workload &W, int InputLevel, int NumRanks = 1,
                  uint64_t WorkloadSeed = 0x1234abcd);

  /// Serial runs go through the executor with \p With attached.
  /// Multi-rank runs execute on SimMPI and refuse a fault plan or any
  /// instrument (Trapped, BadEntry) rather than silently drop it. A
  /// multi-rank run's ValueSteps are rank 0's.
  ExecutionRecord run(const ModuleLayout &Layout, const FaultPlan *Plan,
                      uint64_t StepBudget, const Instruments &With) override;

  /// See ProgramExecutor::setBackend; multi-rank jobs follow it too, and
  /// fall back (reason `compile`) only when the module does not compile.
  void setPreferredBackend(ExecBackend B) override { Exec.setBackend(B); }

  /// Instruments (propagation tracing, cost profiling, value-step
  /// traces) are defined for serial runs only: coverage campaigns are
  /// serial.
  bool supportsInstruments() const override { return NumRanks <= 1; }

  /// Golden output captured by the first clean run (empty before that).
  const std::vector<RtValue> &golden() const { return Golden; }

  const std::vector<int64_t> &params() const { return Params; }

private:
  ExecutionRecord runParallel(const ModuleLayout &Layout,
                              const FaultPlan *Plan, uint64_t StepBudget,
                              const Instruments &With);
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
