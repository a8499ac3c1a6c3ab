//===- mpi/SimMpi.h - Simulated MPI job scheduler ---------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SimMPI runs one execution context per rank and resolves blocking
/// collectives when every rank has arrived, providing the semantics the
/// paper relies on (§4.4.1): rank/size queries, collectives, and "one
/// process fails => the whole job aborts with an observable symptom".
/// Ranks are scheduled deterministically (round-robin), so fault-injection
/// campaigns over MPI jobs are exactly reproducible.
///
/// The per-rank engine is either the reference interpreter
/// (ExecutionContext) or the bytecode VM (vm::VmContext); both suspend at
/// a collective with the same pending operation and complete it with the
/// same step and value-step accounting, so a job's JobResult, per-rank
/// counters and output bits do not depend on the engine. The scheduler
/// and the collective semantics are written once, as templates over the
/// context type.
///
/// A simple alpha-beta cost model charges each rank for communication so
/// that the scalability experiment (Figure 8) has a communication term
/// that duplication does not inflate.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_MPI_SIMMPI_H
#define IPAS_MPI_SIMMPI_H

#include "interp/Interpreter.h"

#include <functional>
#include <memory>
#include <vector>

namespace ipas {

namespace vm {
struct VmProgram;
class VmContext;
} // namespace vm

/// Aggregate result of a parallel run.
struct JobResult {
  /// Finished when all ranks completed; otherwise the failure kind
  /// (Trapped/Detected/OutOfSteps) of the first rank that failed.
  RunStatus Status = RunStatus::Finished;
  TrapKind Trap = TrapKind::None;
  int FailedRank = -1;
  /// Critical-path cycles: max over ranks of (steps + comm cost). The
  /// slowdown metric for Figures 6 and 8 is a ratio of these.
  uint64_t CriticalPathCycles = 0;
  uint64_t TotalSteps = 0;
};

class MpiJob {
public:
  struct Config {
    int NumRanks = 1;
    /// Per-rank memory, call depth and workload seed (for either engine);
    /// Rank/NumRanks are overridden per rank.
    ExecutionContext::Config Rank;
    /// Per-rank step budget; exceeding it classifies the job as a hang.
    uint64_t StepBudgetPerRank = UINT64_MAX;
    /// Communication cost model: Alpha cycles per collective plus Beta
    /// cycles per byte moved (charged to every participating rank).
    uint64_t AlphaCost = 200;
    double BetaCostPerByte = 0.05;
  };

  /// A job whose ranks run on the interpreter over \p Layout. Throws
  /// std::invalid_argument when Cfg.NumRanks < 1.
  MpiJob(const ModuleLayout &Layout, const Config &Cfg);
  /// A job whose ranks run on the VM, executing \p Prog (vm::compile of
  /// the layout the entry function belongs to). Throws
  /// std::invalid_argument when Cfg.NumRanks < 1.
  MpiJob(const vm::VmProgram &Prog, const Config &Cfg);
  ~MpiJob();

  int numRanks() const { return Cfg.NumRanks; }
  bool runsOnVm() const { return !VmRanks.empty(); }

  /// Host-allocates \p Slots 8-byte slots in rank \p R's heap (before
  /// start(), at the address a fresh context returns); 0 when the heap
  /// is exhausted.
  uint64_t hostAlloc(int R, uint64_t Slots);
  /// Arms \p Plan on rank \p R for the next start().
  void setFaultPlan(int R, const FaultPlan &Plan);

  /// Starts every rank on \p Entry. \p ArgsFor builds rank R's argument
  /// list (after any hostAlloc() for that rank).
  void start(const Function *Entry,
             const std::function<std::vector<RtValue>(int)> &ArgsFor);

  /// Runs the job to completion (or failure).
  JobResult run();

  /// Per-rank state after run().
  uint64_t steps(int R) const;
  uint64_t valueSteps(int R) const;
  RtValue returnValue(int R) const;
  bool faultWasInjected(int R) const;
  uint64_t commCost(int R) const { return CommCost[static_cast<size_t>(R)]; }
  /// \p Slots values at \p Addr in rank \p R's memory; empty when the
  /// range is not valid memory.
  std::vector<RtValue> readSlots(int R, uint64_t Addr, uint64_t Slots) const;

private:
  template <class Ctx> using RankList = std::vector<std::unique_ptr<Ctx>>;
  template <class Ctx> JobResult schedule(RankList<Ctx> &Ranks);
  template <class Ctx>
  bool resolveCollective(RankList<Ctx> &Ranks, JobResult &Result);
  /// Calls \p F on rank \p R's context, whichever engine runs it.
  template <class Fn> decltype(auto) withRank(int R, Fn &&F) const;
  void chargeComm(uint64_t Bytes);

  Config Cfg;
  /// Exactly one of these holds the job's ranks.
  RankList<ExecutionContext> InterpRanks;
  RankList<vm::VmContext> VmRanks;
  std::vector<FaultPlan> Plans;
  std::vector<uint64_t> CommCost;
};

} // namespace ipas

#endif // IPAS_MPI_SIMMPI_H
