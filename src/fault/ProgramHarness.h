//===- fault/ProgramHarness.h - Abstract injectable program ---------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign driver is generic over the program under test. A harness
/// knows how to set a program up (allocate buffers, pass arguments), run
/// it under a given fault plan, and verify its output — the
/// application-specific verification routine of the paper's Table 2.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_FAULT_PROGRAMHARNESS_H
#define IPAS_FAULT_PROGRAMHARNESS_H

#include "interp/Interpreter.h"

namespace ipas {

class CostProfiler; // interp/CostProfiler.h

/// Which execution engine a harness should use for its runs. Interp is
/// the reference tree-walking interpreter; Vm is the threaded-code
/// bytecode VM (vm/VM.h), observably equivalent but much faster on
/// campaign workloads. Counting-mode profiled runs, value-step traces
/// and multi-rank jobs execute natively on the VM too; runs that need
/// interpreter observers (propagation tracing, context profiling)
/// always use the interpreter regardless of this setting.
enum class ExecBackend : uint8_t { Interp, Vm };

const char *backendName(ExecBackend B);

/// Result of one (possibly fault-injected) execution.
struct ExecutionRecord {
  RunStatus Status = RunStatus::Finished;
  TrapKind Trap = TrapKind::None;
  uint64_t Steps = 0;
  uint64_t ValueSteps = 0;
  uint64_t CriticalPathCycles = 0; ///< steps + comm cost (parallel runs).
  bool FaultInjected = false;
  unsigned FaultedInstructionId = 0;
  /// Verification verdict; meaningful only when Status == Finished.
  bool OutputValid = false;
  /// Engine that actually executed the run (mixed-backend campaigns are
  /// attributable run by run).
  ExecBackend BackendUsed = ExecBackend::Interp;
  /// Non-null (a static string naming a vm.fallback.<reason> counter
  /// suffix) when the VM was requested but this run fell back to the
  /// interpreter. Null on native VM runs and when the interpreter was
  /// the requested backend.
  const char *FallbackReason = nullptr;
  /// Steps a VM injected run did not execute: the clean-run checkpoint it
  /// fast-forwarded from, plus the clean run's remainder when it
  /// converged (fault/ProgramExecutor.h). Telemetry only; the run's
  /// other fields are what a full execution yields.
  uint64_t SkippedSteps = 0;
  /// True when the run's state reconverged with the clean run's and it
  /// ended with the clean run's final record.
  bool Converged = false;
};

/// Bumps the vm.fallback.<Reason> counter in the global MetricsRegistry
/// and returns \p Reason, so harnesses can tag an ExecutionRecord and
/// count the fallback in one expression. Reasons in use: "compile"
/// (module/entry does not compile to bytecode), "observer" (run needs
/// an interpreter observer), "profile_context" (context-mode profiling);
/// anything else counts as "other" (a value-step trace requested
/// together with a profiler).
const char *noteVmFallback(const char *Reason);

/// Sum of every vm.fallback.<reason> counter noteVmFallback() bumps.
uint64_t vmFallbackTotal();

/// Optional per-run instruments. An observer or a context-mode profiler
/// pins the run to the interpreter; a counting-mode profiler or a
/// value-step trace runs natively on either engine (one of the two per
/// VM run).
struct Instruments {
  /// Receives every value commit, memory access and control decision.
  ExecObserver *Obs = nullptr;
  /// Armed on the site-count hook (and observer slot when its mode
  /// needs it).
  CostProfiler *Prof = nullptr;
  /// Filled with, per dynamic value step, the id of the static
  /// instruction that produced it.
  std::vector<unsigned> *Trace = nullptr;
};

/// One program + input + verification routine, executable under fault
/// injection. FunctionHarness (fault/) and WorkloadHarness (workloads/)
/// supply data and verification and run through one ProgramExecutor.
/// Every execution IPAS makes — campaign clean and injected runs,
/// value-step traces, propagation observation, cost profiles — is one
/// run() with different instruments attached.
class ProgramHarness {
public:
  virtual ~ProgramHarness() = default;

  /// Executes once. \p Plan may be null (clean run). \p StepBudget bounds
  /// execution (hang detection); pass UINT64_MAX for unbounded. \p With
  /// attaches instruments; a harness whose supportsInstruments() is
  /// false refuses a run that asks for any (Trapped, BadEntry).
  virtual ExecutionRecord run(const ModuleLayout &Layout,
                              const FaultPlan *Plan, uint64_t StepBudget,
                              const Instruments &With) = 0;

  /// Requests an execution backend for subsequent runs. The backends
  /// are observably equivalent, so this is purely a throughput hint: a
  /// run the VM cannot take (module does not compile to bytecode, or the
  /// run needs an interpreter observer or context profiling) executes on
  /// the interpreter and is tagged with its fallback reason.
  virtual void setPreferredBackend(ExecBackend Backend) = 0;

  /// True when run() honors instruments. Callers that need one
  /// (propagation tracing, the profile builder) check this first;
  /// multi-rank workloads, for instance, answer false.
  virtual bool supportsInstruments() const = 0;

  /// A plain run without instruments.
  ExecutionRecord execute(const ModuleLayout &Layout, const FaultPlan *Plan,
                          uint64_t StepBudget) {
    return run(Layout, Plan, StepBudget, {});
  }

  /// Runs one clean execution and returns, per dynamic value step, the id
  /// of the static instruction that produced it (so Trace[k] is the
  /// injection target of a plan with TargetValueStep == k). Empty unless
  /// the run finished; an empty trace (or one whose length is not the
  /// clean run's value-step count, as from a harness that ignores
  /// Instruments::Trace) makes the campaign driver disable pruning.
  std::vector<unsigned> traceValueSteps(const ModuleLayout &Layout);
};

} // namespace ipas

#endif // IPAS_FAULT_PROGRAMHARNESS_H
