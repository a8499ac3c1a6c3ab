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

/// Which execution engine a harness should use for plain execute()
/// calls. Interp is the reference tree-walking interpreter; Vm is the
/// threaded-code bytecode VM (vm/VM.h), observably equivalent but much
/// faster on campaign workloads. Counting-mode profiled runs execute
/// natively on the VM too; runs that need interpreter observers
/// (propagation tracing, context profiling, value-step traces) always
/// use the interpreter regardless of this setting.
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
};

/// Bumps the vm.fallback.<Reason> counter in the global MetricsRegistry
/// and returns \p Reason, so harnesses can tag an ExecutionRecord and
/// count the fallback in one expression. Reasons in use: "compile"
/// (module/entry does not compile to bytecode), "observer" (run needs
/// an interpreter observer), "profile_context" (context-mode profiling),
/// "trace" (value-step tracing), "mpi" (multi-rank SimMPI run); anything
/// else counts as "other".
const char *noteVmFallback(const char *Reason);

/// One program + input + verification routine, executable under fault
/// injection. FunctionHarness (fault/) and WorkloadHarness (workloads/)
/// supply data and verification and run through one ProgramExecutor.
class ProgramHarness {
public:
  virtual ~ProgramHarness() = default;

  /// Requests an execution backend for subsequent runs. The backends
  /// are observably equivalent, so this is purely a throughput hint: a
  /// run the VM cannot take (module does not compile to bytecode, or the
  /// run needs an interpreter observer, a value-step trace, context
  /// profiling or SimMPI) executes on the interpreter and is tagged with
  /// its fallback reason. FunctionHarness and WorkloadHarness honor it;
  /// the default ignores it.
  virtual void setPreferredBackend(ExecBackend Backend) { (void)Backend; }

  /// Executes once. \p Plan may be null (clean run). \p StepBudget bounds
  /// execution (hang detection); pass UINT64_MAX for unbounded.
  virtual ExecutionRecord execute(const ModuleLayout &Layout,
                                  const FaultPlan *Plan,
                                  uint64_t StepBudget) = 0;

  /// Runs one clean execution and returns, per dynamic value step, the id
  /// of the static instruction that produced it (so Trace[k] is the
  /// injection target of a plan with TargetValueStep == k). An empty
  /// vector means the harness does not support tracing; the campaign
  /// driver then disables injection-site pruning. The default does exactly
  /// that.
  virtual std::vector<unsigned> traceValueSteps(const ModuleLayout &Layout) {
    (void)Layout;
    return {};
  }

  /// True when executeObserved() actually attaches the observer. The
  /// campaign driver only offers propagation tracing on harnesses that
  /// return true (multi-rank workloads, for instance, do not).
  virtual bool supportsObservation() const { return false; }

  /// Executes once with \p Obs attached to the interpreter, receiving
  /// every value commit, memory access, and control decision of the run.
  /// The default ignores the observer and delegates to execute().
  virtual ExecutionRecord executeObserved(const ModuleLayout &Layout,
                                          const FaultPlan *Plan,
                                          uint64_t StepBudget,
                                          ExecObserver &Obs) {
    (void)Obs;
    return execute(Layout, Plan, StepBudget);
  }

  /// True when executeProfiled() actually arms the profiler. The profile
  /// builder (fault/ProfileBuild.h) refuses harnesses that return false
  /// rather than writing an empty store.
  virtual bool supportsProfiling() const { return false; }

  /// Runs one *clean* (no fault plan, unbounded) execution with \p Prof
  /// attached to the interpreter's site-count hook (and observer slot
  /// when the profiler's mode needs it). The default ignores the
  /// profiler and delegates to execute().
  virtual ExecutionRecord executeProfiled(const ModuleLayout &Layout,
                                          CostProfiler &Prof) {
    (void)Prof;
    return execute(Layout, nullptr, UINT64_MAX);
  }
};

} // namespace ipas

#endif // IPAS_FAULT_PROGRAMHARNESS_H
