//===- fault/Campaign.h - Statistical fault injection (paper §4.1, §5.4) --===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statistical fault injection in the FlipIt model: each run targets a
/// uniformly random dynamic instance of a value-producing instruction and
/// flips a uniformly random bit of its result value. Sampling dynamic
/// instances weights static instructions by execution frequency, exactly
/// like injecting at a random cycle of a real execution.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_FAULT_CAMPAIGN_H
#define IPAS_FAULT_CAMPAIGN_H

#include "fault/Outcome.h"
#include "fault/ProgramHarness.h"
#include "obs/Propagation.h"
#include "obs/Trace.h"
#include "support/Random.h"

#include <array>
#include <functional>
#include <vector>

namespace ipas {

struct CampaignConfig {
  size_t NumRuns = 1024;
  /// A run exceeding HangFactor x clean-run steps is classified as a hang
  /// ("substantially longer execution time", §5.5).
  double HangFactor = 10.0;
  uint64_t Seed = 0xf417;
  /// Injection runs are independent, so campaigns parallelize trivially —
  /// the paper (§7) suggests exactly this for large codes. Plans are
  /// drawn up front, so results are deterministic regardless of the
  /// thread count. Runs are claimed dynamically on the shared worker
  /// pool (support/ParallelFor.h); a run that throws stops the campaign
  /// and its exception propagates to the caller. Harnesses must be
  /// thread-safe for concurrent execute() calls once their golden output
  /// is captured (the bundled WorkloadHarness is).
  unsigned NumThreads = 1;
  /// Per-instruction-id flags from analysis/SocPropagation: a true entry
  /// means a corruption of that instruction's result provably reaches no
  /// sink, so the run's outcome is Masked without executing. Pruning does
  /// not perturb plan drawing or non-pruned runs in any way — the full
  /// campaign's per-record (InstructionId, BitIndex, Result) stream stays
  /// bit-identical. Requires a harness whose traceValueSteps() yields a
  /// full trace; null (or a harness that cannot trace) disables pruning.
  const std::vector<bool> *ProvablyBenign = nullptr;
  /// The clean run's value-step trace (ProgramHarness::traceValueSteps on
  /// the campaign's harness and layout), when the caller already has it:
  /// pruning then reads it instead of tracing again. Null means trace.
  const std::vector<unsigned> *ValueStepTrace = nullptr;
  /// Telemetry label carried on every trace record and progress line —
  /// drivers pass the technique/variant name (empty means "campaign").
  /// Together with Seed and ProvablyBenign it is recorded in the
  /// `campaign.begin` trace event, so a campaign is reproducible from
  /// its trace file alone.
  std::string Label;
  /// Emit a progress log line (Info severity, so -q silences it) and
  /// trace event every N completed runs; 0 picks one tenth of the
  /// campaign.
  size_t ProgressEvery = 0;
  /// Emit one `campaign.run` trace record (outcome + latency) per
  /// injection when a trace sink is open.
  bool TraceRuns = true;
  /// Execution engine for the clean run and the injection loop. Vm asks
  /// the harness to run on the bytecode VM (10-100x faster, observably
  /// equivalent — see DESIGN.md), the pruning trace (traceValueSteps)
  /// included; harnesses that cannot honor it fall back to the
  /// interpreter per run, and observer-driven propagation re-execution
  /// always uses the interpreter. The record stream is bit-identical
  /// either way.
  ExecBackend Backend = ExecBackend::Interp;
  /// Live streaming telemetry: when nonzero, a monitor thread emits one
  /// `campaign.heartbeat` trace event every HeartbeatMs milliseconds —
  /// wall time, runs done/total, throughput, ETA, per-outcome counts and
  /// the per-backend run split — on a cadence independent of the run
  /// rate, plus one final heartbeat (attr `final`, done == runs) when
  /// the injection loop ends. Consumers (tools/ipas-top, the future
  /// ipas-served protocol) treat a missing heartbeat for N cadences as a
  /// stall. Heartbeats read only atomic tallies: the deterministic
  /// (InstructionId, BitIndex, Result) record stream is untouched.
  size_t HeartbeatMs = 0;
  /// Propagation tracing: every PropSampleEvery-th run (run indices with
  /// `Run % PropSampleEvery == 0`, skipping pruned and reused runs) is
  /// re-executed under full observation after the injection loop,
  /// yielding one obs::PropRecord in CampaignResult::PropRecords. 0
  /// disables tracing. Sampling is a pure function of the run index — it
  /// draws nothing from the campaign RNG and the traced runs are
  /// separate re-executions — so the (InstructionId, BitIndex, Result)
  /// record stream is bit-identical with tracing on or off and for any
  /// NumThreads. Requires a harness whose supportsInstruments() is true;
  /// ignored otherwise.
  size_t PropSampleEvery = 0;
};

/// One injection and its classified outcome.
struct InjectionRecord {
  unsigned InstructionId = 0; ///< Static instruction whose result was hit.
  unsigned BitIndex = 0;      ///< Bit flipped (modulo the result width).
  uint64_t TargetValueStep = 0;
  Outcome Result = Outcome::Masked;
  /// Wall time of this injected run in microseconds (0 for pruned and
  /// reused runs).
  /// Measured unconditionally — two clock reads per run — and persisted
  /// into the record store; not part of the deterministic record stream.
  uint32_t LatencyUs = 0;
};

struct CampaignResult {
  uint64_t CleanSteps = 0;
  uint64_t CleanValueSteps = 0;
  uint64_t CleanCriticalPathCycles = 0;
  std::vector<InjectionRecord> Records;
  std::array<size_t, NumOutcomes> Counts{};
  /// Injection-site pruning statistics (zero when pruning was disabled).
  size_t PrunedRuns = 0;  ///< Runs classified without executing.
  size_t PrunedSites = 0; ///< Distinct benign static instructions hit.
  /// Wall-clock duration of the whole campaign, including the clean
  /// profiling run.
  double WallSeconds = 0.0;
  /// Propagation traces of the sampled runs, in run order (empty unless
  /// CampaignConfig::PropSampleEvery was set and the harness supports
  /// observation). Not part of the deterministic record stream.
  std::vector<obs::PropRecord> PropRecords;
  /// Injections traced (== PropRecords.size()) vs skipped by sampling,
  /// pruning, or an unobservable harness.
  size_t TracedRuns = 0;
  size_t SkippedTraceRuns = 0;
  /// Rows whose outcome an incremental campaign copied from a prior
  /// record store instead of executing them (always 0 for runCampaign).
  size_t ReusedRuns = 0;
  /// Executed runs split by the engine that actually ran them
  /// (ExecutionRecord::BackendUsed): VmRuns + InterpRuns + PrunedRuns +
  /// ReusedRuns == Records.size(). A nonzero InterpRuns under
  /// Backend == Vm means fallbacks — the per-reason totals live in the
  /// vm.fallback.* counters.
  size_t VmRuns = 0;
  size_t InterpRuns = 0;
  /// Sums of ExecutionRecord::SkippedSteps and Converged over the
  /// executed runs: the clean-run steps VM injected runs did not execute
  /// again (fault/ProgramExecutor.h). Not part of the record stream.
  uint64_t SkippedSteps = 0;
  size_t ConvergedRuns = 0;
  /// Heartbeat-derived throughput stats, archived by the session manifest
  /// (fault/SessionBuild.h). HeartbeatsEmitted counts every
  /// `campaign.heartbeat` event including the final one (0 when
  /// HeartbeatMs was 0); RunsPerSec is the injection-loop throughput
  /// measured at the loop join — the same clock the heartbeats report.
  /// Wall-clock derived, so not part of the deterministic record stream.
  size_t HeartbeatsEmitted = 0;
  double RunsPerSec = 0.0;
  /// Threads the injection loop actually ran on: NumThreads, capped by
  /// the rows the loop handles and by threads the system could start.
  /// The loop handles every row, pruned and reused ones included, as do
  /// the progress and heartbeat `done` counts and RunsPerSec.
  unsigned Threads = 1;

  /// Runs that were actually executed (neither pruned nor reused).
  size_t executedRuns() const { return VmRuns + InterpRuns; }

  size_t count(Outcome O) const {
    return Counts[static_cast<size_t>(O)];
  }
  /// Total classified runs (equals Records.size()).
  size_t totalRuns() const {
    size_t Total = 0;
    for (size_t C : Counts)
      Total += C;
    return Total;
  }
  double fraction(Outcome O) const {
    size_t Total = totalRuns();
    return Total ? static_cast<double>(count(O)) /
                       static_cast<double>(Total)
                 : 0.0;
  }
};

/// Classifies a finished/failed execution into the paper's taxonomy.
/// Throws std::logic_error for a non-terminal (Running or Blocked) run.
Outcome classifyOutcome(const ExecutionRecord &R);

/// Runs a clean profiling run followed by \p Cfg.NumRuns injections.
/// If the clean run itself fails verification, logs the failure and
/// calls std::abort: the program under test must be correct before
/// injecting faults. A run that finishes without its fault ever firing
/// throws std::logic_error (naming the label, the run index and the
/// target value step) in every build: counting it as Masked would
/// inflate masking.
CampaignResult runCampaign(ProgramHarness &Harness,
                           const ModuleLayout &Layout,
                           const CampaignConfig &Cfg);

/// How the campaign loop handles one row.
enum class RowDisposition : uint8_t {
  Execute, ///< Inject the row's plan and classify the run.
  Pruned,  ///< Provably benign: classified Masked without running.
  Reused,  ///< Outcome copied from a prior record store, not run.
};

/// A campaign's rows, planned once the clean run is known. The three
/// vectors have one entry per row. The loop fills every record's
/// BitIndex and TargetValueStep from its plan; the planner sets
/// InstructionId and Result for the rows it does not execute, and an
/// executed row takes both from its run.
struct CampaignRows {
  std::vector<FaultPlan> Plans;
  std::vector<RowDisposition> Dispositions;
  std::vector<InjectionRecord> Records;
  /// Attributes the planner adds to `campaign.begin` and `campaign.done`.
  obs::AttrSet Attrs;

  explicit CampaignRows(size_t N = 0)
      : Plans(N), Dispositions(N, RowDisposition::Execute), Records(N) {}
};

/// Plans a campaign's rows from its clean run.
using RowPlanner = std::function<CampaignRows(const ExecutionRecord &Clean)>;

/// runCampaign's planner: draws \p Cfg.NumRuns plans from the campaign
/// seed and prunes the provably benign ones (CampaignConfig::
/// ProvablyBenign).
CampaignRows planSampledRows(ProgramHarness &Harness,
                             const ModuleLayout &Layout,
                             const CampaignConfig &Cfg,
                             const ExecutionRecord &Clean);

/// Marks every row whose target step \p Trace maps to a provably benign
/// instruction Pruned (Masked, with that instruction's id), whatever its
/// disposition was. \p Trace is the clean run's value-step trace.
void pruneBenignRows(const std::vector<bool> &ProvablyBenign,
                     const std::vector<unsigned> &Trace, CampaignRows &Rows);

/// The campaign loop behind runCampaign and runIncrementalCampaign: the
/// clean run and its refusal, the hang budget, the rows \p PlanRows
/// plans on the worker pool (with the unfired-fault check), the
/// telemetry (`campaign` span; `campaign.begin`, `.run`, `.progress`,
/// `.heartbeat` and `.done` events), the propagation post-pass and the
/// fault.* metrics. \p DefaultLabel names the campaign when Cfg.Label is
/// empty. The planner decides the row count; the loop does not read
/// Cfg.NumRuns.
CampaignResult runPlannedCampaign(ProgramHarness &Harness,
                                  const ModuleLayout &Layout,
                                  const CampaignConfig &Cfg,
                                  const char *DefaultLabel,
                                  const RowPlanner &PlanRows);

} // namespace ipas

#endif // IPAS_FAULT_CAMPAIGN_H
