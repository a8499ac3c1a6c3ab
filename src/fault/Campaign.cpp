//===- fault/Campaign.cpp ------------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fault/Campaign.h"

#include "fault/Propagation.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/ParallelFor.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace ipas;

const char *ipas::outcomeName(Outcome O) {
  switch (O) {
  case Outcome::Crash:
    return "crash";
  case Outcome::Hang:
    return "hang";
  case Outcome::Detected:
    return "detected";
  case Outcome::Masked:
    return "masked";
  case Outcome::SOC:
    return "soc";
  }
  return "<bad outcome>";
}

Outcome ipas::classifyOutcome(const ExecutionRecord &R) {
  switch (R.Status) {
  case RunStatus::Trapped:
    return Outcome::Crash;
  case RunStatus::OutOfSteps:
    return Outcome::Hang;
  case RunStatus::Detected:
    return Outcome::Detected;
  case RunStatus::Finished:
    return R.OutputValid ? Outcome::Masked : Outcome::SOC;
  case RunStatus::Running:
  case RunStatus::Blocked:
    break;
  }
  throw std::logic_error(std::string("classifyOutcome: run ended in the "
                                     "non-terminal state ") +
                         runStatusName(R.Status));
}

namespace {

/// Pre-resolved metric handles (name lookup once per process).
struct FaultMetrics {
  obs::Counter &Campaigns;
  obs::Counter &Runs;
  obs::Counter &PrunedRuns;
  obs::Counter &SkippedSteps;
  obs::Counter &ConvergedRuns;
  obs::Counter *ByOutcome[NumOutcomes];
  obs::Histogram &RunMicros;
  obs::Gauge &RunsPerSec;

  static FaultMetrics &get() {
    auto &Reg = obs::MetricsRegistry::global();
    static FaultMetrics M{
        Reg.counter("fault.campaigns"),
        Reg.counter("fault.runs"),
        Reg.counter("fault.pruned_runs"),
        Reg.counter("fault.ff.skipped_steps"),
        Reg.counter("fault.ff.converged_runs"),
        {
            &Reg.counter("fault.outcome.crash"),
            &Reg.counter("fault.outcome.hang"),
            &Reg.counter("fault.outcome.detected"),
            &Reg.counter("fault.outcome.masked"),
            &Reg.counter("fault.outcome.soc"),
        },
        Reg.histogram("fault.run_micros"),
        Reg.gauge("fault.campaign.runs_per_sec"),
    };
    return M;
  }
};

} // namespace

CampaignRows ipas::planSampledRows(ProgramHarness &Harness,
                                   const ModuleLayout &Layout,
                                   const CampaignConfig &Cfg,
                                   const ExecutionRecord &Clean) {
  // Draw every plan up front so results do not depend on the thread
  // count or scheduling.
  CampaignRows Rows(Cfg.NumRuns);
  Rng CampaignRng(Cfg.Seed);
  for (FaultPlan &Plan : Rows.Plans) {
    Plan.TargetValueStep = CampaignRng.nextBelow(Clean.ValueSteps);
    Plan.BitDraw = CampaignRng.next();
  }
  // Injection-site pruning: a clean traced run maps each dynamic value
  // step to its static instruction.
  if (Cfg.ProvablyBenign) {
    std::vector<unsigned> Traced;
    const std::vector<unsigned> *Trace = Cfg.ValueStepTrace;
    if (!Trace) {
      Traced = Harness.traceValueSteps(Layout);
      Trace = &Traced;
    }
    if (Trace->size() == Clean.ValueSteps)
      pruneBenignRows(*Cfg.ProvablyBenign, *Trace, Rows);
  }
  return Rows;
}

void ipas::pruneBenignRows(const std::vector<bool> &ProvablyBenign,
                           const std::vector<unsigned> &Trace,
                           CampaignRows &Rows) {
  // Plans whose target the static SOC-propagation analysis proved benign
  // are classified Masked without executing — the outcome the execution
  // would produce, since by construction the corruption reaches no
  // store, call, return, branch, check, or trap-capable use.
  for (size_t Row = 0; Row != Rows.Plans.size(); ++Row) {
    unsigned Id = Trace[Rows.Plans[Row].TargetValueStep];
    if (Id < ProvablyBenign.size() && ProvablyBenign[Id]) {
      Rows.Dispositions[Row] = RowDisposition::Pruned;
      Rows.Records[Row].InstructionId = Id;
      Rows.Records[Row].Result = Outcome::Masked;
    }
  }
}

CampaignResult ipas::runCampaign(ProgramHarness &Harness,
                                 const ModuleLayout &Layout,
                                 const CampaignConfig &Cfg) {
  return runPlannedCampaign(
      Harness, Layout, Cfg, "campaign", [&](const ExecutionRecord &Clean) {
        return planSampledRows(Harness, Layout, Cfg, Clean);
      });
}

CampaignResult ipas::runPlannedCampaign(ProgramHarness &Harness,
                                        const ModuleLayout &Layout,
                                        const CampaignConfig &Cfg,
                                        const char *DefaultLabel,
                                        const RowPlanner &PlanRows) {
  CampaignResult Result;

  const char *Label = Cfg.Label.empty() ? DefaultLabel : Cfg.Label.c_str();
  obs::PhaseSpan Span("campaign",
                      obs::AttrSet().add("label", Label));

  // Select the execution engine before the first run so the golden
  // output and clean step counts come from the same backend as the
  // injection loop (they are equal across backends by construction, but
  // the VM compiles lazily on first execute — doing that here, on the
  // serial clean run, keeps the threaded loop below race-free).
  Harness.setPreferredBackend(Cfg.Backend);

  // Clean profiling run: establishes the golden step counts and checks the
  // program is correct to begin with.
  ExecutionRecord Clean = Harness.execute(Layout, nullptr, UINT64_MAX);
  if (Clean.Status != RunStatus::Finished || !Clean.OutputValid) {
    obs::logMessage(obs::Severity::Error,
                    "fatal: clean run failed (%s) — refusing to inject "
                    "faults into a broken program",
                    runStatusName(Clean.Status));
    std::abort();
  }
  Result.CleanSteps = Clean.Steps;
  Result.CleanValueSteps = Clean.ValueSteps;
  Result.CleanCriticalPathCycles = Clean.CriticalPathCycles;

  uint64_t Budget = static_cast<uint64_t>(
      Cfg.HangFactor * static_cast<double>(Clean.Steps));
  if (Budget < Clean.Steps + 1000)
    Budget = Clean.Steps + 1000;

  // Every row's disposition is decided up front, so the threaded loop
  // below never branches on shared mutable state.
  CampaignRows Rows = PlanRows(Clean);
  const size_t NumRows = Rows.Plans.size();
  const std::vector<FaultPlan> &Plans = Rows.Plans;
  const std::vector<RowDisposition> &Disposition = Rows.Dispositions;
  Result.Records = std::move(Rows.Records);
  {
    std::vector<char> SiteSeen;
    for (size_t Run = 0; Run != NumRows; ++Run) {
      if (Disposition[Run] == RowDisposition::Reused) {
        ++Result.ReusedRuns;
      } else if (Disposition[Run] == RowDisposition::Pruned) {
        ++Result.PrunedRuns;
        unsigned Id = Result.Records[Run].InstructionId;
        if (Id >= SiteSeen.size())
          SiteSeen.resize(Id + 1, 0);
        if (!SiteSeen[Id]) {
          SiteSeen[Id] = 1;
          ++Result.PrunedSites;
        }
      }
    }
  }

  // Everything needed to re-run this campaign bit-identically lives in
  // this one event (plus the harness identity the driver records in the
  // trace header): seed, run count, hang budget, and the prune decision.
  obs::TraceSink::event(
      "campaign.begin",
      obs::AttrSet()
          .add("label", Label)
          .addHex("seed", Cfg.Seed)
          .add("runs", static_cast<uint64_t>(NumRows))
          .add("hang_factor", Cfg.HangFactor)
          .add("threads", Cfg.NumThreads)
          .add("backend", backendName(Cfg.Backend))
          .add("prune", Cfg.ProvablyBenign != nullptr)
          .add("clean_steps", Clean.Steps)
          .add("clean_value_steps", Clean.ValueSteps)
          .merge(Rows.Attrs));

  const bool Stats = obs::statsEnabled();
  const bool TraceRuns = Cfg.TraceRuns && obs::TraceSink::enabled();
  size_t Every = Cfg.ProgressEvery ? Cfg.ProgressEvery : NumRows / 10;
  if (Every == 0)
    Every = 1;
  std::atomic<size_t> Done{0};
  const uint64_t LoopStartUs = obs::monotonicMicros();

  // Live tallies for the heartbeat monitor (and the final per-backend
  // split). Relaxed atomics: heartbeats are a sampled view, the exact
  // counts are re-derived from Records after the join.
  std::array<std::atomic<size_t>, NumOutcomes> LiveOutcomes{};
  std::atomic<size_t> LivePruned{0}, LiveReused{0}, LiveVm{0},
      LiveInterp{0}, LiveConverged{0};
  std::atomic<uint64_t> LiveSkippedSteps{0};

  // Heartbeat emission is shared between the timed monitor thread and
  // the final (post-join) beat; Seq orders them for consumers.
  std::atomic<uint64_t> HeartbeatSeq{0};
  auto EmitHeartbeat = [&](bool Final) {
    size_t DoneNow = Done.load(std::memory_order_relaxed);
    double Elapsed =
        static_cast<double>(obs::monotonicMicros() - LoopStartUs) * 1e-6;
    double Rate =
        Elapsed > 0 ? static_cast<double>(DoneNow) / Elapsed : 0.0;
    double EtaS =
        Rate > 0 ? static_cast<double>(NumRows - DoneNow) / Rate : 0.0;
    obs::AttrSet A;
    A.add("label", Label)
        .add("seq", HeartbeatSeq.fetch_add(1, std::memory_order_relaxed))
        .add("wall_s", Elapsed)
        .add("done", static_cast<uint64_t>(DoneNow))
        .add("runs", static_cast<uint64_t>(NumRows))
        .add("runs_per_sec", Rate)
        .add("eta_seconds", Final ? 0.0 : EtaS)
        .add("every_ms", static_cast<uint64_t>(Cfg.HeartbeatMs));
    for (size_t O = 0; O != NumOutcomes; ++O)
      A.add(outcomeName(static_cast<Outcome>(O)),
            static_cast<uint64_t>(
                LiveOutcomes[O].load(std::memory_order_relaxed)));
    A.add("pruned",
          static_cast<uint64_t>(LivePruned.load(std::memory_order_relaxed)))
        .add("reused", static_cast<uint64_t>(
                           LiveReused.load(std::memory_order_relaxed)))
        .add("vm_runs",
             static_cast<uint64_t>(LiveVm.load(std::memory_order_relaxed)))
        .add("interp_runs", static_cast<uint64_t>(
                                LiveInterp.load(std::memory_order_relaxed)))
        .add("final", Final);
    obs::TraceSink::event("campaign.heartbeat", A);
  };

  auto RunOne = [&](size_t Run) {
    const FaultPlan &Plan = Plans[Run];
    InjectionRecord &Rec = Result.Records[Run];
    Rec.BitIndex = static_cast<unsigned>(Plan.BitDraw % 64);
    Rec.TargetValueStep = Plan.TargetValueStep;
    switch (Disposition[Run]) {
    case RowDisposition::Pruned:
      LivePruned.fetch_add(1, std::memory_order_relaxed);
      break;
    case RowDisposition::Reused:
      LiveReused.fetch_add(1, std::memory_order_relaxed);
      break;
    case RowDisposition::Execute: {
      uint64_t T0 = obs::monotonicMicros();
      ExecutionRecord R = Harness.execute(Layout, &Plan, Budget);
      uint64_t Us = obs::monotonicMicros() - T0;
      // The clean prefix always reaches the target step, so a run that
      // finishes with its fault unfired is a harness bug; counting it as
      // Masked would inflate masking.
      if (R.Status == RunStatus::Finished && !R.FaultInjected) {
        char Msg[160];
        std::snprintf(Msg, sizeof(Msg),
                      "%s: run %zu finished without injecting its fault "
                      "(target value step %llu)",
                      Label, Run,
                      static_cast<unsigned long long>(Plan.TargetValueStep));
        throw std::logic_error(Msg);
      }
      Rec.InstructionId = R.FaultedInstructionId;
      Rec.Result = classifyOutcome(R);
      Rec.LatencyUs =
          Us > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(Us);
      (R.BackendUsed == ExecBackend::Vm ? LiveVm : LiveInterp)
          .fetch_add(1, std::memory_order_relaxed);
      LiveSkippedSteps.fetch_add(R.SkippedSteps, std::memory_order_relaxed);
      LiveConverged.fetch_add(R.Converged, std::memory_order_relaxed);
      if (Stats) {
        FaultMetrics::get().RunMicros.observe(Us);
        if (TraceRuns) {
          obs::AttrSet A;
          A.add("label", Label)
              .add("run", static_cast<uint64_t>(Run))
              .add("inst", Rec.InstructionId)
              .add("bit", Rec.BitIndex)
              .add("outcome", outcomeName(Rec.Result))
              .add("us", Us)
              .add("backend", backendName(R.BackendUsed));
          if (R.FallbackReason)
            A.add("fallback_reason", R.FallbackReason);
          obs::TraceSink::event("campaign.run", A);
        }
      }
      break;
    }
    }
    LiveOutcomes[static_cast<size_t>(Rec.Result)].fetch_add(
        1, std::memory_order_relaxed);
    size_t Finished = Done.fetch_add(1, std::memory_order_relaxed) + 1;
    // Rate-limited progress (every `Every` runs, plus one final line at
    // completion so logs and live monitors always see a terminal 100%
    // state). Throughput and ETA derive from the loop clock and go
    // through the metrics registry, so any concurrent exporter sees the
    // same numbers the log line prints.
    if (Finished % Every == 0 || Finished == NumRows) {
      double Elapsed =
          static_cast<double>(obs::monotonicMicros() - LoopStartUs) * 1e-6;
      double Rate = Elapsed > 0 ? static_cast<double>(Finished) / Elapsed
                                : 0.0;
      if (Stats)
        FaultMetrics::get().RunsPerSec.set(Rate);
      double EtaS =
          Rate > 0 ? static_cast<double>(NumRows - Finished) / Rate : 0.0;
      if (obs::logEnabled(obs::Severity::Info))
        obs::logMessage(obs::Severity::Info,
                        "%s: %zu/%zu runs  %.0f runs/s  eta %.1fs", Label,
                        Finished, NumRows, Rate, EtaS);
      obs::TraceSink::event("campaign.progress",
                            obs::AttrSet()
                                .add("label", Label)
                                .add("done", static_cast<uint64_t>(Finished))
                                .add("runs", static_cast<uint64_t>(NumRows))
                                .add("runs_per_sec", Rate)
                                .add("eta_seconds", EtaS));
    }
  };

  // Live monitor: a dedicated thread beats every HeartbeatMs regardless
  // of how fast (or stuck) the injection loop is — that independence is
  // the point, a hung run still produces heartbeats with a frozen
  // `done`, and a dead campaign produces none at all (ipas-top's stall
  // rule). The condition variable gives prompt shutdown on completion.
  std::mutex HbMutex;
  std::condition_variable HbCv;
  bool LoopDone = false;
  std::thread Monitor;
  if (Cfg.HeartbeatMs) {
    Monitor = std::thread([&] {
      std::unique_lock<std::mutex> Lk(HbMutex);
      while (!HbCv.wait_for(Lk, std::chrono::milliseconds(Cfg.HeartbeatMs),
                            [&] { return LoopDone; }))
        EmitHeartbeat(false);
    });
  }

  // Stops and joins the monitor; false when none was running.
  auto StopMonitor = [&] {
    if (!Monitor.joinable())
      return false;
    {
      std::lock_guard<std::mutex> Lk(HbMutex);
      LoopDone = true;
    }
    HbCv.notify_all();
    Monitor.join();
    return true;
  };
  try {
    Result.Threads = parallelFor(NumRows, Cfg.NumThreads, RunOne);
  } catch (...) {
    StopMonitor();
    throw;
  }
  // Terminal heartbeat, emitted serially after the join: done == runs,
  // final == true. Live monitors key "campaign ended" off this.
  if (StopMonitor())
    EmitHeartbeat(true);

  // Injection-loop throughput, measured at the join on the heartbeat
  // clock so the manifest and the final heartbeat agree.
  {
    double LoopSeconds =
        static_cast<double>(obs::monotonicMicros() - LoopStartUs) * 1e-6;
    Result.RunsPerSec =
        LoopSeconds > 0 ? static_cast<double>(NumRows) / LoopSeconds : 0.0;
    Result.HeartbeatsEmitted =
        HeartbeatSeq.load(std::memory_order_relaxed);
  }

  for (const InjectionRecord &Rec : Result.Records)
    ++Result.Counts[static_cast<size_t>(Rec.Result)];
  Result.VmRuns = LiveVm.load(std::memory_order_relaxed);
  Result.InterpRuns = LiveInterp.load(std::memory_order_relaxed);
  Result.SkippedSteps = LiveSkippedSteps.load(std::memory_order_relaxed);
  Result.ConvergedRuns = LiveConverged.load(std::memory_order_relaxed);

  // Propagation tracing: a *serial* post-pass re-executing the sampled
  // runs under full observation, inside the campaign span (so the
  // per-injection `campaign.prop` child spans nest laminarly under it).
  // Running after the injection loop keeps the deterministic record
  // stream untouched by construction: the plans are already drawn and
  // classified, and the traced executions are independent repeats.
  if (Cfg.PropSampleEvery) {
    if (Harness.supportsInstruments()) {
      CleanReference Ref = captureCleanReference(Harness, Layout);
      if (Ref.Valid) {
        for (size_t Run = 0; Run < NumRows; Run += Cfg.PropSampleEvery) {
          // Pruned: nothing propagates, by proof. Reused: not run here.
          if (Disposition[Run] != RowDisposition::Execute)
            continue;
          obs::PhaseSpan PropSpan(
              "campaign.prop",
              obs::AttrSet().add("label", Label).add(
                  "run", static_cast<uint64_t>(Run)));
          Result.PropRecords.push_back(tracePropagation(
              Harness, Layout, Ref, Plans[Run], Budget, Run));
        }
        Result.TracedRuns = Result.PropRecords.size();
      } else {
        obs::logMessage(obs::Severity::Warn,
                        "%s: propagation tracing disabled: clean "
                        "reference capture failed",
                        Label);
      }
    } else {
      obs::logMessage(obs::Severity::Warn,
                      "%s: propagation tracing requested but the harness "
                      "does not support observation",
                      Label);
    }
    Result.SkippedTraceRuns = NumRows - Result.TracedRuns;
    // Sampling must never be silent: say what was traced and what was
    // not, in the log and in the trace.
    obs::logMessage(obs::Severity::Info,
                    "%s: propagation tracing: %zu of %zu injections "
                    "traced (1 in %zu sampled), %zu skipped",
                    Label, Result.TracedRuns, NumRows, Cfg.PropSampleEvery,
                    Result.SkippedTraceRuns);
    obs::TraceSink::event(
        "campaign.prop.sample",
        obs::AttrSet()
            .add("label", Label)
            .add("sample_every",
                 static_cast<uint64_t>(Cfg.PropSampleEvery))
            .add("traced", static_cast<uint64_t>(Result.TracedRuns))
            .add("skipped",
                 static_cast<uint64_t>(Result.SkippedTraceRuns)));
  }

  Result.WallSeconds = Span.seconds();

  if (Stats) {
    FaultMetrics &M = FaultMetrics::get();
    M.Campaigns.inc();
    M.Runs.inc(NumRows);
    M.PrunedRuns.inc(Result.PrunedRuns);
    M.SkippedSteps.inc(Result.SkippedSteps);
    M.ConvergedRuns.inc(Result.ConvergedRuns);
    for (size_t O = 0; O != NumOutcomes; ++O)
      M.ByOutcome[O]->inc(Result.Counts[O]);
  }
  obs::AttrSet DoneAttrs;
  DoneAttrs.add("label", Label)
      .add("runs", static_cast<uint64_t>(NumRows))
      .add("pruned", static_cast<uint64_t>(Result.PrunedRuns))
      .add("vm_runs", static_cast<uint64_t>(Result.VmRuns))
      .add("interp_runs", static_cast<uint64_t>(Result.InterpRuns))
      .add("ff_skipped_steps", Result.SkippedSteps)
      .add("ff_converged_runs", static_cast<uint64_t>(Result.ConvergedRuns))
      .add("seconds", Result.WallSeconds);
  for (size_t O = 0; O != NumOutcomes; ++O)
    DoneAttrs.add(outcomeName(static_cast<Outcome>(O)),
                  static_cast<uint64_t>(Result.Counts[O]));
  DoneAttrs.merge(Rows.Attrs);
  obs::TraceSink::event("campaign.done", DoneAttrs);
  Span.addAttr(DoneAttrs);
  return Result;
}
