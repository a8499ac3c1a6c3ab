//===- fault/Incremental.cpp ----------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fault/Incremental.h"

#include "analysis/CallGraph.h"
#include "analysis/FunctionSummary.h"
#include "interp/CostProfiler.h"
#include "ir/Module.h"
#include "obs/BinCodec.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>

using namespace ipas;

const char *ipas::invalidationReasonName(InvalidationReason R) {
  switch (R) {
  case InvalidationReason::Fresh:
    return "fresh";
  case InvalidationReason::Reused:
    return "reused";
  case InvalidationReason::ContentChanged:
    return "content-changed";
  case InvalidationReason::CalleesChanged:
    return "callees-changed";
  case InvalidationReason::StepsChanged:
    return "steps-changed";
  case InvalidationReason::ProfileChanged:
    return "profile-changed";
  case InvalidationReason::PlanMismatch:
    return "plan-mismatch";
  }
  return "<bad reason>";
}

namespace {

/// Largest-remainder apportionment of \p Total runs proportional to
/// \p Weights (functions with zero weight get zero runs). Deterministic:
/// leftovers go to the largest remainders, ties to the lowest index.
std::vector<uint64_t> apportionRuns(size_t Total,
                                    const std::vector<uint64_t> &Weights) {
  std::vector<uint64_t> Runs(Weights.size(), 0);
  uint64_t Sum = 0;
  for (uint64_t W : Weights)
    Sum += W;
  if (Sum == 0)
    return Runs;
  uint64_t Assigned = 0;
  std::vector<std::pair<uint64_t, size_t>> Rem; // (remainder, index)
  for (size_t I = 0; I != Weights.size(); ++I) {
    uint64_t Num = static_cast<uint64_t>(Total) * Weights[I];
    Runs[I] = Num / Sum;
    Assigned += Runs[I];
    if (Weights[I])
      Rem.push_back({Num % Sum, I});
  }
  std::sort(Rem.begin(), Rem.end(),
            [](const std::pair<uint64_t, size_t> &A,
               const std::pair<uint64_t, size_t> &B) {
              return A.first != B.first ? A.first > B.first
                                        : A.second < B.second;
            });
  for (size_t K = 0; Assigned < Total && !Rem.empty(); ++K) {
    ++Runs[Rem[K % Rem.size()].second];
    ++Assigned;
  }
  return Runs;
}

} // namespace

IncrementalResult ipas::runIncrementalCampaign(ProgramHarness &Harness,
                                               const ModuleLayout &Layout,
                                               const Module &M,
                                               const IncrementalConfig &Cfg) {
  IncrementalResult Result;
  const CampaignConfig &Base = Cfg.Base;
  const char *Label =
      Base.Label.empty() ? "incremental" : Base.Label.c_str();

  auto PlanRows = [&](const ExecutionRecord &Clean) {
    // The per-function plan domain needs the clean value-step →
    // instruction trace. Without it there is nothing to key reuse on;
    // fall back to the plain campaign's rows (everything fresh, no
    // function table).
    std::vector<unsigned> Trace = Harness.traceValueSteps(Layout);
    if (Trace.size() != Clean.ValueSteps || Trace.empty()) {
      obs::logMessage(obs::Severity::Warn,
                      "%s: harness cannot trace value steps; falling back "
                      "to a non-incremental campaign",
                      Label);
      return planSampledRows(Harness, Layout, Base, Clean);
    }

    // Static geometry: ids are function-contiguous in module order.
    size_t NumFns = M.numFunctions();
    std::vector<uint64_t> FirstId(NumFns, 0);
    std::vector<uint32_t> IdToFn(M.numInstructions(), 0);
    {
      uint64_t Next = 0;
      for (size_t Fi = 0; Fi != NumFns; ++Fi) {
        FirstId[Fi] = Next;
        uint64_t N = M.function(Fi)->numInstructions();
        for (uint64_t K = 0; K != N; ++K)
          IdToFn[Next + K] = static_cast<uint32_t>(Fi);
        Next += N;
      }
    }

    // Dynamic geometry: each function's local value steps, and the
    // mapping from (function, local step) back to the global step a
    // FaultPlan needs.
    std::vector<std::vector<uint64_t>> GlobalStepOf(NumFns);
    for (uint64_t Step = 0; Step != Trace.size(); ++Step)
      GlobalStepOf[IdToFn[Trace[Step]]].push_back(Step);
    std::vector<uint64_t> LocalSteps(NumFns);
    for (size_t Fi = 0; Fi != NumFns; ++Fi)
      LocalSteps[Fi] = GlobalStepOf[Fi].size();

    // Profile hashes: the caller's profiled clean run when it supplied
    // one (ipas-cc --profile), else one profiled clean run here.
    // All-zero when the harness cannot profile — consistently on both
    // sides of a reuse comparison, so reuse still works, just with a
    // weaker guard. The profiled run rides the harness's preferred
    // backend: the VM folds the same per-function stream hashes
    // natively, so hashes computed on one backend compare against hashes
    // computed on the other.
    std::vector<uint64_t> Profile(NumFns, 0);
    if (Cfg.ProfileHashes && Cfg.ProfileHashes->size() == NumFns) {
      Profile = *Cfg.ProfileHashes;
    } else if (Harness.supportsInstruments()) {
      CostProfiler Prof(Layout, CostProfiler::Mode::Counting);
      Prof.enableFunctionHashes();
      ExecutionRecord Obs =
          Harness.run(Layout, nullptr, UINT64_MAX, {.Prof = &Prof});
      if (Obs.Status == RunStatus::Finished && Obs.OutputValid)
        Profile = Prof.functionHashes();
      else
        obs::logMessage(obs::Severity::Warn,
                        "%s: profiled clean run failed; profile hashes "
                        "disabled",
                        Label);
    }

    // Content and reachable-set hashes from the interprocedural analysis.
    CallGraph CG(M);
    ModuleSummaries MS(M, CG);

    // Apportion runs across functions by clean-run value-step share, then
    // draw each function's plans from its own name-derived RNG stream.
    // The first min(new, prior) draws of a stream are identical whenever
    // seed and name match — that prefix property is what lets a shifted
    // apportionment still reuse the prior rows it overlaps. Rows are
    // function-major in module order (what PlannedRuns prefix sums
    // promise the next incremental consumer).
    std::vector<uint64_t> Planned = apportionRuns(Base.NumRuns, LocalSteps);
    std::vector<uint64_t> RowStart(NumFns, 0);
    uint64_t TotalRows = 0;
    for (size_t Fi = 0; Fi != NumFns; ++Fi) {
      RowStart[Fi] = TotalRows;
      TotalRows += Planned[Fi];
    }
    CampaignRows Rows(TotalRows);
    for (size_t Fi = 0; Fi != NumFns; ++Fi) {
      const std::string &Name = M.function(Fi)->name();
      Rng FnRng(Base.Seed ^ obs::fnv1a(Name.data(), Name.size()));
      for (uint64_t R = 0; R != Planned[Fi]; ++R) {
        uint64_t Local = FnRng.nextBelow(LocalSteps[Fi]);
        FaultPlan &Plan = Rows.Plans[RowStart[Fi] + R];
        Plan.TargetValueStep = GlobalStepOf[Fi][Local];
        Plan.BitDraw = FnRng.next();
        Rows.Records[RowStart[Fi] + R].InstructionId =
            Trace[Plan.TargetValueStep];
      }
    }

    // Prior store: usable only when it came from the same seed and
    // carries a function table whose planned-run counts actually
    // partition its rows (anything else means it was not written by this
    // driver).
    const obs::RecordStore *Prior = Cfg.Prior;
    std::vector<uint64_t> PriorRowStart;
    if (Prior) {
      bool Usable = Prior->Seed == Base.Seed && !Prior->FunctionMetas.empty();
      if (Usable) {
        uint64_t Off = 0;
        for (const obs::FunctionMeta &FM : Prior->FunctionMetas) {
          PriorRowStart.push_back(Off);
          Off += FM.PlannedRuns;
        }
        Usable = Off == Prior->Rows.size();
      }
      if (!Usable) {
        if (Prior->Seed != Base.Seed)
          obs::logMessage(obs::Severity::Warn,
                          "%s: prior store was campaigned with a different "
                          "seed; ignoring it",
                          Label);
        Prior = nullptr;
      }
    }

    // Per-function reuse decision. A function's prior rows carry over
    // only when every invalidation key matches AND every overlapping
    // prior row agrees with the re-drawn plan (site and bit) — the plan
    // check turns any residual hash-collision or store-tampering risk
    // into plain re-execution instead of wrong data.
    std::vector<obs::FunctionMeta> &Metas = Result.FunctionMetas;
    Metas.resize(NumFns);
    for (size_t Fi = 0; Fi != NumFns; ++Fi) {
      obs::FunctionMeta &FM = Metas[Fi];
      FM.FunctionIndex = static_cast<uint32_t>(Fi);
      const Function *F = M.function(Fi);
      FM.ContentHash = MS.contentHash(F);
      FM.ReachableHash = MS.reachableHash(F);
      FM.ProfileHash = Profile[Fi];
      FM.FirstInstructionId = FirstId[Fi];
      FM.LocalValueSteps = LocalSteps[Fi];
      FM.PlannedRuns = Planned[Fi];

      InvalidationReason Reason = InvalidationReason::Fresh;
      const obs::FunctionMeta *PM = nullptr;
      uint64_t PriorStart = 0;
      if (Prior) {
        for (size_t K = 0; K != Prior->FunctionMetas.size(); ++K) {
          const obs::FunctionMeta &Cand = Prior->FunctionMetas[K];
          if (Cand.FunctionIndex < Prior->Functions.size() &&
              Prior->Functions[Cand.FunctionIndex] == F->name()) {
            PM = &Cand;
            PriorStart = PriorRowStart[K];
            break;
          }
        }
      }
      if (PM) {
        if (PM->ContentHash != FM.ContentHash)
          Reason = InvalidationReason::ContentChanged;
        else if (PM->ReachableHash != FM.ReachableHash)
          Reason = InvalidationReason::CalleesChanged;
        else if (PM->LocalValueSteps != FM.LocalValueSteps)
          Reason = InvalidationReason::StepsChanged;
        else if (PM->ProfileHash != FM.ProfileHash)
          Reason = InvalidationReason::ProfileChanged;
        else {
          Reason = InvalidationReason::Reused;
          uint64_t Overlap = std::min(Planned[Fi], PM->PlannedRuns);
          for (uint64_t R = 0; R != Overlap; ++R) {
            const obs::InjectionRow &Row = Prior->Rows[PriorStart + R];
            const FaultPlan &Plan = Rows.Plans[RowStart[Fi] + R];
            if (Row.InstructionId - PM->FirstInstructionId !=
                    Trace[Plan.TargetValueStep] - FirstId[Fi] ||
                Row.BitIndex != Plan.BitDraw % 64 ||
                Row.Outcome >= NumOutcomes) {
              Reason = InvalidationReason::PlanMismatch;
              break;
            }
          }
          if (Reason == InvalidationReason::Reused) {
            for (uint64_t R = 0; R != Overlap; ++R) {
              Rows.Dispositions[RowStart[Fi] + R] = RowDisposition::Reused;
              Rows.Records[RowStart[Fi] + R].Result = static_cast<Outcome>(
                  Prior->Rows[PriorStart + R].Outcome);
            }
          }
        }
      }
      FM.Invalidation = static_cast<uint8_t>(Reason);
    }

    // Pruning overrides reuse: a provably benign row is classified by
    // proof, not by the prior store, so it is not reported as carried
    // over.
    if (Base.ProvablyBenign)
      pruneBenignRows(*Base.ProvablyBenign, Trace, Rows);
    uint64_t Reused = 0, Executed = 0;
    for (size_t Fi = 0; Fi != NumFns; ++Fi) {
      for (uint64_t R = 0; R != Planned[Fi]; ++R) {
        RowDisposition D = Rows.Dispositions[RowStart[Fi] + R];
        Metas[Fi].ReusedRuns += D == RowDisposition::Reused;
        Executed += D == RowDisposition::Execute;
      }
      Reused += Metas[Fi].ReusedRuns;
    }
    Rows.Attrs.add("functions", static_cast<uint64_t>(NumFns))
        .add("prior", Prior != nullptr)
        .add("reused", Reused)
        .add("executed", Executed);
    return Rows;
  };
  Result.Campaign =
      runPlannedCampaign(Harness, Layout, Base, "incremental", PlanRows);

  if (obs::statsEnabled()) {
    auto &Reg = obs::MetricsRegistry::global();
    Reg.counter("fault.incremental.campaigns").inc();
    Reg.counter("fault.incremental.reused_runs")
        .inc(Result.Campaign.ReusedRuns);
    Reg.counter("fault.incremental.executed_runs")
        .inc(Result.Campaign.executedRuns());
  }
  return Result;
}
