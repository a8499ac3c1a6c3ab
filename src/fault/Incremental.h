//===- fault/Incremental.h - Incremental re-campaigning -------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FastFlip-style incremental fault campaigns (PAPERS.md): injection
/// plans are drawn *per function* from a name-derived RNG stream over
/// function-local value steps, so an edit to one function leaves every
/// other function's plans — and therefore its prior outcomes — intact.
/// A function's prior `.iprec` rows are reused verbatim when all four
/// invalidation keys match the prior store:
///
///   1. content hash   — its own body is unchanged (whitespace/comment
///                       edits do not count; see FunctionSummary.h);
///   2. reachable hash — no function it can call into changed, so
///                       corruption propagating *down* meets the same
///                       code;
///   3. profile hash   — the clean run drives the same (site, value)
///                       stream through it, so injected runs start from
///                       identical machine states;
///   4. local value steps — the plan domain is unchanged.
///
/// Documented approximation: corruption that escapes *upward* (through
/// the return value or memory) into an edited caller is only guarded by
/// the profile key — an edited caller that feeds bit-identical values
/// and consumes results the same way keeps reuse exact, which is the
/// common incremental-edit case; anything that changes the values
/// flowing through a function invalidates it outright. The merged
/// record stream is bit-identical (outcomes, sites, bits — not
/// latencies) to a from-scratch --incremental campaign whenever that
/// assumption holds, and the ctest goldens pin it down on residual.mc.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_FAULT_INCREMENTAL_H
#define IPAS_FAULT_INCREMENTAL_H

#include "fault/Campaign.h"
#include "obs/RecordStore.h"

#include <string>
#include <vector>

namespace ipas {

class Module;

/// Why a function's prior rows were (or were not) reusable. Serialized
/// raw into obs::FunctionMeta::Invalidation.
enum class InvalidationReason : uint8_t {
  Fresh = 0,        ///< No prior store, or it lacks this function.
  Reused,           ///< All keys matched; prior rows carried over.
  ContentChanged,   ///< The function's own body hash changed.
  CalleesChanged,   ///< A function reachable from it changed.
  StepsChanged,     ///< Clean-run value-step count inside it changed.
  ProfileChanged,   ///< Clean-run (site, value) stream changed.
  PlanMismatch,     ///< Prior rows disagreed with the re-drawn plans.
};

const char *invalidationReasonName(InvalidationReason R);

struct IncrementalConfig {
  CampaignConfig Base;
  /// Prior campaign over an earlier build of the same program (same
  /// entry function and seed). Null means everything runs fresh. A prior
  /// store without FunctionMetas (a non-incremental or v1 store) is
  /// ignored the same way.
  const obs::RecordStore *Prior = nullptr;
  /// Per-function clean-run profile hashes already computed by a
  /// CostProfiler with function hashes enabled (ipas-cc --profile does
  /// this), indexed by module function order. When set and sized to the
  /// module's function count, the campaign reuses them instead of running
  /// its own observed clean run — the fold is identical, so reuse keys
  /// are unchanged. Null (or wrong-sized) means compute them here.
  const std::vector<uint64_t> *ProfileHashes = nullptr;
};

struct IncrementalResult {
  /// The merged campaign; Campaign.ReusedRuns and
  /// Campaign.executedRuns() give the reuse split.
  CampaignResult Campaign;
  /// One entry per module function, in module order (FunctionIndex is
  /// the module function index, matching RecordBuild's function table).
  std::vector<obs::FunctionMeta> FunctionMetas;

  /// Per-function reuse decision, parallel to FunctionMetas.
  InvalidationReason reason(size_t I) const {
    return static_cast<InvalidationReason>(FunctionMetas[I].Invalidation);
  }
};

/// Runs an incremental campaign over \p M. Requires a harness whose
/// traceValueSteps() works (the per-function plan domain comes from the
/// clean trace); without it the campaign still runs, but everything is
/// Fresh and the result carries no FunctionMetas. The record stream is
/// deterministic for a fixed (module, seed, NumRuns) regardless of
/// thread count or prior store — a reusable prior only swaps execution
/// for lookup of identical rows. Only the row plan is specific to this
/// driver: the rows run on runCampaign's loop (runPlannedCampaign), with
/// the same checks, accounting and telemetry.
IncrementalResult runIncrementalCampaign(ProgramHarness &Harness,
                                         const ModuleLayout &Layout,
                                         const Module &M,
                                         const IncrementalConfig &Cfg);

} // namespace ipas

#endif // IPAS_FAULT_INCREMENTAL_H
