//===- core/Pipeline.h - The IPAS workflow (paper Figure 1) ---------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end IPAS workflow:
///   1. verification routine  — supplied by each Workload (Table 2)
///   2. data collection       — statistical fault injection + labeling
///   3. training              — SVM grid search ranked by F-score
///   4. application protection— selective duplication per the classifier
/// plus the evaluation machinery for the paper's §6: coverage campaigns,
/// slowdown accounting, best-configuration selection (ideal-point
/// criterion), input-variation studies, and MPI strong-scaling runs.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_CORE_PIPELINE_H
#define IPAS_CORE_PIPELINE_H

#include "analysis/Features.h"
#include "fault/Campaign.h"
#include "ml/ModelSelection.h"
#include "transform/Duplication.h"
#include "workloads/WorkloadHarness.h"

#include <memory>
#include <string>

namespace ipas {

/// Protection techniques compared in the evaluation.
enum class Technique : uint8_t {
  Unprotected,
  FullDup, ///< SWIFT-style full duplication.
  Ipas,    ///< Classifier trained on SOC labels; protect predicted SOC.
  Baseline ///< Shoestring-style: classifier trained on symptom labels;
           ///< protect predicted NON-symptom instructions.
};

const char *techniqueName(Technique T);

struct PipelineConfig {
  int InputLevel = 1;
  size_t TrainSamples = 500; ///< Paper: 2,500 (§4.1).
  size_t EvalRuns = 250;     ///< Paper: 1,024 per configuration (§5.4).
  double HangFactor = 10.0;
  GridSearchConfig Grid;   ///< Defaults below; paperScale() for 25x20.
  unsigned TopN = 5;       ///< Paper: top-5 configurations (§6.1).
  uint64_t Seed = 0xA11CE;
  /// When non-empty, every evaluation campaign writes its .iprec
  /// provenance record store into this directory (one file per variant,
  /// named <workload>-<label>.iprec) for ipas-inspect. The directory
  /// must already exist. See docs/OBSERVABILITY.md.
  std::string RecordDir;
  /// When non-empty, every evaluated variant also writes a .ipprof cost
  /// profile into this directory (one file per variant, named
  /// <workload>-<label>.ipprof) for ipas-profile: one additional serial
  /// profiled clean run per variant, with protection overhead attributed
  /// per original site against a fresh unprotected build. Profiling never
  /// perturbs the campaign record streams. The directory must already
  /// exist. See docs/OBSERVABILITY.md.
  std::string ProfileDir;
  /// When non-empty, every evaluated variant also writes a .ipses
  /// session manifest into this directory (one file per variant, named
  /// <workload>-<label>.ipses) binding the variant's config, module
  /// hashes, outcome totals, and artifact checksums together — the unit
  /// ipas-db ingests into a cross-run history. The directory must
  /// already exist. See docs/OBSERVABILITY.md.
  std::string SessionDir;
  /// Execution engine for the training and evaluation campaigns, the
  /// counting-mode variant profiles, the record stores' value-step
  /// traces and the scalabilitySlowdown() rank sweep
  /// (CampaignConfig::Backend). The VM is observably equivalent —
  /// identical record streams, goldens, profiles and critical paths —
  /// and several times faster on the workloads, so it is the default;
  /// runs it cannot take (propagation re-execution) fall back to the
  /// interpreter per run.
  ExecBackend Backend = ExecBackend::Vm;
  /// When nonzero, every evaluation campaign also traces fault
  /// propagation for 1-in-N injections (CampaignConfig::PropSampleEvery).
  /// Sampling never perturbs the deterministic record stream; it only
  /// adds serial re-executions after the campaign, so leave it zero
  /// unless the propagation ground truth is wanted.
  size_t PropSampleEvery = 0;
  /// Prune evaluation-campaign injections at sites the summary-aware
  /// interprocedural SOC analysis (analysis/FunctionSummary.h) proves
  /// benign: they are recorded as Masked without executing. Off by
  /// default — pruning changes run time, never outcomes, but the paper's
  /// headline numbers were measured without it.
  bool InterproceduralAnalysis = false;

  /// Scaled-down defaults that keep a full five-workload evaluation in
  /// the minutes range on a laptop.
  static PipelineConfig defaults();
  /// The paper's campaign sizes (2,500 training samples, 1,024 runs per
  /// configuration, 500 grid points, 5 folds).
  static PipelineConfig paperScale();
};

/// Everything produced by steps 2-3 for one workload.
struct TrainingArtifacts {
  CampaignResult Campaign; ///< Injections on the unprotected code.
  FeatureScaler Scaler;
  std::vector<FeatureVector> Features; ///< Per instruction id.
  Dataset IpasData;     ///< +1 = SOC-generating.
  Dataset BaselineData; ///< +1 = symptom-generating.
  std::vector<RankedConfig> IpasConfigs;     ///< Ranked by F-score.
  std::vector<RankedConfig> BaselineConfigs; ///< Ranked by F-score.
  double TrainSeconds = 0.0; ///< Grid-search + final-training time.
};

/// One protected (or reference) variant and its evaluation.
struct VariantEvaluation {
  std::string Label; ///< e.g. "ipas-1".
  Technique Tech = Technique::Unprotected;
  RankedConfig Config;   ///< Meaningful for Ipas/Baseline variants.
  DuplicationStats Dup;
  CampaignResult Campaign;
  double Slowdown = 1.0;        ///< Clean-run dynamic-instruction ratio.
  double SocReductionPct = 0.0; ///< Relative to the unprotected SOC rate.
};

/// Full §6 evaluation record for one workload.
struct WorkloadEvaluation {
  std::string WorkloadName;
  size_t StaticInstructions = 0; ///< Table 3.
  size_t LinesOfCode = 0;        ///< Table 3.
  TrainingArtifacts Training;
  std::vector<VariantEvaluation> Variants;
  double DuplicateSeconds = 0.0; ///< Classification + duplication, Table 6.

  const VariantEvaluation *variant(const std::string &Label) const;
  /// Best Ipas/Baseline variant under the ideal-point criterion (§6.3):
  /// minimal Euclidean distance to (slowdown=1, SOC-reduction=100).
  const VariantEvaluation *bestVariant(Technique T) const;
};

/// Runs steps 1-4 plus the evaluation campaigns for one workload.
class IpasPipeline {
public:
  IpasPipeline(const Workload &W, const PipelineConfig &Cfg);

  /// The full evaluation: training, top-N protected variants for IPAS and
  /// Baseline, plus Unprotected and FullDup references.
  WorkloadEvaluation run();

  // --- Composable pieces (used by the finer-grained benches/tests).

  /// Steps 2-3: fault injection, labeling, grid search. Pass
  /// \p RunGridSearch = false to skip model selection (used when the
  /// (C, gamma) configuration is already known); the config lists are
  /// then left empty.
  TrainingArtifacts collectAndTrain(bool RunGridSearch = true);

  /// Step 4 for one configuration: returns the instruction ids to protect.
  /// Throws std::invalid_argument unless \p T is Ipas or Baseline.
  std::set<unsigned> selectInstructions(Technique T, const SvmParams &P,
                                        const TrainingArtifacts &A) const;

  /// Builds a freshly compiled module with the given protection applied.
  struct ProtectedModule {
    std::unique_ptr<Module> M;
    std::unique_ptr<ModuleLayout> Layout;
    DuplicationStats Stats;
  };
  ProtectedModule protect(const std::set<unsigned> &Ids) const;
  ProtectedModule protectAll() const;
  ProtectedModule protectNone() const;

  /// Campaign over a (protected) module at the configured scale. \p Label
  /// names the campaign in trace records and progress lines.
  CampaignResult evaluate(const ProtectedModule &PM, uint64_t Seed,
                          int InputLevel = 0,
                          const std::string &Label = std::string()) const;

  /// Clean-run slowdown of \p PM versus the unprotected module with
  /// \p NumRanks MPI ranks (critical-path cycle ratio). Figure 8. Runs on
  /// the configured Backend; throws std::runtime_error naming the
  /// workload, rank count and status when either clean run does not
  /// finish with a valid output.
  double scalabilitySlowdown(const ProtectedModule &PM, int NumRanks,
                             int InputLevel = 0) const;

  const PipelineConfig &config() const { return Cfg; }
  const Workload &workload() const { return W; }

private:
  const Workload &W;
  PipelineConfig Cfg;
};

} // namespace ipas

#endif // IPAS_CORE_PIPELINE_H
