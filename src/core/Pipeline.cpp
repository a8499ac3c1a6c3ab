//===- core/Pipeline.cpp -------------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "analysis/FunctionSummary.h"
#include "fault/ProfileBuild.h"
#include "fault/RecordBuild.h"
#include "fault/SessionBuild.h"
#include "frontend/Lexer.h"
#include "obs/Trace.h"
#include "support/ParallelFor.h"
#include "support/Statistics.h"

#include <mutex>
#include <optional>
#include <stdexcept>

using namespace ipas;

namespace {

/// The classifier data set of a classifier-guided technique.
const Dataset &labelsFor(Technique T, const TrainingArtifacts &A) {
  return T == Technique::Ipas ? A.IpasData : A.BaselineData;
}

/// The instruction ids technique \p T protects under classifier \p Model.
std::set<unsigned> selectWith(Technique T, const SvmModel &Model,
                              const TrainingArtifacts &A) {
  std::set<unsigned> Ids;
  for (unsigned Id = 0; Id != A.Features.size(); ++Id) {
    const FeatureVector &FV = A.Features[Id];
    int Pred = Model.predict(
        A.Scaler.transform(std::vector<double>(FV.begin(), FV.end())));
    // IPAS protects predicted SOC-generating instructions; the baseline
    // (Shoestring policy) protects predicted NON-symptom-generating ones.
    bool Protect = T == Technique::Ipas ? Pred > 0 : Pred < 0;
    if (Protect)
      Ids.insert(Id);
  }
  return Ids;
}

/// An evaluation campaign of \p PM on \p Harness with \p Threads workers.
/// \p Trace, when set, is the clean run's value-step trace for pruning.
CampaignResult evaluationCampaign(ProgramHarness &Harness,
                                  const PipelineConfig &Cfg,
                                  const IpasPipeline::ProtectedModule &PM,
                                  uint64_t Seed, const std::string &Label,
                                  unsigned Threads,
                                  const std::vector<unsigned> *Trace) {
  CampaignConfig CC;
  CC.NumRuns = Cfg.EvalRuns;
  CC.HangFactor = Cfg.HangFactor;
  CC.Seed = Seed;
  CC.Label = Label;
  CC.NumThreads = Threads;
  CC.Backend = Cfg.Backend;
  CC.PropSampleEvery = Cfg.PropSampleEvery;
  if (!Cfg.InterproceduralAnalysis)
    return runCampaign(Harness, *PM.Layout, CC);
  // Summary-aware pruning: sites the interprocedural analysis proves
  // benign are recorded as Masked without executing. The analysis must
  // outlive the campaign — ProvablyBenign borrows its flag vector.
  CallGraph CG(*PM.M);
  ModuleSummaries Summaries(*PM.M, CG);
  SocPropagation Soc(*PM.M, Summaries);
  CC.ProvablyBenign = &Soc.provablyBenign();
  CC.ValueStepTrace = Trace;
  return runCampaign(Harness, *PM.Layout, CC);
}

/// Writes the .iprec provenance record for one evaluated variant into
/// Cfg.RecordDir. \p StepTrace is the variant's clean value-step trace.
/// Classifier columns (score, prediction) come from \p Model, the
/// classifier that selected the variant, by exploiting the duplication
/// layout: shadows and checks are inserted after their originals and
/// renumber() preserves order, so the k-th non-shadow, non-check
/// instruction of the protected module corresponds to unprotected
/// instruction id k. When there is no model or that correspondence does
/// not hold (counts differ), the columns are left empty rather than
/// guessed.
void writeVariantRecord(const Workload &W, const PipelineConfig &Cfg,
                        const IpasPipeline::ProtectedModule &PM,
                        const VariantEvaluation &V,
                        const TrainingArtifacts &A, const SvmModel *Model,
                        const std::vector<unsigned> &StepTrace,
                        uint64_t Seed) {
  std::vector<Instruction *> Insts = PM.M->allInstructions();

  std::vector<double> Scores;
  std::vector<int> Predictions;
  if (Model) {
    size_t NumOriginal = 0;
    for (const Instruction *I : Insts)
      if (I->dupRole() != DupRole::Shadow && I->dupRole() != DupRole::Check)
        ++NumOriginal;
    if (NumOriginal == A.Features.size()) {
      Scores.resize(Insts.size(), 0.0);
      Predictions.resize(Insts.size(), 0);
      size_t K = 0;
      for (const Instruction *I : Insts) {
        if (I->dupRole() == DupRole::Shadow ||
            I->dupRole() == DupRole::Check)
          continue;
        const FeatureVector &FV = A.Features[K++];
        std::vector<double> X =
            A.Scaler.transform(std::vector<double>(FV.begin(), FV.end()));
        Scores[I->id()] = Model->decision(X);
        Predictions[I->id()] = Model->predict(X);
      }
    }
  }

  FeatureExtractor Extractor;
  std::vector<double> Flat;
  {
    std::vector<std::vector<double>> Rows =
        Extractor.extractModuleRows(*PM.M);
    Flat.reserve(Rows.size() * Extractor.numFeatures());
    for (const std::vector<double> &Row : Rows)
      Flat.insert(Flat.end(), Row.begin(), Row.end());
  }

  RecordBuildInputs In;
  In.M = PM.M.get();
  In.Result = &V.Campaign;
  In.EntryFunction = Workload::EntryName;
  In.Label = V.Label;
  In.Seed = Seed;
  In.SourceText = W.source();
  In.ValueStepTrace = &StepTrace;
  In.NumFeatures = Extractor.numFeatures();
  In.Features = &Flat;
  if (!Scores.empty()) {
    In.Scores = &Scores;
    In.Predictions = &Predictions;
  }
  // The store copies the features; free them (and the rows above, by
  // scope) before serializing, which keeps this worker's peak low.
  obs::RecordStore Store = buildRecordStore(In);
  Flat = std::vector<double>();

  std::string Path = Cfg.RecordDir + "/" + W.name() + "-" + V.Label +
                     ".iprec";
  std::string Err;
  if (!writeCampaignRecord(Store, Path, &Err))
    std::fprintf(stderr, "warning: cannot write record store: %s\n",
                 Err.c_str());
}

/// The unprotected build's counting profile, against which every
/// variant's profile attributes its protection overhead. Both use the
/// standard cost model, so one profile serves every variant of a run.
struct BaseProfile {
  IpasPipeline::ProtectedModule PM;
  std::vector<uint64_t> Counts; ///< Empty when the clean run failed.
};

BaseProfile profileUnprotected(const IpasPipeline &P) {
  BaseProfile Base;
  Base.PM = P.protectNone();
  WorkloadHarness Harness(P.workload(), P.config().InputLevel);
  Harness.setPreferredBackend(P.config().Backend);
  CostProfiler Prof(*Base.PM.Layout, CostProfiler::Mode::Counting);
  ExecutionRecord R =
      Harness.run(*Base.PM.Layout, nullptr, UINT64_MAX, {.Prof = &Prof});
  if (R.Status == RunStatus::Finished && R.OutputValid)
    Base.Counts = Prof.flatCounts();
  return Base;
}

/// Writes the .ipprof cost profile for one evaluated variant into
/// Cfg.ProfileDir: a counting-mode profiled clean run of the variant on
/// \p Harness (which ran its campaign), with per-site protection overhead
/// attributed against \p Base. The run happens after the variant's
/// campaign, so the record stream is untouched.
void writeVariantProfile(const Workload &W, const PipelineConfig &Cfg,
                         ProgramHarness &Harness,
                         const IpasPipeline::ProtectedModule &PM,
                         const BaseProfile &Base, const std::string &Label) {
  CostProfiler Prof(*PM.Layout, CostProfiler::Mode::Counting);
  ProfileBuildInputs In;
  In.EntryFunction = Workload::EntryName;
  In.Label = Label;
  In.SourceText = W.source();
  obs::ProfileStore S;
  std::string Err;
  if (!buildProfileStore(Harness, *PM.Layout, Prof, In, S, &Err)) {
    obs::logMessage(obs::Severity::Warn,
                    "%s: cannot profile variant: %s", Label.c_str(),
                    Err.c_str());
    return;
  }

  if (!Base.Counts.empty()) {
    if (!attributeOverhead(*Base.PM.M, Base.Counts, *PM.M, Prof.flatCounts(),
                           Prof.model(), S, &Err))
      obs::logMessage(obs::Severity::Warn,
                      "%s: overhead attribution failed: %s", Label.c_str(),
                      Err.c_str());
  } else {
    obs::logMessage(obs::Severity::Warn,
                    "%s: baseline clean run failed; overhead attribution "
                    "skipped",
                    Label.c_str());
  }

  std::string Path = Cfg.ProfileDir + "/" + W.name() + "-" + Label +
                     ".ipprof";
  if (!writeProfileArtifact(S, Path, &Err))
    std::fprintf(stderr, "warning: cannot write profile store: %s\n",
                 Err.c_str());
}

/// Writes the .ipses session manifest for one evaluated variant into
/// Cfg.SessionDir, binding the variant's other artifacts (its .iprec and
/// .ipprof, when those directories were set) with sizes and checksums.
/// Runs after the record/profile writers so the checksums cover the
/// final bytes.
void writeVariantSession(const Workload &W, const PipelineConfig &Cfg,
                         const IpasPipeline::ProtectedModule &PM,
                         const VariantEvaluation &V, uint64_t Seed) {
  SessionBuildInputs In;
  In.M = PM.M.get();
  In.Result = &V.Campaign;
  In.Tool = "ipas-pipeline";
  In.EntryFunction = Workload::EntryName;
  In.Label = V.Label;
  In.Seed = Seed;
  In.Backend = Cfg.Backend;
  In.Threads = V.Campaign.Threads;
  In.Pruning = Cfg.InterproceduralAnalysis;
  In.PropSampleEvery = Cfg.PropSampleEvery;
  obs::ProfileStore Prof;
  std::string ProfPath;
  if (!Cfg.ProfileDir.empty()) {
    ProfPath =
        Cfg.ProfileDir + "/" + W.name() + "-" + V.Label + ".ipprof";
    // Re-read the store the profile writer just produced: the manifest's
    // overhead column and artifact checksum then describe the same bytes.
    if (obs::readProfileStore(Prof, ProfPath, nullptr))
      In.Profile = &Prof;
    else
      ProfPath.clear();
  }
  obs::SessionStore S = buildSessionStore(In);
  std::string Err;
  if (!Cfg.RecordDir.empty()) {
    std::string RecPath =
        Cfg.RecordDir + "/" + W.name() + "-" + V.Label + ".iprec";
    if (!addSessionArtifact(S, obs::SessionArtifactRecord, RecPath, &Err))
      obs::logMessage(obs::Severity::Warn, "%s: session artifact: %s",
                      V.Label.c_str(), Err.c_str());
  }
  if (!ProfPath.empty() &&
      !addSessionArtifact(S, obs::SessionArtifactProfile, ProfPath, &Err))
    obs::logMessage(obs::Severity::Warn, "%s: session artifact: %s",
                    V.Label.c_str(), Err.c_str());
  std::string Path = Cfg.SessionDir + "/" + W.name() + "-" + V.Label +
                     ".ipses";
  if (!writeSessionManifest(S, Path, &Err))
    std::fprintf(stderr, "warning: cannot write session manifest: %s\n",
                 Err.c_str());
}

} // namespace

const char *ipas::techniqueName(Technique T) {
  switch (T) {
  case Technique::Unprotected:
    return "unprotected";
  case Technique::FullDup:
    return "full-duplication";
  case Technique::Ipas:
    return "ipas";
  case Technique::Baseline:
    return "baseline";
  }
  return "<bad technique>";
}

PipelineConfig PipelineConfig::defaults() {
  PipelineConfig Cfg;
  Cfg.TrainSamples = 400;
  Cfg.EvalRuns = 200;
  Cfg.Grid.CSteps = 8;
  Cfg.Grid.GammaSteps = 8;
  Cfg.Grid.Folds = 3;
  Cfg.Grid.MaxIterations = 20000;
  return Cfg;
}

PipelineConfig PipelineConfig::paperScale() {
  PipelineConfig Cfg;
  Cfg.TrainSamples = 2500;
  Cfg.EvalRuns = 1024;
  Cfg.Grid.CSteps = 25;
  Cfg.Grid.GammaSteps = 20;
  Cfg.Grid.Folds = 5;
  Cfg.Grid.MaxIterations = 200000;
  return Cfg;
}

const VariantEvaluation *
WorkloadEvaluation::variant(const std::string &Label) const {
  for (const VariantEvaluation &V : Variants)
    if (V.Label == Label)
      return &V;
  return nullptr;
}

const VariantEvaluation *
WorkloadEvaluation::bestVariant(Technique T) const {
  const VariantEvaluation *Best = nullptr;
  double BestDist = 0.0;
  for (const VariantEvaluation &V : Variants) {
    if (V.Tech != T)
      continue;
    // Ideal point: (slowdown, SOC reduction %) == (1, 100). Paper §6.3.
    double Dist =
        euclideanDistance(V.Slowdown, V.SocReductionPct, 1.0, 100.0);
    if (!Best || Dist < BestDist) {
      Best = &V;
      BestDist = Dist;
    }
  }
  return Best;
}

IpasPipeline::IpasPipeline(const Workload &W, const PipelineConfig &Cfg)
    : W(W), Cfg(Cfg) {}

IpasPipeline::ProtectedModule
IpasPipeline::protect(const std::set<unsigned> &Ids) const {
  ProtectedModule PM;
  PM.M = compileWorkload(W);
  PM.Stats = duplicateInstructions(
      *PM.M, [&Ids](const Instruction &I) { return Ids.count(I.id()) != 0; });
  PM.M->renumber();
  PM.Layout = std::make_unique<ModuleLayout>(*PM.M);
  return PM;
}

IpasPipeline::ProtectedModule IpasPipeline::protectAll() const {
  ProtectedModule PM;
  PM.M = compileWorkload(W);
  PM.Stats = duplicateAllInstructions(*PM.M);
  PM.M->renumber();
  PM.Layout = std::make_unique<ModuleLayout>(*PM.M);
  return PM;
}

IpasPipeline::ProtectedModule IpasPipeline::protectNone() const {
  ProtectedModule PM;
  PM.M = compileWorkload(W);
  PM.M->renumber();
  PM.Layout = std::make_unique<ModuleLayout>(*PM.M);
  return PM;
}

CampaignResult IpasPipeline::evaluate(const ProtectedModule &PM,
                                      uint64_t Seed, int InputLevel,
                                      const std::string &Label) const {
  WorkloadHarness Harness(W, InputLevel ? InputLevel : Cfg.InputLevel);
  return evaluationCampaign(Harness, Cfg, PM, Seed, Label, campaignWorkers(),
                            nullptr);
}

TrainingArtifacts IpasPipeline::collectAndTrain(bool RunGridSearch) {
  obs::PhaseSpan Training("pipeline.training",
                          obs::AttrSet().add("workload", W.name()));
  TrainingArtifacts A;

  // Step 2: data collection on the unprotected code.
  ProtectedModule Unprot = protectNone();
  {
    obs::PhaseSpan Span("training.campaign");
    WorkloadHarness Harness(W, Cfg.InputLevel);
    CampaignConfig CC;
    CC.NumRuns = Cfg.TrainSamples;
    CC.HangFactor = Cfg.HangFactor;
    CC.Seed = Cfg.Seed ^ 0x7121117;
    CC.Label = "training";
    CC.NumThreads = campaignWorkers();
    CC.Backend = Cfg.Backend;
    A.Campaign = runCampaign(Harness, *Unprot.Layout, CC);
  }

  // Instruction features (Table 1) over the unprotected module.
  {
    obs::PhaseSpan Span("training.features");
    FeatureExtractor Extractor;
    A.Features = Extractor.extractModule(*Unprot.M);
    std::vector<std::vector<double>> Raw;
    Raw.reserve(A.Features.size());
    for (const FeatureVector &FV : A.Features)
      Raw.emplace_back(FV.begin(), FV.end());
    A.Scaler.fit(Raw);
  }

  // Labeling: IPAS (SOC vs non-SOC) and Baseline (symptom vs non-symptom).
  {
    obs::PhaseSpan Span("training.labeling");
    for (const InjectionRecord &Rec : A.Campaign.Records) {
      const FeatureVector &FV = A.Features.at(Rec.InstructionId);
      std::vector<double> X =
          A.Scaler.transform(std::vector<double>(FV.begin(), FV.end()));
      A.IpasData.add(X, Rec.Result == Outcome::SOC ? 1 : -1);
      A.BaselineData.add(std::move(X), isSymptom(Rec.Result) ? 1 : -1);
    }
  }

  // Step 3: grid search ranked by F-score (Eq. 1).
  if (RunGridSearch) {
    obs::PhaseSpan Span("training.grid_search");
    GridSearchConfig GC = Cfg.Grid;
    GC.Seed = Cfg.Seed ^ 0x62d5;
    auto TruncateTopN = [&](std::vector<RankedConfig> All) {
      if (All.size() > Cfg.TopN)
        All.resize(Cfg.TopN);
      return All;
    };
    A.IpasConfigs = TruncateTopN(gridSearch(A.IpasData, GC));
    A.BaselineConfigs = TruncateTopN(gridSearch(A.BaselineData, GC));
  }

  A.TrainSeconds = Training.seconds();
  return A;
}

std::set<unsigned>
IpasPipeline::selectInstructions(Technique T, const SvmParams &P,
                                 const TrainingArtifacts &A) const {
  if (T != Technique::Ipas && T != Technique::Baseline)
    throw std::invalid_argument(
        std::string("selectInstructions: technique '") + techniqueName(T) +
        "' does not select instructions with a classifier");
  return selectWith(T, trainCSvc(labelsFor(T, A), P), A);
}

WorkloadEvaluation IpasPipeline::run() {
  obs::PhaseSpan Pipeline("pipeline",
                          obs::AttrSet().add("workload", W.name()));
  obs::TraceSink::event("pipeline.begin",
                        obs::AttrSet()
                            .add("workload", W.name())
                            .addHex("seed", Cfg.Seed)
                            .add("train_samples",
                                 static_cast<uint64_t>(Cfg.TrainSamples))
                            .add("eval_runs",
                                 static_cast<uint64_t>(Cfg.EvalRuns)));
  WorkloadEvaluation WE;
  WE.WorkloadName = W.name();
  {
    obs::PhaseSpan Setup("pipeline.setup");
    WE.LinesOfCode = Lexer::countCodeLines(W.source());
    ProtectedModule Unprot = protectNone();
    WE.StaticInstructions = Unprot.M->numInstructions();
  }

  WE.Training = collectAndTrain();

  obs::PhaseSpan Evaluation("pipeline.evaluation");

  // Every variant's protected module is built here, in the fixed variant
  // order, before any campaign runs.
  struct Pending {
    VariantEvaluation V;
    ProtectedModule PM;
    std::optional<SvmModel> Model; ///< The classifier that selected PM.
    uint64_t CampaignSeed = 0;
    uint64_t StoreSeed = 0; ///< The seed the variant's stores record.
  };
  std::vector<Pending> Jobs;
  auto Add = [&](std::string Label, Technique T, const RankedConfig &RC,
                 ProtectedModule PM, std::optional<SvmModel> Model,
                 uint64_t CampaignSeed, uint64_t StoreSeed) {
    Pending &J = Jobs.emplace_back();
    J.V.Label = std::move(Label);
    J.V.Tech = T;
    J.V.Config = RC;
    J.V.Dup = PM.Stats;
    J.PM = std::move(PM);
    J.Model = std::move(Model);
    J.CampaignSeed = CampaignSeed;
    J.StoreSeed = StoreSeed;
  };
  Add("unprotected", Technique::Unprotected, RankedConfig(), protectNone(),
      std::nullopt, Cfg.Seed ^ 0xE0, 0);
  Add("full", Technique::FullDup, RankedConfig(), protectAll(), std::nullopt,
      Cfg.Seed ^ 0xE1, Cfg.Seed ^ 0xE1);

  // Classification + duplication time (Table 6) covers only the model
  // application and the transform, not the evaluation campaigns (which in
  // the paper run as separate parallel fault-injection jobs).
  auto AddClassified = [&](std::string Label, Technique T,
                           const RankedConfig &RC, uint64_t Seed) {
    obs::PhaseSpan Span("pipeline.protect",
                        obs::AttrSet().add("technique", techniqueName(T)));
    SvmModel Model = trainCSvc(labelsFor(T, WE.Training), RC.Params);
    ProtectedModule PM = protect(selectWith(T, Model, WE.Training));
    WE.DuplicateSeconds += Span.seconds();
    Add(std::move(Label), T, RC, std::move(PM), std::move(Model), Seed,
        Seed);
  };
  for (unsigned K = 0; K != WE.Training.IpasConfigs.size(); ++K)
    AddClassified("ipas-" + std::to_string(K + 1), Technique::Ipas,
                  WE.Training.IpasConfigs[K], Cfg.Seed ^ (0x100 + K));
  for (unsigned K = 0; K != WE.Training.BaselineConfigs.size(); ++K)
    AddClassified("baseline-" + std::to_string(K + 1), Technique::Baseline,
                  WE.Training.BaselineConfigs[K], Cfg.Seed ^ (0x200 + K));

  std::optional<BaseProfile> Base;
  if (!Cfg.ProfileDir.empty())
    Base = profileUnprotected(*this);

  // A variant's clean value-step trace (4 bytes per value step) is its
  // largest buffer. Tasks trace into buffers reserved here, on the
  // calling thread, one per worker and handed from task to task: a trace
  // grown and freed on a worker thread would stay resident in that
  // thread's malloc arena. A shadow runs exactly when its original does,
  // so no variant has more than twice the unprotected run's value steps.
  bool NeedTrace = Cfg.InterproceduralAnalysis || !Cfg.RecordDir.empty();
  unsigned Workers = campaignWorkers();
  std::mutex TracesMu;
  std::vector<std::vector<unsigned>> Traces(
      NeedTrace ? std::min<size_t>(Workers, Jobs.size()) : 0);
  for (std::vector<unsigned> &T : Traces)
    T.reserve(2 * WE.Training.Campaign.CleanValueSteps);

  // The variants are the paper's separate fault-injection jobs: each
  // worker of the campaign pool evaluates whole variants, one campaign
  // thread each, so the phase keeps as many threads busy as one threaded
  // campaign would. A variant's harness and stores are freed when its
  // task ends.
  parallelFor(Jobs.size(), Workers, [&](size_t K) {
    Pending &J = Jobs[K];
    VariantEvaluation &V = J.V;
    obs::PhaseSpan Span("pipeline.variant",
                        obs::AttrSet()
                            .add("label", V.Label)
                            .add("technique", techniqueName(V.Tech)),
                        Evaluation);
    WorkloadHarness Harness(W, Cfg.InputLevel);
    Harness.setPreferredBackend(Cfg.Backend);
    // One clean value-step trace feeds both the pruning and the record.
    std::vector<unsigned> Trace;
    if (NeedTrace) {
      {
        std::lock_guard<std::mutex> Lock(TracesMu);
        Trace = std::move(Traces.back());
        Traces.pop_back();
      }
      if (Harness.run(*J.PM.Layout, nullptr, UINT64_MAX, {.Trace = &Trace})
              .Status != RunStatus::Finished)
        Trace.clear();
    }
    V.Campaign = evaluationCampaign(Harness, Cfg, J.PM, J.CampaignSeed,
                                    V.Label, 1, &Trace);
    Span.addAttr(obs::AttrSet()
                     .add("clean_steps", V.Campaign.CleanSteps)
                     .add("soc_rate", V.Campaign.fraction(Outcome::SOC)));
    if (!Cfg.RecordDir.empty())
      writeVariantRecord(W, Cfg, J.PM, V, WE.Training,
                         J.Model ? &*J.Model : nullptr, Trace, J.StoreSeed);
    if (Base)
      writeVariantProfile(W, Cfg, Harness, J.PM, *Base, V.Label);
    if (!Cfg.SessionDir.empty())
      writeVariantSession(W, Cfg, J.PM, V, J.StoreSeed);
    if (NeedTrace) {
      Trace.clear();
      std::lock_guard<std::mutex> Lock(TracesMu);
      Traces.push_back(std::move(Trace));
    }
  });

  // Slowdown and SOC reduction are relative to the unprotected campaign.
  const CampaignResult &Unprot = Jobs.front().V.Campaign;
  double UnprotSoc = Unprot.fraction(Outcome::SOC);
  double UnprotCleanSteps = static_cast<double>(Unprot.CleanSteps);
  for (Pending &J : Jobs) {
    VariantEvaluation &V = J.V;
    V.Slowdown = static_cast<double>(V.Campaign.CleanSteps) /
                 UnprotCleanSteps;
    double Soc = V.Campaign.fraction(Outcome::SOC);
    V.SocReductionPct =
        UnprotSoc > 0.0 ? 100.0 * (UnprotSoc - Soc) / UnprotSoc : 0.0;
  }
  for (Pending &J : Jobs)
    WE.Variants.push_back(std::move(J.V));
  obs::TraceSink::event(
      "pipeline.done",
      obs::AttrSet()
          .add("workload", WE.WorkloadName)
          .add("variants", static_cast<uint64_t>(WE.Variants.size()))
          .add("train_seconds", WE.Training.TrainSeconds)
          .add("duplicate_seconds", WE.DuplicateSeconds));
  return WE;
}

double IpasPipeline::scalabilitySlowdown(const ProtectedModule &PM,
                                         int NumRanks,
                                         int InputLevel) const {
  int Level = InputLevel ? InputLevel : Cfg.InputLevel;
  auto CleanCycles = [&](const ProtectedModule &Mod) {
    WorkloadHarness Harness(W, Level, NumRanks);
    Harness.setPreferredBackend(Cfg.Backend);
    ExecutionRecord R = Harness.execute(*Mod.Layout, nullptr, UINT64_MAX);
    if (R.Status != RunStatus::Finished || !R.OutputValid) {
      std::string What = R.Status == RunStatus::Finished
                             ? "failed verification"
                             : runStatusName(R.Status);
      if (R.Trap != TrapKind::None)
        What += std::string(" (") + trapKindName(R.Trap) + ")";
      throw std::runtime_error("scalabilitySlowdown: clean " +
                               std::to_string(NumRanks) + "-rank run of " +
                               W.name() + " " + What);
    }
    return static_cast<double>(R.CriticalPathCycles);
  };
  ProtectedModule Unprot = protectNone();
  return CleanCycles(PM) / CleanCycles(Unprot);
}
