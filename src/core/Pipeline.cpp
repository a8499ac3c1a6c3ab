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

#include <stdexcept>

using namespace ipas;

namespace {

/// Writes the .iprec provenance record for one evaluated variant into
/// Cfg.RecordDir. Classifier columns (score, prediction) are attached by
/// exploiting the duplication layout: shadows and checks are inserted
/// after their originals and renumber() preserves order, so the k-th
/// non-shadow, non-check instruction of the protected module corresponds
/// to unprotected instruction id k. When that correspondence does not
/// hold (counts differ), the columns are left empty rather than guessed.
void writeVariantRecord(const Workload &W, const PipelineConfig &Cfg,
                        const IpasPipeline::ProtectedModule &PM,
                        const VariantEvaluation &V,
                        const TrainingArtifacts &A, uint64_t Seed) {
  std::vector<Instruction *> Insts = PM.M->allInstructions();

  std::vector<double> Scores;
  std::vector<int> Predictions;
  bool WantClassifier =
      V.Tech == Technique::Ipas || V.Tech == Technique::Baseline;
  if (WantClassifier) {
    size_t NumOriginal = 0;
    for (const Instruction *I : Insts)
      if (I->dupRole() != DupRole::Shadow && I->dupRole() != DupRole::Check)
        ++NumOriginal;
    if (NumOriginal == A.Features.size()) {
      const Dataset &Data =
          V.Tech == Technique::Ipas ? A.IpasData : A.BaselineData;
      SvmModel Model = trainCSvc(Data, V.Config.Params);
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
        Scores[I->id()] = Model.decision(X);
        Predictions[I->id()] = Model.predict(X);
      }
    }
  }

  WorkloadHarness Harness(W, Cfg.InputLevel);
  Harness.setPreferredBackend(Cfg.Backend);
  std::vector<unsigned> StepTrace = Harness.traceValueSteps(*PM.Layout);

  FeatureExtractor Extractor;
  std::vector<std::vector<double>> Rows = Extractor.extractModuleRows(*PM.M);
  std::vector<double> Flat;
  Flat.reserve(Rows.size() * Extractor.numFeatures());
  for (const std::vector<double> &Row : Rows)
    Flat.insert(Flat.end(), Row.begin(), Row.end());

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

  std::string Path = Cfg.RecordDir + "/" + W.name() + "-" + V.Label +
                     ".iprec";
  std::string Err;
  if (!writeCampaignRecord(buildRecordStore(In), Path, &Err))
    std::fprintf(stderr, "warning: cannot write record store: %s\n",
                 Err.c_str());
}

/// Writes the .ipprof cost profile for one evaluated variant into
/// Cfg.ProfileDir: a counting-mode profiled clean run of the variant,
/// with per-site protection overhead attributed against a freshly
/// compiled unprotected build profiled on the same input. All runs are
/// serial and happen after the variant's campaign, so the record stream
/// is untouched.
void writeVariantProfile(const Workload &W, const PipelineConfig &Cfg,
                         const IpasPipeline &P,
                         const IpasPipeline::ProtectedModule &PM,
                         const std::string &Label) {
  WorkloadHarness Harness(W, Cfg.InputLevel);
  // Counting-mode profiling runs natively on either backend, so the
  // profiled clean runs honor the pipeline's backend choice the same
  // way its campaigns do.
  Harness.setPreferredBackend(Cfg.Backend);
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

  IpasPipeline::ProtectedModule Base = P.protectNone();
  WorkloadHarness BaseHarness(W, Cfg.InputLevel);
  BaseHarness.setPreferredBackend(Cfg.Backend);
  CostProfiler BaseProf(*Base.Layout, CostProfiler::Mode::Counting,
                        Prof.model());
  ExecutionRecord R = BaseHarness.run(*Base.Layout, nullptr, UINT64_MAX,
                                      {.Prof = &BaseProf});
  if (R.Status == RunStatus::Finished && R.OutputValid) {
    if (!attributeOverhead(*Base.M, BaseProf.flatCounts(), *PM.M,
                           Prof.flatCounts(), Prof.model(), S, &Err))
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
  CampaignConfig CC;
  CC.NumRuns = Cfg.EvalRuns;
  CC.HangFactor = Cfg.HangFactor;
  CC.Seed = Seed;
  CC.Label = Label;
  CC.NumThreads = campaignWorkers();
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
  return runCampaign(Harness, *PM.Layout, CC);
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
  const Dataset &Data =
      T == Technique::Ipas ? A.IpasData : A.BaselineData;
  SvmModel Model = trainCSvc(Data, P);

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

  // Reference variants.
  ProtectedModule Unprot = protectNone();
  CampaignResult UnprotCampaign =
      evaluate(Unprot, Cfg.Seed ^ 0xE0, 0, "unprotected");
  double UnprotSoc = UnprotCampaign.fraction(Outcome::SOC);
  double UnprotCleanSteps =
      static_cast<double>(UnprotCampaign.CleanSteps);

  auto MakeVariant = [&](std::string Label, Technique T,
                         const RankedConfig &RC, ProtectedModule PM,
                         uint64_t Seed) {
    obs::PhaseSpan Span("pipeline.variant",
                        obs::AttrSet()
                            .add("label", Label)
                            .add("technique", techniqueName(T)));
    VariantEvaluation V;
    V.Label = std::move(Label);
    V.Tech = T;
    V.Config = RC;
    V.Dup = PM.Stats;
    V.Campaign = T == Technique::Unprotected
                     ? UnprotCampaign
                     : evaluate(PM, Seed, 0, V.Label);
    V.Slowdown = static_cast<double>(V.Campaign.CleanSteps) /
                 UnprotCleanSteps;
    double Soc = V.Campaign.fraction(Outcome::SOC);
    V.SocReductionPct =
        UnprotSoc > 0.0 ? 100.0 * (UnprotSoc - Soc) / UnprotSoc : 0.0;
    Span.addAttr(obs::AttrSet()
                     .add("slowdown", V.Slowdown)
                     .add("soc_reduction_pct", V.SocReductionPct));
    if (!Cfg.RecordDir.empty())
      writeVariantRecord(W, Cfg, PM, V, WE.Training, Seed);
    if (!Cfg.ProfileDir.empty())
      writeVariantProfile(W, Cfg, *this, PM, V.Label);
    if (!Cfg.SessionDir.empty())
      writeVariantSession(W, Cfg, PM, V, Seed);
    WE.Variants.push_back(std::move(V));
  };

  MakeVariant("unprotected", Technique::Unprotected, RankedConfig(),
              std::move(Unprot), 0);
  MakeVariant("full", Technique::FullDup, RankedConfig(), protectAll(),
              Cfg.Seed ^ 0xE1);

  // Classification + duplication time (Table 6) covers only the model
  // application and the transform, not the evaluation campaigns (which in
  // the paper run as separate parallel fault-injection jobs).
  auto TimedProtect = [&](Technique T, const RankedConfig &RC) {
    obs::PhaseSpan Span("pipeline.protect",
                        obs::AttrSet().add("technique", techniqueName(T)));
    std::set<unsigned> Ids = selectInstructions(T, RC.Params, WE.Training);
    ProtectedModule PM = protect(Ids);
    WE.DuplicateSeconds += Span.seconds();
    return PM;
  };
  for (unsigned K = 0; K != WE.Training.IpasConfigs.size(); ++K) {
    const RankedConfig &RC = WE.Training.IpasConfigs[K];
    MakeVariant("ipas-" + std::to_string(K + 1), Technique::Ipas, RC,
                TimedProtect(Technique::Ipas, RC), Cfg.Seed ^ (0x100 + K));
  }
  for (unsigned K = 0; K != WE.Training.BaselineConfigs.size(); ++K) {
    const RankedConfig &RC = WE.Training.BaselineConfigs[K];
    MakeVariant("baseline-" + std::to_string(K + 1), Technique::Baseline,
                RC, TimedProtect(Technique::Baseline, RC),
                Cfg.Seed ^ (0x200 + K));
  }
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
