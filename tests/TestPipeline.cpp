//===- tests/TestPipeline.cpp - End-to-end IPAS workflow ----------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "analysis/FunctionSummary.h"
#include "obs/RecordStore.h"
#include "support/ParallelFor.h"
#include "support/Statistics.h"
#include "workloads/WorkloadHarness.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <stdexcept>

using namespace ipas;

namespace {

/// Small-but-meaningful configuration shared by the pipeline tests: IS is
/// the cheapest workload, and these sizes keep each test in seconds.
PipelineConfig tinyConfig() {
  PipelineConfig Cfg = PipelineConfig::defaults();
  Cfg.TrainSamples = 150;
  Cfg.EvalRuns = 120;
  Cfg.Grid.CSteps = 3;
  Cfg.Grid.GammaSteps = 3;
  Cfg.Grid.Folds = 3;
  Cfg.TopN = 2;
  Cfg.Seed = 0xBEEF;
  return Cfg;
}

/// The full evaluation is expensive; compute it once for the suite. It
/// also writes per-variant .iprec record stores into the temp dir so
/// RecordDirWritesInspectableStores can audit them without a second run.
const WorkloadEvaluation &isEvaluation() {
  static WorkloadEvaluation WE = [] {
    auto W = makeWorkload("IS");
    PipelineConfig Cfg = tinyConfig();
    Cfg.RecordDir = ::testing::TempDir();
    IpasPipeline P(*W, Cfg);
    return P.run();
  }();
  return WE;
}

} // namespace

TEST(Pipeline, TrainingProducesBothLabelings) {
  auto W = makeWorkload("IS");
  PipelineConfig Cfg = tinyConfig();
  IpasPipeline P(*W, Cfg);
  TrainingArtifacts A = P.collectAndTrain();
  EXPECT_EQ(A.Campaign.Records.size(), Cfg.TrainSamples);
  EXPECT_EQ(A.IpasData.size(), Cfg.TrainSamples);
  EXPECT_EQ(A.BaselineData.size(), Cfg.TrainSamples);
  // SOC-generating samples are the minority class (class imbalance,
  // §4.3.1) yet must be present to train at all.
  size_t Soc = A.IpasData.countLabel(1);
  EXPECT_GT(Soc, 0u);
  EXPECT_LT(Soc, Cfg.TrainSamples / 2);
  EXPECT_GT(A.BaselineData.countLabel(1), 0u);
  ASSERT_FALSE(A.IpasConfigs.empty());
  EXPECT_LE(A.IpasConfigs.size(), static_cast<size_t>(Cfg.TopN));
  EXPECT_GT(A.IpasConfigs.front().FScore, 0.0);
  EXPECT_GT(A.TrainSeconds, 0.0);
  // Features cover every instruction of the module.
  EXPECT_EQ(A.Features.size(),
            compileWorkload(*W)->numInstructions());
}

// The pipeline runs its campaigns on campaignWorkers() threads. The training
// campaign and the unprotected evaluation campaign must still match a
// serial runCampaign with the same seed, harness and configuration
// record for record (latency is wall-clock, so it is left out).
TEST(Pipeline, ThreadedCampaignsMatchSerialRecordForRecord) {
  auto W = makeWorkload("IS");
  PipelineConfig Cfg = tinyConfig();
  IpasPipeline P(*W, Cfg);
  IpasPipeline::ProtectedModule Unprot = P.protectNone();
  auto Serial = [&](size_t Runs, uint64_t Seed) {
    WorkloadHarness Harness(*W, Cfg.InputLevel);
    CampaignConfig CC;
    CC.NumRuns = Runs;
    CC.HangFactor = Cfg.HangFactor;
    CC.Seed = Seed;
    CC.Backend = Cfg.Backend;
    CC.NumThreads = 1;
    return runCampaign(Harness, *Unprot.Layout, CC);
  };
  auto ExpectSame = [](const CampaignResult &Threaded,
                       const CampaignResult &Ref, const char *What) {
    EXPECT_EQ(Threaded.Threads,
              std::min<size_t>(campaignWorkers(), Ref.Records.size()))
        << What;
    EXPECT_EQ(Ref.Threads, 1u) << What;
    ASSERT_EQ(Threaded.Records.size(), Ref.Records.size()) << What;
    for (size_t I = 0; I != Ref.Records.size(); ++I) {
      const InjectionRecord &A = Threaded.Records[I], &B = Ref.Records[I];
      EXPECT_EQ(A.InstructionId, B.InstructionId) << What << " record " << I;
      EXPECT_EQ(A.BitIndex, B.BitIndex) << What << " record " << I;
      EXPECT_EQ(A.TargetValueStep, B.TargetValueStep)
          << What << " record " << I;
      EXPECT_EQ(A.Result, B.Result) << What << " record " << I;
    }
    EXPECT_EQ(Threaded.Counts, Ref.Counts) << What;
    EXPECT_EQ(Threaded.CleanSteps, Ref.CleanSteps) << What;
  };

  TrainingArtifacts A = P.collectAndTrain(/*RunGridSearch=*/false);
  ExpectSame(A.Campaign, Serial(Cfg.TrainSamples, Cfg.Seed ^ 0x7121117),
             "training");
  uint64_t EvalSeed = Cfg.Seed ^ 0xE0;
  ExpectSame(P.evaluate(Unprot, EvalSeed, 0, "unprotected"),
             Serial(Cfg.EvalRuns, EvalSeed), "unprotected");
}

// run() evaluates its variants concurrently, one single-threaded campaign
// per variant, with pruning fed by the trace that also feeds the record
// store. Every variant must still match a serial runCampaign of the same
// protected module, seed and pruning analysis, pruned rows included.
TEST(Pipeline, ConcurrentEvaluationMatchesSerialCampaigns) {
  auto W = makeWorkload("IS");
  PipelineConfig Cfg = tinyConfig();
  ASSERT_EQ(Cfg.TopN, 2u);
  Cfg.InterproceduralAnalysis = true;
  Cfg.RecordDir = ::testing::TempDir() + "concurrent_eval";
  std::filesystem::create_directories(Cfg.RecordDir);
  IpasPipeline P(*W, Cfg);
  WorkloadEvaluation WE = P.run();
  ASSERT_EQ(WE.Variants.size(), 2u + WE.Training.IpasConfigs.size() +
                                    WE.Training.BaselineConfigs.size());

  auto Rebuild = [&](const VariantEvaluation &V) {
    switch (V.Tech) {
    case Technique::Unprotected:
      return P.protectNone();
    case Technique::FullDup:
      return P.protectAll();
    default:
      return P.protect(
          P.selectInstructions(V.Tech, V.Config.Params, WE.Training));
    }
  };
  auto SeedOf = [&](const VariantEvaluation &V) -> uint64_t {
    if (V.Tech == Technique::Unprotected)
      return Cfg.Seed ^ 0xE0;
    if (V.Tech == Technique::FullDup)
      return Cfg.Seed ^ 0xE1;
    uint64_t K = std::stoul(V.Label.substr(V.Label.find('-') + 1)) - 1;
    return Cfg.Seed ^ ((V.Tech == Technique::Ipas ? 0x100 : 0x200) + K);
  };
  size_t Pruned = 0;
  for (const VariantEvaluation &V : WE.Variants) {
    IpasPipeline::ProtectedModule PM = Rebuild(V);
    EXPECT_EQ(PM.Stats.DuplicatedInstructions, V.Dup.DuplicatedInstructions)
        << V.Label;
    WorkloadHarness Harness(*W, Cfg.InputLevel);
    CampaignConfig CC;
    CC.NumRuns = Cfg.EvalRuns;
    CC.HangFactor = Cfg.HangFactor;
    CC.Seed = SeedOf(V);
    CC.Backend = Cfg.Backend;
    CC.NumThreads = 1;
    CallGraph CG(*PM.M);
    ModuleSummaries Summaries(*PM.M, CG);
    SocPropagation Soc(*PM.M, Summaries);
    CC.ProvablyBenign = &Soc.provablyBenign();
    CampaignResult Ref = runCampaign(Harness, *PM.Layout, CC);

    const CampaignResult &C = V.Campaign;
    EXPECT_EQ(C.Threads, 1u) << V.Label;
    ASSERT_EQ(C.Records.size(), Ref.Records.size()) << V.Label;
    for (size_t I = 0; I != Ref.Records.size(); ++I) {
      const InjectionRecord &A = C.Records[I], &B = Ref.Records[I];
      EXPECT_EQ(A.InstructionId, B.InstructionId) << V.Label << " " << I;
      EXPECT_EQ(A.BitIndex, B.BitIndex) << V.Label << " " << I;
      EXPECT_EQ(A.TargetValueStep, B.TargetValueStep) << V.Label << " " << I;
      EXPECT_EQ(A.Result, B.Result) << V.Label << " " << I;
    }
    EXPECT_EQ(C.Counts, Ref.Counts) << V.Label;
    EXPECT_EQ(C.CleanSteps, Ref.CleanSteps) << V.Label;
    EXPECT_EQ(C.PrunedRuns, Ref.PrunedRuns) << V.Label;
    Pruned += C.PrunedRuns;
  }
  EXPECT_GT(Pruned, 0u);
  std::filesystem::remove_all(Cfg.RecordDir);
}

TEST(Pipeline, SelectInstructionsDiffersByTechnique) {
  auto W = makeWorkload("IS");
  IpasPipeline P(*W, tinyConfig());
  TrainingArtifacts A = P.collectAndTrain();
  auto IpasIds = P.selectInstructions(Technique::Ipas,
                                      A.IpasConfigs.front().Params, A);
  auto BaseIds = P.selectInstructions(Technique::Baseline,
                                      A.BaselineConfigs.front().Params, A);
  EXPECT_GT(IpasIds.size(), 0u);
  EXPECT_GT(BaseIds.size(), 0u);
  // The shoestring-style baseline overprotects relative to IPAS — the
  // paper's central claim (Figure 7).
  EXPECT_GT(BaseIds.size(), IpasIds.size());
}

// Only the two classifier techniques select instructions. The reference
// techniques must be rejected in every build rather than silently
// training on the baseline labels.
TEST(Pipeline, SelectInstructionsRejectsReferenceTechniques) {
  auto W = makeWorkload("IS");
  IpasPipeline P(*W, tinyConfig());
  TrainingArtifacts A = P.collectAndTrain(/*RunGridSearch=*/false);
  for (Technique T : {Technique::Unprotected, Technique::FullDup})
    EXPECT_THROW(P.selectInstructions(T, SvmParams(), A),
                 std::invalid_argument)
        << techniqueName(T);
}

TEST(Pipeline, FullEvaluationShapesMatchPaper) {
  const WorkloadEvaluation &WE = isEvaluation();
  ASSERT_GE(WE.Variants.size(), 4u);

  const VariantEvaluation *Unprot = WE.variant("unprotected");
  const VariantEvaluation *Full = WE.variant("full");
  ASSERT_TRUE(Unprot && Full);

  // Unprotected: no checks, slowdown 1, some SOC.
  EXPECT_EQ(Unprot->Dup.DuplicatedInstructions, 0u);
  EXPECT_DOUBLE_EQ(Unprot->Slowdown, 1.0);
  double UnprotSoc = Unprot->Campaign.fraction(Outcome::SOC);
  EXPECT_GT(UnprotSoc, 0.0);
  EXPECT_EQ(Unprot->Campaign.count(Outcome::Detected), 0u);

  // Full duplication: detects faults, reduces SOC, costs the most.
  EXPECT_GT(Full->Campaign.count(Outcome::Detected), 0u);
  EXPECT_LT(Full->Campaign.fraction(Outcome::SOC), UnprotSoc);
  EXPECT_GT(Full->Slowdown, 1.2);

  for (const VariantEvaluation &V : WE.Variants) {
    if (V.Tech != Technique::Ipas && V.Tech != Technique::Baseline)
      continue;
    // Every classifier-guided variant must cost less than full
    // duplication and reduce SOC meaningfully.
    EXPECT_LT(V.Slowdown, Full->Slowdown) << V.Label;
    EXPECT_GT(V.SocReductionPct, 20.0) << V.Label;
    EXPECT_GT(V.Campaign.count(Outcome::Detected), 0u) << V.Label;
    EXPECT_LT(V.Dup.DuplicatedInstructions,
              Full->Dup.DuplicatedInstructions)
        << V.Label;
  }
}

// The evaluation's RecordDir must hold one parseable .iprec per variant
// whose outcome totals equal the variant's campaign counts, with
// classifier columns populated for the classifier-guided variants.
TEST(Pipeline, RecordDirWritesInspectableStores) {
  const WorkloadEvaluation &WE = isEvaluation();
  for (const VariantEvaluation &V : WE.Variants) {
    std::string Path =
        ::testing::TempDir() + "IS-" + V.Label + ".iprec";
    obs::RecordStore S;
    std::string Err;
    ASSERT_TRUE(obs::readRecordStore(S, Path, &Err)) << Path << ": " << Err;
    EXPECT_EQ(S.Label, V.Label);
    // The seed of the variant's own campaign, so it can be re-run.
    const std::map<std::string, uint64_t> SeedMask = {
        {"unprotected", 0xE0}, {"full", 0xE1},        {"ipas-1", 0x100},
        {"ipas-2", 0x101},     {"baseline-1", 0x200}, {"baseline-2", 0x201}};
    ASSERT_TRUE(SeedMask.count(V.Label)) << V.Label;
    EXPECT_EQ(S.Seed, tinyConfig().Seed ^ SeedMask.at(V.Label)) << V.Label;
    EXPECT_EQ(S.Rows.size(), V.Campaign.Records.size()) << V.Label;
    ASSERT_EQ(S.OutcomeTotals.size(), static_cast<size_t>(NumOutcomes));
    for (unsigned O = 0; O != NumOutcomes; ++O)
      EXPECT_EQ(S.OutcomeTotals[O], V.Campaign.Counts[O])
          << V.Label << " outcome " << O;
    EXPECT_FALSE(S.SourceText.empty());

    bool AnyPrediction = false, AnyLoc = false;
    for (const obs::InstrRecord &I : S.Instructions) {
      AnyPrediction |= I.Predicted != obs::PredictNone;
      AnyLoc |= I.Line > 0;
    }
    EXPECT_TRUE(AnyLoc) << V.Label;
    bool Classifier =
        V.Tech == Technique::Ipas || V.Tech == Technique::Baseline;
    EXPECT_EQ(AnyPrediction, Classifier) << V.Label;
  }
}

TEST(Pipeline, BestVariantUsesIdealPointCriterion) {
  const WorkloadEvaluation &WE = isEvaluation();
  const VariantEvaluation *Best = WE.bestVariant(Technique::Ipas);
  ASSERT_TRUE(Best);
  double BestDist =
      euclideanDistance(Best->Slowdown, Best->SocReductionPct, 1.0, 100.0);
  for (const VariantEvaluation &V : WE.Variants) {
    if (V.Tech == Technique::Ipas) {
      EXPECT_LE(BestDist, euclideanDistance(V.Slowdown, V.SocReductionPct,
                                            1.0, 100.0) +
                              1e-12);
    }
  }
}

TEST(Pipeline, ScalabilitySlowdownStaysBounded) {
  auto W = makeWorkload("IS");
  IpasPipeline P(*W, tinyConfig());
  auto PM = P.protectAll();
  double S1 = P.scalabilitySlowdown(PM, 1);
  double S4 = P.scalabilitySlowdown(PM, 4);
  EXPECT_GT(S1, 1.0);
  EXPECT_GT(S4, 1.0);
  // Duplication instruments computation only (§6.4): scaling up must not
  // inflate the slowdown.
  EXPECT_LT(S4, S1 * 1.25);
}

// The Figure 8 sweep runs on the configured engine; its critical-path
// ratios must not depend on which one.
TEST(Pipeline, ScalabilitySlowdownIsEngineIndependent) {
  auto W = makeWorkload("IS");
  PipelineConfig Cfg = tinyConfig();
  std::vector<double> Sweep[2];
  for (ExecBackend B : {ExecBackend::Interp, ExecBackend::Vm}) {
    Cfg.Backend = B;
    IpasPipeline P(*W, Cfg);
    auto PM = P.protectAll();
    for (int Ranks : {1, 2, 4, 8})
      Sweep[static_cast<size_t>(B)].push_back(
          P.scalabilitySlowdown(PM, Ranks));
  }
  EXPECT_EQ(Sweep[0], Sweep[1]);
}

namespace {

/// A workload whose clean runs fail: its output region does not fit the
/// heap (Trapped, OutOfMemory), or it rejects every output.
class BrokenWorkload : public Workload {
public:
  explicit BrokenWorkload(bool Oversized) : Oversized(Oversized) {}
  std::string name() const override {
    return Oversized ? "oversized" : "rejecting";
  }
  std::string description() const override { return "test only"; }
  std::string source() const override {
    return "int run(int n, double* out) { out[0] = 1.0 * n; return 0; }";
  }
  std::vector<int64_t> inputParams(int) const override { return {3}; }
  std::string inputDescription(int) const override { return "n = 3"; }
  uint64_t outputSlots(const std::vector<int64_t> &) const override {
    return Oversized ? 1024 : 1;
  }
  Memory::Config memoryConfig(const std::vector<int64_t> &) const override {
    Memory::Config C;
    C.HeapBytes = 4096; // 512 slots
    return C;
  }
  bool verify(const std::vector<RtValue> &, const std::vector<RtValue> &,
              const std::vector<int64_t> &) const override {
    return false;
  }

private:
  bool Oversized;
};

} // namespace

// A failed clean run must not turn into a slowdown ratio in the shipped
// build (the check used to be an assert): the error names the workload,
// the rank count and what went wrong.
TEST(Pipeline, ScalabilitySlowdownRejectsFailedCleanRun) {
  struct Case {
    bool Oversized;
    const char *Expect;
  };
  for (const Case &C :
       {Case{true, "clean 2-rank run of oversized trapped (heap exhausted)"},
        Case{false, "clean 2-rank run of rejecting failed verification"}}) {
    BrokenWorkload W(C.Oversized);
    for (ExecBackend B : {ExecBackend::Interp, ExecBackend::Vm}) {
      SCOPED_TRACE(std::string(W.name()) + " on " + backendName(B));
      PipelineConfig Cfg = tinyConfig();
      Cfg.Backend = B;
      IpasPipeline P(W, Cfg);
      try {
        P.scalabilitySlowdown(P.protectNone(), 2);
        ADD_FAILURE() << "no error for a failed clean run";
      } catch (const std::runtime_error &E) {
        EXPECT_NE(std::string(E.what()).find(C.Expect), std::string::npos)
            << E.what();
      }
    }
  }
}

TEST(Pipeline, TechniqueNames) {
  EXPECT_STREQ(techniqueName(Technique::Unprotected), "unprotected");
  EXPECT_STREQ(techniqueName(Technique::FullDup), "full-duplication");
  EXPECT_STREQ(techniqueName(Technique::Ipas), "ipas");
  EXPECT_STREQ(techniqueName(Technique::Baseline), "baseline");
}
