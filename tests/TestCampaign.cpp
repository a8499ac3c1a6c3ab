//===- tests/TestCampaign.cpp - Fault-injection campaigns ---------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/SocPropagation.h"
#include "fault/Campaign.h"
#include "fault/FunctionHarness.h"
#include "fault/Incremental.h"
#include "transform/Duplication.h"

#include <atomic>
#include <stdexcept>

using namespace ipas;
using namespace ipas::testutil;

namespace {

/// The toy program's harness: f(25), verified against the clean return
/// value bit-exactly.
struct ToyHarness : FunctionHarness {
  ToyHarness() : FunctionHarness("f", {RtValue::fromI64(25)}) {}
};

const char *ToySrc =
    "int f(int n) {\n"
    "  double a[32];\n"
    "  for (int i = 0; i < 32; i = i + 1) a[i] = 1.0 * i;\n"
    "  double s = 0.0;\n"
    "  for (int k = 0; k < n; k = k + 1)\n"
    "    for (int i = 0; i < 32; i = i + 1)\n"
    "      s = s + a[i] * 1.0001 - 0.5;\n"
    "  return (int)(s * 1000.0);\n"
    "}\n";

/// ToySrc plus a dead computation chain in the hot loop: `t` is never
/// read, so after mem2reg (and with DCE deliberately not run by
/// testutil::compile) its chain survives as SSA instructions whose
/// corruption provably reaches no sink — injection sites the
/// SocPropagation pruner can classify as Masked without executing.
const char *ToySrcWithBenign =
    "int f(int n) {\n"
    "  double a[32];\n"
    "  for (int i = 0; i < 32; i = i + 1) a[i] = 1.0 * i;\n"
    "  double s = 0.0;\n"
    "  for (int k = 0; k < n; k = k + 1)\n"
    "    for (int i = 0; i < 32; i = i + 1) {\n"
    "      double t = s * 0.25 + 1.0;\n"
    "      t = t * 2.0;\n"
    "      s = s + a[i] * 1.0001 - 0.5;\n"
    "    }\n"
    "  return (int)(s * 1000.0);\n"
    "}\n";

/// ToyHarness whose run throws on one fault plan (the tenth it is
/// handed), as a harness whose execution fails outright would.
struct ThrowingHarness : ToyHarness {
  std::atomic<int> Planned{0};

  ExecutionRecord run(const ModuleLayout &Layout, const FaultPlan *Plan,
                      uint64_t StepBudget, const Instruments &With) override {
    if (Plan && Planned.fetch_add(1) == 9)
      throw std::runtime_error("harness failure");
    return ToyHarness::run(Layout, Plan, StepBudget, With);
  }
};

/// ToyHarness that answers every planned run with a clean run, as a
/// harness that drops its fault plan would: the run finishes with its
/// fault never fired.
struct UnfiredHarness : ToyHarness {
  ExecutionRecord run(const ModuleLayout &Layout, const FaultPlan *,
                      uint64_t StepBudget, const Instruments &With) override {
    return ToyHarness::run(Layout, nullptr, StepBudget, With);
  }
};

} // namespace

TEST(Campaign, ClassifyOutcomeMapping) {
  ExecutionRecord R;
  R.Status = RunStatus::Trapped;
  EXPECT_EQ(classifyOutcome(R), Outcome::Crash);
  R.Status = RunStatus::OutOfSteps;
  EXPECT_EQ(classifyOutcome(R), Outcome::Hang);
  R.Status = RunStatus::Detected;
  EXPECT_EQ(classifyOutcome(R), Outcome::Detected);
  R.Status = RunStatus::Finished;
  R.OutputValid = true;
  EXPECT_EQ(classifyOutcome(R), Outcome::Masked);
  R.OutputValid = false;
  EXPECT_EQ(classifyOutcome(R), Outcome::SOC);
  // A non-terminal run has no outcome; it must not be labeled Crash.
  for (RunStatus S : {RunStatus::Running, RunStatus::Blocked}) {
    R.Status = S;
    EXPECT_THROW(classifyOutcome(R), std::logic_error) << runStatusName(S);
  }
}

TEST(Campaign, SymptomBucket) {
  EXPECT_TRUE(isSymptom(Outcome::Crash));
  EXPECT_TRUE(isSymptom(Outcome::Hang));
  EXPECT_FALSE(isSymptom(Outcome::Detected));
  EXPECT_FALSE(isSymptom(Outcome::Masked));
  EXPECT_FALSE(isSymptom(Outcome::SOC));
}

TEST(Campaign, RunsRequestedInjections) {
  auto M = compile(ToySrc);
  ModuleLayout Layout(*M);
  ToyHarness H;
  CampaignConfig CC;
  CC.NumRuns = 100;
  CC.Seed = 11;
  CampaignResult R = runCampaign(H, Layout, CC);
  EXPECT_EQ(R.Records.size(), 100u);
  EXPECT_EQ(R.totalRuns(), 100u);
  EXPECT_GT(R.CleanSteps, 0u);
  EXPECT_GT(R.CleanValueSteps, 0u);
  size_t Sum = 0;
  for (Outcome O : {Outcome::Crash, Outcome::Hang, Outcome::Detected,
                    Outcome::Masked, Outcome::SOC})
    Sum += R.count(O);
  EXPECT_EQ(Sum, 100u);
  // The toy program is unprotected: nothing can be Detected.
  EXPECT_EQ(R.count(Outcome::Detected), 0u);
}

TEST(Campaign, DeterministicForSameSeed) {
  auto M = compile(ToySrc);
  ModuleLayout Layout(*M);
  CampaignConfig CC;
  CC.NumRuns = 60;
  CC.Seed = 42;
  ToyHarness H1, H2;
  CampaignResult A = runCampaign(H1, Layout, CC);
  CampaignResult B = runCampaign(H2, Layout, CC);
  ASSERT_EQ(A.Records.size(), B.Records.size());
  for (size_t I = 0; I != A.Records.size(); ++I) {
    EXPECT_EQ(A.Records[I].InstructionId, B.Records[I].InstructionId);
    EXPECT_EQ(A.Records[I].Result, B.Records[I].Result);
  }
}

TEST(Campaign, DifferentSeedsSampleDifferently) {
  auto M = compile(ToySrc);
  ModuleLayout Layout(*M);
  CampaignConfig A, B;
  A.NumRuns = B.NumRuns = 40;
  A.Seed = 1;
  B.Seed = 2;
  ToyHarness H1, H2;
  CampaignResult RA = runCampaign(H1, Layout, A);
  CampaignResult RB = runCampaign(H2, Layout, B);
  int Different = 0;
  for (size_t I = 0; I != 40; ++I)
    if (RA.Records[I].TargetValueStep != RB.Records[I].TargetValueStep)
      ++Different;
  EXPECT_GT(Different, 30);
}

TEST(Campaign, RecordsReferenceValidInstructionIds) {
  auto M = compile(ToySrc);
  ModuleLayout Layout(*M);
  ToyHarness H;
  CampaignConfig CC;
  CC.NumRuns = 80;
  CampaignResult R = runCampaign(H, Layout, CC);
  size_t NumInsts = M->numInstructions();
  for (const InjectionRecord &Rec : R.Records)
    EXPECT_LT(Rec.InstructionId, NumInsts);
}

TEST(Campaign, ProtectedProgramDetectsFaults) {
  auto M = compile(ToySrc);
  duplicateAllInstructions(*M);
  M->renumber();
  ModuleLayout Layout(*M);
  ToyHarness H;
  CampaignConfig CC;
  CC.NumRuns = 150;
  CC.Seed = 77;
  CampaignResult R = runCampaign(H, Layout, CC);
  EXPECT_GT(R.count(Outcome::Detected), 0u);
  // SOC under full duplication must be well below the unprotected rate.
  auto M2 = compile(ToySrc);
  ModuleLayout Layout2(*M2);
  ToyHarness H2;
  CampaignResult Unprot = runCampaign(H2, Layout2, CC);
  EXPECT_LT(R.fraction(Outcome::SOC), Unprot.fraction(Outcome::SOC));
}

// Regression: the per-record (InstructionId, BitIndex, Result) stream is
// a campaign invariant. Neither the thread count nor ProvablyBenign
// pruning may perturb it — plans are pre-drawn from the seed, and pruning
// only classifies runs without executing them. A change that breaks this
// silently invalidates every cached campaign result and cross-run diff.
TEST(Campaign, RecordStreamInvariantAcrossThreadsAndPruning) {
  auto M = compile(ToySrcWithBenign);
  ModuleLayout Layout(*M);
  SocPropagation Soc(*M);
  ASSERT_GT(Soc.numBenign(), 0u)
      << "dead chain in ToySrcWithBenign was not classified benign";
  const std::vector<bool> &Benign = Soc.provablyBenign();

  struct Variant {
    unsigned NumThreads;
    const std::vector<bool> *Pruning;
  };
  const Variant Variants[] = {
      {1, nullptr}, {4, nullptr}, {1, &Benign}, {4, &Benign}};

  std::vector<CampaignResult> Results;
  for (const Variant &V : Variants) {
    ToyHarness H;
    CampaignConfig CC;
    CC.NumRuns = 200;
    CC.Seed = 1905;
    CC.NumThreads = V.NumThreads;
    CC.ProvablyBenign = V.Pruning;
    Results.push_back(runCampaign(H, Layout, CC));
  }

  const CampaignResult &Base = Results[0];
  ASSERT_EQ(Base.Records.size(), 200u);
  EXPECT_EQ(Base.PrunedRuns, 0u);
  for (size_t V = 1; V != Results.size(); ++V) {
    const CampaignResult &R = Results[V];
    ASSERT_EQ(R.Records.size(), Base.Records.size())
        << "variant " << V << " changed the number of records";
    for (size_t I = 0; I != Base.Records.size(); ++I) {
      EXPECT_EQ(R.Records[I].InstructionId, Base.Records[I].InstructionId)
          << "variant " << V << ", record " << I;
      EXPECT_EQ(R.Records[I].BitIndex, Base.Records[I].BitIndex)
          << "variant " << V << ", record " << I;
      EXPECT_EQ(R.Records[I].Result, Base.Records[I].Result)
          << "variant " << V << ", record " << I;
    }
  }
  // The pruned variants must actually have pruned something (the dead
  // chain sits in the hot loop, so the sampler hits it), and pruning must
  // never fire without a benign map.
  EXPECT_EQ(Results[1].PrunedRuns, 0u);
  EXPECT_GT(Results[2].PrunedRuns, 0u);
  EXPECT_GT(Results[2].PrunedSites, 0u);
  EXPECT_EQ(Results[2].PrunedRuns, Results[3].PrunedRuns);
  EXPECT_EQ(Results[2].PrunedSites, Results[3].PrunedSites);
}

TEST(Campaign, FractionsSumToOne) {
  auto M = compile(ToySrc);
  ModuleLayout Layout(*M);
  ToyHarness H;
  CampaignConfig CC;
  CC.NumRuns = 50;
  CampaignResult R = runCampaign(H, Layout, CC);
  double Sum = 0;
  for (Outcome O : {Outcome::Crash, Outcome::Hang, Outcome::Detected,
                    Outcome::Masked, Outcome::SOC})
    Sum += R.fraction(O);
  EXPECT_NEAR(Sum, 1.0, 1e-12);
}

// A run that throws on a pooled worker stops the campaign and reaches the
// caller once every worker (and the heartbeat monitor) has joined; it
// must never take the process down through std::terminate.
TEST(Campaign, ThrowingRunPropagatesFromThreadedCampaign) {
  auto M = compile(ToySrc);
  ModuleLayout Layout(*M);
  ThrowingHarness H;
  CampaignConfig CC;
  CC.NumRuns = 200;
  CC.NumThreads = 4;
  CC.HeartbeatMs = 1;
  EXPECT_THROW(runCampaign(H, Layout, CC), std::runtime_error);
}

TEST(Campaign, ThrowingRunPropagatesFromThreadedIncrementalCampaign) {
  auto M = compile(ToySrc);
  ModuleLayout Layout(*M);
  ThrowingHarness H;
  IncrementalConfig Cfg;
  Cfg.Base.NumRuns = 200;
  Cfg.Base.NumThreads = 4;
  EXPECT_THROW(runIncrementalCampaign(H, Layout, *M, Cfg),
               std::runtime_error);
}

// A finished run whose fault never fired would be classified Masked and
// inflate masking; the campaign loop refuses it in every build, including
// NDEBUG ones, and names the campaign, the run and its target step.
TEST(Campaign, UnfiredFaultIsAnError) {
  auto M = compile(ToySrc);
  ModuleLayout Layout(*M);
  for (unsigned Threads : {1u, 4u}) {
    UnfiredHarness H;
    CampaignConfig CC;
    CC.NumRuns = 40;
    CC.NumThreads = Threads;
    CC.Label = "unfired";
    try {
      runCampaign(H, Layout, CC);
      ADD_FAILURE() << "no error at " << Threads << " threads";
    } catch (const std::logic_error &E) {
      EXPECT_NE(std::string(E.what()).find("unfired: run "),
                std::string::npos)
          << E.what();
      EXPECT_NE(std::string(E.what()).find("target value step "),
                std::string::npos)
          << E.what();
    }
  }
}

TEST(Campaign, UnfiredFaultIsAnErrorIncremental) {
  auto M = compile(ToySrc);
  ModuleLayout Layout(*M);
  for (unsigned Threads : {1u, 4u}) {
    UnfiredHarness H;
    IncrementalConfig Cfg;
    Cfg.Base.NumRuns = 40;
    Cfg.Base.NumThreads = Threads;
    EXPECT_THROW(runIncrementalCampaign(H, Layout, *M, Cfg),
                 std::logic_error)
        << Threads << " threads";
  }
}
