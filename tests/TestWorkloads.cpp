//===- tests/TestWorkloads.cpp - The five paper workloads ---------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/SocPropagation.h"
#include "fault/Campaign.h"
#include "fault/FunctionHarness.h"
#include "interp/CostProfiler.h"
#include "obs/Metrics.h"
#include "transform/Duplication.h"
#include "vm/Bytecode.h"
#include "workloads/WorkloadHarness.h"

#include <cmath>
#include <optional>

using namespace ipas;
using namespace ipas::testutil;

namespace {

class WorkloadSuite : public ::testing::TestWithParam<const char *> {
protected:
  std::unique_ptr<Workload> W = makeWorkload(GetParam());
};

} // namespace

TEST_P(WorkloadSuite, CompilesAndVerifies) {
  ASSERT_TRUE(W);
  auto M = compileWorkload(*W);
  EXPECT_TRUE(verifyModule(*M).empty());
  EXPECT_GT(M->numInstructions(), 50u);
  EXPECT_NE(M->getFunction(Workload::EntryName), nullptr);
}

TEST_P(WorkloadSuite, CleanSerialRunPassesVerification) {
  auto M = compileWorkload(*W);
  ModuleLayout Layout(*M);
  WorkloadHarness H(*W, 1);
  ExecutionRecord R = H.execute(Layout, nullptr, UINT64_MAX);
  EXPECT_EQ(R.Status, RunStatus::Finished);
  EXPECT_TRUE(R.OutputValid);
  EXPECT_GT(R.ValueSteps, 1000u);
  EXPECT_FALSE(H.golden().empty());
}

TEST_P(WorkloadSuite, InputLevelsGrowTheProblem) {
  auto M = compileWorkload(*W);
  ModuleLayout Layout(*M);
  uint64_t PrevSteps = 0;
  for (int Level = 1; Level <= 3; ++Level) {
    WorkloadHarness H(*W, Level);
    ExecutionRecord R = H.execute(Layout, nullptr, UINT64_MAX);
    ASSERT_EQ(R.Status, RunStatus::Finished) << "level " << Level;
    EXPECT_TRUE(R.OutputValid) << "level " << Level;
    EXPECT_GT(R.Steps, PrevSteps) << "level " << Level;
    PrevSteps = R.Steps;
  }
}

TEST_P(WorkloadSuite, ParallelMatchesSerialOutput) {
  auto M = compileWorkload(*W);
  ModuleLayout Layout(*M);
  WorkloadHarness Serial(*W, 1, 1);
  ExecutionRecord RS = Serial.execute(Layout, nullptr, UINT64_MAX);
  ASSERT_EQ(RS.Status, RunStatus::Finished);
  for (int P : {2, 4}) {
    WorkloadHarness Par(*W, 1, P);
    ExecutionRecord RP = Par.execute(Layout, nullptr, UINT64_MAX);
    ASSERT_EQ(RP.Status, RunStatus::Finished) << "P=" << P;
    EXPECT_TRUE(RP.OutputValid) << "P=" << P;
    // Verify the parallel output against the serial golden: it must be an
    // acceptable outcome of the same computation.
    EXPECT_TRUE(W->verify(Par.golden(), Serial.golden(), W->inputParams(1)))
        << "P=" << P;
  }
}

TEST_P(WorkloadSuite, ParallelCriticalPathShrinks) {
  auto M = compileWorkload(*W);
  ModuleLayout Layout(*M);
  WorkloadHarness Serial(*W, 1, 1);
  ExecutionRecord R1 = Serial.execute(Layout, nullptr, UINT64_MAX);
  WorkloadHarness Par(*W, 1, 4);
  ExecutionRecord R4 = Par.execute(Layout, nullptr, UINT64_MAX);
  ASSERT_EQ(R4.Status, RunStatus::Finished);
  EXPECT_LT(R4.CriticalPathCycles, R1.CriticalPathCycles);
}

TEST_P(WorkloadSuite, DuplicationPreservesCleanBehaviour) {
  auto M = compileWorkload(*W);
  duplicateAllInstructions(*M);
  M->renumber();
  ASSERT_TRUE(verifyModule(*M).empty());
  ModuleLayout Layout(*M);
  WorkloadHarness H(*W, 1);
  ExecutionRecord R = H.execute(Layout, nullptr, UINT64_MAX);
  EXPECT_EQ(R.Status, RunStatus::Finished);
  EXPECT_TRUE(R.OutputValid);
}

TEST_P(WorkloadSuite, VerificationRejectsCorruptedOutput) {
  auto M = compileWorkload(*W);
  ModuleLayout Layout(*M);
  WorkloadHarness H(*W, 1);
  ExecutionRecord R = H.execute(Layout, nullptr, UINT64_MAX);
  ASSERT_EQ(R.Status, RunStatus::Finished);
  std::vector<RtValue> Corrupt = H.golden();
  ASSERT_FALSE(Corrupt.empty());
  // Large alternating-sign corruption of the whole output must be
  // rejected by every workload's routine (energy shift, solution error,
  // unsorted keys, L2 blowup, residual blowup)...
  for (size_t I = 0; I != Corrupt.size(); ++I)
    Corrupt[I] = RtValue::fromF64(Corrupt[I].asF64() +
                                  (I % 2 == 0 ? 1e6 : -1e6));
  EXPECT_FALSE(W->verify(Corrupt, H.golden(), W->inputParams(1)));
  // ...while the golden output itself is accepted.
  EXPECT_TRUE(W->verify(H.golden(), H.golden(), W->inputParams(1)));
}

TEST_P(WorkloadSuite, DescriptionsAreInformative) {
  EXPECT_FALSE(W->description().empty());
  for (int Level = 1; Level <= 4; ++Level) {
    EXPECT_FALSE(W->inputDescription(Level).empty());
    EXPECT_FALSE(W->inputParams(Level).empty());
  }
  EXPECT_GT(Lexer::countCodeLines(W->source()), 20u);
}

// The executor runs serial workload runs on the VM when asked: the
// campaign record streams (every run's instruction, bit, value step and
// outcome), the clean step counts and the counting-mode profiles must be
// the interpreter's, bit for bit, at one and four threads — and the VM
// campaigns must not have handed a single run back to the interpreter.
TEST_P(WorkloadSuite, BackendsAgreeOnCampaignsAndProfiles) {
  auto M = compileWorkload(*W);
  ModuleLayout Layout(*M);
  std::vector<CampaignResult> Results;
  for (ExecBackend B : {ExecBackend::Interp, ExecBackend::Vm}) {
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(backendName(B)) + " x" +
                   std::to_string(Threads));
      WorkloadHarness H(*W, 1);
      CampaignConfig CC;
      CC.NumRuns = 24;
      CC.Seed = testSeed();
      CC.NumThreads = Threads;
      CC.Backend = B;
      Results.push_back(runCampaign(H, Layout, CC));
      const CampaignResult &R = Results.back();
      if (B == ExecBackend::Vm) {
        EXPECT_EQ(R.InterpRuns, 0u);
        EXPECT_EQ(R.VmRuns, CC.NumRuns);
      } else {
        EXPECT_EQ(R.VmRuns, 0u);
      }
    }
  }
  const CampaignResult &Ref = Results.front();
  for (const CampaignResult &R : Results) {
    EXPECT_EQ(R.CleanSteps, Ref.CleanSteps);
    EXPECT_EQ(R.CleanValueSteps, Ref.CleanValueSteps);
    ASSERT_EQ(R.Records.size(), Ref.Records.size());
    for (size_t K = 0; K != R.Records.size(); ++K) {
      SCOPED_TRACE("run " + std::to_string(K));
      EXPECT_EQ(R.Records[K].InstructionId, Ref.Records[K].InstructionId);
      EXPECT_EQ(R.Records[K].BitIndex, Ref.Records[K].BitIndex);
      EXPECT_EQ(R.Records[K].TargetValueStep,
                Ref.Records[K].TargetValueStep);
      EXPECT_EQ(R.Records[K].Result, Ref.Records[K].Result);
    }
  }

  std::vector<uint64_t> Counts[2];
  for (ExecBackend B : {ExecBackend::Interp, ExecBackend::Vm}) {
    WorkloadHarness H(*W, 1);
    H.setPreferredBackend(B);
    CostProfiler Prof(Layout, CostProfiler::Mode::Counting);
    ExecutionRecord R = H.run(Layout, nullptr, UINT64_MAX, {.Prof = &Prof});
    ASSERT_EQ(R.Status, RunStatus::Finished);
    EXPECT_TRUE(R.OutputValid);
    EXPECT_EQ(R.BackendUsed, B);
    EXPECT_EQ(R.FallbackReason, nullptr);
    EXPECT_EQ(Prof.totalSteps(), Ref.CleanSteps);
    Counts[static_cast<size_t>(B)] = Prof.flatCounts();
  }
  EXPECT_EQ(Counts[0], Counts[1]);
}

// A multi-rank run asked to use the VM runs its ranks on the VM, with no
// fallback, and matches the interpreter job's counters and verdict.
TEST_P(WorkloadSuite, MultiRankRunsOnVm) {
  auto M = compileWorkload(*W);
  ModuleLayout Layout(*M);
  WorkloadHarness Ref(*W, 1, 4);
  ExecutionRecord RI = Ref.execute(Layout, nullptr, UINT64_MAX);
  ASSERT_EQ(RI.Status, RunStatus::Finished);
  EXPECT_EQ(RI.BackendUsed, ExecBackend::Interp);

  uint64_t FallbacksBefore = vmFallbackTotal();
  WorkloadHarness H(*W, 1, 4);
  H.setPreferredBackend(ExecBackend::Vm);
  ExecutionRecord R = H.execute(Layout, nullptr, UINT64_MAX);
  ASSERT_EQ(R.Status, RunStatus::Finished);
  EXPECT_TRUE(R.OutputValid);
  EXPECT_EQ(R.BackendUsed, ExecBackend::Vm);
  EXPECT_EQ(R.FallbackReason, nullptr);
  EXPECT_EQ(vmFallbackTotal(), FallbacksBefore);
  EXPECT_EQ(R.Steps, RI.Steps);
  EXPECT_EQ(R.ValueSteps, RI.ValueSteps);
  EXPECT_EQ(R.CriticalPathCycles, RI.CriticalPathCycles);
  EXPECT_EQ(H.golden().size(), Ref.golden().size());
  for (size_t K = 0; K != H.golden().size(); ++K)
    EXPECT_EQ(H.golden()[K].Bits, Ref.golden()[K].Bits) << "slot " << K;
}

namespace {

/// Everything a multi-rank workload job exposes, for engine comparison.
struct WorkloadJobRun {
  JobResult Result;
  std::vector<uint64_t> Steps, ValueSteps, CommCost;
  bool FaultInjected = false;
  std::vector<uint64_t> Output0; ///< Rank 0's output bits.
};

/// Runs \p W (input level 1) as a \p Ranks-rank job on the interpreter
/// (\p Prog null) or the VM, with \p Plan0 (may be null) on rank 0.
WorkloadJobRun runWorkloadJob(const Workload &W, const Module &M,
                              const ModuleLayout &Layout,
                              const vm::VmProgram *Prog, int Ranks,
                              uint64_t Budget, const FaultPlan *Plan0) {
  std::vector<int64_t> Params = W.inputParams(1);
  MpiJob::Config Cfg;
  Cfg.NumRanks = Ranks;
  Cfg.Rank.Mem = W.memoryConfig(Params);
  Cfg.StepBudgetPerRank = Budget;
  std::optional<MpiJob> Job;
  if (Prog)
    Job.emplace(*Prog, Cfg);
  else
    Job.emplace(Layout, Cfg);
  uint64_t Slots = W.outputSlots(Params);
  std::vector<uint64_t> Out(static_cast<size_t>(Ranks));
  for (int R = 0; R != Ranks; ++R)
    Out[static_cast<size_t>(R)] = Job->hostAlloc(R, Slots);
  if (Plan0)
    Job->setFaultPlan(0, *Plan0);
  Job->start(M.getFunction(Workload::EntryName), [&](int R) {
    std::vector<RtValue> Args;
    for (int64_t P : Params)
      Args.push_back(RtValue::fromI64(P));
    Args.push_back(RtValue::fromPtr(Out[static_cast<size_t>(R)]));
    return Args;
  });
  WorkloadJobRun Run;
  Run.Result = Job->run();
  for (int R = 0; R != Ranks; ++R) {
    Run.Steps.push_back(Job->steps(R));
    Run.ValueSteps.push_back(Job->valueSteps(R));
    Run.CommCost.push_back(Job->commCost(R));
  }
  Run.FaultInjected = Job->faultWasInjected(0);
  for (RtValue V : Job->readSlots(0, Out[0], Slots))
    Run.Output0.push_back(V.Bits);
  return Run;
}

} // namespace

// The O5 backend differential extended to SimMPI jobs: for 2, 4 and 8
// ranks, unprotected and fully duplicated, clean and with a fault on
// rank 0, the VM job must be the interpreter job — JobResult, every
// rank's steps, value steps and communication cost, and rank 0's output
// bits.
TEST_P(WorkloadSuite, MultiRankEnginesAgree) {
  IPAS_SEED_TRACE(testSeed());
  for (bool FullDup : {false, true}) {
    auto M = compileWorkload(*W);
    if (FullDup) {
      duplicateAllInstructions(*M);
      M->renumber();
    }
    ModuleLayout Layout(*M);
    std::unique_ptr<vm::VmProgram> Prog = vm::compile(Layout);
    ASSERT_NE(Prog, nullptr);
    Rng PlanRng(testSeed() ^ (FullDup ? 0x5eedull : 0));
    for (int Ranks : {2, 4, 8}) {
      WorkloadJobRun Clean = runWorkloadJob(*W, *M, Layout, nullptr, Ranks,
                                            UINT64_MAX, nullptr);
      ASSERT_EQ(Clean.Result.Status, RunStatus::Finished);
      std::vector<FaultPlan> Plans(2);
      for (FaultPlan &Plan : Plans) {
        Plan.TargetValueStep = PlanRng.nextBelow(Clean.ValueSteps[0]);
        Plan.BitDraw = PlanRng.next();
      }
      uint64_t Budget = 4 * Clean.Steps[0] + 10000;
      for (size_t K = 0; K <= Plans.size(); ++K) {
        const FaultPlan *Plan = K ? &Plans[K - 1] : nullptr;
        SCOPED_TRACE(std::string(FullDup ? "full-dup" : "unprotected") +
                     " x" + std::to_string(Ranks) +
                     (Plan ? " plan step " +
                                 std::to_string(Plan->TargetValueStep) +
                                 " bit " + std::to_string(Plan->BitDraw % 64)
                           : std::string(" clean")));
        WorkloadJobRun I = runWorkloadJob(*W, *M, Layout, nullptr, Ranks,
                                          Plan ? Budget : UINT64_MAX, Plan);
        WorkloadJobRun V = runWorkloadJob(*W, *M, Layout, Prog.get(), Ranks,
                                          Plan ? Budget : UINT64_MAX, Plan);
        EXPECT_EQ(V.Result.Status, I.Result.Status);
        EXPECT_EQ(V.Result.Trap, I.Result.Trap);
        EXPECT_EQ(V.Result.FailedRank, I.Result.FailedRank);
        EXPECT_EQ(V.Result.CriticalPathCycles, I.Result.CriticalPathCycles);
        EXPECT_EQ(V.Result.TotalSteps, I.Result.TotalSteps);
        EXPECT_EQ(V.Steps, I.Steps);
        EXPECT_EQ(V.ValueSteps, I.ValueSteps);
        EXPECT_EQ(V.CommCost, I.CommCost);
        EXPECT_EQ(V.FaultInjected, I.FaultInjected);
        EXPECT_EQ(V.Output0, I.Output0);
        if (!Plan) {
          EXPECT_EQ(I.Output0, Clean.Output0);
        }
      }
    }
  }
}

// Value-step traces run natively on the VM: id for id the interpreter's,
// with no fallback, and a pruned campaign (which maps plans to sites
// through that trace) writes the same record stream on both engines.
TEST_P(WorkloadSuite, VmTraceMatchesInterpreter) {
  for (bool FullDup : {false, true}) {
    SCOPED_TRACE(FullDup ? "full-dup" : "unprotected");
    auto M = compileWorkload(*W);
    if (FullDup) {
      duplicateAllInstructions(*M);
      M->renumber();
    }
    ModuleLayout Layout(*M);
    WorkloadHarness HI(*W, 1);
    std::vector<unsigned> TI = HI.traceValueSteps(Layout);
    uint64_t FallbacksBefore = vmFallbackTotal();
    WorkloadHarness HV(*W, 1);
    HV.setPreferredBackend(ExecBackend::Vm);
    std::vector<unsigned> TV = HV.traceValueSteps(Layout);
    EXPECT_EQ(vmFallbackTotal(), FallbacksBefore);
    ASSERT_FALSE(TI.empty());
    EXPECT_EQ(TV, TI);

    SocPropagation Soc(*M);
    std::vector<CampaignResult> Results;
    for (ExecBackend B : {ExecBackend::Interp, ExecBackend::Vm}) {
      WorkloadHarness H(*W, 1);
      CampaignConfig CC;
      CC.NumRuns = 24;
      CC.Seed = testSeed();
      CC.Backend = B;
      CC.ProvablyBenign = &Soc.provablyBenign();
      Results.push_back(runCampaign(H, Layout, CC));
    }
    const CampaignResult &RI = Results[0], &RV = Results[1];
    EXPECT_EQ(RV.InterpRuns, 0u);
    EXPECT_EQ(RV.PrunedRuns, RI.PrunedRuns);
    ASSERT_EQ(RV.Records.size(), RI.Records.size());
    for (size_t K = 0; K != RI.Records.size(); ++K) {
      SCOPED_TRACE("run " + std::to_string(K));
      EXPECT_EQ(RV.Records[K].InstructionId, RI.Records[K].InstructionId);
      EXPECT_EQ(RV.Records[K].BitIndex, RI.Records[K].BitIndex);
      EXPECT_EQ(RV.Records[K].TargetValueStep, RI.Records[K].TargetValueStep);
      EXPECT_EQ(RV.Records[K].Result, RI.Records[K].Result);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFive, WorkloadSuite,
                         ::testing::Values("CoMD", "HPCCG", "AMG", "FFT",
                                           "IS"));

TEST(Workloads, RegistryIsComplete) {
  auto All = makeAllWorkloads();
  ASSERT_EQ(All.size(), 5u);
  EXPECT_EQ(All[0]->name(), "CoMD");
  EXPECT_EQ(All[1]->name(), "HPCCG");
  EXPECT_EQ(All[2]->name(), "AMG");
  EXPECT_EQ(All[3]->name(), "FFT");
  EXPECT_EQ(All[4]->name(), "IS");
  EXPECT_EQ(makeWorkload("nope"), nullptr);
}

TEST(Workloads, HpccgSolutionIsAllOnes) {
  auto W = makeWorkload("HPCCG");
  auto M = compileWorkload(*W);
  ModuleLayout Layout(*M);
  WorkloadHarness H(*W, 1);
  ExecutionRecord R = H.execute(Layout, nullptr, UINT64_MAX);
  ASSERT_EQ(R.Status, RunStatus::Finished);
  for (const RtValue &V : H.golden())
    EXPECT_NEAR(V.asF64(), 1.0, 1e-4);
}

TEST(Workloads, IsOutputIsSorted) {
  auto W = makeWorkload("IS");
  auto M = compileWorkload(*W);
  ModuleLayout Layout(*M);
  WorkloadHarness H(*W, 1);
  ExecutionRecord R = H.execute(Layout, nullptr, UINT64_MAX);
  ASSERT_EQ(R.Status, RunStatus::Finished);
  const auto &Out = H.golden();
  ASSERT_EQ(Out.size(), static_cast<size_t>(W->inputParams(1)[0]));
  for (size_t I = 1; I != Out.size(); ++I)
    ASSERT_LE(Out[I - 1].asF64(), Out[I].asF64());
}

TEST(Workloads, FftRoundTripIsTight) {
  auto W = makeWorkload("FFT");
  auto M = compileWorkload(*W);
  ModuleLayout Layout(*M);
  WorkloadHarness H(*W, 1);
  ExecutionRecord R = H.execute(Layout, nullptr, UINT64_MAX);
  ASSERT_EQ(R.Status, RunStatus::Finished);
  // The FFT+inverse round trip reproduces the deterministic input, so the
  // first real-plane entry matches sin/cos of the index function.
  double Expected = std::sin(0.0) + 0.25 * std::cos(0.0);
  EXPECT_NEAR(H.golden()[0].asF64(), Expected, 1e-9);
}

TEST(Workloads, CoMDEnergyTraceIsFlat) {
  auto W = makeWorkload("CoMD");
  auto M = compileWorkload(*W);
  ModuleLayout Layout(*M);
  WorkloadHarness H(*W, 1);
  ExecutionRecord R = H.execute(Layout, nullptr, UINT64_MAX);
  ASSERT_EQ(R.Status, RunStatus::Finished);
  const auto &E = H.golden();
  ASSERT_GE(E.size(), 2u);
  double First = E.front().asF64();
  double Last = E.back().asF64();
  EXPECT_LT(std::fabs(Last - First),
            1e-4 * std::max(1.0, std::fabs(First)));
}

TEST(Workloads, AmgChecksumGuardsInputIntegrity) {
  auto W = makeWorkload("AMG");
  auto M = compileWorkload(*W);
  ModuleLayout Layout(*M);
  WorkloadHarness H(*W, 1);
  ExecutionRecord R = H.execute(Layout, nullptr, UINT64_MAX);
  ASSERT_EQ(R.Status, RunStatus::Finished);
  std::vector<RtValue> Tampered = H.golden();
  Tampered.back() = RtValue::fromF64(Tampered.back().asF64() + 1.0);
  EXPECT_FALSE(W->verify(Tampered, H.golden(), W->inputParams(1)));
}

namespace {

/// A well-formed workload whose heap cannot hold its output region: the
/// harness's host allocation fails before the program starts.
class OversizedOutputWorkload : public Workload {
public:
  std::string name() const override { return "oversized"; }
  std::string description() const override { return "test only"; }
  std::string source() const override {
    return "int run(int n, double* out) { out[0] = 1.0 * n; return 0; }";
  }
  std::vector<int64_t> inputParams(int) const override { return {3}; }
  std::string inputDescription(int) const override { return "n = 3"; }
  uint64_t outputSlots(const std::vector<int64_t> &) const override {
    return 1024;
  }
  Memory::Config memoryConfig(const std::vector<int64_t> &) const override {
    Memory::Config C;
    C.HeapBytes = 4096; // 512 slots
    return C;
  }
  bool verify(const std::vector<RtValue> &, const std::vector<RtValue> &,
              const std::vector<int64_t> &) const override {
    return true;
  }
};

} // namespace

// A failed output allocation is a failed run on both engines and every
// rank count — never a run handed a null output pointer.
TEST(Workloads, OutputLargerThanHeapFailsTheRun) {
  OversizedOutputWorkload W;
  auto M = compileWorkload(W);
  ModuleLayout Layout(*M);
  for (ExecBackend B : {ExecBackend::Interp, ExecBackend::Vm}) {
    for (int Ranks : {1, 2}) {
      SCOPED_TRACE(std::string(backendName(B)) + " ranks " +
                   std::to_string(Ranks));
      WorkloadHarness H(W, 1, Ranks);
      H.setPreferredBackend(B);
      ExecutionRecord R = H.execute(Layout, nullptr, UINT64_MAX);
      EXPECT_EQ(R.Status, RunStatus::Trapped);
      EXPECT_EQ(R.Trap, TrapKind::OutOfMemory);
      EXPECT_EQ(R.Steps, 0u);
      EXPECT_TRUE(H.golden().empty());
    }
  }
}

// A missing entry function fails the run the same way on both engines.
TEST(Workloads, MissingEntryFailsTheRun) {
  std::unique_ptr<Module> M = compile("int f(int a) { return a + 1; }");
  ModuleLayout Layout(*M);
  for (ExecBackend B : {ExecBackend::Interp, ExecBackend::Vm}) {
    for (const char *Entry : {"g", "f"}) {
      SCOPED_TRACE(std::string(backendName(B)) + " @" + Entry);
      // @f exists but takes one argument, not two.
      FunctionHarness H(Entry, {RtValue::fromI64(1), RtValue::fromI64(2)});
      H.setPreferredBackend(B);
      ExecutionRecord R = H.execute(Layout, nullptr, UINT64_MAX);
      EXPECT_EQ(R.Status, RunStatus::Trapped);
      EXPECT_EQ(R.Trap, TrapKind::BadEntry);
      EXPECT_EQ(R.Steps, 0u);
    }
  }
}

// A multi-rank run cannot honor a fault plan (injection into parallel
// jobs is driven per rank): it must refuse the plan in every build, not
// run clean and let the injection read as Masked.
TEST(Workloads, MultiRankRunRefusesFaultPlan) {
  auto W = makeWorkload("IS");
  auto M = compileWorkload(*W);
  ModuleLayout Layout(*M);
  FaultPlan Plan;
  Plan.TargetValueStep = 100;
  Plan.BitDraw = 52;
  for (ExecBackend B : {ExecBackend::Interp, ExecBackend::Vm}) {
    SCOPED_TRACE(backendName(B));
    WorkloadHarness H(*W, 1, 2);
    H.setPreferredBackend(B);
    ExecutionRecord R = H.execute(Layout, &Plan, UINT64_MAX);
    EXPECT_EQ(R.Status, RunStatus::Trapped);
    EXPECT_EQ(R.Trap, TrapKind::BadEntry);
    EXPECT_EQ(R.Steps, 0u);
    EXPECT_FALSE(R.FaultInjected);
    EXPECT_EQ(R.FallbackReason, nullptr);
  }
}

// ...and the same for an instrument: a value-step trace from a parallel
// run would be silently empty, so the run is refused instead.
TEST(Workloads, MultiRankRunRefusesInstruments) {
  auto W = makeWorkload("IS");
  auto M = compileWorkload(*W);
  ModuleLayout Layout(*M);
  WorkloadHarness H(*W, 1, 2);
  EXPECT_FALSE(H.supportsInstruments());
  std::vector<unsigned> Trace;
  ExecutionRecord R = H.run(Layout, nullptr, UINT64_MAX, {.Trace = &Trace});
  EXPECT_EQ(R.Status, RunStatus::Trapped);
  EXPECT_EQ(R.Trap, TrapKind::BadEntry);
  EXPECT_EQ(R.Steps, 0u);
  EXPECT_TRUE(Trace.empty());
  EXPECT_TRUE(H.traceValueSteps(Layout).empty());
  EXPECT_TRUE(H.golden().empty());
}

// ...so the campaign driver's clean-run check refuses it in the shipped
// (NDEBUG) build instead of injecting into a run that never started.
TEST(WorkloadsDeathTest, CampaignRefusesOutputLargerThanHeap) {
  OversizedOutputWorkload W;
  auto M = compileWorkload(W);
  ModuleLayout Layout(*M);
  for (ExecBackend B : {ExecBackend::Interp, ExecBackend::Vm}) {
    WorkloadHarness H(W, 1);
    CampaignConfig CC;
    CC.NumRuns = 4;
    CC.Backend = B;
    EXPECT_DEATH(runCampaign(H, Layout, CC), "clean run failed");
  }
}
