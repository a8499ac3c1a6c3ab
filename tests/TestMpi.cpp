//===- tests/TestMpi.cpp - SimMPI scheduler -----------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "fault/ProgramHarness.h"
#include "mpi/SimMpi.h"
#include "vm/Bytecode.h"

#include <optional>
#include <stdexcept>

using namespace ipas;
using namespace ipas::testutil;

namespace {

/// The JobResult plus every per-rank counter a job exposes.
struct ParallelRun {
  JobResult Result;
  std::vector<int64_t> ReturnValues;
  std::vector<uint64_t> Steps, ValueSteps, CommCost;
  std::vector<bool> FaultInjected;
};

/// Runs \p Src's `f(rank-independent args...)` on \p P ranks of one
/// engine.
ParallelRun runOn(ExecBackend Engine, const Module &M,
                  const ModuleLayout &Layout, const vm::VmProgram &Prog,
                  int P, const std::vector<RtValue> &Args, uint64_t Budget,
                  const FaultPlan *PlanForRank0, uint64_t AlphaCost) {
  MpiJob::Config Cfg;
  Cfg.NumRanks = P;
  Cfg.StepBudgetPerRank = Budget;
  Cfg.AlphaCost = AlphaCost;
  std::optional<MpiJob> Job;
  if (Engine == ExecBackend::Vm)
    Job.emplace(Prog, Cfg);
  else
    Job.emplace(Layout, Cfg);
  EXPECT_EQ(Job->runsOnVm(), Engine == ExecBackend::Vm);
  if (PlanForRank0)
    Job->setFaultPlan(0, *PlanForRank0);
  Job->start(M.getFunction("f"), [&](int) { return Args; });
  ParallelRun R;
  R.Result = Job->run();
  for (int K = 0; K != P; ++K) {
    R.ReturnValues.push_back(Job->returnValue(K).asI64());
    R.Steps.push_back(Job->steps(K));
    R.ValueSteps.push_back(Job->valueSteps(K));
    R.CommCost.push_back(Job->commCost(K));
    R.FaultInjected.push_back(Job->faultWasInjected(K));
  }
  return R;
}

/// Runs the job on both engines, expects every result and per-rank
/// counter to agree, and returns the interpreter's run (every case below
/// therefore checks both engines).
ParallelRun runParallel(const std::string &Src, int P,
                        const std::vector<RtValue> &Args = {},
                        uint64_t Budget = UINT64_MAX,
                        const FaultPlan *PlanForRank0 = nullptr,
                        uint64_t AlphaCost = MpiJob::Config().AlphaCost) {
  static std::unique_ptr<Module> M;
  static std::unique_ptr<ModuleLayout> Layout;
  static std::unique_ptr<vm::VmProgram> Prog;
  static std::string LastSrc;
  if (Src != LastSrc) {
    M = compile(Src);
    Layout = std::make_unique<ModuleLayout>(*M);
    Prog = vm::compile(*Layout);
    LastSrc = Src;
  }
  EXPECT_NE(Prog, nullptr);
  ParallelRun I = runOn(ExecBackend::Interp, *M, *Layout, *Prog, P, Args,
                        Budget, PlanForRank0, AlphaCost);
  ParallelRun V = runOn(ExecBackend::Vm, *M, *Layout, *Prog, P, Args,
                        Budget, PlanForRank0, AlphaCost);
  EXPECT_EQ(V.Result.Status, I.Result.Status);
  EXPECT_EQ(V.Result.Trap, I.Result.Trap);
  EXPECT_EQ(V.Result.FailedRank, I.Result.FailedRank);
  EXPECT_EQ(V.Result.CriticalPathCycles, I.Result.CriticalPathCycles);
  EXPECT_EQ(V.Result.TotalSteps, I.Result.TotalSteps);
  EXPECT_EQ(V.Steps, I.Steps);
  EXPECT_EQ(V.ValueSteps, I.ValueSteps);
  EXPECT_EQ(V.CommCost, I.CommCost);
  EXPECT_EQ(V.FaultInjected, I.FaultInjected);
  if (I.Result.Status == RunStatus::Finished) {
    EXPECT_EQ(V.ReturnValues, I.ReturnValues);
  }
  return I;
}

} // namespace

TEST(SimMpi, RankAndSize) {
  auto R = runParallel("int f() { return mpi_rank() * 100 + mpi_size(); }",
                       4);
  EXPECT_EQ(R.Result.Status, RunStatus::Finished);
  for (int K = 0; K != 4; ++K)
    EXPECT_EQ(R.ReturnValues[K], K * 100 + 4);
}

TEST(SimMpi, AllreduceSum) {
  auto R = runParallel(
      "int f() { return (int)mpi_allreduce_sum_d(1.0 * mpi_rank()); }", 4);
  EXPECT_EQ(R.Result.Status, RunStatus::Finished);
  for (int K = 0; K != 4; ++K)
    EXPECT_EQ(R.ReturnValues[K], 0 + 1 + 2 + 3);
}

TEST(SimMpi, AllreduceMaxAndSumI) {
  auto R = runParallel(
      "int f() { int m = (int)mpi_allreduce_max_d(1.0 * mpi_rank());\n"
      "  int s = mpi_allreduce_sum_i(2);\n"
      "  return m * 100 + s; }",
      3);
  EXPECT_EQ(R.Result.Status, RunStatus::Finished);
  for (int K = 0; K != 3; ++K)
    EXPECT_EQ(R.ReturnValues[K], 2 * 100 + 6);
}

TEST(SimMpi, BroadcastFromRoot) {
  auto R = runParallel("int f() { double v = 0.0;\n"
                       "  if (mpi_rank() == 1) v = 42.0;\n"
                       "  return (int)mpi_bcast_d(v, 1); }",
                       4);
  EXPECT_EQ(R.Result.Status, RunStatus::Finished);
  for (int K = 0; K != 4; ++K)
    EXPECT_EQ(R.ReturnValues[K], 42);
}

TEST(SimMpi, AllgatherAssemblesInRankOrder) {
  auto R = runParallel(
      "int f() {\n"
      "  double send[2]; double recv[16];\n"
      "  send[0] = 10.0 * mpi_rank(); send[1] = 10.0 * mpi_rank() + 1.0;\n"
      "  mpi_allgather_d(send, recv, 2);\n"
      "  int sum = 0;\n"
      "  for (int i = 0; i < 2 * mpi_size(); i = i + 1)\n"
      "    sum = sum * 100 + (int)recv[i];\n"
      "  return sum; }",
      3);
  EXPECT_EQ(R.Result.Status, RunStatus::Finished);
  // recv = [0,1,10,11,20,21] on every rank.
  int64_t Expect = 0;
  for (int V : {0, 1, 10, 11, 20, 21})
    Expect = Expect * 100 + V;
  for (int K = 0; K != 3; ++K)
    EXPECT_EQ(R.ReturnValues[K], Expect);
}

TEST(SimMpi, AlltoallTransposesSegments) {
  auto R = runParallel(
      "int f() {\n"
      "  int p = mpi_size(); int me = mpi_rank();\n"
      "  double send[4]; double recv[4];\n"
      "  for (int d = 0; d < p; d = d + 1) send[d] = 10.0 * me + d;\n"
      "  mpi_alltoall_d(send, recv, 1);\n"
      "  int sum = 0;\n"
      "  for (int s = 0; s < p; s = s + 1) sum = sum * 100 + (int)recv[s];\n"
      "  return sum; }",
      4);
  EXPECT_EQ(R.Result.Status, RunStatus::Finished);
  // Rank r receives segment me from each source s: value 10*s + r.
  for (int K = 0; K != 4; ++K) {
    int64_t Expect = 0;
    for (int S = 0; S != 4; ++S)
      Expect = Expect * 100 + (10 * S + K);
    EXPECT_EQ(R.ReturnValues[K], Expect);
  }
}

TEST(SimMpi, BarrierSynchronizesWithoutValues) {
  auto R = runParallel("int f() { mpi_barrier(); mpi_barrier();\n"
                       "  return 7; }",
                       5);
  EXPECT_EQ(R.Result.Status, RunStatus::Finished);
}

TEST(SimMpi, MismatchedCollectivesTrap) {
  auto R = runParallel("int f() {\n"
                       "  if (mpi_rank() == 0) { mpi_barrier(); }\n"
                       "  else { double x = mpi_allreduce_sum_d(1.0); }\n"
                       "  return 0; }",
                       2);
  EXPECT_EQ(R.Result.Status, RunStatus::Trapped);
  EXPECT_EQ(R.Result.Trap, TrapKind::MpiMismatch);
}

TEST(SimMpi, PartialExitIsDeadlockHang) {
  auto R = runParallel("int f() {\n"
                       "  if (mpi_rank() > 0) { mpi_barrier(); }\n"
                       "  return 0; }",
                       2);
  EXPECT_EQ(R.Result.Status, RunStatus::OutOfSteps);
}

TEST(SimMpi, RankTrapAbortsJob) {
  auto R = runParallel("int f() {\n"
                       "  if (mpi_rank() == 1) { int z = 0; return 5 / z; }\n"
                       "  mpi_barrier();\n"
                       "  return 0; }",
                       3);
  EXPECT_EQ(R.Result.Status, RunStatus::Trapped);
  EXPECT_EQ(R.Result.Trap, TrapKind::DivByZero);
  EXPECT_EQ(R.Result.FailedRank, 1);
}

TEST(SimMpi, BadGatherBufferTraps) {
  auto R2 = runParallel(
      "int f() {\n"
      "  double send[1]; double ok[8]; send[0] = 1.0;\n"
      "  double* bad = ok + 100000000;\n"
      "  mpi_allgather_d(send, bad, 1);\n"
      "  return 0; }",
      2);
  EXPECT_EQ(R2.Result.Status, RunStatus::Trapped);
  EXPECT_EQ(R2.Result.Trap, TrapKind::OutOfBounds);
}

TEST(SimMpi, FaultInOneRankPropagatesAsJobFailure) {
  // Flip a high bit in rank 0's loop bound computation: the job must not
  // silently complete with divergent collectives; it either finishes
  // (masked), hangs, mismatches, or traps — never reports Blocked.
  const char *Src = "int f() {\n"
                    "  double acc = 0.0;\n"
                    "  int n = 10 + mpi_rank();\n"
                    "  n = n - mpi_rank();\n"
                    "  for (int i = 0; i < n; i = i + 1)\n"
                    "    acc = acc + mpi_allreduce_sum_d(1.0);\n"
                    "  return (int)acc; }";
  int Terminal = 0;
  for (uint64_t Step = 0; Step != 12; ++Step) {
    FaultPlan Plan;
    Plan.TargetValueStep = Step;
    Plan.BitDraw = 60;
    auto R = runParallel(Src, 2, {}, /*Budget=*/200000, &Plan);
    EXPECT_NE(R.Result.Status, RunStatus::Blocked);
    if (R.Result.Status != RunStatus::Finished)
      ++Terminal;
  }
  // At least some of those flips must derail the job observably.
  EXPECT_GT(Terminal, 0);
}

TEST(SimMpi, CommCostChargedPerCollective) {
  auto R = runParallel("int f() { double s = mpi_allreduce_sum_d(1.0);\n"
                       "  return (int)s; }",
                       2, {}, UINT64_MAX, nullptr, /*AlphaCost=*/1000);
  EXPECT_EQ(R.Result.Status, RunStatus::Finished);
  EXPECT_GE(R.CommCost[0], 1000u);
  EXPECT_GT(R.Result.CriticalPathCycles, R.Steps[0]);
}

TEST(SimMpi, DeterministicAcrossRuns) {
  const char *Src = "int f() { double s = 0.0;\n"
                    "  for (int i = 0; i < 5; i = i + 1)\n"
                    "    s = s + mpi_allreduce_sum_d(1.0 * mpi_rank());\n"
                    "  return (int)s; }";
  auto A = runParallel(Src, 4);
  auto B = runParallel(Src, 4);
  EXPECT_EQ(A.Result.TotalSteps, B.Result.TotalSteps);
  EXPECT_EQ(A.ReturnValues, B.ReturnValues);
}

// A job needs at least one rank, in every build (the check used to be an
// assert, so a release build scheduled an empty job as "finished").
TEST(SimMpi, RejectsFewerThanOneRank) {
  auto M = compile("int f() { return 0; }");
  ModuleLayout Layout(*M);
  auto Prog = vm::compile(Layout);
  ASSERT_NE(Prog, nullptr);
  for (int Ranks : {0, -1}) {
    MpiJob::Config Cfg;
    Cfg.NumRanks = Ranks;
    EXPECT_THROW(MpiJob(Layout, Cfg), std::invalid_argument);
    EXPECT_THROW(MpiJob(*Prog, Cfg), std::invalid_argument);
  }
}

// A rank blocked on something that is not a collective is an engine bug:
// the scheduler throws instead of reporting the job as finished. Only
// corrupted bytecode can get there, so corrupt a barrier's intrinsic.
TEST(SimMpi, NonCollectivePendingOpIsAnError) {
  auto M = compile("int f() { mpi_barrier(); return 0; }");
  ModuleLayout Layout(*M);
  auto Prog = vm::compile(Layout);
  ASSERT_NE(Prog, nullptr);
  bool Patched = false;
  for (vm::VmInst &In : Prog->Code)
    if (In.Op == vm::VmOp::IMpiBarrier) {
      In.X = static_cast<int32_t>(Intrinsic::Sqrt);
      Patched = true;
    }
  ASSERT_TRUE(Patched);
  MpiJob::Config Cfg;
  Cfg.NumRanks = 2;
  MpiJob Job(*Prog, Cfg);
  Job.start(M->getFunction("f"), [](int) { return std::vector<RtValue>{}; });
  EXPECT_THROW(Job.run(), std::logic_error);
}
