//===- bench/micro_substrates.cpp - Substrate microbenchmarks -------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// google-benchmark microbenchmarks for the substrates the reproduction
/// is built on: the MiniC compiler, the analyses and transforms, the
/// interpreter, SimMPI, and the SVM. These bound the cost of the paper
/// harnesses and catch performance regressions in the hot paths.
///
//===----------------------------------------------------------------------===//

#include "analysis/Features.h"
#include "core/Pipeline.h"
#include "mpi/SimMpi.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "transform/Duplication.h"
#include "transform/Mem2Reg.h"
#include "transform/SimplifyCFG.h"
#include "vm/Bytecode.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>

using namespace ipas;

namespace {

std::unique_ptr<Module> compileSnippet(const std::string &Src,
                                       bool RunMem2Reg = true) {
  Diagnostics D;
  auto M = compileMiniC(Src, "bench", D);
  assert(M && "benchmark snippet failed to compile");
  removeUnreachableBlocks(*M);
  if (RunMem2Reg)
    promoteAllocasToRegisters(*M);
  M->renumber();
  return M;
}

const char *ArithLoopSrc =
    "double f(int n) { double s = 0.0;\n"
    "  for (int i = 0; i < n; i = i + 1)\n"
    "    s = s + 1.0 / (1.0 + 1.0 * i * i);\n"
    "  return s; }";

} // namespace

static void BM_InterpreterArithmetic(benchmark::State &State) {
  auto M = compileSnippet(ArithLoopSrc);
  ModuleLayout Layout(*M);
  uint64_t Steps = 0;
  for (auto _ : State) {
    ExecutionContext Ctx(Layout);
    Ctx.start(M->getFunction("f"), {RtValue::fromI64(10000)});
    benchmark::DoNotOptimize(Ctx.run(UINT64_MAX));
    Steps += Ctx.steps();
  }
  State.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(Steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterArithmetic);

static void BM_InterpreterMemoryTraffic(benchmark::State &State) {
  auto M = compileSnippet(
      "double f(int n) { double a[256]; double s = 0.0;\n"
      "  for (int i = 0; i < 256; i = i + 1) a[i] = 1.0 * i;\n"
      "  for (int k = 0; k < n; k = k + 1)\n"
      "    for (int i = 0; i < 256; i = i + 1) s = s + a[i];\n"
      "  return s; }");
  ModuleLayout Layout(*M);
  uint64_t Steps = 0;
  for (auto _ : State) {
    ExecutionContext Ctx(Layout);
    Ctx.start(M->getFunction("f"), {RtValue::fromI64(50)});
    benchmark::DoNotOptimize(Ctx.run(UINT64_MAX));
    Steps += Ctx.steps();
  }
  State.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(Steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterMemoryTraffic);

static void BM_CompileWorkload(benchmark::State &State) {
  auto W = makeWorkload("AMG"); // the largest MiniC source
  for (auto _ : State) {
    auto M = compileWorkload(*W);
    benchmark::DoNotOptimize(M->numInstructions());
  }
}
BENCHMARK(BM_CompileWorkload);

static void BM_Mem2Reg(benchmark::State &State) {
  auto W = makeWorkload("AMG");
  for (auto _ : State) {
    State.PauseTiming();
    Diagnostics D;
    auto M = compileMiniC(W->source(), "bench", D);
    removeUnreachableBlocks(*M);
    State.ResumeTiming();
    benchmark::DoNotOptimize(promoteAllocasToRegisters(*M));
  }
}
BENCHMARK(BM_Mem2Reg);

static void BM_FeatureExtraction(benchmark::State &State) {
  auto W = makeWorkload("AMG");
  auto M = compileWorkload(*W);
  FeatureExtractor FE;
  for (auto _ : State)
    benchmark::DoNotOptimize(FE.extractModule(*M));
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(M->numInstructions()));
}
BENCHMARK(BM_FeatureExtraction);

static void BM_DuplicationPass(benchmark::State &State) {
  auto W = makeWorkload("AMG");
  for (auto _ : State) {
    State.PauseTiming();
    auto M = compileWorkload(*W);
    State.ResumeTiming();
    benchmark::DoNotOptimize(duplicateAllInstructions(*M));
  }
}
BENCHMARK(BM_DuplicationPass);

static void BM_SvmTrain(benchmark::State &State) {
  Rng R(5);
  Dataset D;
  int N = static_cast<int>(State.range(0));
  for (int I = 0; I != N; ++I) {
    bool Pos = R.nextBool(0.1); // class imbalance, as in IPAS data
    double Cx = Pos ? 2.0 : 0.0;
    std::vector<double> X;
    for (int F = 0; F != 31; ++F)
      X.push_back(Cx + R.nextDoubleIn(-1.0, 1.0));
    D.add(std::move(X), Pos ? 1 : -1);
  }
  SvmParams P;
  P.C = 100.0;
  P.Gamma = 0.05;
  for (auto _ : State)
    benchmark::DoNotOptimize(trainCSvc(D, P));
}
BENCHMARK(BM_SvmTrain)->Arg(200)->Arg(500)->Arg(1000);

/// The pipeline's model selection at perfbench `training` scale: 200 rows
/// of 31 features, 6% positives, a 6 x 6 (C, gamma) grid over 5 folds,
/// MaxIterations 20000. Reports SVM fits per second.
static void BM_GridSearch(benchmark::State &State) {
  Rng R(7);
  Dataset D;
  for (int I = 0; I != 200; ++I) {
    bool Pos = I % 50 < 3; // 12 of 200
    std::vector<double> X;
    for (int F = 0; F != 31; ++F)
      X.push_back((Pos ? 0.6 : 0.0) + R.nextDoubleIn(0.0, 1.0));
    D.add(std::move(X), Pos ? 1 : -1);
  }
  GridSearchConfig GC;
  GC.CSteps = 6;
  GC.GammaSteps = 6;
  GC.Folds = 5;
  GC.MaxIterations = 20000;
  obs::Counter &Fits =
      obs::MetricsRegistry::global().counter("ml.svm.trainings");
  uint64_t Before = Fits.value();
  for (auto _ : State)
    benchmark::DoNotOptimize(gridSearch(D, GC));
  State.counters["fits_per_s"] = benchmark::Counter(
      static_cast<double>(Fits.value() - Before), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GridSearch)->Unit(benchmark::kMillisecond)->UseRealTime();

static void BM_SvmPredictModule(benchmark::State &State) {
  Rng R(6);
  Dataset D;
  for (int I = 0; I != 400; ++I) {
    bool Pos = R.nextBool(0.5);
    std::vector<double> X;
    for (int F = 0; F != 31; ++F)
      X.push_back((Pos ? 1.5 : 0.0) + R.nextDoubleIn(-1.0, 1.0));
    D.add(std::move(X), Pos ? 1 : -1);
  }
  SvmModel Model = trainCSvc(D, SvmParams());
  std::vector<double> Probe(31, 0.7);
  for (auto _ : State)
    benchmark::DoNotOptimize(Model.predict(Probe));
}
BENCHMARK(BM_SvmPredictModule);

static void BM_WorkloadCleanRun(benchmark::State &State) {
  auto W = makeWorkload("IS");
  auto M = compileWorkload(*W);
  ModuleLayout Layout(*M);
  for (auto _ : State) {
    WorkloadHarness H(*W, 1);
    ExecutionRecord R = H.execute(Layout, nullptr, UINT64_MAX);
    benchmark::DoNotOptimize(R.Steps);
  }
}
BENCHMARK(BM_WorkloadCleanRun);

/// One job of 100 allreduce rounds per iteration; range(0) is the
/// per-rank engine (0 = interpreter, 1 = VM), range(1) the rank count.
static void BM_MpiAllreduceRound(benchmark::State &State) {
  auto M = compileSnippet("int f(int n) { double s = 0.0;\n"
                          "  for (int i = 0; i < n; i = i + 1)\n"
                          "    s = s + mpi_allreduce_sum_d(1.0);\n"
                          "  return (int)s; }");
  ModuleLayout Layout(*M);
  std::unique_ptr<vm::VmProgram> Prog = vm::compile(Layout);
  bool OnVm = State.range(0) != 0;
  int Ranks = static_cast<int>(State.range(1));
  for (auto _ : State) {
    MpiJob::Config Cfg;
    Cfg.NumRanks = Ranks;
    std::optional<MpiJob> Job;
    if (OnVm)
      Job.emplace(*Prog, Cfg);
    else
      Job.emplace(Layout, Cfg);
    Job->start(M->getFunction("f"), [](int) {
      return std::vector<RtValue>{RtValue::fromI64(100)};
    });
    benchmark::DoNotOptimize(Job->run());
  }
}
BENCHMARK(BM_MpiAllreduceRound)
    ->ArgNames({"vm", "ranks"})
    ->ArgsProduct({{0, 1}, {2, 8}});

static void BM_FaultInjectedRun(benchmark::State &State) {
  auto W = makeWorkload("IS");
  auto M = compileWorkload(*W);
  ModuleLayout Layout(*M);
  WorkloadHarness H(*W, 1);
  // Golden capture once.
  H.execute(Layout, nullptr, UINT64_MAX);
  Rng R(7);
  for (auto _ : State) {
    FaultPlan Plan;
    Plan.TargetValueStep = R.nextBelow(200000);
    Plan.BitDraw = R.next();
    benchmark::DoNotOptimize(H.execute(Layout, &Plan, 5000000));
  }
}
BENCHMARK(BM_FaultInjectedRun);

namespace {

/// Normal console output, plus a capture of per-benchmark real time so
/// the run can be written out as BENCH_micro_substrates.json alongside
/// the other harnesses' reports.
class CapturingReporter : public benchmark::ConsoleReporter {
public:
  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs)
      if (R.run_type == Run::RT_Iteration && !R.error_occurred)
        RealNs[R.benchmark_name()] = R.GetAdjustedRealTime();
    ConsoleReporter::ReportRuns(Runs);
  }

  std::map<std::string, double> RealNs;
};

void writeReport(const CapturingReporter &Rep, double WallSeconds) {
  ipas::obs::JsonWriter W;
  W.beginObject();
  W.key("benchmark").value("micro_substrates");
  W.key("config").beginObject();
  W.key("time_unit").value("ns_per_iteration");
  W.endObject();
  W.key("metrics").beginObject();
  for (const auto &[Name, Ns] : Rep.RealNs)
    W.key(Name).value(Ns);
  W.endObject();
  W.key("wall_seconds").value(WallSeconds);
  W.endObject();

  std::string Dir;
  if (const char *D = std::getenv("IPAS_BENCH_DIR"))
    Dir = std::string(D) + "/";
  std::string Path = Dir + "BENCH_micro_substrates.json";
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
    return;
  }
  std::fputs(W.str().c_str(), F);
  std::fputc('\n', F);
  std::fclose(F);
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  uint64_t Start = ipas::obs::monotonicMicros();
  CapturingReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  writeReport(Reporter, static_cast<double>(
                            ipas::obs::monotonicMicros() - Start) /
                            1e6);
  benchmark::Shutdown();
  return 0;
}
