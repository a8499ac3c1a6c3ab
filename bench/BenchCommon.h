//===- bench/BenchCommon.h - Shared harness plumbing for the benches ------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every table/figure harness accepts the same flags:
///   --runs N            evaluation injections per configuration
///   --train-samples N   training injections
///   --grid N            grid points per axis (N x N configurations)
///   --folds N           cross-validation folds
///   --top N             top-N configurations carried into evaluation
///   --seed S            master seed
///   --paper-scale       the paper's campaign sizes (2500/1024/25x20/5)
///   --workload NAME     restrict to one workload
/// Each harness runs the workload's full evaluation (IpasPipeline::run)
/// in-process and prints its own view of it.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_BENCH_BENCHCOMMON_H
#define IPAS_BENCH_BENCHCOMMON_H

#include "core/Pipeline.h"
#include "obs/Json.h"
#include "obs/Trace.h"
#include "support/ArgParser.h"
#include "support/Statistics.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace ipas {
namespace bench {

struct BenchOptions {
  PipelineConfig Cfg = PipelineConfig::defaults();
  std::string WorkloadFilter;
};

/// Parses the standard flag set; exits the process on --help or errors.
inline BenchOptions parseOptions(int Argc, const char *const *Argv,
                                 const std::string &Description) {
  int64_t Runs = -1, TrainSamples = -1, Grid = -1, Folds = -1, Top = -1;
  int64_t Seed = -1;
  bool PaperScale = false;
  std::string WorkloadFilter;

  ArgParser P(Description);
  P.addInt("runs", &Runs, "evaluation injections per configuration");
  P.addInt("train-samples", &TrainSamples, "training injections");
  P.addInt("grid", &Grid, "grid points per axis (NxN configurations)");
  P.addInt("folds", &Folds, "cross-validation folds");
  P.addInt("top", &Top, "top-N configurations to evaluate");
  P.addInt("seed", &Seed, "master seed");
  P.addBool("paper-scale", &PaperScale,
            "use the paper's campaign sizes (slow)");
  P.addString("workload", &WorkloadFilter,
              "restrict to one workload (CoMD/HPCCG/AMG/FFT/IS)");
  if (!P.parse(Argc, Argv))
    std::exit(2);

  BenchOptions Opts;
  Opts.Cfg = PaperScale ? PipelineConfig::paperScale()
                        : PipelineConfig::defaults();
  if (Runs > 0)
    Opts.Cfg.EvalRuns = static_cast<size_t>(Runs);
  if (TrainSamples > 0)
    Opts.Cfg.TrainSamples = static_cast<size_t>(TrainSamples);
  if (Grid > 0) {
    Opts.Cfg.Grid.CSteps = static_cast<unsigned>(Grid);
    Opts.Cfg.Grid.GammaSteps = static_cast<unsigned>(Grid);
  }
  if (Folds > 1)
    Opts.Cfg.Grid.Folds = static_cast<unsigned>(Folds);
  if (Top > 0)
    Opts.Cfg.TopN = static_cast<unsigned>(Top);
  if (Seed >= 0)
    Opts.Cfg.Seed = static_cast<uint64_t>(Seed);
  Opts.WorkloadFilter = WorkloadFilter;
  return Opts;
}

/// The workloads selected by --workload (all five by default).
inline std::vector<std::unique_ptr<Workload>>
selectedWorkloads(const BenchOptions &Opts) {
  if (Opts.WorkloadFilter.empty())
    return makeAllWorkloads();
  std::vector<std::unique_ptr<Workload>> One;
  if (auto W = makeWorkload(Opts.WorkloadFilter)) {
    One.push_back(std::move(W));
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 Opts.WorkloadFilter.c_str());
    std::exit(2);
  }
  return One;
}

inline void printHeader(const std::string &Title,
                        const BenchOptions &Opts) {
  std::printf("== %s ==\n", Title.c_str());
  std::printf("(train-samples=%zu eval-runs=%zu grid=%ux%u folds=%u "
              "top=%u seed=0x%llx)\n\n",
              Opts.Cfg.TrainSamples, Opts.Cfg.EvalRuns, Opts.Cfg.Grid.CSteps,
              Opts.Cfg.Grid.GammaSteps, Opts.Cfg.Grid.Folds, Opts.Cfg.TopN,
              static_cast<unsigned long long>(Opts.Cfg.Seed));
}

/// Machine-readable companion to the stdout tables: on destruction writes
/// BENCH_<name>.json (benchmark name, pipeline config, the metrics
/// recorded with metric(), and wall time) into the current directory, or
/// $IPAS_BENCH_DIR when set. Failures are warnings — a read-only
/// directory must not fail a benchmark run.
class BenchReport {
public:
  BenchReport(std::string BenchName, const BenchOptions &Opts)
      : Name(std::move(BenchName)), Opts(Opts),
        StartUs(obs::monotonicMicros()) {}

  void metric(const std::string &Key, double V) { Doubles[Key] = V; }
  void metric(const std::string &Key, uint64_t V) { Ints[Key] = V; }
  void metric(const std::string &Key, int V) {
    Ints[Key] = static_cast<uint64_t>(V);
  }

  ~BenchReport() {
    obs::JsonWriter W;
    W.beginObject();
    W.key("benchmark").value(Name);
    W.key("config").beginObject();
    W.key("train_samples").value(static_cast<uint64_t>(Opts.Cfg.TrainSamples));
    W.key("eval_runs").value(static_cast<uint64_t>(Opts.Cfg.EvalRuns));
    W.key("grid_c_steps").value(Opts.Cfg.Grid.CSteps);
    W.key("grid_gamma_steps").value(Opts.Cfg.Grid.GammaSteps);
    W.key("folds").value(Opts.Cfg.Grid.Folds);
    W.key("top").value(Opts.Cfg.TopN);
    char Seed[24];
    std::snprintf(Seed, sizeof(Seed), "0x%llx",
                  static_cast<unsigned long long>(Opts.Cfg.Seed));
    W.key("seed").value(Seed);
    if (!Opts.WorkloadFilter.empty())
      W.key("workload").value(Opts.WorkloadFilter);
    W.endObject();
    W.key("metrics").beginObject();
    for (const auto &[K, V] : Ints)
      W.key(K).value(V);
    for (const auto &[K, V] : Doubles)
      W.key(K).value(V);
    W.endObject();
    W.key("wall_seconds")
        .value(static_cast<double>(obs::monotonicMicros() - StartUs) / 1e6);
    W.endObject();

    std::string Dir;
    if (const char *D = std::getenv("IPAS_BENCH_DIR"))
      Dir = std::string(D) + "/";
    std::string Path = Dir + "BENCH_" + Name + ".json";
    FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
      return;
    }
    std::fputs(W.str().c_str(), F);
    std::fputc('\n', F);
    std::fclose(F);
  }

private:
  std::string Name;
  BenchOptions Opts;
  uint64_t StartUs = 0;
  std::map<std::string, uint64_t> Ints;
  std::map<std::string, double> Doubles;
};

/// One row of the Figure 5 style outcome breakdown.
inline void printOutcomeRow(const char *Label, const CampaignResult &C) {
  std::printf("  %-12s symptom=%5.1f%%  detected=%5.1f%%  masked=%5.1f%%  "
              "soc=%5.2f%%\n",
              Label,
              100.0 * (C.fraction(Outcome::Crash) +
                       C.fraction(Outcome::Hang)),
              100.0 * C.fraction(Outcome::Detected),
              100.0 * C.fraction(Outcome::Masked),
              100.0 * C.fraction(Outcome::SOC));
}

} // namespace bench
} // namespace ipas

#endif // IPAS_BENCH_BENCHCOMMON_H
