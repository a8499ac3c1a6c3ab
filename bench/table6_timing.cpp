//===- bench/table6_timing.cpp - Paper Table 6 -----------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Table 6: training time (grid search, step 3) and
/// classification + duplication time (step 4) per workload. Absolute
/// seconds depend on the machine and campaign scale; the paper's
/// observation is that training time is roughly constant across codes
/// (same sample count) and duplication time tracks code size.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

using namespace ipas;
using namespace ipas::bench;

int main(int Argc, char **Argv) {
  BenchOptions Opts =
      parseOptions(Argc, Argv, "Table 6: training and duplication time");
  printHeader("Table 6: training and duplication time", Opts);
  BenchReport Report("table6_timing", Opts);

  std::printf("%-26s", "");
  auto Workloads = selectedWorkloads(Opts);
  std::vector<WorkloadEvaluation> Evals;
  for (const auto &W : Workloads) {
    Evals.push_back(IpasPipeline(*W, Opts.Cfg).run());
    std::printf("%10s", W->name().c_str());
    Report.metric(W->name() + ".train_seconds",
                  Evals.back().Training.TrainSeconds);
    Report.metric(W->name() + ".duplicate_seconds",
                  Evals.back().DuplicateSeconds);
  }
  std::printf("\n%-26s", "Training time (sec)");
  for (const auto &WE : Evals)
    std::printf("%10.2f", WE.Training.TrainSeconds);
  std::printf("\n%-26s", "Duplication time (sec)");
  for (const auto &WE : Evals)
    std::printf("%10.2f", WE.DuplicateSeconds);
  std::printf("\n%-26s", "Total time (sec)");
  for (const auto &WE : Evals)
    std::printf("%10.2f", WE.Training.TrainSeconds + WE.DuplicateSeconds);
  std::printf("\n");
  return 0;
}
