//===- bench/table4_best_configs.cpp - Paper Table 4 ----------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Table 4: the best IPAS and Baseline configurations under
/// the ideal-point criterion (closest to slowdown = 1, SOC reduction =
/// 100), with their SOC reduction and slowdown.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

using namespace ipas;
using namespace ipas::bench;

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseOptions(
      Argc, Argv, "Table 4: best configurations (ideal-point criterion)");
  printHeader("Table 4: best configurations", Opts);
  BenchReport Report("table4_best_configs", Opts);

  std::printf("%-10s | %14s %14s | %10s %10s\n", "Code", "SOC red. IPAS",
              "SOC red. Base", "Slow IPAS", "Slow Base");
  std::printf("%.*s\n", 70,
              "----------------------------------------------------------"
              "------------");
  for (const auto &W : selectedWorkloads(Opts)) {
    WorkloadEvaluation WE = IpasPipeline(*W, Opts.Cfg).run();
    const VariantEvaluation *BI = WE.bestVariant(Technique::Ipas);
    const VariantEvaluation *BB = WE.bestVariant(Technique::Baseline);
    if (!BI || !BB)
      continue;
    std::printf("%-10s | %13.2f%% %13.2f%% | %10.2f %10.2f\n",
                WE.WorkloadName.c_str(), BI->SocReductionPct,
                BB->SocReductionPct, BI->Slowdown, BB->Slowdown);
    Report.metric(WE.WorkloadName + ".ipas_soc_reduction_pct",
                  BI->SocReductionPct);
    Report.metric(WE.WorkloadName + ".ipas_slowdown", BI->Slowdown);
    Report.metric(WE.WorkloadName + ".baseline_soc_reduction_pct",
                  BB->SocReductionPct);
    Report.metric(WE.WorkloadName + ".baseline_slowdown", BB->Slowdown);
  }
  std::printf("\n(Paper, for reference: CoMD 67.6/62.7 at 1.17/2.09, HPCCG "
              "81.4/91.0 at 1.18/1.66,\n AMG 76.9/73.9 at 1.10/2.10, FFT "
              "90.0/88.5 at 1.35/1.81, IS 86.9/84.1 at 1.04/1.79.)\n");
  return 0;
}
