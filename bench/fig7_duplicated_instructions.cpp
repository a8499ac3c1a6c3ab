//===- bench/fig7_duplicated_instructions.cpp - Paper Figure 7 ------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figure 7: average percentage of duplicated instructions
/// over the top-N configurations, IPAS vs Baseline (plus the full-
/// duplication ceiling). The paper's claim: IPAS protects fewer
/// instructions than the symptom-based baseline.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

using namespace ipas;
using namespace ipas::bench;

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseOptions(
      Argc, Argv, "Figure 7: average duplicated instructions");
  printHeader("Figure 7: % duplicated instructions (top-N average)", Opts);
  BenchReport Report("fig7_duplicated_instructions", Opts);

  std::printf("%-10s %12s %12s %12s\n", "workload", "ipas", "baseline",
              "full");
  for (const auto &W : selectedWorkloads(Opts)) {
    WorkloadEvaluation WE = IpasPipeline(*W, Opts.Cfg).run();
    double IpasSum = 0, BaseSum = 0, Full = 0;
    int IpasN = 0, BaseN = 0;
    for (const VariantEvaluation &V : WE.Variants) {
      if (V.Tech == Technique::Ipas) {
        IpasSum += V.Dup.duplicatedFraction();
        ++IpasN;
      } else if (V.Tech == Technique::Baseline) {
        BaseSum += V.Dup.duplicatedFraction();
        ++BaseN;
      } else if (V.Tech == Technique::FullDup) {
        Full = V.Dup.duplicatedFraction();
      }
    }
    std::printf("%-10s %11.1f%% %11.1f%% %11.1f%%\n",
                WE.WorkloadName.c_str(),
                IpasN ? 100.0 * IpasSum / IpasN : 0.0,
                BaseN ? 100.0 * BaseSum / BaseN : 0.0, 100.0 * Full);
    Report.metric(WE.WorkloadName + ".ipas_dup_pct",
                  IpasN ? 100.0 * IpasSum / IpasN : 0.0);
    Report.metric(WE.WorkloadName + ".baseline_dup_pct",
                  BaseN ? 100.0 * BaseSum / BaseN : 0.0);
  }
  std::printf("\n(Paper shape: IPAS duplicates fewer instructions than "
              "Baseline on every code.)\n");
  return 0;
}
