//===- bench/fig6_soc_vs_slowdown.cpp - Paper Figure 6 --------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figure 6: % SOC reduction versus slowdown for the top-N
/// IPAS and Baseline configurations of each workload. Slowdown is the
/// clean-run dynamic-instruction ratio (protected / unprotected), the
/// documented stand-in for wall-clock time on this substrate.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

using namespace ipas;
using namespace ipas::bench;

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseOptions(
      Argc, Argv, "Figure 6: SOC reduction vs slowdown per configuration");
  printHeader("Figure 6: SOC reduction vs slowdown", Opts);
  BenchReport Report("fig6_soc_vs_slowdown", Opts);

  for (const auto &W : selectedWorkloads(Opts)) {
    WorkloadEvaluation WE = IpasPipeline(*W, Opts.Cfg).run();
    std::printf("%s\n", WE.WorkloadName.c_str());
    std::printf("  %-12s %-10s %-14s %-10s %-8s\n", "config", "slowdown",
                "soc-reduction", "dup-frac", "f-score");
    for (const VariantEvaluation &V : WE.Variants) {
      if (V.Tech == Technique::Unprotected)
        continue;
      std::printf("  %-12s %-10.3f %-14.1f %-10.3f %-8.3f\n",
                  V.Label.c_str(), V.Slowdown, V.SocReductionPct,
                  V.Dup.duplicatedFraction(), V.Config.FScore);
    }
    const VariantEvaluation *BI = WE.bestVariant(Technique::Ipas);
    const VariantEvaluation *BB = WE.bestVariant(Technique::Baseline);
    if (BI && BB)
      std::printf("  -> ideal-point best: %s (IPAS) vs %s (Baseline)\n\n",
                  BI->Label.c_str(), BB->Label.c_str());
    if (BI) {
      Report.metric(WE.WorkloadName + ".ipas_best_slowdown", BI->Slowdown);
      Report.metric(WE.WorkloadName + ".ipas_best_soc_reduction_pct",
                    BI->SocReductionPct);
    }
    if (BB) {
      Report.metric(WE.WorkloadName + ".baseline_best_slowdown",
                    BB->Slowdown);
      Report.metric(WE.WorkloadName + ".baseline_best_soc_reduction_pct",
                    BB->SocReductionPct);
    }
  }
  std::printf("(Paper shape: IPAS always offers a configuration with "
              "comparable SOC reduction\n at lower slowdown than the "
              "Shoestring-style baseline; full duplication costs most.)\n");
  return 0;
}
