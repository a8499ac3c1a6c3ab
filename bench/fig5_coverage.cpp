//===- bench/fig5_coverage.cpp - Paper Figure 5 --------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figure 5: for each workload, the outcome breakdown
/// (observable symptom / detected by duplication / masked / SOC) of the
/// unprotected code, full duplication, and the top-N IPAS and Baseline
/// configurations, plus the 95% margin of error on the unprotected SOC
/// proportion (§6.2).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

using namespace ipas;
using namespace ipas::bench;

int main(int Argc, char **Argv) {
  BenchOptions Opts =
      parseOptions(Argc, Argv, "Figure 5: coverage results per workload");
  printHeader("Figure 5: coverage results", Opts);
  BenchReport Report("fig5_coverage", Opts);

  for (const auto &W : selectedWorkloads(Opts)) {
    WorkloadEvaluation WE = IpasPipeline(*W, Opts.Cfg).run();
    const VariantEvaluation *Unprot = WE.variant("unprotected");
    double SocP = Unprot->Campaign.fraction(Outcome::SOC);
    double Margin = proportionMarginOfError(
        SocP, Unprot->Campaign.totalRuns(), 0.95);
    std::printf("%s (unprotected SOC = %.2f%% +/- %.2f%% at 95%%)\n",
                WE.WorkloadName.c_str(), 100.0 * SocP, 100.0 * Margin);
    for (const VariantEvaluation &V : WE.Variants)
      printOutcomeRow(V.Label.c_str(), V.Campaign);
    std::printf("\n");
    Report.metric(WE.WorkloadName + ".unprotected_soc_pct", 100.0 * SocP);
    if (const VariantEvaluation *Best = WE.bestVariant(Technique::Ipas))
      Report.metric(WE.WorkloadName + ".ipas_best_soc_pct",
                    100.0 * Best->Campaign.fraction(Outcome::SOC));
  }
  std::printf("(Paper shape: SOC is a small minority of injections; "
              "masking dominates;\n full duplication and the protected "
              "variants convert SOC into detections.)\n");
  return 0;
}
