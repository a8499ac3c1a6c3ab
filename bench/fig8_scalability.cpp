//===- bench/fig8_scalability.cpp - Paper Figure 8 -------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figure 8: strong-scaling slowdown of the best IPAS
/// configuration per workload as the MPI rank count grows. Slowdown is
/// the critical-path cycle ratio (steps + communication cost) of the
/// protected versus unprotected job.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

using namespace ipas;
using namespace ipas::bench;

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseOptions(
      Argc, Argv, "Figure 8: slowdown vs number of MPI processes");
  printHeader("Figure 8: strong-scaling slowdown (best IPAS config)",
              Opts);
  BenchReport Report("fig8_scalability", Opts);

  const int RankCounts[] = {1, 2, 4, 8};
  std::printf("%-10s", "workload");
  for (int P : RankCounts)
    std::printf("   P=%-5d", P);
  std::printf("\n");

  for (const auto &W : selectedWorkloads(Opts)) {
    IpasPipeline Pipeline(*W, Opts.Cfg);
    WorkloadEvaluation WE = Pipeline.run();
    const VariantEvaluation *Best = WE.bestVariant(Technique::Ipas);
    if (!Best) {
      std::printf("%-10s (no IPAS variant)\n", W->name().c_str());
      continue;
    }
    std::set<unsigned> Ids = Pipeline.selectInstructions(
        Technique::Ipas, Best->Config.Params, WE.Training);
    IpasPipeline::ProtectedModule PM = Pipeline.protect(Ids);

    std::printf("%-10s", W->name().c_str());
    for (int P : RankCounts) {
      double Slowdown = Pipeline.scalabilitySlowdown(PM, P);
      std::printf("   %-7.3f", Slowdown);
      Report.metric(W->name() + ".slowdown_p" + std::to_string(P),
                    Slowdown);
    }
    std::printf("   (config %s)\n", Best->Label.c_str());
  }
  std::printf("\n(Paper shape: the slowdown stays essentially constant "
              "with scale, since only\n computation code is "
              "instrumented.)\n");
  return 0;
}
