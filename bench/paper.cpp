//===- bench/paper.cpp - Paper §6 figures and tables -----------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates the paper's §6 evaluation as views of one pipeline run per
/// workload:
///   fig5    outcome breakdown (symptom / detected / masked / SOC) of the
///           unprotected code, full duplication and the top-N IPAS and
///           Baseline configurations, with the 95% margin of error on the
///           unprotected SOC proportion (§6.2)
///   fig6    % SOC reduction versus slowdown per configuration; slowdown
///           is the clean-run dynamic-instruction ratio (protected /
///           unprotected), the stand-in for wall-clock time here
///   fig7    average % duplicated instructions over the top-N
///           configurations, IPAS vs Baseline, plus full duplication
///   table4  best IPAS and Baseline configurations under the ideal-point
///           criterion (closest to slowdown = 1, SOC reduction = 100)
///   fig8    strong-scaling slowdown of the best IPAS configuration as the
///           MPI rank count grows (critical-path cycle ratio)
///   fig9    SOC reduction of the best IPAS configuration, trained on
///           input 1, on the larger inputs 2-4 of Table 5
///   table6  training time (grid search, step 3) and classification +
///           duplication time (step 4)
/// `--view` picks a comma-separated subset (default all); the views print
/// in the order above. fig8 and fig9 share one protected module.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include <set>
#include <sstream>

using namespace ipas;
using namespace ipas::bench;

namespace {

/// One workload's evaluation plus the extra measurements fig8 and fig9
/// take on its best IPAS configuration (empty when not requested or when
/// the workload has no IPAS variant).
struct WorkloadResult {
  WorkloadEvaluation WE;
  std::vector<double> RankSlowdowns;   ///< fig8, one per RankCounts entry.
  std::vector<double> InputReductions; ///< fig9, SOC reduction on inputs 1-4.
};

using Results = std::vector<WorkloadResult>;

const int RankCounts[] = {1, 2, 4, 8};

void printOutcomeRow(const char *Label, const CampaignResult &C) {
  std::printf("  %-12s symptom=%5.1f%%  detected=%5.1f%%  masked=%5.1f%%  "
              "soc=%5.2f%%\n",
              Label,
              100.0 * (C.fraction(Outcome::Crash) +
                       C.fraction(Outcome::Hang)),
              100.0 * C.fraction(Outcome::Detected),
              100.0 * C.fraction(Outcome::Masked),
              100.0 * C.fraction(Outcome::SOC));
}

void fig5(const Results &Rs, BenchReport &Report) {
  for (const WorkloadResult &R : Rs) {
    const WorkloadEvaluation &WE = R.WE;
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
}

void fig6(const Results &Rs, BenchReport &Report) {
  for (const WorkloadResult &R : Rs) {
    const WorkloadEvaluation &WE = R.WE;
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
}

void fig7(const Results &Rs, BenchReport &Report) {
  std::printf("%-10s %12s %12s %12s\n", "workload", "ipas", "baseline",
              "full");
  for (const WorkloadResult &R : Rs) {
    const WorkloadEvaluation &WE = R.WE;
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
    double IpasPct = IpasN ? 100.0 * IpasSum / IpasN : 0.0;
    double BasePct = BaseN ? 100.0 * BaseSum / BaseN : 0.0;
    std::printf("%-10s %11.1f%% %11.1f%% %11.1f%%\n",
                WE.WorkloadName.c_str(), IpasPct, BasePct, 100.0 * Full);
    Report.metric(WE.WorkloadName + ".ipas_dup_pct", IpasPct);
    Report.metric(WE.WorkloadName + ".baseline_dup_pct", BasePct);
  }
  std::printf("\n(Paper shape: IPAS duplicates fewer instructions than "
              "Baseline on every code.)\n");
}

void table4(const Results &Rs, BenchReport &Report) {
  std::printf("%-10s | %14s %14s | %10s %10s\n", "Code", "SOC red. IPAS",
              "SOC red. Base", "Slow IPAS", "Slow Base");
  std::printf("%.*s\n", 70,
              "----------------------------------------------------------"
              "------------");
  for (const WorkloadResult &R : Rs) {
    const WorkloadEvaluation &WE = R.WE;
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
}

void fig8(const Results &Rs, BenchReport &Report) {
  std::printf("%-10s", "workload");
  for (int P : RankCounts)
    std::printf("   P=%-5d", P);
  std::printf("\n");
  for (const WorkloadResult &R : Rs) {
    const std::string &Name = R.WE.WorkloadName;
    const VariantEvaluation *Best = R.WE.bestVariant(Technique::Ipas);
    if (!Best) {
      std::printf("%-10s (no IPAS variant)\n", Name.c_str());
      continue;
    }
    std::printf("%-10s", Name.c_str());
    for (size_t I = 0; I < R.RankSlowdowns.size(); ++I) {
      std::printf("   %-7.3f", R.RankSlowdowns[I]);
      Report.metric(Name + ".slowdown_p" + std::to_string(RankCounts[I]),
                    R.RankSlowdowns[I]);
    }
    std::printf("   (config %s)\n", Best->Label.c_str());
  }
  std::printf("\n(Paper shape: the slowdown stays essentially constant "
              "with scale, since only\n computation code is "
              "instrumented.)\n");
}

void fig9(const Results &Rs, BenchReport &Report) {
  std::printf("%-10s %10s %10s %10s %10s %9s\n", "workload", "input1",
              "input2", "input3", "input4", "average");
  for (const WorkloadResult &R : Rs) {
    if (R.InputReductions.empty())
      continue;
    const std::string &Name = R.WE.WorkloadName;
    std::printf("%-10s", Name.c_str());
    double Sum = 0.0;
    for (size_t I = 0; I < R.InputReductions.size(); ++I) {
      Sum += R.InputReductions[I];
      std::printf(" %9.1f%%", R.InputReductions[I]);
      Report.metric(Name + ".soc_reduction_input" + std::to_string(I + 1),
                    R.InputReductions[I]);
    }
    std::printf(" %8.1f%%\n", Sum / 4.0);
    Report.metric(Name + ".soc_reduction_avg", Sum / 4.0);
  }
  std::printf("\n(Paper shape: SOC reduction on inputs 2-4 is comparable "
              "to the training input;\n the paper saw extra variability "
              "only on AMG.)\n");
}

void table6(const Results &Rs, BenchReport &Report) {
  std::printf("%-26s", "");
  for (const WorkloadResult &R : Rs) {
    std::printf("%10s", R.WE.WorkloadName.c_str());
    Report.metric(R.WE.WorkloadName + ".train_seconds",
                  R.WE.Training.TrainSeconds);
    Report.metric(R.WE.WorkloadName + ".duplicate_seconds",
                  R.WE.DuplicateSeconds);
  }
  std::printf("\n%-26s", "Training time (sec)");
  for (const WorkloadResult &R : Rs)
    std::printf("%10.2f", R.WE.Training.TrainSeconds);
  std::printf("\n%-26s", "Duplication time (sec)");
  for (const WorkloadResult &R : Rs)
    std::printf("%10.2f", R.WE.DuplicateSeconds);
  std::printf("\n%-26s", "Total time (sec)");
  for (const WorkloadResult &R : Rs)
    std::printf("%10.2f",
                R.WE.Training.TrainSeconds + R.WE.DuplicateSeconds);
  std::printf("\n");
}

struct View {
  const char *Name;
  const char *Title;
  void (*Print)(const Results &, BenchReport &);
};

const View Views[] = {
    {"fig5", "Figure 5: coverage results", fig5},
    {"fig6", "Figure 6: SOC reduction vs slowdown", fig6},
    {"fig7", "Figure 7: % duplicated instructions (top-N average)", fig7},
    {"table4", "Table 4: best configurations", table4},
    {"fig8", "Figure 8: strong-scaling slowdown (best IPAS config)", fig8},
    {"fig9", "Figure 9: SOC reduction across inputs", fig9},
    {"table6", "Table 6: training and duplication time", table6},
};

/// "fig5,fig6,...": every view name, in print order.
std::string viewNames() {
  std::string Names;
  for (const View &V : Views)
    Names += (Names.empty() ? "" : ",") + std::string(V.Name);
  return Names;
}

/// Parses the --view list; an empty list selects every view. Exits with
/// status 2 on an unknown name.
std::set<std::string> parseViews(const std::string &List) {
  std::stringstream SS(List.empty() ? viewNames() : List);
  std::set<std::string> On;
  std::string Name;
  while (std::getline(SS, Name, ',')) {
    bool Known = false;
    for (const View &V : Views)
      Known |= Name == V.Name;
    if (!Known) {
      std::fprintf(stderr,
                   "error: unknown --view '%s' (expected a comma list of "
                   "%s)\n",
                   Name.c_str(), viewNames().c_str());
      std::exit(2);
    }
    On.insert(Name);
  }
  return On;
}

/// Runs the pipeline once, then takes fig8's and fig9's measurements on
/// one protected module of the best IPAS configuration.
WorkloadResult evaluate(const Workload &W, const PipelineConfig &Cfg,
                        bool Fig8, bool Fig9) {
  IpasPipeline Pipeline(W, Cfg);
  WorkloadResult R{Pipeline.run(), {}, {}};
  const VariantEvaluation *Best = R.WE.bestVariant(Technique::Ipas);
  if (!Best || !(Fig8 || Fig9))
    return R;
  IpasPipeline::ProtectedModule Prot = Pipeline.protect(
      Pipeline.selectInstructions(Technique::Ipas, Best->Config.Params,
                                  R.WE.Training));
  if (Fig8)
    for (int P : RankCounts)
      R.RankSlowdowns.push_back(Pipeline.scalabilitySlowdown(Prot, P));
  if (Fig9) {
    IpasPipeline::ProtectedModule Unprot = Pipeline.protectNone();
    for (int Level = 1; Level <= 4; ++Level) {
      CampaignResult U =
          Pipeline.evaluate(Unprot, Cfg.Seed ^ (0xF90 + Level), Level);
      CampaignResult Pr =
          Pipeline.evaluate(Prot, Cfg.Seed ^ (0xF94 + Level), Level);
      double USoc = U.fraction(Outcome::SOC);
      R.InputReductions.push_back(
          USoc > 0.0 ? 100.0 * (USoc - Pr.fraction(Outcome::SOC)) / USoc
                     : 0.0);
    }
  }
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string ViewList;
  BenchOptions Opts = parseOptions(
      Argc, Argv, "Paper §6 figures and tables from one evaluation per "
                  "workload",
      [&](ArgParser &P) {
        P.addString("view", &ViewList,
                    "comma list of " + viewNames() + " (default all)");
      });
  std::set<std::string> On = parseViews(ViewList);
  BenchReport Report("paper", Opts);

  Results Rs;
  for (const auto &W : selectedWorkloads(Opts))
    Rs.push_back(evaluate(*W, Opts.Cfg, On.count("fig8"), On.count("fig9")));

  for (const View &V : Views) {
    if (!On.count(V.Name))
      continue;
    printHeader(V.Title, Opts);
    V.Print(Rs, Report);
  }
  return 0;
}
