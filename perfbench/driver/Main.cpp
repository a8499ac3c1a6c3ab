//===- perfbench/driver/Main.cpp - End-to-end IPAS pipeline benchmark --------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the real IPAS workflow, IpasPipeline::run(), on one workload in a
/// closed loop (one pipeline invocation at a time, single process, the
/// pipeline's own thread count) until --seconds have passed, checks every
/// repetition's outputs, and prints the metrics:
///
///   pipeline_bench --workload campaign --seed 0 --seconds 25 --out DIR
///   pipeline_bench_traced --workload training --seed 3 --seconds 25
///       --trace 1 --out DIR
///
/// Human-readable results go to stderr; the last line of stdout is one
/// JSON object {"correct", "attempted", "failed", "metrics"}. DIR receives
/// BENCH_pipeline_<workload>[_traced].json in the shape of the other
/// BENCH_*.json files, the traced run's spans, and the per-repetition
/// artifact directories (removed after each repetition).
///
/// See perfbench/README.md for the workloads and metrics.
///
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "core/Pipeline.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/ProfileStore.h"
#include "obs/RecordStore.h"
#include "obs/SessionStore.h"
#include "support/ArgParser.h"
#include "workloads/WorkloadHarness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <type_traits>

using namespace ipas;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

/// Taken during static initialization, as close to process start as this
/// program can observe.
const double ProcessStart = nowSeconds();

/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupRepeats = 9;

/// Figure 8 rank counts swept by the artifacts workload.
constexpr int RankCounts[] = {1, 2, 4, 8};
constexpr size_t NumRankCounts = sizeof(RankCounts) / sizeof(RankCounts[0]);

struct WorkloadSpec {
  const char *Name;
  const char *Program; ///< Paper workload the pipeline runs on.
  size_t TrainSamples;
  size_t EvalRuns;
  unsigned GridSteps; ///< Per axis: GridSteps x GridSteps configurations.
  unsigned Folds;
  unsigned TopN;
  /// Interprocedural pruning, all three artifact stores, read-back and the
  /// Figure 8 rank sweep.
  bool Artifacts;
  /// Layers a traced run must see calls into; zero calls means a wrapper
  /// stopped matching its symbol.
  std::vector<Layer> MustTrace;
};

// Why these three (README.md has the measured breakdowns):
//  - campaign: HPCCG's long runs make injection campaigns nearly all of the
//    work, so the fault/interp/vm execution layer decides wall time.
//  - training: IS's short runs with a 6x6 grid over 5 folds make SVM model
//    selection dominate; an execution-layer change should barely move it.
//  - artifacts: FFT with pruning, record/profile/session stores, read-back
//    and multi-rank runs; a gain for plain campaigns that costs these
//    paths shows here.
const WorkloadSpec Specs[] = {
    {"campaign", "HPCCG", 80, 10, 3, 3, 1, false,
     {Layer::Frontend, Layer::Transform, Layer::Analysis, Layer::Fault,
      Layer::Ml}},
    {"training", "IS", 200, 10, 6, 5, 1, false, {Layer::Fault, Layer::Ml}},
    {"artifacts", "FFT", 50, 15, 3, 3, 1, true,
     {Layer::Frontend, Layer::Transform, Layer::Analysis, Layer::Fault,
      Layer::Ml, Layer::Obs, Layer::Mpi}},
};

/// The pipeline seed of repetition inputs \p Sub under benchmark seed
/// \p Seed. Seed 0, inputs 0 is the pipeline's own default seed.
uint64_t pipelineSeed(uint64_t Seed, unsigned Sub) {
  return PipelineConfig::defaults().Seed ^ (Seed * 0x9E3779B97F4A7C15ull) ^
         (Sub * 0xC2B2AE3D27D4EB4Full);
}

//===-- Output digests ----------------------------------------------------===//

/// FNV-1a 64 over the fields fed to it (never over padding).
class Digest {
public:
  template <typename T> void add(const T &V) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&V, sizeof(V));
  }
  void add(const std::string &S) {
    add(static_cast<uint64_t>(S.size()));
    bytes(S.data(), S.size());
  }
  uint64_t value() const { return H; }

private:
  void bytes(const void *P, size_t N) {
    const auto *B = static_cast<const unsigned char *>(P);
    for (size_t I = 0; I != N; ++I) {
      H ^= B[I];
      H *= 0x100000001b3ull;
    }
  }
  uint64_t H = 0xcbf29ce484222325ull;
};

struct Digests {
  uint64_t Records = 0;  ///< Record streams of every campaign.
  uint64_t Configs = 0;  ///< Ranked (C, gamma) lists.
  uint64_t Variants = 0; ///< Variant table (+ rank sweep on artifacts).

  bool operator==(const Digests &O) const {
    return Records == O.Records && Configs == O.Configs &&
           Variants == O.Variants;
  }
};

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%016" PRIx64, V);
  return Buf;
}

void addRecords(Digest &D, const CampaignResult &C) {
  D.add(static_cast<uint64_t>(C.Records.size()));
  for (const InjectionRecord &R : C.Records) {
    D.add(R.InstructionId);
    D.add(R.BitIndex);
    D.add(R.TargetValueStep);
    D.add(static_cast<uint8_t>(R.Result));
  }
}

void addConfigs(Digest &D, const std::vector<RankedConfig> &Configs) {
  D.add(static_cast<uint64_t>(Configs.size()));
  for (const RankedConfig &RC : Configs) {
    D.add(RC.Params.C);
    D.add(RC.Params.Gamma);
    D.add(RC.FScore);
    D.add(RC.Accuracies.Accuracy1);
    D.add(RC.Accuracies.Accuracy2);
  }
}

/// Engine attribution (VmRuns/InterpRuns) is deliberately left out: the
/// backend that ran an injection must not change its outcome.
Digests digestEvaluation(const WorkloadEvaluation &WE,
                         const std::vector<double> &Sweep) {
  Digest Rec, Cfg, Var;
  addRecords(Rec, WE.Training.Campaign);
  for (const VariantEvaluation &V : WE.Variants) {
    Rec.add(V.Label);
    addRecords(Rec, V.Campaign);
  }
  addConfigs(Cfg, WE.Training.IpasConfigs);
  addConfigs(Cfg, WE.Training.BaselineConfigs);
  Var.add(static_cast<uint64_t>(WE.StaticInstructions));
  Var.add(static_cast<uint64_t>(WE.LinesOfCode));
  for (const VariantEvaluation &V : WE.Variants) {
    Var.add(V.Label);
    Var.add(static_cast<uint8_t>(V.Tech));
    Var.add(static_cast<uint64_t>(V.Dup.TotalInstructions));
    Var.add(static_cast<uint64_t>(V.Dup.SelectedInstructions));
    Var.add(static_cast<uint64_t>(V.Dup.DuplicatedInstructions));
    Var.add(static_cast<uint64_t>(V.Dup.ChecksInserted));
    Var.add(V.Campaign.CleanSteps);
    for (size_t Count : V.Campaign.Counts)
      Var.add(static_cast<uint64_t>(Count));
    Var.add(static_cast<uint64_t>(V.Campaign.PrunedRuns));
    Var.add(V.Slowdown);
    Var.add(V.SocReductionPct);
  }
  for (double S : Sweep)
    Var.add(S);
  return {Rec.value(), Cfg.value(), Var.value()};
}

//===-- One repetition ----------------------------------------------------===//

struct Context {
  const WorkloadSpec *Spec = nullptr;
  std::unique_ptr<Workload> W;
  PipelineConfig Cfg; ///< Seed is set per repetition.
  uint64_t Seed = 0;  ///< Benchmark seed.
  std::string WorkDir;
};

struct RepOutcome {
  unsigned Sub = 0; ///< Which inputs of the seed this repetition ran.
  double WallS = 0.0;
  double TrainS = 0.0;
  double SocReductionPct = 0.0;
  double SlowdownX = 0.0;
  uint64_t Injections = 0;
  std::vector<double> Sweep; ///< Slowdown per RankCounts entry.
  Digests D;
  std::string Error; ///< Empty when every check passed.
  RepTrace Trace;    ///< Filled on traced repetitions.
  std::map<std::string, double> Fallbacks; ///< vm.fallback.* deltas.
};

const char *const FallbackCounters[] = {
    "vm.fallback.compile", "vm.fallback.observer",
    "vm.fallback.profile_context", "vm.fallback.trace", "vm.fallback.other"};

std::map<std::string, uint64_t> readFallbacks() {
  std::map<std::string, uint64_t> Out;
  for (const char *Name : FallbackCounters)
    Out[Name] = obs::MetricsRegistry::global().counter(Name).value();
  return Out;
}

/// Compile, lay out and run the workload once, clean, on the pipeline's
/// backend, verifying the output.
bool warmUp(const Context &C) {
  std::unique_ptr<Module> M = compileWorkload(*C.W);
  ModuleLayout Layout(*M);
  WorkloadHarness H(*C.W, C.Cfg.InputLevel);
  H.setPreferredBackend(C.Cfg.Backend);
  ExecutionRecord R = H.execute(Layout, nullptr, UINT64_MAX);
  return R.Status == RunStatus::Finished && R.OutputValid;
}

std::string artifactPath(const std::string &Dir, const Workload &W,
                         const VariantEvaluation &V, const char *Ext) {
  return Dir + "/" + W.name() + "-" + V.Label + Ext;
}

/// Reopens every store the pipeline wrote with the public readers and
/// checks it against the session manifest and the in-memory evaluation.
std::string readBack(const Context &C, const PipelineConfig &Cfg,
                     const WorkloadEvaluation &WE) {
  for (const VariantEvaluation &V : WE.Variants) {
    std::string Err;
    obs::SessionStore S;
    std::string SesPath = artifactPath(Cfg.SessionDir, *C.W, V, ".ipses");
    if (!obs::readSessionStore(S, SesPath, &Err))
      return "read " + SesPath + ": " + Err;
    if (S.Label != V.Label || S.Runs != V.Campaign.totalRuns())
      return SesPath + ": manifest does not match the evaluation";
    if (S.Artifacts.size() != 2)
      return SesPath + ": expected a record and a profile artifact";
    for (const obs::SessionArtifact &A : S.Artifacts)
      if (obs::verifySessionArtifact(A, Cfg.SessionDir) !=
          obs::ArtifactState::Ok)
        return SesPath + ": size or checksum mismatch for " + A.Path;

    obs::RecordStore RS;
    std::string RecPath = artifactPath(Cfg.RecordDir, *C.W, V, ".iprec");
    if (!obs::readRecordStore(RS, RecPath, &Err))
      return "read " + RecPath + ": " + Err;
    if (RS.Rows.size() != V.Campaign.Records.size())
      return RecPath + ": row count differs from the campaign";
    for (size_t I = 0; I != RS.Rows.size(); ++I) {
      const obs::InjectionRow &Row = RS.Rows[I];
      const InjectionRecord &Rec = V.Campaign.Records[I];
      if (Row.InstructionId != Rec.InstructionId ||
          Row.BitIndex != Rec.BitIndex ||
          Row.TargetValueStep != Rec.TargetValueStep ||
          Row.Outcome != static_cast<uint8_t>(Rec.Result))
        return RecPath + ": row " + std::to_string(I) +
               " differs from the campaign";
    }

    obs::ProfileStore PS;
    std::string ProfPath = artifactPath(Cfg.ProfileDir, *C.W, V, ".ipprof");
    if (!obs::readProfileStore(PS, ProfPath, &Err))
      return "read " + ProfPath + ": " + Err;
  }
  long Files = 0;
  for (const std::string &Dir :
       {Cfg.RecordDir, Cfg.ProfileDir, Cfg.SessionDir})
    Files += std::distance(fs::directory_iterator(Dir),
                           fs::directory_iterator());
  if (Files != static_cast<long>(3 * WE.Variants.size()))
    return "unexpected files in the artifact directories";
  return {};
}

/// Structural checks that hold for every seed.
std::string checkInvariants(const PipelineConfig &Cfg,
                            const WorkloadEvaluation &WE) {
  auto Split = [](const CampaignResult &R) {
    return R.VmRuns + R.InterpRuns + R.PrunedRuns;
  };
  const CampaignResult &T = WE.Training.Campaign;
  if (T.Records.size() != Cfg.TrainSamples || Split(T) != Cfg.TrainSamples)
    return "training campaign ran the wrong number of injections";
  size_t Top = Cfg.TopN;
  if (WE.Training.IpasConfigs.size() != Top ||
      WE.Training.BaselineConfigs.size() != Top)
    return "grid search returned too few configurations";
  if (WE.Variants.size() != 2 + 2 * Top)
    return "unexpected number of variants";
  for (const VariantEvaluation &V : WE.Variants) {
    const CampaignResult &R = V.Campaign;
    if (R.Records.size() != Cfg.EvalRuns || R.totalRuns() != Cfg.EvalRuns ||
        Split(R) != Cfg.EvalRuns)
      return V.Label + ": campaign ran the wrong number of injections";
    if (!Cfg.InterproceduralAnalysis && R.PrunedRuns != 0)
      return V.Label + ": pruned runs without pruning";
    if (!(V.Slowdown >= 1.0) || !std::isfinite(V.SocReductionPct))
      return V.Label + ": slowdown or SOC reduction out of range";
  }
  if (!WE.bestVariant(Technique::Ipas))
    return "no IPAS variant";
  return {};
}

/// The protected module of variant \p V, rebuilt from the training
/// artifacts exactly as the pipeline built it.
IpasPipeline::ProtectedModule rebuild(const IpasPipeline &P,
                                      const WorkloadEvaluation &WE,
                                      const VariantEvaluation &V) {
  switch (V.Tech) {
  case Technique::Unprotected:
    return P.protectNone();
  case Technique::FullDup:
    return P.protectAll();
  case Technique::Ipas:
  case Technique::Baseline:
    break;
  }
  return P.protect(P.selectInstructions(V.Tech, V.Config.Params, WE.Training));
}

/// One verified clean run of every variant against the unprotected golden
/// output (the pipeline's own clean-run asserts are compiled out under
/// NDEBUG), plus the rank sweep recomputed from verified parallel runs.
std::string verifyVariants(const Context &C, const IpasPipeline &P,
                           const WorkloadEvaluation &WE,
                           const std::vector<double> &Sweep) {
  WorkloadHarness H(*C.W, C.Cfg.InputLevel);
  H.setPreferredBackend(C.Cfg.Backend);
  IpasPipeline::ProtectedModule Base = P.protectNone();
  ExecutionRecord Golden = H.execute(*Base.Layout, nullptr, UINT64_MAX);
  if (Golden.Status != RunStatus::Finished || !Golden.OutputValid)
    return "unprotected clean run failed";
  for (const VariantEvaluation &V : WE.Variants) {
    IpasPipeline::ProtectedModule PM = rebuild(P, WE, V);
    if (PM.Stats.DuplicatedInstructions != V.Dup.DuplicatedInstructions ||
        PM.Stats.ChecksInserted != V.Dup.ChecksInserted)
      return V.Label + ": rebuilt module differs from the evaluated one";
    ExecutionRecord R = H.execute(*PM.Layout, nullptr, UINT64_MAX);
    if (R.Status != RunStatus::Finished || !R.OutputValid)
      return V.Label + ": clean run failed verification";
    if (R.Steps != V.Campaign.CleanSteps)
      return V.Label + ": clean run step count differs from the campaign's";
  }
  if (Sweep.empty())
    return {};
  const VariantEvaluation *Best = WE.bestVariant(Technique::Ipas);
  IpasPipeline::ProtectedModule PM = rebuild(P, WE, *Best);
  for (size_t K = 0; K != NumRankCounts; ++K) {
    WorkloadHarness HR(*C.W, C.Cfg.InputLevel, RankCounts[K]);
    ExecutionRecord U = HR.execute(*Base.Layout, nullptr, UINT64_MAX);
    ExecutionRecord R = HR.execute(*PM.Layout, nullptr, UINT64_MAX);
    if (U.Status != RunStatus::Finished || !U.OutputValid ||
        R.Status != RunStatus::Finished || !R.OutputValid)
      return "clean run with " + std::to_string(RankCounts[K]) +
             " ranks failed verification";
    double Expect = static_cast<double>(R.CriticalPathCycles) /
                    static_cast<double>(U.CriticalPathCycles);
    if (Expect != Sweep[K])
      return "rank sweep differs from verified runs at " +
             std::to_string(RankCounts[K]) + " ranks";
  }
  return {};
}

RepOutcome runRep(const Context &C, unsigned Rep, unsigned Sub, bool Traced,
                  bool Verify) {
  RepOutcome Out;
  Out.Sub = Sub;
  PipelineConfig Cfg = C.Cfg;
  Cfg.Seed = pipelineSeed(C.Seed, Sub);
  std::string Dir;
  if (C.Spec->Artifacts) {
    Dir = C.WorkDir + "/rep-" + std::to_string(Rep);
    fs::remove_all(Dir);
    Cfg.RecordDir = Dir + "/rec";
    Cfg.ProfileDir = Dir + "/prof";
    Cfg.SessionDir = Dir + "/ses";
    for (const std::string &D : {Cfg.RecordDir, Cfg.ProfileDir,
                                 Cfg.SessionDir})
      fs::create_directories(D);
  }

  std::map<std::string, uint64_t> FallbacksBefore = readFallbacks();
  if (Traced)
    Recorder::get().beginRep(Rep);
  double T0 = nowSeconds();

  IpasPipeline P(*C.W, Cfg);
  WorkloadEvaluation WE = P.run();
  const VariantEvaluation *Best = WE.bestVariant(Technique::Ipas);
  if (C.Spec->Artifacts) {
    {
      Scope S("obs.read", Layer::Obs);
      Out.Error = readBack(C, Cfg, WE);
    }
    if (Best) {
      Scope S("mpi.sweep", Layer::Mpi);
      IpasPipeline::ProtectedModule PM = rebuild(P, WE, *Best);
      for (int Ranks : RankCounts)
        Out.Sweep.push_back(P.scalabilitySlowdown(PM, Ranks));
    }
  }

  Out.WallS = nowSeconds() - T0;
  if (Traced)
    Out.Trace = Recorder::get().endRep();
  for (const auto &[Name, After] : readFallbacks())
    Out.Fallbacks[Name] =
        static_cast<double>(After - FallbacksBefore[Name]);
  if (!Dir.empty())
    fs::remove_all(Dir);

  Out.TrainS = WE.Training.TrainSeconds;
  Out.Injections = WE.Training.Campaign.totalRuns();
  for (const VariantEvaluation &V : WE.Variants)
    Out.Injections += V.Campaign.totalRuns();
  if (Best) {
    Out.SocReductionPct = Best->SocReductionPct;
    Out.SlowdownX = Best->Slowdown;
  }
  Out.D = digestEvaluation(WE, Out.Sweep);
  if (Out.Error.empty())
    Out.Error = checkInvariants(Cfg, WE);
  if (Out.Error.empty() && Verify)
    Out.Error = verifyVariants(C, P, WE, Out.Sweep);
  return Out;
}

//===-- Per-layer metrics -------------------------------------------------===//

using MetricMap = std::map<std::string, double>;

/// Per-layer metrics of one traced repetition; sets \p Err when the span
/// tree does not account for the repetition's wall time or a layer the
/// workload must exercise saw no calls.
MetricMap layerMetrics(const WorkloadSpec &Spec, const RepOutcome &O,
                       std::string &Err) {
  const RepTrace &T = O.Trace;
  auto Get = [&T](const char *Key) {
    auto It = T.Tallies.find(Key);
    return It == T.Tallies.end() ? Tally() : It->second;
  };
  auto PerSec = [](double N, double S) { return S > 0.0 ? N / S : 0.0; };
  MetricMap M;

  Tally Compile = Get("frontend.compile");
  M["frontend.compile_s"] = Compile.Seconds;
  M["frontend.compiles"] = static_cast<double>(Compile.Calls);

  Tally Dup = Get("transform.duplicate");
  M["transform.duplicate_s"] = Dup.Seconds;
  M["transform.duplicated_insts"] = Dup.Sum;

  Tally Prune = Get("analysis.prune");
  M["analysis.features_s"] = Get("analysis.features").Seconds;
  M["analysis.prune_s"] = Prune.Seconds;
  M["analysis.benign_sites"] = Prune.Sum;

  const CampaignTally &C = T.Campaigns;
  Tally Campaign = Get("fault.campaign");
  M["fault.campaign_s"] = Campaign.Seconds;
  M["fault.executed_runs"] = static_cast<double>(C.ExecutedRuns);
  M["fault.pruned_runs"] = static_cast<double>(C.PrunedRuns);
  M["fault.runs_per_s"] =
      PerSec(static_cast<double>(C.ExecutedRuns), Campaign.Seconds);
  M["fault.vm_runs"] = static_cast<double>(C.VmRuns);
  M["fault.interp_runs"] = static_cast<double>(C.InterpRuns);
  M["fault.clean_steps"] = static_cast<double>(C.CleanSteps);
  M["fault.hang_time_share"] =
      C.RunMicros > 0.0 ? C.HangMicros / C.RunMicros : 0.0;
  for (const auto &[Name, Delta] : O.Fallbacks)
    M[Name] = Delta;

  Tally Fit = Get("ml.fit");
  M["ml.grid_s"] = Get("ml.grid").Seconds;
  M["ml.svm_fits"] = static_cast<double>(Fit.Calls);
  M["ml.smo_iterations"] = Fit.Sum;
  M["ml.fits_per_s"] = PerSec(static_cast<double>(Fit.Calls), Fit.Seconds);
  M["ml.classify_s"] = Get("ml.classify").Seconds;

  Tally Written = Get("obs.artifact");
  M["obs.write_s"] = Get("obs.write").Seconds;
  M["obs.profile_s"] = Get("obs.profile").Seconds;
  M["obs.read_s"] = Get("obs.read").Seconds;
  M["obs.bytes_written"] = Written.Sum;
  M["obs.artifacts"] = static_cast<double>(Written.Calls);

  Tally Jobs = Get("mpi.job");
  M["mpi.jobs"] = static_cast<double>(Jobs.Calls);
  M["mpi.job_s"] = Jobs.Seconds;
  for (size_t K = 0; K != NumRankCounts; ++K)
    M["mpi.slowdown_x.r" + std::to_string(RankCounts[K])] =
        K < O.Sweep.size() ? O.Sweep[K] : 0.0;

  std::array<double, NumLayers> Self = layerSelfTimes(T.Spans);
  double Wall = T.Spans[0].End - T.Spans[0].Start;
  double Sum = 0.0, Attributed = 0.0;
  for (unsigned L = 0; L != NumLayers; ++L) {
    Sum += Self[L];
    if (L != static_cast<unsigned>(Layer::Core))
      Attributed += Self[L];
  }
  M["core.unattributed_s"] = Self[static_cast<size_t>(Layer::Core)];
  for (unsigned L = 1; L != NumLayers; ++L) {
    std::string Name = layerName(static_cast<Layer>(L));
    M[Name + ".self_s"] = Self[L];
    M[Name + ".share_pct"] =
        Attributed > 0.0 ? 100.0 * Self[L] / Attributed : 0.0;
  }
  M["trace.wall_s"] = Wall;
  M["trace.spans"] = static_cast<double>(T.Spans.size());

  if (std::fabs(Sum - Wall) > 1e-6 * Wall + 1e-9)
    Err = "layer self times do not sum to the traced wall time";
  for (Layer L : Spec.MustTrace) {
    bool Seen = false;
    for (const Span &S : T.Spans)
      Seen |= S.L == L;
    if (!Seen)
      Err = std::string("layer ") + layerName(L) +
            " recorded no calls: a wrapper no longer matches its symbol";
  }
  return M;
}

/// Unit of a per-layer metric, from its name.
const char *layerUnit(const std::string &Name) {
  auto Ends = [&Name](const char *Suffix) {
    size_t N = std::strlen(Suffix);
    return Name.size() >= N &&
           Name.compare(Name.size() - N, N, Suffix) == 0;
  };
  if (Ends("_per_s"))
    return "1/s";
  if (Ends("_s"))
    return "s";
  if (Ends("_pct"))
    return "%";
  if (Name.rfind("fault.latency_us", 0) == 0)
    return "us";
  if (Name.rfind("mpi.slowdown_x", 0) == 0)
    return "x";
  if (Ends("_share"))
    return "ratio";
  if (Ends("bytes_written"))
    return "bytes";
  return "count";
}

void writeSpans(const std::string &Path, const std::vector<RepOutcome> &Reps) {
  std::ofstream OutF(Path);
  for (const RepOutcome &O : Reps) {
    const std::vector<Span> &Spans = O.Trace.Spans;
    if (Spans.empty())
      continue;
    double Origin = Spans[0].Start;
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      obs::JsonWriter W;
      W.beginObject();
      W.key("rep").value(S.Rep);
      W.key("id").value(static_cast<uint64_t>(I));
      W.key("parent").value(static_cast<int64_t>(S.Parent));
      W.key("name").value(S.Name);
      W.key("layer").value(layerName(S.L));
      W.key("start_s").value(S.Start - Origin);
      W.key("end_s").value(S.End - Origin);
      W.endObject();
      OutF << W.str() << '\n';
    }
  }
}

/// Reference digests for the default seed, or null when the file has no
/// entry for \p Workload at \p Seed.
std::optional<Digests> referenceDigests(const std::string &Path,
                                        const std::string &Workload,
                                        uint64_t Seed) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::ostringstream SS;
  SS << In.rdbuf();
  std::optional<obs::JsonValue> Doc = obs::parseJson(SS.str());
  if (!Doc || !Doc->get("seed") || Doc->get("seed")->asU64() != Seed)
    return std::nullopt;
  const obs::JsonValue *Ws = Doc->get("workloads");
  const obs::JsonValue *E = Ws ? Ws->get(Workload) : nullptr;
  if (!E)
    return std::nullopt;
  auto Field = [E](const char *K) {
    const obs::JsonValue *V = E->get(K);
    return V ? std::strtoull(V->asString().c_str(), nullptr, 16) : 0ull;
  };
  return Digests{Field("records"), Field("configs"), Field("variants")};
}

double peakRssMiB() {
  struct rusage RU;
  std::memset(&RU, 0, sizeof(RU));
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, OutDir = ".", ReferencePath;
  int64_t Seed = 0, Seconds = 25, Trace = 0;
  ArgParser AP("pipeline_bench: end-to-end IPAS pipeline benchmark");
  AP.addString("workload", &WorkloadName, "campaign, training or artifacts");
  AP.addInt("seed", &Seed, "benchmark seed (0 is the pipeline default)");
  AP.addInt("seconds", &Seconds, "measure for this many seconds");
  AP.addInt("trace", &Trace, "1: traced run with per-layer metrics");
  AP.addString("out", &OutDir, "directory for results and scratch files");
  AP.addString("reference", &ReferencePath,
               "reference digests for the default seed (JSON)");
  if (!AP.parse(Argc, Argv))
    return 2;

#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  std::fprintf(stderr, "error: refusing to report timings from an "
                       "unoptimized or assert-enabled build (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif

  const WorkloadSpec *Spec = nullptr;
  for (const WorkloadSpec &S : Specs)
    if (WorkloadName == S.Name)
      Spec = &S;
  if (!Spec || Seed < 0 || Seconds < 1 || (Trace != 0 && Trace != 1)) {
    std::fprintf(stderr, "error: bad arguments\n%s", AP.usage().c_str());
    return 2;
  }
  if (Trace && !tracingLinked()) {
    std::fprintf(stderr, "error: --trace 1 needs pipeline_bench_traced\n");
    return 2;
  }

  Context C;
  C.Spec = Spec;
  C.W = makeWorkload(Spec->Program);
  // Every field the workload does not set stays at the pipeline default,
  // notably Backend, so a change of default shows up here.
  C.Cfg = PipelineConfig::defaults();
  C.Cfg.TrainSamples = Spec->TrainSamples;
  C.Cfg.EvalRuns = Spec->EvalRuns;
  C.Cfg.Grid.CSteps = Spec->GridSteps;
  C.Cfg.Grid.GammaSteps = Spec->GridSteps;
  C.Cfg.Grid.Folds = Spec->Folds;
  C.Cfg.TopN = Spec->TopN;
  C.Cfg.InterproceduralAnalysis = Spec->Artifacts;
  C.Seed = static_cast<uint64_t>(Seed);
  C.WorkDir = OutDir + "/work-" + std::to_string(getpid());

  // Set-up: compile, lay out and run one verified clean execution. The
  // first set-up is timed from process start.
  std::vector<double> SetupS;
  for (unsigned K = 0; K != SetupRepeats; ++K) {
    double T0 = K == 0 ? ProcessStart : nowSeconds();
    if (!warmUp(C)) {
      std::fprintf(stderr, "error: clean warm-up run failed verification\n");
      return 1;
    }
    SetupS.push_back(nowSeconds() - T0);
  }

  // Timed repetitions, in a closed loop. Each repetition runs the seed's
  // next inputs, so the medians cover several fault-plan draws. An
  // untraced run ends with a repeat of the first inputs; a traced run
  // runs every input untraced, then traced. Either way two repetitions
  // of the same inputs must agree, and the traced/untraced pairs give the
  // tracing overhead.
  std::vector<RepOutcome> Reps;
  double LoopStart = nowSeconds();
  for (unsigned Rep = 0;; ++Rep) {
    bool Traced = Trace && Rep % 2 == 1;
    unsigned Sub = Trace ? Rep / 2 : Rep;
    Reps.push_back(runRep(C, Rep, Sub, Traced, /*Verify=*/Rep == 0));
    if ((!Trace || Traced) &&
        nowSeconds() - LoopStart >= static_cast<double>(Seconds))
      break;
  }
  if (!Trace)
    Reps.push_back(runRep(C, static_cast<unsigned>(Reps.size()), 0,
                          /*Traced=*/false, /*Verify=*/false));
  fs::remove_all(C.WorkDir);
  double LoopSeconds = nowSeconds() - LoopStart;

  // Output checks: invariants and verification (per repetition), agreement
  // of repetitions of the same inputs, and the reference digests.
  std::optional<Digests> Ref = referenceDigests(
      ReferencePath, Spec->Name, static_cast<uint64_t>(Seed));
  unsigned Failed = 0;
  std::map<unsigned, Digests> FirstOfInputs;
  for (RepOutcome &O : Reps) {
    auto [It, New] = FirstOfInputs.emplace(O.Sub, O.D);
    if (O.Error.empty() && !New && !(O.D == It->second))
      O.Error = "two repetitions of the same inputs disagree";
    if (O.Error.empty() && Ref && O.Sub == 0 && !(O.D == *Ref))
      O.Error = "outputs differ from the reference digests";
    if (!O.Error.empty()) {
      ++Failed;
      std::fprintf(stderr, "FAILED repetition: %s\n", O.Error.c_str());
    }
  }

  std::vector<double> Walls, Overheads, Train, Soc, Slow, Injections;
  for (size_t I = 0; I != Reps.size(); ++I) {
    const RepOutcome &O = Reps[I];
    std::fprintf(stderr,
                 "rep %zu: inputs %u%s wall %.4f s, train %.4f s, best "
                 "IPAS variant: SOC reduction %.1f%%, slowdown %.3fx\n",
                 I, O.Sub, O.Trace.Spans.empty() ? "" : " (traced)", O.WallS,
                 O.TrainS, O.SocReductionPct, O.SlowdownX);
    if (O.Trace.Spans.empty())
      Walls.push_back(O.WallS);
    else
      Overheads.push_back(100.0 * (O.WallS / Reps[I - 1].WallS - 1.0));
    Train.push_back(O.TrainS);
    Soc.push_back(O.SocReductionPct);
    Slow.push_back(O.SlowdownX);
    Injections.push_back(static_cast<double>(O.Injections));
  }
  double Wall = median(Walls);
  double Attempted = static_cast<double>(Reps.size());

  // The result line's metrics: each is never 0 and steady across seeds.
  std::vector<Metric> EndToEnd = {
      {"wall_s", Wall, "s"},
      {"setup_s", median(SetupS), "s"},
      {"train_s", median(Train), "s"},
      {"injections_per_s", median(Injections) / Wall, "1/s"},
      {"peak_rss_mib", peakRssMiB(), "MiB"},
      {"verified_ops_pct", 100.0 * (Attempted - Failed) / Attempted, "%"},
  };
  // Reported but not on the result line: failed_ops_pct is 0 on a correct
  // run, and at benchmark campaign sizes the best variant's SOC reduction
  // and slowdown are set by each seed's fault-plan draws, varying by tens
  // of percent across seeds. The output digests pin them exactly instead.
  std::vector<Metric> Quality = {
      {"failed_ops_pct", 100.0 * Failed / Attempted, "%"},
      {"best_soc_reduction_pct", median(Soc), "%"},
      {"best_slowdown_x", median(Slow), "x"},
  };

  std::vector<Metric> PerLayer;
  std::string TraceErr;
  if (Trace) {
    std::map<std::string, std::vector<double>> Series;
    std::vector<double> Latency;
    for (const RepOutcome &O : Reps) {
      if (O.Trace.Spans.empty())
        continue;
      for (const auto &[K, V] : layerMetrics(*Spec, O, TraceErr))
        Series[K].push_back(V);
      Latency.insert(Latency.end(), O.Trace.Campaigns.LatencyUs.begin(),
                     O.Trace.Campaigns.LatencyUs.end());
    }
    for (const auto &[K, V] : Series)
      PerLayer.push_back({K, median(V), layerUnit(K)});
    PerLayer.push_back({"fault.latency_us.p50", percentile(Latency, 50.0),
                        "us"});
    PerLayer.push_back({"fault.latency_us.p99", percentile(Latency, 99.0),
                        "us"});
    PerLayer.push_back({"fault.latency_samples",
                        static_cast<double>(Latency.size()), "count"});
    PerLayer.push_back({"trace.overhead_pct", median(Overheads), "%"});
    if (supportedTailPercentile(Latency.size()) < 99.0)
      std::fprintf(stderr,
                   "note: %zu latency samples; p99 has fewer than ten "
                   "samples beyond it\n",
                   Latency.size());
    writeSpans(OutDir + "/spans-" + Spec->Name + ".jsonl", Reps);
  }
  bool Correct = Failed == 0 && TraceErr.empty();
  if (!TraceErr.empty())
    std::fprintf(stderr, "FAILED traced run: %s\n", TraceErr.c_str());

  // Human-readable report.
  std::array<double, 3> Q = quartiles(Walls);
  std::fprintf(stderr,
               "\n== pipeline benchmark: %s (%s), seed %" PRId64
               ", %zu repetitions in %.1f s ==\n",
               Spec->Name, Spec->Program, Seed, Reps.size(), LoopSeconds);
  std::fprintf(stderr, "wall_s over %zu untraced repetitions: q1 %.4f  "
                       "median %.4f  q3 %.4f\n",
               Walls.size(), Q[0], Q[1], Q[2]);
  std::vector<Metric> All = EndToEnd;
  All.insert(All.end(), Quality.begin(), Quality.end());
  All.insert(All.end(), PerLayer.begin(), PerLayer.end());
  for (const Metric &M : All)
    std::fprintf(stderr, "  %-28s %14.6g %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());
  std::fprintf(stderr, "digests: records %s configs %s variants %s%s\n",
               hex(Reps[0].D.Records).c_str(), hex(Reps[0].D.Configs).c_str(),
               hex(Reps[0].D.Variants).c_str(),
               Ref ? " (checked against the reference)" : "");

  // BENCH_*.json, the shape ipas-bench-diff and ipas-db ingest --bench read.
  {
    obs::JsonWriter W;
    std::string Bench = std::string("pipeline_") + Spec->Name;
    W.beginObject();
    W.key("benchmark").value(Bench);
    W.key("config").beginObject();
    W.key("workload").value(Spec->Name);
    W.key("program").value(Spec->Program);
    W.key("train_samples").value(static_cast<uint64_t>(C.Cfg.TrainSamples));
    W.key("eval_runs").value(static_cast<uint64_t>(C.Cfg.EvalRuns));
    W.key("grid_c_steps").value(C.Cfg.Grid.CSteps);
    W.key("grid_gamma_steps").value(C.Cfg.Grid.GammaSteps);
    W.key("folds").value(C.Cfg.Grid.Folds);
    W.key("top").value(C.Cfg.TopN);
    W.key("seed").value(Seed);
    W.key("first_pipeline_seed").value(hex(pipelineSeed(C.Seed, 0)));
    W.key("backend").value(backendName(C.Cfg.Backend));
    W.key("threads").value(1);
    W.key("nproc").value(static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    W.key("compiler").value(PERFBENCH_COMPILER);
    W.key("build_type").value(PERFBENCH_BUILD_TYPE);
    W.key("ndebug").value(true);
    W.key("traced").value(Trace == 1);
    W.key("repetitions").value(static_cast<uint64_t>(Reps.size()));
    W.key("digest_records").value(hex(Reps[0].D.Records));
    W.key("digest_configs").value(hex(Reps[0].D.Configs));
    W.key("digest_variants").value(hex(Reps[0].D.Variants));
    W.endObject();
    W.key("metrics").beginObject();
    for (const Metric &M : All)
      W.key(M.Name).value(M.Value);
    W.endObject();
    W.key("wall_seconds").value(nowSeconds() - ProcessStart);
    W.endObject();
    std::string Path = OutDir + "/BENCH_" + Bench + (Trace ? "_traced" : "") +
                       ".json";
    std::ofstream OutF(Path);
    OutF << W.str() << '\n';
    if (!OutF)
      std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
  }

  // The result line: end-to-end metrics untraced, per-layer ones traced.
  obs::JsonWriter R;
  R.beginObject();
  R.key("correct").value(Correct);
  R.key("attempted").value(static_cast<uint64_t>(Reps.size()));
  R.key("failed").value(static_cast<uint64_t>(Failed));
  R.key("metrics").beginObject();
  for (const Metric &M : Trace ? PerLayer : EndToEnd) {
    R.key(M.Name).beginObject();
    R.key("value").value(M.Value);
    R.key("unit").value(M.Unit);
    R.endObject();
  }
  R.endObject();
  R.endObject();
  std::printf("%s\n", R.str().c_str());
  return Correct ? 0 : 1;
}
