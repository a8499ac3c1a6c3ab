//===- ml/ModelSelection.cpp --------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ml/ModelSelection.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/ParallelFor.h"

#include <algorithm>
#include <array>
#include <cmath>

using namespace ipas;

double ipas::fScore(const ClassAccuracies &A) {
  double Sum = A.Accuracy1 + A.Accuracy2;
  if (Sum <= 0.0)
    return 0.0;
  return 2.0 * A.Accuracy1 * A.Accuracy2 / Sum;
}

namespace {

/// A test set's bitwise-distinct feature rows, each with its number of
/// samples per class ([0]: +1, [1]: -1). Equal rows get equal decision
/// values, so scoring each distinct row once counts what scoring every
/// row would.
struct DistinctRows {
  std::vector<const std::vector<double> *> X;
  std::vector<std::array<size_t, 2>> Count;

  explicit DistinctRows(const Dataset &Test) {
    std::vector<size_t> ByBytes(Test.size());
    for (size_t I = 0; I != Test.size(); ++I)
      ByBytes[I] = I;
    std::sort(ByBytes.begin(), ByBytes.end(), [&](size_t A, size_t B) {
      return compareRowBytes(Test.X[A], Test.X[B]) < 0;
    });
    for (size_t Pos = 0; Pos != ByBytes.size(); ++Pos) {
      const size_t I = ByBytes[Pos];
      if (!Pos || compareRowBytes(Test.X[ByBytes[Pos - 1]], Test.X[I])) {
        X.push_back(&Test.X[I]);
        Count.push_back({0, 0});
      }
      ++Count.back()[Test.Y[I] > 0 ? 0 : 1];
    }
  }
};

/// Correct/total counts per class ([0]: +1 samples, [1]: -1 samples).
/// Folds pool by summing counts, so a pooled score does not depend on the
/// order its folds ran in.
struct ClassTally {
  size_t Correct[2] = {}, Total[2] = {};

  void add(const SvmModel &Model, const Dataset &Test) {
    for (size_t I = 0; I != Test.size(); ++I) {
      bool Positive = Test.Y[I] > 0;
      ++Total[!Positive];
      Correct[!Positive] += (Model.predict(Test.X[I]) > 0) == Positive;
    }
  }
  /// The counts add(Model, Test) gives, from one decision per distinct
  /// row of Test.
  void add(const SvmModel &Model, const DistinctRows &Test) {
    for (size_t R = 0; R != Test.X.size(); ++R) {
      const size_t Hit = Model.predict(*Test.X[R]) > 0 ? 0 : 1;
      for (size_t C = 0; C != 2; ++C)
        Total[C] += Test.Count[R][C];
      Correct[Hit] += Test.Count[R][Hit];
    }
  }
  void add(const ClassTally &O) {
    for (size_t C = 0; C != 2; ++C) {
      Correct[C] += O.Correct[C];
      Total[C] += O.Total[C];
    }
  }
  ClassAccuracies accuracies() const {
    auto Ratio = [this](size_t C) {
      return Total[C] ? static_cast<double>(Correct[C]) /
                            static_cast<double>(Total[C])
                      : 0.0;
    };
    return {Ratio(0), Ratio(1)};
  }
};

/// One cross-validation fold. Train keeps the dataset's row order.
struct Fold {
  Dataset Train, Test;
};

} // namespace

ClassAccuracies ipas::evaluateModel(const SvmModel &Model,
                                    const Dataset &Test) {
  ClassTally T;
  T.add(Model, Test);
  return T.accuracies();
}

/// Builds stratified folds: each class's samples are shuffled and dealt
/// round-robin so every fold sees the minority class. Returns the usable
/// folds in order; a tiny minority class can leave a fold without a class
/// to train on (or, with fewer samples than folds, nothing to test).
static std::vector<Fold> stratifiedFolds(const Dataset &D, unsigned Folds,
                                         Rng &R) {
  std::vector<size_t> Pos, Neg;
  for (size_t I = 0; I != D.size(); ++I)
    (D.Y[I] > 0 ? Pos : Neg).push_back(I);
  auto ShuffleIdx = [&](std::vector<size_t> &V) {
    R.shuffle(V.size(), [&](size_t A, size_t B) { std::swap(V[A], V[B]); });
  };
  ShuffleIdx(Pos);
  ShuffleIdx(Neg);
  std::vector<unsigned> FoldOf(D.size(), 0);
  unsigned Next = 0;
  for (size_t I : Pos)
    FoldOf[I] = Next++ % Folds;
  for (size_t I : Neg)
    FoldOf[I] = Next++ % Folds;

  std::vector<Fold> Out(Folds);
  for (size_t I = 0; I != D.size(); ++I)
    for (unsigned F = 0; F != Folds; ++F) {
      if (F == FoldOf[I]) {
        Out[F].Test.add(D.X[I], D.Y[I]);
        continue;
      }
      Out[F].Train.add(D.X[I], D.Y[I]);
    }
  std::erase_if(Out, [](const Fold &F) {
    return F.Train.countLabel(1) == 0 || F.Train.countLabel(-1) == 0 ||
           F.Test.size() == 0;
  });
  return Out;
}

ClassAccuracies ipas::crossValidate(const Dataset &D, const SvmParams &P,
                                    unsigned Folds, Rng &R) {
  if (Folds < 2)
    return {};
  ClassTally T;
  for (const Fold &F : stratifiedFolds(D, Folds, R))
    T.add(trainCSvc(F.Train, P), F.Test);
  return T.accuracies();
}

/// Log-spaced values from Lo to Hi inclusive.
static std::vector<double> logSpace(double Lo, double Hi, unsigned Steps) {
  std::vector<double> V;
  if (Steps == 1) {
    V.push_back(Lo);
    return V;
  }
  double LogLo = std::log10(Lo);
  double LogHi = std::log10(Hi);
  for (unsigned I = 0; I != Steps; ++I)
    V.push_back(std::pow(
        10.0, LogLo + (LogHi - LogLo) * static_cast<double>(I) /
                          static_cast<double>(Steps - 1)));
  return V;
}

std::vector<RankedConfig> ipas::gridSearch(const Dataset &D,
                                           const GridSearchConfig &Cfg) {
  std::vector<RankedConfig> Results;
  if (Cfg.Folds < 2)
    return Results;
  std::vector<double> Cs = logSpace(Cfg.CMin, Cfg.CMax, Cfg.CSteps);
  std::vector<double> Gammas =
      logSpace(Cfg.GammaMin, Cfg.GammaMax, Cfg.GammaSteps);

  obs::PhaseSpan Span(
      "grid_search",
      obs::AttrSet()
          .add("configs", static_cast<uint64_t>(Cs.size() * Gammas.size()))
          .add("folds", Cfg.Folds)
          .add("samples", static_cast<uint64_t>(D.size())));
  auto &Reg = obs::MetricsRegistry::global();
  Reg.counter("ml.grid.configs").inc(Cs.size() * Gammas.size());

  // Every configuration scores on the same fold split, the one
  // crossValidate would draw from Rng(Cfg.Seed ^ 0x9e37).
  Rng FoldRng(Cfg.Seed ^ 0x9e37);
  std::vector<Fold> Split = stratifiedFolds(D, Cfg.Folds, FoldRng);

  // One unit per (gamma, fold) on the worker pool: one regularization
  // path over every C (solveCSvcPath, exact per C), whose models score
  // the fold's distinct test rows, each once. A unit writes only its own
  // slots, and a configuration sums its slots in fold order, so the
  // ranking is the serial one whatever the thread count or schedule. The
  // path needs ascending Cs; Order maps them back.
  std::vector<size_t> Order(Cs.size());
  for (size_t CI = 0; CI != Cs.size(); ++CI)
    Order[CI] = CI;
  std::stable_sort(Order.begin(), Order.end(),
                   [&](size_t A, size_t B) { return Cs[A] < Cs[B]; });
  std::vector<double> PathCs;
  for (size_t CI : Order)
    PathCs.push_back(Cs[CI]);
  auto Params = [&](size_t GI, size_t CI) {
    SvmParams P;
    P.C = Cs[CI];
    P.Gamma = Gammas[GI];
    P.MaxIterations = Cfg.MaxIterations;
    return P;
  };
  const size_t NumFolds = Split.size();
  std::vector<DistinctRows> Tests;
  for (const Fold &Fo : Split)
    Tests.emplace_back(Fo.Test);
  obs::Counter &SolveUs = Reg.counter("ml.grid.solve_us");
  obs::Counter &ScoreUs = Reg.counter("ml.grid.score_us");
  obs::Counter &ScoredRows = Reg.counter("ml.grid.scored_rows");
  std::vector<ClassTally> Slots(Gammas.size() * Cs.size() * NumFolds);
  const size_t NumUnits = Cs.empty() ? 0 : Gammas.size() * NumFolds;
  parallelFor(NumUnits, hardwareWorkers(), [&](size_t U) {
    const size_t GI = U / NumFolds, F = U % NumFolds;
    const uint64_t Start = obs::monotonicMicros();
    std::vector<SvmModel> Path =
        solveCSvcPath(Split[F].Train, Params(GI, 0), PathCs);
    const uint64_t Solved = obs::monotonicMicros();
    for (size_t K = 0; K != Order.size(); ++K)
      Slots[(GI * Cs.size() + Order[K]) * NumFolds + F].add(Path[K],
                                                            Tests[F]);
    SolveUs.inc(Solved - Start);
    ScoreUs.inc(obs::monotonicMicros() - Solved);
    ScoredRows.inc(Path.size() * Tests[F].X.size());
  });

  Results.reserve(Cs.size() * Gammas.size());
  for (size_t GI = 0; GI != Gammas.size(); ++GI)
    for (size_t CI = 0; CI != Cs.size(); ++CI) {
      ClassTally T;
      for (size_t F = 0; F != NumFolds; ++F)
        T.add(Slots[(GI * Cs.size() + CI) * NumFolds + F]);
      RankedConfig RC;
      RC.Params = Params(GI, CI);
      RC.Accuracies = T.accuracies();
      RC.FScore = fScore(RC.Accuracies);
      Results.push_back(RC);
    }
  std::stable_sort(Results.begin(), Results.end(),
                   [](const RankedConfig &A, const RankedConfig &B) {
                     return A.FScore > B.FScore;
                   });
  if (!Results.empty())
    Span.addAttr(obs::AttrSet()
                     .add("best_fscore", Results.front().FScore)
                     .add("best_c", Results.front().Params.C)
                     .add("best_gamma", Results.front().Params.Gamma));
  return Results;
}
