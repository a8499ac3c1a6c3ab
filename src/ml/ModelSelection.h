//===- ml/ModelSelection.h - Cross validation, F-score, grid search -------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Model selection exactly as in the paper (§4.3.2): (C, gamma)
/// configurations are scored by stratified k-fold cross validation using
/// the F-score of Eq. (1) — the harmonic mean of the per-class accuracies
/// — and the top-N configurations are carried into the evaluation.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_ML_MODELSELECTION_H
#define IPAS_ML_MODELSELECTION_H

#include "ml/Svm.h"
#include "support/Random.h"

#include <vector>

namespace ipas {

/// Per-class accuracies of a classifier on a labeled set.
struct ClassAccuracies {
  double Accuracy1 = 0.0; ///< Fraction of +1 samples classified +1.
  double Accuracy2 = 0.0; ///< Fraction of -1 samples classified -1.
};

/// The paper's Eq. (1): 2 * A1 * A2 / (A1 + A2); 0 when degenerate.
double fScore(const ClassAccuracies &A);

/// Evaluates \p Model on \p Test.
ClassAccuracies evaluateModel(const SvmModel &Model, const Dataset &Test);

/// Stratified k-fold cross validation of one parameter setting. Returns
/// the pooled per-class accuracies over all folds; folds whose training
/// set lacks a class, or whose test set is empty, are skipped. \p Folds
/// must be at least 2: with fewer, in every build, the result is {0, 0}
/// and \p R is left untouched.
ClassAccuracies crossValidate(const Dataset &D, const SvmParams &P,
                              unsigned Folds, Rng &R);

struct GridSearchConfig {
  double CMin = 1.0;
  double CMax = 1e5;
  unsigned CSteps = 25;
  double GammaMin = 1e-5;
  double GammaMax = 1.0;
  unsigned GammaSteps = 20; ///< 25 x 20 = the paper's 500 configurations.
  unsigned Folds = 5; ///< At least 2 (see gridSearch).
  size_t MaxIterations = 200000;
  uint64_t Seed = 0x5eed;
};

/// One evaluated configuration.
struct RankedConfig {
  SvmParams Params;
  double FScore = 0.0;
  ClassAccuracies Accuracies;
};

/// Exhaustive grid search over log-spaced (C, gamma); returns all
/// configurations sorted by descending F-score (grid order, gamma-major,
/// on ties). Take the first N for the paper's "top-N configurations"
/// methodology (§6.1). Each configuration's score equals crossValidate's
/// with a fresh Rng(Cfg.Seed ^ 0x9e37), bit for bit, whatever the number
/// of threads the search runs on. Returns an empty ranking when
/// Cfg.Folds < 2.
std::vector<RankedConfig> gridSearch(const Dataset &D,
                                     const GridSearchConfig &Cfg);

} // namespace ipas

#endif // IPAS_ML_MODELSELECTION_H
