//===- ml/Svm.h - C-SVC with RBF kernel trained by SMO ---------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A support vector classifier in the LIBSVM mold (the paper uses Chang &
/// Lin's C-SVM): the dual problem is solved by SMO with an RBF kernel and
/// per-class penalty weights to cope with the heavy class imbalance of SOC
/// training data (3-10% positives, §4.3.1). Working sets are chosen by
/// first-order information, the maximal violating pair; LIBSVM picks j
/// by second-order gain instead (Fan, Chen & Lin, JMLR 6, 2005), so the
/// iterations, though not the optimum, differ from LIBSVM's.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_ML_SVM_H
#define IPAS_ML_SVM_H

#include "ml/Dataset.h"

namespace ipas {

struct SvmParams {
  double C = 1.0;
  double Gamma = 0.1;
  /// KKT violation tolerance for SMO termination.
  double Epsilon = 1e-3;
  /// Extra penalty multiplier for the +1 class; with AutoClassWeight the
  /// multiplier is set to (#negatives / #positives) at training time.
  double PositiveClassWeight = 1.0;
  bool AutoClassWeight = true;
  size_t MaxIterations = 200000;
};

class SmoSolver;

/// A trained classifier: support vectors with coefficients and a bias.
class SvmModel {
public:
  /// Signed distance to the separating surface.
  double decision(const std::vector<double> &X) const;
  /// +1 or -1.
  int predict(const std::vector<double> &X) const {
    return decision(X) >= 0.0 ? 1 : -1;
  }

  size_t numSupportVectors() const { return SupportVectors.size(); }
  double gamma() const { return Gamma; }
  double bias() const { return Bias; }
  /// Number of SMO iterations the training run used.
  size_t iterationsUsed() const { return Iterations; }
  /// Final dual objective f(alpha) = 0.5 alpha'Q alpha - e'alpha reached
  /// by SMO (lower is better; telemetry/diagnostics only).
  double objective() const { return FinalObjective; }

private:
  friend class SmoSolver;

  std::vector<std::vector<double>> SupportVectors;
  std::vector<double> Coefficients; ///< alpha_i * y_i per support vector.
  double Bias = 0.0;
  double Gamma = 0.1;
  size_t Iterations = 0;
  double FinalObjective = 0.0;
};

/// Trains on \p D (features should be pre-scaled): solveCSvcPath(D, P,
/// {P.C}).
SvmModel trainCSvc(const Dataset &D, const SvmParams &P);

/// Fits \p D at each C in \p Cs (ascending; P.C is ignored) and returns
/// one model per entry, each bit-identical to trainCSvc with that C, its
/// iterations, objective, bias and support vectors included. C enters SMO
/// only through the box 0 <= alpha_i <= C (C * w+ for positives), so one
/// run at the largest C is also every smaller C's run up to the first
/// iteration where a value it clamps reaches the smaller box; each smaller
/// C resumes from there, and one that never gets there is the largest C's
/// fit. SMO runs over groups of rows with bitwise-equal features and the
/// same label, which take the same steps as their rows would one by one.
/// Counts each model under `ml.svm.trainings`/`ml.svm.iterations`, the
/// iterations it took over from the path instead of running under
/// `ml.svm.shared_iterations`, and a run that stopped at P.MaxIterations
/// under `ml.svm.capped_fits`. May run on any thread.
///
/// Checked in every build: an empty \p D, one whose labels do not match
/// its rows in number, whose rows differ in width, or that holds a label
/// other than +1/-1 or a non-finite feature, a non-finite P.Gamma, and
/// a \p Cs that is empty, not ascending or not positive throw
/// std::invalid_argument. A \p D with one class only has nothing to
/// separate and gives the constant classifier: no support vectors, 0
/// iterations, objective 0, and bias -inf if every label is -1, +inf if
/// every label is +1, so it predicts that label everywhere.
std::vector<SvmModel> solveCSvcPath(const Dataset &D, const SvmParams &P,
                                    const std::vector<double> &Cs);

/// RBF kernel exp(-gamma * ||A - B||^2).
double rbfKernel(const std::vector<double> &A, const std::vector<double> &B,
                 double Gamma);

} // namespace ipas

#endif // IPAS_ML_SVM_H
