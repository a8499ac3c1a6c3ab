//===- ml/Svm.h - C-SVC with RBF kernel trained by SMO ---------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A support vector classifier in the LIBSVM mold (the paper uses Chang &
/// Lin's C-SVM): the dual problem is solved by SMO with Fan–Chen–Lin
/// maximal-violating-pair working-set selection, an RBF kernel, and
/// per-class penalty weights to cope with the heavy class imbalance of SOC
/// training data (3-10% positives, §4.3.1).
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
  friend SvmModel solveCSvc(const Dataset &D, const std::vector<float> &K,
                            const SvmParams &P);

  std::vector<std::vector<double>> SupportVectors;
  std::vector<double> Coefficients; ///< alpha_i * y_i per support vector.
  double Bias = 0.0;
  double Gamma = 0.1;
  size_t Iterations = 0;
  double FinalObjective = 0.0;
};

/// Trains on \p D (features should be pre-scaled). Requires at least one
/// sample of each class. Equivalent to
/// solveCSvc(D, rbfKernelMatrix(D.X, P.Gamma), P).
SvmModel trainCSvc(const Dataset &D, const SvmParams &P);

/// The N x N row-major kernel matrix of \p X in float: entry (I, J) is
/// rbfKernel(X[min(I, J)], X[max(I, J)], Gamma), the diagonal exactly 1.
std::vector<float> rbfKernelMatrix(const std::vector<std::vector<double>> &X,
                                   double Gamma);

/// The solver behind trainCSvc: trains on \p D given its kernel matrix
/// \p K, rbfKernelMatrix(D.X, P.Gamma). If D's rows are a subset of a
/// larger dataset's, kept in order, the matching rows and columns of that
/// dataset's matrix are the same bits. Counts every fit under `ml.svm.*`
/// and may run on any thread.
SvmModel solveCSvc(const Dataset &D, const std::vector<float> &K,
                   const SvmParams &P);

/// RBF kernel exp(-gamma * ||A - B||^2).
double rbfKernel(const std::vector<double> &A, const std::vector<double> &B,
                 double Gamma);

} // namespace ipas

#endif // IPAS_ML_SVM_H
