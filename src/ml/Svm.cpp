//===- ml/Svm.cpp --------------------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// SMO in the Fan–Chen–Lin style used by LIBSVM: at each iteration the
/// maximal violating pair (i from I_up, j from I_low) is selected by
/// first-order information, the two alphas are updated analytically under
/// the box constraints, and the gradient is maintained incrementally in
/// the same pass that selects the next pair.
///
//===----------------------------------------------------------------------===//

#include "ml/Svm.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cmath>
#include <limits>

using namespace ipas;

double ipas::rbfKernel(const std::vector<double> &A,
                       const std::vector<double> &B, double Gamma) {
  double Dist2 = 0.0;
  for (size_t J = 0; J != A.size(); ++J) {
    double D = A[J] - B[J];
    Dist2 += D * D;
  }
  return std::exp(-Gamma * Dist2);
}

double SvmModel::decision(const std::vector<double> &X) const {
  double Sum = Bias;
  for (size_t I = 0; I != SupportVectors.size(); ++I)
    Sum += Coefficients[I] * rbfKernel(SupportVectors[I], X, Gamma);
  return Sum;
}

std::vector<float>
ipas::rbfKernelMatrix(const std::vector<std::vector<double>> &X,
                      double Gamma) {
  // Float halves the footprint (N is at most a few thousand in every IPAS
  // training configuration, DESIGN.md "Model selection"); gridSearch
  // builds one matrix per gamma and slices it per fold.
  const size_t N = X.size();
  std::vector<float> K(N * N);
  for (size_t I = 0; I != N; ++I) {
    K[I * N + I] = 1.0f; // exp(0)
    for (size_t J = I + 1; J != N; ++J) {
      float V = static_cast<float>(rbfKernel(X[I], X[J], Gamma));
      K[I * N + J] = V;
      K[J * N + I] = V;
    }
  }
  return K;
}

SvmModel ipas::trainCSvc(const Dataset &D, const SvmParams &P) {
  return solveCSvc(D, rbfKernelMatrix(D.X, P.Gamma), P);
}

SvmModel ipas::solveCSvc(const Dataset &D, const std::vector<float> &K,
                         const SvmParams &P) {
  const size_t N = D.size();
  assert(N > 0 && "cannot train on an empty dataset");
  assert(K.size() == N * N && "kernel matrix does not match the dataset");
  size_t NumPos = D.countLabel(1);
  size_t NumNeg = N - NumPos;
  assert(NumPos > 0 && NumNeg > 0 && "need samples of both classes");

  double WPos = P.PositiveClassWeight;
  if (P.AutoClassWeight)
    WPos = static_cast<double>(NumNeg) / static_cast<double>(NumPos);
  const double CPos = P.C * WPos;
  const double CNeg = P.C;

  std::vector<double> Alpha(N, 0.0);
  std::vector<double> Cap(N);
  // V_i = -y_i G_i, where G_i = sum_j y_i y_j K_ij alpha_j - 1 is the
  // gradient of the dual objective; V is what working-set selection ranks.
  // Since y_i = +-1, maintaining V instead of G rounds exactly alike.
  std::vector<double> V(N);
  // Membership in I_up / I_low; only the updated pair can change.
  std::vector<unsigned char> Up(N), Low(N);
  for (size_t I = 0; I != N; ++I) {
    Cap[I] = D.Y[I] > 0 ? CPos : CNeg;
    V[I] = static_cast<double>(D.Y[I]); // G starts at -1
  }
  auto Refresh = [&](size_t I) {
    Up[I] = (D.Y[I] > 0 && Alpha[I] < Cap[I]) ||
            (D.Y[I] < 0 && Alpha[I] > 0.0);
    Low[I] = (D.Y[I] > 0 && Alpha[I] > 0.0) ||
             (D.Y[I] < 0 && Alpha[I] < Cap[I]);
  };
  for (size_t I = 0; I != N; ++I)
    Refresh(I);

  // Working-set selection: i maximizes V over I_up, j minimizes it over
  // I_low, first index on ties. It runs fused with the gradient update of
  // the previous step; the loop stops when the KKT gap closes.
  const double Inf = std::numeric_limits<double>::infinity();
  double GMax = -Inf, GMin = Inf;
  size_t Imax = N, Jmin = N;
  auto Consider = [&](size_t T, double VT) {
    bool NewMax = Up[T] && VT > GMax;
    GMax = NewMax ? VT : GMax;
    Imax = NewMax ? T : Imax;
    bool NewMin = Low[T] && VT < GMin;
    GMin = NewMin ? VT : GMin;
    Jmin = NewMin ? T : Jmin;
  };
  for (size_t T = 0; T != N; ++T)
    Consider(T, V[T]);

  size_t Iter = 0;
  for (; Iter != P.MaxIterations; ++Iter) {
    if (Imax == N || Jmin == N || GMax - GMin < P.Epsilon)
      break;

    const size_t I = Imax, J = Jmin;
    const double Yi = D.Y[I], Yj = D.Y[J];
    const float *Ki = &K[I * N];
    const float *Kj = &K[J * N];

    // Second-order curvature along the (i, j) direction.
    double Quad = Ki[I] + Kj[J] - 2.0 * Yi * Yj * Ki[J];
    if (Quad <= 0.0)
      Quad = 1e-12;
    double Delta = (GMax - GMin) / Quad;

    // Update alphas under box constraints (work in the y-scaled space).
    double OldAi = Alpha[I], OldAj = Alpha[J];
    Alpha[I] += Yi * Delta;
    Alpha[J] -= Yj * Delta;
    Alpha[I] = std::clamp(Alpha[I], 0.0, Cap[I]);
    // Preserve the equality constraint sum(y*alpha) = const.
    double Shift = Yi * (Alpha[I] - OldAi);
    Alpha[J] = OldAj - Yj * Shift;
    Alpha[J] = std::clamp(Alpha[J], 0.0, Cap[J]);
    // Re-adjust i in case j clipped.
    Shift = Yj * (Alpha[J] - OldAj);
    Alpha[I] = OldAi - Yi * Shift;
    Alpha[I] = std::clamp(Alpha[I], 0.0, Cap[I]);
    Refresh(I);
    Refresh(J);

    double DAi = (Alpha[I] - OldAi) * Yi;
    double DAj = (Alpha[J] - OldAj) * Yj;
    if (DAi == 0.0 && DAj == 0.0)
      break; // numerically stuck
    GMax = -Inf;
    GMin = Inf;
    Imax = Jmin = N;
    for (size_t T = 0; T != N; ++T) {
      double VT = V[T] - (DAi * Ki[T] + DAj * Kj[T]);
      V[T] = VT;
      Consider(T, VT);
    }
  }

  // Bias from the free support vectors (fall back to the KKT midpoint).
  double BiasSum = 0.0;
  size_t FreeCount = 0;
  double UpBound = -std::numeric_limits<double>::infinity();
  double LowBound = std::numeric_limits<double>::infinity();
  for (size_t I = 0; I != N; ++I) {
    if (Alpha[I] > 0.0 && Alpha[I] < Cap[I]) {
      BiasSum += V[I];
      ++FreeCount;
    }
    if (Up[I])
      UpBound = std::max(UpBound, V[I]);
    if (Low[I])
      LowBound = std::min(LowBound, V[I]);
  }
  double Bias = FreeCount ? BiasSum / static_cast<double>(FreeCount)
                          : (UpBound + LowBound) / 2.0;

  // Dual objective from the maintained gradient: G = Q alpha - e, so
  // f(alpha) = 0.5 alpha'Q alpha - e'alpha = 0.5 (alpha'G - e'alpha).
  double AlphaDotG = 0.0, AlphaSum = 0.0;
  for (size_t I = 0; I != N; ++I) {
    AlphaDotG += Alpha[I] * (-static_cast<double>(D.Y[I]) * V[I]);
    AlphaSum += Alpha[I];
  }
  double Objective = 0.5 * (AlphaDotG - AlphaSum);

  SvmModel Model;
  Model.Gamma = P.Gamma;
  Model.Bias = Bias;
  Model.Iterations = Iter;
  Model.FinalObjective = Objective;
  for (size_t I = 0; I != N; ++I)
    if (Alpha[I] > 1e-12) {
      Model.SupportVectors.push_back(D.X[I]);
      Model.Coefficients.push_back(Alpha[I] *
                                   static_cast<double>(D.Y[I]));
    }

  auto &Reg = obs::MetricsRegistry::global();
  static obs::Counter &Trainings = Reg.counter("ml.svm.trainings");
  static obs::Counter &Iterations = Reg.counter("ml.svm.iterations");
  static obs::Histogram &IterHist = Reg.histogram("ml.svm.iterations_hist");
  Trainings.inc();
  Iterations.inc(Iter);
  IterHist.observe(Iter);
  if (obs::logEnabled(obs::Severity::Debug))
    obs::TraceSink::event("svm.train",
                          obs::AttrSet()
                              .add("samples", static_cast<uint64_t>(N))
                              .add("c", P.C)
                              .add("gamma", P.Gamma)
                              .add("iterations", static_cast<uint64_t>(Iter))
                              .add("objective", Objective)
                              .add("support_vectors",
                                   static_cast<uint64_t>(
                                       Model.SupportVectors.size())));
  return Model;
}
