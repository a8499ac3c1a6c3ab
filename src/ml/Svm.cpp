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
/// the same pass that selects the next pair. solveCSvcPath fits a whole
/// ladder of C values from one run at the largest (DESIGN.md "Model
/// selection").
///
//===----------------------------------------------------------------------===//

#include "ml/Svm.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

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
  // builds one matrix per (gamma, fold).
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
  return std::move(solveCSvcPath(D, K, P, {P.C}).front());
}

namespace {

/// The box constraint 0 <= alpha_i <= cap(y_i). The regularization
/// parameter C enters SMO through nothing else.
struct Box {
  double CPos, CNeg;
  double cap(int Y) const { return Y > 0 ? CPos : CNeg; }
};

constexpr double Inf = std::numeric_limits<double>::infinity();

/// Working-set selection: i maximizes V over I_up, j minimizes it over
/// I_low, first index on ties (N when the set is empty).
struct WorkingSet {
  double GMax = -Inf, GMin = Inf;
  size_t Imax, Jmin;

  explicit WorkingSet(size_t N) : Imax(N), Jmin(N) {}
  void consider(size_t T, double VT, const unsigned char *Up,
                const unsigned char *Low) {
    bool NewMax = Up[T] && VT > GMax;
    GMax = NewMax ? VT : GMax;
    Imax = NewMax ? T : Imax;
    bool NewMin = Low[T] && VT < GMin;
    GMin = NewMin ? VT : GMin;
    Jmin = NewMin ? T : Jmin;
  }
};

/// Everything an SMO iteration reads besides the data, the kernel and
/// the box, as it stands at the start of iteration Iter.
struct SmoState {
  std::vector<double> Alpha;
  // V_i = -y_i G_i, where G_i = sum_j y_i y_j K_ij alpha_j - 1 is the
  // gradient of the dual objective; V is what working-set selection ranks.
  // Since y_i = +-1, maintaining V instead of G rounds exactly alike.
  std::vector<double> V;
  // Membership in I_up / I_low; only the updated pair can change.
  std::vector<unsigned char> Up, Low;
  WorkingSet Sel{0}; ///< The pair iteration Iter updates.
  size_t Iter = 0;
};

} // namespace

/// SMO over one dataset and kernel, under whatever box a run is given.
class ipas::SmoSolver {
public:
  SmoSolver(const Dataset &D, const std::vector<float> &K, const SvmParams &P)
      : D(D), K(K), P(P), N(D.size()) {}

  /// alpha = 0, so G = -e, and the first working set.
  SmoState start(const Box &B) const {
    SmoState S;
    S.Alpha.assign(N, 0.0);
    S.V.resize(N);
    S.Up.resize(N);
    S.Low.resize(N);
    for (size_t I = 0; I != N; ++I) {
      S.V[I] = static_cast<double>(D.Y[I]); // G starts at -1
      refresh(S, B, I);
    }
    S.Sel = WorkingSet(N);
    for (size_t T = 0; T != N; ++T)
      S.Sel.consider(T, S.V[T], S.Up.data(), S.Low.data());
    return S;
  }

  /// Iterates from \p S under \p B until the KKT gap closes, the working
  /// set empties, the step stalls or P.MaxIterations is reached. Before
  /// each update is written, calls Watch(S, I, J, PreI, PreJ, PreI2)
  /// with the iteration-start state, the pair and the three values the
  /// box clamps (alpha_i, alpha_j, then alpha_i re-adjusted).
  template <typename WatchFn>
  void run(SmoState &S, const Box &B, WatchFn &&Watch) const {
    // The selection lives in a local through the fused loop (stores to V
    // could alias S.Sel) and is written back to S once per iteration.
    WorkingSet W = S.Sel;
    double *V = S.V.data();
    const unsigned char *Up = S.Up.data(), *Low = S.Low.data();
    for (; S.Iter != P.MaxIterations; ++S.Iter) {
      if (W.Imax == N || W.Jmin == N || W.GMax - W.GMin < P.Epsilon)
        break;

      const size_t I = W.Imax, J = W.Jmin;
      const double Yi = D.Y[I], Yj = D.Y[J];
      const float *Ki = &K[I * N];
      const float *Kj = &K[J * N];

      // Second-order curvature along the (i, j) direction.
      double Quad = Ki[I] + Kj[J] - 2.0 * Yi * Yj * Ki[J];
      if (Quad <= 0.0)
        Quad = 1e-12;
      double Delta = (W.GMax - W.GMin) / Quad;

      // Update alphas under box constraints (work in the y-scaled space).
      const double OldAi = S.Alpha[I], OldAj = S.Alpha[J];
      const double CapI = B.cap(D.Y[I]), CapJ = B.cap(D.Y[J]);
      const double PreI = OldAi + Yi * Delta;
      double Ai = std::clamp(PreI, 0.0, CapI);
      // Preserve the equality constraint sum(y*alpha) = const.
      double Shift = Yi * (Ai - OldAi);
      const double PreJ = OldAj - Yj * Shift;
      const double Aj = std::clamp(PreJ, 0.0, CapJ);
      // Re-adjust i in case j clipped.
      Shift = Yj * (Aj - OldAj);
      const double PreI2 = OldAi - Yi * Shift;
      Ai = std::clamp(PreI2, 0.0, CapI);
      Watch(S, I, J, PreI, PreJ, PreI2);
      S.Alpha[I] = Ai;
      S.Alpha[J] = Aj;
      refresh(S, B, I);
      refresh(S, B, J);

      double DAi = (Ai - OldAi) * Yi;
      double DAj = (Aj - OldAj) * Yj;
      if (DAi == 0.0 && DAj == 0.0)
        break; // numerically stuck
      // Gradient update fused with the next working-set selection.
      W = WorkingSet(N);
      for (size_t T = 0; T != N; ++T) {
        double VT = V[T] - (DAi * Ki[T] + DAj * Kj[T]);
        V[T] = VT;
        W.consider(T, VT, Up, Low);
      }
      S.Sel = W;
    }
  }

  /// The model at \p S's final state under \p B, counted under `ml.svm.*`
  /// as a fit whose first \p Shared iterations ran on another C's path.
  SvmModel finish(const SmoState &S, const Box &B, double C,
                  size_t Shared) const {
    // Bias from the free support vectors (fall back to the KKT midpoint).
    double BiasSum = 0.0;
    size_t FreeCount = 0;
    double UpBound = -Inf;
    double LowBound = Inf;
    for (size_t I = 0; I != N; ++I) {
      if (S.Alpha[I] > 0.0 && S.Alpha[I] < B.cap(D.Y[I])) {
        BiasSum += S.V[I];
        ++FreeCount;
      }
      if (S.Up[I])
        UpBound = std::max(UpBound, S.V[I]);
      if (S.Low[I])
        LowBound = std::min(LowBound, S.V[I]);
    }
    double Bias = FreeCount ? BiasSum / static_cast<double>(FreeCount)
                            : (UpBound + LowBound) / 2.0;

    // Dual objective from the maintained gradient: G = Q alpha - e, so
    // f(alpha) = 0.5 alpha'Q alpha - e'alpha = 0.5 (alpha'G - e'alpha).
    double AlphaDotG = 0.0, AlphaSum = 0.0;
    for (size_t I = 0; I != N; ++I) {
      AlphaDotG += S.Alpha[I] * (-static_cast<double>(D.Y[I]) * S.V[I]);
      AlphaSum += S.Alpha[I];
    }

    SvmModel Model;
    Model.Gamma = P.Gamma;
    Model.Bias = Bias;
    Model.Iterations = S.Iter;
    Model.FinalObjective = 0.5 * (AlphaDotG - AlphaSum);
    for (size_t I = 0; I != N; ++I)
      if (S.Alpha[I] > 1e-12) {
        Model.SupportVectors.push_back(D.X[I]);
        Model.Coefficients.push_back(S.Alpha[I] *
                                     static_cast<double>(D.Y[I]));
      }
    record(Model, C, Shared);
    return Model;
  }

  /// The classifier with no support vectors and bias \p Bias, counted
  /// as a fit at \p C that ran no iterations.
  SvmModel constant(double Bias, double C) const {
    SvmModel Model;
    Model.Gamma = P.Gamma;
    Model.Bias = Bias;
    record(Model, C, 0);
    return Model;
  }

  /// Counts \p Model under `ml.svm.*`.
  void record(const SvmModel &Model, double C, size_t Shared) const {
    auto &Reg = obs::MetricsRegistry::global();
    static obs::Counter &Trainings = Reg.counter("ml.svm.trainings");
    static obs::Counter &Iterations = Reg.counter("ml.svm.iterations");
    static obs::Counter &SharedIterations =
        Reg.counter("ml.svm.shared_iterations");
    static obs::Histogram &IterHist =
        Reg.histogram("ml.svm.iterations_hist");
    const size_t Iter = Model.iterationsUsed();
    Trainings.inc();
    Iterations.inc(Iter);
    SharedIterations.inc(Shared);
    IterHist.observe(Iter);
    if (obs::logEnabled(obs::Severity::Debug))
      obs::TraceSink::event(
          "svm.train",
          obs::AttrSet()
              .add("samples", static_cast<uint64_t>(N))
              .add("c", C)
              .add("gamma", P.Gamma)
              .add("iterations", static_cast<uint64_t>(Iter))
              .add("shared_iterations", static_cast<uint64_t>(Shared))
              .add("objective", Model.objective())
              .add("support_vectors",
                   static_cast<uint64_t>(Model.numSupportVectors())));
  }

private:
  void refresh(SmoState &S, const Box &B, size_t I) const {
    const double Cap = B.cap(D.Y[I]);
    S.Up[I] = (D.Y[I] > 0 && S.Alpha[I] < Cap) ||
              (D.Y[I] < 0 && S.Alpha[I] > 0.0);
    S.Low[I] = (D.Y[I] > 0 && S.Alpha[I] > 0.0) ||
               (D.Y[I] < 0 && S.Alpha[I] < Cap);
  }

  const Dataset &D;
  const std::vector<float> &K;
  const SvmParams &P;
  const size_t N;
};

std::vector<SvmModel> ipas::solveCSvcPath(const Dataset &D,
                                          const std::vector<float> &K,
                                          const SvmParams &P,
                                          const std::vector<double> &Cs) {
  const size_t N = D.size();
  if (N == 0)
    throw std::invalid_argument("SVM: cannot train on an empty dataset");
  if (K.size() != N * N)
    throw std::invalid_argument(
        "SVM: kernel matrix does not match the dataset");
  if (Cs.empty())
    throw std::invalid_argument("SVM: no value of C to train at");
  for (size_t CI = 0; CI != Cs.size(); ++CI)
    if (!(Cs[CI] > 0.0) || (CI && Cs[CI] < Cs[CI - 1]))
      throw std::invalid_argument(
          "SVM: values of C must be positive and ascending");

  SmoSolver Solver(D, K, P);
  std::vector<SvmModel> Models(Cs.size());
  const size_t NumPos = D.countLabel(1);
  const size_t NumNeg = N - NumPos;
  if (NumPos == 0 || NumNeg == 0) {
    // Nothing to separate: the constant classifier.
    for (size_t CI = 0; CI != Cs.size(); ++CI)
      Models[CI] = Solver.constant(NumPos ? Inf : -Inf, Cs[CI]);
    return Models;
  }

  double WPos = P.PositiveClassWeight;
  if (P.AutoClassWeight)
    WPos = static_cast<double>(NumNeg) / static_cast<double>(NumPos);
  auto BoxAt = [&](size_t CI) { return Box{Cs[CI] * WPos, Cs[CI]}; };

  // One run at the largest C. A smaller C takes the same steps for as
  // long as no value its box would clamp reaches its cap (then every
  // clamp, I_up/I_low test and free-SV test agrees), so the first
  // iteration where one does is where its own run leaves the path: save
  // the state there and resume it afterwards. Smaller caps leave first.
  const size_t Last = Cs.size() - 1;
  SmoState S = Solver.start(BoxAt(Last));
  std::vector<SmoState> Resume; // Resume[CI]: where Cs[CI] left the path
  Solver.run(S, BoxAt(Last),
             [&](const SmoState &At, size_t I, size_t J, double PreI,
                 double PreJ, double PreI2) {
               for (size_t CI = Resume.size(); CI != Last; ++CI) {
                 const Box B = BoxAt(CI);
                 const double CapI = B.cap(D.Y[I]), CapJ = B.cap(D.Y[J]);
                 // Leave at >= (or NaN): a value equal to the cap clamps
                 // alike, but then alpha < cap no longer holds.
                 if (PreI < CapI && PreJ < CapJ && PreI2 < CapI)
                   return;
                 Resume.push_back(At);
               }
             });
  Models[Last] = Solver.finish(S, BoxAt(Last), Cs[Last], 0);

  auto NoWatch = [](const SmoState &, size_t, size_t, double, double,
                    double) {};
  for (size_t CI = 0; CI != Last; ++CI) {
    if (CI >= Resume.size()) {
      // Never left the path: the largest C's fit, iteration for iteration.
      Models[CI] = Models[Last];
      Solver.record(Models[CI], Cs[CI], S.Iter);
      continue;
    }
    SmoState &R = Resume[CI];
    const size_t Shared = R.Iter;
    Solver.run(R, BoxAt(CI), NoWatch);
    Models[CI] = Solver.finish(R, BoxAt(CI), Cs[CI], Shared);
    R = SmoState();
  }
  return Models;
}
