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
/// the same pass that selects the next pair, once per group of equal
/// rows. solveCSvcPath fits a whole ladder of C values from one run at
/// the largest (DESIGN.md "Model selection").
///
//===----------------------------------------------------------------------===//

#include "ml/Svm.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cmath>
#include <cstring>
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

SvmModel ipas::trainCSvc(const Dataset &D, const SvmParams &P) {
  return std::move(solveCSvcPath(D, P, {P.C}).front());
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
/// I_low, first index on ties (N when the set is empty). Candidates are
/// groups, each offering its smallest index in the set (N if none). The
/// scan keeps the first candidate in scan order, which is not always the
/// smallest index, and notes whether a later one tied it; settle() then
/// picks the smallest index among the tied.
struct WorkingSet {
  double GMax = -Inf, GMin = Inf;
  size_t Imax, Jmin;
  bool TieMax = false, TieMin = false;

  explicit WorkingSet(size_t N) : Imax(N), Jmin(N) {}
  void consider(double VT, size_t Up, size_t Low, size_t N) {
    if (Up != N && VT >= GMax) {
      TieMax = VT == GMax;
      if (!TieMax) {
        GMax = VT;
        Imax = Up;
      }
    }
    if (Low != N && VT <= GMin) {
      TieMin = VT == GMin;
      if (!TieMin) {
        GMin = VT;
        Jmin = Low;
      }
    }
  }
  /// Resolves ties over the \p G candidates just scanned.
  void settle(const double *V, const size_t *UpFirst,
              const size_t *LowFirst, size_t G, size_t N) {
    if (!(TieMax || TieMin))
      return;
    const double Max = GMax, Min = GMin;
    for (size_t T = 0; T != G; ++T) {
      if (TieMax && UpFirst[T] != N && V[T] == Max && UpFirst[T] < Imax) {
        GMax = V[T];
        Imax = UpFirst[T];
      }
      if (TieMin && LowFirst[T] != N && V[T] == Min && LowFirst[T] < Jmin) {
        GMin = V[T];
        Jmin = LowFirst[T];
      }
    }
  }
};

/// Everything an SMO iteration reads besides the data, the kernel and
/// the box, as it stands at the start of iteration Iter.
struct SmoState {
  std::vector<double> Alpha; ///< Per row.
  // Per group: V_i = -y_i G_i, where G_i = sum_j y_i y_j K_ij alpha_j - 1
  // is the gradient of the dual objective; V is what working-set
  // selection ranks. Since y_i = +-1, maintaining V instead of G rounds
  // exactly alike. Every row of a group has the same V.
  std::vector<double> V;
  // Per row, membership in I_up / I_low; only the updated pair can change.
  std::vector<unsigned char> Up, Low;
  // Per group, its smallest row index in I_up / I_low (N if none).
  std::vector<size_t> UpFirst, LowFirst;
  WorkingSet Sel{0}; ///< The pair iteration Iter updates.
  size_t Iter = 0;
};

} // namespace

/// SMO over one dataset, under whatever box a run is given. Rows with
/// bitwise-equal features and the same label form a group and share one
/// gradient entry and one kernel row (DESIGN.md "Model selection").
class ipas::SmoSolver {
public:
  SmoSolver(const Dataset &D, const SvmParams &P)
      : D(D), P(P), N(D.size()), GroupOf(N), Next(N, N) {
    // Sort by label, then feature bytes; a run of equal keys is a group,
    // its rows in ascending order, linked through Next.
    std::vector<size_t> ByKey(N);
    for (size_t I = 0; I != N; ++I)
      ByKey[I] = I;
    const size_t Bytes = D.dim() * sizeof(double);
    auto Compare = [&](size_t A, size_t B) {
      if (D.Y[A] != D.Y[B])
        return D.Y[A] < D.Y[B] ? -1 : 1;
      return Bytes ? std::memcmp(D.X[A].data(), D.X[B].data(), Bytes) : 0;
    };
    std::stable_sort(ByKey.begin(), ByKey.end(),
                     [&](size_t A, size_t B) { return Compare(A, B) < 0; });
    for (size_t Pos = 0; Pos != N; ++Pos) {
      const size_t I = ByKey[Pos];
      if (Pos && Compare(ByKey[Pos - 1], I) == 0)
        Next[ByKey[Pos - 1]] = I;
      else
        Lead.push_back(I);
      GroupOf[I] = Lead.size() - 1;
    }

    // The kernel over the groups' feature rows: entry (g, h) is the same
    // float as entry (i, j) of the N x N kernel for any i in g and j in h
    // (rbfKernel is symmetric bit for bit, and equal finite rows give
    // exp(-gamma * 0) = 1, the diagonal).
    const size_t G = Lead.size();
    K.resize(G * G);
    for (size_t A = 0; A != G; ++A) {
      K[A * G + A] = 1.0f; // exp(0)
      for (size_t B = A + 1; B != G; ++B) {
        float V = static_cast<float>(rbfKernel(D.X[Lead[A]], D.X[Lead[B]],
                                               P.Gamma));
        K[A * G + B] = V;
        K[B * G + A] = V;
      }
    }
  }

  /// alpha = 0, so G = -e, and the first working set.
  SmoState start(const Box &B) const {
    const size_t G = Lead.size();
    SmoState S;
    S.Alpha.assign(N, 0.0);
    S.V.resize(G);
    S.Up.resize(N);
    S.Low.resize(N);
    S.UpFirst.assign(G, N);
    S.LowFirst.assign(G, N);
    for (size_t A = 0; A != G; ++A)
      S.V[A] = static_cast<double>(D.Y[Lead[A]]); // G starts at -1
    for (size_t I = 0; I != N; ++I)
      refresh(S, B, I);
    S.Sel = WorkingSet(N);
    for (size_t A = 0; A != G; ++A)
      S.Sel.consider(S.V[A], S.UpFirst[A], S.LowFirst[A], N);
    S.Sel.settle(S.V.data(), S.UpFirst.data(), S.LowFirst.data(), G, N);
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
    const size_t G = Lead.size();
    WorkingSet W = S.Sel;
    double *V = S.V.data();
    const size_t *UpFirst = S.UpFirst.data(), *LowFirst = S.LowFirst.data();
    for (; S.Iter != P.MaxIterations; ++S.Iter) {
      if (W.Imax == N || W.Jmin == N || W.GMax - W.GMin < P.Epsilon)
        break;

      const size_t I = W.Imax, J = W.Jmin;
      const double Yi = D.Y[I], Yj = D.Y[J];
      const size_t GI = GroupOf[I], GJ = GroupOf[J];
      const float *Ki = &K[GI * G];
      const float *Kj = &K[GJ * G];

      // Second-order curvature along the (i, j) direction.
      double Quad = Ki[GI] + Kj[GJ] - 2.0 * Yi * Yj * Ki[GJ];
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
      // Gradient update fused with the next working-set selection, once
      // per group: every row of it would take the same step.
      W = WorkingSet(N);
      for (size_t T = 0; T != G; ++T) {
        double VT = V[T] - (DAi * Ki[T] + DAj * Kj[T]);
        V[T] = VT;
        W.consider(VT, UpFirst[T], LowFirst[T], N);
      }
      W.settle(V, UpFirst, LowFirst, G, N);
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
      const double VI = S.V[GroupOf[I]];
      if (S.Alpha[I] > 0.0 && S.Alpha[I] < B.cap(D.Y[I])) {
        BiasSum += VI;
        ++FreeCount;
      }
      if (S.Up[I])
        UpBound = std::max(UpBound, VI);
      if (S.Low[I])
        LowBound = std::min(LowBound, VI);
    }
    double Bias = FreeCount ? BiasSum / static_cast<double>(FreeCount)
                            : (UpBound + LowBound) / 2.0;

    // Dual objective from the maintained gradient: G = Q alpha - e, so
    // f(alpha) = 0.5 alpha'Q alpha - e'alpha = 0.5 (alpha'G - e'alpha).
    double AlphaDotG = 0.0, AlphaSum = 0.0;
    for (size_t I = 0; I != N; ++I) {
      AlphaDotG +=
          S.Alpha[I] * (-static_cast<double>(D.Y[I]) * S.V[GroupOf[I]]);
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
    record(Model, C, Shared, S.Iter == P.MaxIterations);
    return Model;
  }

  /// The classifier with no support vectors and bias \p Bias, counted
  /// as a fit at \p C that ran no iterations.
  SvmModel constant(double Bias, double C) const {
    SvmModel Model;
    Model.Gamma = P.Gamma;
    Model.Bias = Bias;
    record(Model, C, 0, false);
    return Model;
  }

  /// Counts \p Model under `ml.svm.*`; \p Capped if its run stopped at
  /// P.MaxIterations.
  void record(const SvmModel &Model, double C, size_t Shared,
              bool Capped) const {
    auto &Reg = obs::MetricsRegistry::global();
    static obs::Counter &Trainings = Reg.counter("ml.svm.trainings");
    static obs::Counter &Iterations = Reg.counter("ml.svm.iterations");
    static obs::Counter &SharedIterations =
        Reg.counter("ml.svm.shared_iterations");
    static obs::Counter &CappedFits = Reg.counter("ml.svm.capped_fits");
    static obs::Histogram &IterHist =
        Reg.histogram("ml.svm.iterations_hist");
    const size_t Iter = Model.iterationsUsed();
    Trainings.inc();
    Iterations.inc(Iter);
    SharedIterations.inc(Shared);
    CappedFits.inc(Capped);
    IterHist.observe(Iter);
    if (obs::logEnabled(obs::Severity::Debug))
      obs::TraceSink::event(
          "svm.train",
          obs::AttrSet()
              .add("samples", static_cast<uint64_t>(N))
              .add("groups", static_cast<uint64_t>(Lead.size()))
              .add("c", C)
              .add("gamma", P.Gamma)
              .add("iterations", static_cast<uint64_t>(Iter))
              .add("shared_iterations", static_cast<uint64_t>(Shared))
              .add("objective", Model.objective())
              .add("support_vectors",
                   static_cast<uint64_t>(Model.numSupportVectors())));
  }

private:
  /// Refreshes row \p I's I_up/I_low flags and its group's first rows.
  void refresh(SmoState &S, const Box &B, size_t I) const {
    const double Cap = B.cap(D.Y[I]);
    S.Up[I] = (D.Y[I] > 0 && S.Alpha[I] < Cap) ||
              (D.Y[I] < 0 && S.Alpha[I] > 0.0);
    S.Low[I] = (D.Y[I] > 0 && S.Alpha[I] > 0.0) ||
               (D.Y[I] < 0 && S.Alpha[I] < Cap);
    S.UpFirst[GroupOf[I]] = firstIn(S.Up, S.UpFirst[GroupOf[I]], I);
    S.LowFirst[GroupOf[I]] = firstIn(S.Low, S.LowFirst[GroupOf[I]], I);
  }

  /// The smallest row of I's group in the set \p In, given that it was
  /// \p First before only row I's membership changed.
  size_t firstIn(const std::vector<unsigned char> &In, size_t First,
                 size_t I) const {
    if (In[I])
      return std::min(First, I);
    if (First != I)
      return First;
    // I left and was the first: no earlier row is in, so look after it.
    size_t T = Next[I];
    while (T != N && !In[T])
      T = Next[T];
    return T;
  }

  const Dataset &D;
  const SvmParams &P;
  const size_t N;
  std::vector<size_t> GroupOf; ///< Row -> group.
  std::vector<size_t> Next;    ///< Row -> next row of its group, or N.
  std::vector<size_t> Lead;    ///< Group -> its smallest row.
  std::vector<float> K;        ///< Group x group kernel, row-major.
};

std::vector<SvmModel> ipas::solveCSvcPath(const Dataset &D,
                                          const SvmParams &P,
                                          const std::vector<double> &Cs) {
  const size_t N = D.size();
  if (N == 0)
    throw std::invalid_argument("SVM: cannot train on an empty dataset");
  if (D.Y.size() != N)
    throw std::invalid_argument("SVM: labels do not match the rows");
  for (size_t I = 0; I != N; ++I) {
    if (D.X[I].size() != D.dim())
      throw std::invalid_argument("SVM: rows differ in width");
    if (D.Y[I] != 1 && D.Y[I] != -1)
      throw std::invalid_argument("SVM: labels must be +1 or -1");
    for (double F : D.X[I])
      if (!std::isfinite(F))
        throw std::invalid_argument("SVM: features must be finite");
  }
  if (!std::isfinite(P.Gamma))
    throw std::invalid_argument("SVM: gamma must be finite");
  if (Cs.empty())
    throw std::invalid_argument("SVM: no value of C to train at");
  for (size_t CI = 0; CI != Cs.size(); ++CI)
    if (!(Cs[CI] > 0.0) || (CI && Cs[CI] < Cs[CI - 1]))
      throw std::invalid_argument(
          "SVM: values of C must be positive and ascending");

  SmoSolver Solver(D, P);
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
      Solver.record(Models[CI], Cs[CI], S.Iter,
                    S.Iter == P.MaxIterations);
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
