//===- ml/Svm.cpp --------------------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// SMO with first-order working-set selection: at each iteration the
/// maximal violating pair (i from I_up, j from I_low) is selected, the
/// two alphas are updated analytically under the box constraints, and the
/// gradient is maintained incrementally in the same vector pass that
/// selects the next pair (ml/SmoPass.h), once per group of equal rows.
/// (LIBSVM selects j by second-order gain, Fan, Chen & Lin 2005.)
/// solveCSvcPath fits a whole ladder of C values from one run at the
/// largest (DESIGN.md "Model selection").
///
//===----------------------------------------------------------------------===//

#include "ml/Svm.h"

#include "ml/SmoPass.h"

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

/// A working set: i maximizes V over I_up, j minimizes it over I_low,
/// first row index on ties (N when the set is empty), with their V.
struct WorkingSet {
  double GMax = -Inf, GMin = Inf;
  size_t Imax = 0, Jmin = 0;
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
  // Per group, its smallest row index in I_up / I_low (+inf if none) and
  // the matching selection offset (0 if it has one, else -inf for I_up
  // and +inf for I_low). The per-group arrays are padded to
  // SmoPassArrays::Block with groups that are in neither set.
  std::vector<double> UpFirst, LowFirst, UpOff, LowOff;
  WorkingSet Sel{}; ///< The pair iteration Iter updates.
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
    auto Compare = [&](size_t A, size_t B) {
      if (D.Y[A] != D.Y[B])
        return D.Y[A] < D.Y[B] ? -1 : 1;
      return compareRowBytes(D.X[A], D.X[B]);
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
    // exp(-gamma * 0) = 1, the diagonal). It is held widened to double,
    // which is exact, with its rows padded by zeros to the pass's width.
    const size_t G = Lead.size();
    Width = (G + SmoPassArrays::Block - 1) / SmoPassArrays::Block *
            SmoPassArrays::Block;
    K.assign(G * Width, 0.0);
    for (size_t A = 0; A != G; ++A) {
      K[A * Width + A] = 1.0; // exp(0)
      for (size_t B = A + 1; B != G; ++B) {
        double V = static_cast<float>(rbfKernel(D.X[Lead[A]], D.X[Lead[B]],
                                                P.Gamma));
        K[A * Width + B] = V;
        K[B * Width + A] = V;
      }
    }
  }

  /// alpha = 0, so G = -e, and the first working set.
  SmoState start(const Box &B) const {
    const size_t G = Lead.size();
    SmoState S;
    S.Alpha.assign(N, 0.0);
    S.V.assign(Width, 0.0);
    S.Up.resize(N);
    S.Low.resize(N);
    S.UpFirst.assign(Width, Inf);
    S.LowFirst.assign(Width, Inf);
    S.UpOff.assign(Width, -Inf);
    S.LowOff.assign(Width, Inf);
    for (size_t A = 0; A != G; ++A)
      S.V[A] = static_cast<double>(D.Y[Lead[A]]); // G starts at -1
    for (size_t I = 0; I != N; ++I)
      refresh(S, B, I);
    // A zero step: every V - (0 * K + 0 * K) is V, bit for bit.
    select(S, 0, 0, 0.0, 0.0);
    return S;
  }

  /// Iterates from \p S under \p B until the KKT gap closes, the working
  /// set empties, the step stalls or P.MaxIterations is reached. Before
  /// each update is written, calls Watch(S, I, J, PreI, PreJ, PreI2)
  /// with the iteration-start state, the pair and the three values the
  /// box clamps (alpha_i, alpha_j, then alpha_i re-adjusted).
  template <typename WatchFn>
  void run(SmoState &S, const Box &B, WatchFn &&Watch) const {
    for (; S.Iter != P.MaxIterations; ++S.Iter) {
      const WorkingSet &W = S.Sel;
      if (W.Imax == N || W.Jmin == N || W.GMax - W.GMin < P.Epsilon)
        break;

      const size_t I = W.Imax, J = W.Jmin;
      const double Yi = D.Y[I], Yj = D.Y[J];
      const size_t GI = GroupOf[I], GJ = GroupOf[J];
      const double *Ki = &K[GI * Width];
      const double *Kj = &K[GJ * Width];

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
      select(S, GI, GJ, DAi, DAj);
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
  /// Applies the gradient step DAi * K(g_i, .) + DAj * K(g_j, .) to every
  /// group's V and selects the next working set into S.Sel
  /// (ml/SmoPass.h).
  void select(SmoState &S, size_t GI, size_t GJ, double DAi,
              double DAj) const {
    const SmoPair Pair = smoPass(
        {S.V.data(), S.UpOff.data(), S.UpFirst.data(), S.LowOff.data(),
         S.LowFirst.data(), Width},
        &K[GI * Width], &K[GJ * Width], DAi, DAj, N);
    // V read back at the chosen rows, not the pass's keys: V + 0 turns a
    // -0 into +0, and the sign would reach the step.
    S.Sel = {Pair.I != N ? S.V[GroupOf[Pair.I]] : -Inf,
             Pair.J != N ? S.V[GroupOf[Pair.J]] : Inf, Pair.I, Pair.J};
  }

  /// Refreshes row \p I's I_up/I_low flags and its group's first rows
  /// and offsets.
  void refresh(SmoState &S, const Box &B, size_t I) const {
    const double Cap = B.cap(D.Y[I]);
    const size_t Gr = GroupOf[I];
    S.Up[I] = (D.Y[I] > 0 && S.Alpha[I] < Cap) ||
              (D.Y[I] < 0 && S.Alpha[I] > 0.0);
    S.Low[I] = (D.Y[I] > 0 && S.Alpha[I] > 0.0) ||
               (D.Y[I] < 0 && S.Alpha[I] < Cap);
    S.UpFirst[Gr] = firstIn(S.Up, S.UpFirst[Gr], I);
    S.LowFirst[Gr] = firstIn(S.Low, S.LowFirst[Gr], I);
    S.UpOff[Gr] = S.UpFirst[Gr] == Inf ? -Inf : 0.0;
    S.LowOff[Gr] = S.LowFirst[Gr] == Inf ? Inf : 0.0;
  }

  /// The smallest row of I's group in the set \p In (+inf if none), given
  /// that it was \p First before only row I's membership changed.
  double firstIn(const std::vector<unsigned char> &In, double First,
                 size_t I) const {
    const double Row = static_cast<double>(I);
    if (In[I])
      return std::min(First, Row);
    if (First != Row)
      return First;
    // I left and was the first: no earlier row is in, so look after it.
    size_t T = Next[I];
    while (T != N && !In[T])
      T = Next[T];
    return T == N ? Inf : static_cast<double>(T);
  }

  const Dataset &D;
  const SvmParams &P;
  const size_t N;
  std::vector<size_t> GroupOf; ///< Row -> group.
  std::vector<size_t> Next;    ///< Row -> next row of its group, or N.
  std::vector<size_t> Lead;    ///< Group -> its smallest row.
  size_t Width = 0;            ///< Groups, padded to SmoPassArrays::Block.
  std::vector<double> K;       ///< Group x Width kernel, row-major.
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
