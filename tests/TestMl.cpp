//===- tests/TestMl.cpp - SVM, cross validation, grid search ------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ml/ModelSelection.h"
#include "ml/SmoPass.h"
#include "obs/Metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

using namespace ipas;

namespace {

/// Linearly separable blobs around (0,0) [-1] and (3,3) [+1].
Dataset makeBlobs(size_t PerClass, Rng &R, double Separation = 3.0) {
  Dataset D;
  for (size_t I = 0; I != PerClass; ++I) {
    D.add({R.nextDoubleIn(-0.8, 0.8), R.nextDoubleIn(-0.8, 0.8)}, -1);
    D.add({Separation + R.nextDoubleIn(-0.8, 0.8),
           Separation + R.nextDoubleIn(-0.8, 0.8)},
          1);
  }
  return D;
}

/// XOR pattern: not linearly separable; requires the RBF kernel.
Dataset makeXor(size_t PerQuadrant, Rng &R) {
  Dataset D;
  for (size_t I = 0; I != PerQuadrant; ++I) {
    double A = R.nextDoubleIn(0.2, 1.0);
    double B = R.nextDoubleIn(0.2, 1.0);
    D.add({A, B}, 1);
    D.add({-A, -B}, 1);
    D.add({-A, B}, -1);
    D.add({A, -B}, -1);
  }
  return D;
}

/// IS-like training rows: \p N samples on a 4x4 lattice (so feature rows
/// repeat), the first \p Positives labeled +1 whatever their features (so
/// repeated rows carry conflicting labels).
Dataset makeLattice(size_t N, size_t Positives, Rng &R) {
  Dataset D;
  for (size_t I = 0; I != N; ++I) {
    double A = static_cast<double>(R.nextBelow(4)) / 3.0;
    double B = static_cast<double>(R.nextBelow(4)) / 3.0;
    D.add({A, B, 0.5}, I < Positives ? 1 : -1);
  }
  return D;
}

/// \p D with row I repeated 3 + I % 3 times, the copies dealt round
/// after round so that no two copies of a row are adjacent.
Dataset repeatRows(const Dataset &D) {
  Dataset Out;
  for (size_t Rep = 0; Rep != 5; ++Rep)
    for (size_t I = 0; I != D.size(); ++I)
      if (Rep < 3 + I % 3)
        Out.add(D.X[I], D.Y[I]);
  return Out;
}

/// \p D plus a copy of every third row with the opposite label.
Dataset withConflicts(Dataset D) {
  const size_t N = D.size();
  for (size_t I = 0; I < N; I += 3)
    D.add(D.X[I], -D.Y[I]);
  return D;
}

/// Noisy diagonal split on a 3x3 lattice over {-1, 0, 1} * \p Scale; a
/// row with a 0.0 coordinate is followed by a twin with -0.0 there, same
/// label.
Dataset makeSignedZeros(size_t N, Rng &R, double Scale = 1.0) {
  Dataset D;
  for (size_t I = 0; I != N; ++I) {
    double A = static_cast<double>(R.nextBelow(3)) - 1.0;
    double B = static_cast<double>(R.nextBelow(3)) - 1.0;
    int Label = A + B + R.nextDoubleIn(-0.9, 0.9) > 0.0 ? 1 : -1;
    A *= Scale;
    B *= Scale;
    D.add({A, B}, Label);
    if (A == 0.0 || B == 0.0)
      D.add({A == 0.0 ? -0.0 : A, B == 0.0 ? -0.0 : B}, Label);
  }
  return D;
}

/// \p Clusters noisy splits of \p PerCluster rows each, 20 apart: at
/// gamma = 1 the float kernel between clusters is exactly 0, so the rows
/// of clusters SMO has not reached keep V = +-1 and tie every iteration.
Dataset makeFarClusters(size_t Clusters, size_t PerCluster, Rng &R) {
  Dataset D;
  for (size_t C = 0; C != Clusters; ++C)
    for (size_t I = 0; I != PerCluster; ++I) {
      double A = R.nextDoubleIn(-0.6, 0.6), B = R.nextDoubleIn(-0.6, 0.6);
      D.add({20.0 * static_cast<double>(C) + A, B},
            A + R.nextDoubleIn(-0.3, 0.3) > 0.0 ? 1 : -1);
    }
  return D;
}

/// Rows in exactly \p G groups (2 <= G <= 9): point g of a skewed 3x3
/// grid, labeled +1 when g % 3 == 1, repeated 1 + g % 3 times.
Dataset makeGroups(size_t G) {
  Dataset D;
  for (size_t Rep = 0; Rep != 3; ++Rep)
    for (size_t Gr = 0; Gr != G; ++Gr)
      if (Rep <= Gr % 3) {
        const double Col = static_cast<double>(Gr % 3);
        const double Row = static_cast<double>(Gr / 3);
        D.add({0.5 * Col + 0.2 * Row, 0.7 * Row}, Gr % 3 == 1 ? 1 : -1);
      }
  return D;
}

} // namespace

TEST(Scaler, MapsToUnitRangeAndHandlesConstants) {
  FeatureScaler S;
  S.fit({{0.0, 5.0, 7.0}, {10.0, 5.0, 3.0}, {5.0, 5.0, 5.0}});
  std::vector<double> T = S.transform({10.0, 5.0, 3.0});
  EXPECT_DOUBLE_EQ(T[0], 1.0);
  EXPECT_DOUBLE_EQ(T[1], 0.0); // constant feature maps to 0
  EXPECT_DOUBLE_EQ(T[2], 0.0);
  T = S.transform({0.0, 123.0, 7.0});
  EXPECT_DOUBLE_EQ(T[0], 0.0);
  EXPECT_DOUBLE_EQ(T[2], 1.0);
}

TEST(Svm, RbfKernelProperties) {
  std::vector<double> A{1.0, 2.0}, B{1.0, 2.0}, C{4.0, 6.0};
  EXPECT_DOUBLE_EQ(rbfKernel(A, B, 0.5), 1.0);
  EXPECT_LT(rbfKernel(A, C, 0.5), 1.0);
  EXPECT_GT(rbfKernel(A, C, 0.5), 0.0);
  // Larger gamma decays faster.
  EXPECT_GT(rbfKernel(A, C, 0.1), rbfKernel(A, C, 1.0));
}

TEST(Svm, SeparatesLinearBlobs) {
  Rng R(1);
  Dataset D = makeBlobs(40, R);
  SvmParams P;
  P.C = 10.0;
  P.Gamma = 0.5;
  SvmModel Model = trainCSvc(D, P);
  ClassAccuracies A = evaluateModel(Model, D);
  EXPECT_GT(A.Accuracy1, 0.99);
  EXPECT_GT(A.Accuracy2, 0.99);
  EXPECT_GT(Model.numSupportVectors(), 0u);
  EXPECT_LT(Model.numSupportVectors(), D.size());
}

TEST(Svm, SolvesXorWithRbf) {
  Rng R(2);
  Dataset D = makeXor(30, R);
  SvmParams P;
  P.C = 50.0;
  P.Gamma = 2.0;
  SvmModel Model = trainCSvc(D, P);
  ClassAccuracies A = evaluateModel(Model, D);
  EXPECT_GT(fScore(A), 0.95);
}

TEST(Svm, GeneralizesToHeldOutPoints) {
  Rng R(3);
  Dataset Train = makeBlobs(50, R);
  SvmParams P;
  P.C = 10.0;
  P.Gamma = 0.5;
  SvmModel Model = trainCSvc(Train, P);
  Dataset Test = makeBlobs(30, R);
  ClassAccuracies A = evaluateModel(Model, Test);
  EXPECT_GT(A.Accuracy1, 0.95);
  EXPECT_GT(A.Accuracy2, 0.95);
}

TEST(Svm, ClassWeightingHelpsImbalancedData) {
  // 6% positives, mimicking SOC training data (§4.3.1). Overlapping blobs
  // make the unweighted classifier collapse toward the majority class.
  Rng R(4);
  Dataset D;
  for (int I = 0; I != 470; ++I)
    D.add({R.nextDoubleIn(-1.5, 1.5), R.nextDoubleIn(-1.5, 1.5)}, -1);
  for (int I = 0; I != 30; ++I)
    D.add({1.2 + R.nextDoubleIn(-1.0, 1.0),
           1.2 + R.nextDoubleIn(-1.0, 1.0)},
          1);
  SvmParams Weighted;
  Weighted.C = 1.0;
  Weighted.Gamma = 0.5;
  Weighted.AutoClassWeight = true;
  SvmParams Unweighted = Weighted;
  Unweighted.AutoClassWeight = false;
  ClassAccuracies AW = evaluateModel(trainCSvc(D, Weighted), D);
  ClassAccuracies AU = evaluateModel(trainCSvc(D, Unweighted), D);
  EXPECT_GT(AW.Accuracy1, AU.Accuracy1);
  EXPECT_GT(fScore(AW), fScore(AU));
}

TEST(Svm, DeterministicTraining) {
  Rng R(5);
  Dataset D = makeBlobs(30, R);
  SvmParams P;
  SvmModel A = trainCSvc(D, P);
  SvmModel B = trainCSvc(D, P);
  EXPECT_EQ(A.numSupportVectors(), B.numSupportVectors());
  EXPECT_DOUBLE_EQ(A.bias(), B.bias());
  for (int I = 0; I != 10; ++I) {
    std::vector<double> X{R.nextDoubleIn(-1, 4), R.nextDoubleIn(-1, 4)};
    EXPECT_DOUBLE_EQ(A.decision(X), B.decision(X));
  }
}

TEST(Svm, MaxIterationsBoundsWork) {
  Rng R(6);
  Dataset D = makeXor(50, R);
  SvmParams P;
  P.C = 1e4;
  P.Gamma = 5.0;
  P.MaxIterations = 10;
  SvmModel Model = trainCSvc(D, P);
  EXPECT_LE(Model.iterationsUsed(), 10u);
}

TEST(Svm, PinnedSolutions) {
  // Exact SMO outcomes; any change to the solver's arithmetic or its
  // working-set selection moves at least one of them.
  struct Case {
    const char *Name;
    Dataset D;
    SvmParams P;
    size_t Iterations;
    double Objective, Bias;
    size_t SupportVectors;
  };
  auto Params = [](double C, double Gamma, size_t MaxIterations = 200000) {
    SvmParams P;
    P.C = C;
    P.Gamma = Gamma;
    P.MaxIterations = MaxIterations;
    return P;
  };
  Rng R1(1), R2(2), R6(6), R11(11), R21(21), R22(22), R23(23), R24(24),
      R31(31), R32(32), R33(33);
  std::vector<Case> Cases = {
      {"blobs", makeBlobs(40, R1), Params(10.0, 0.5), 21,
       -2.1507586559569178, 0.050572582044924319, 8},
      {"xor", makeXor(30, R2), Params(50.0, 2.0), 370, -7.9565539387504156,
       -1.3552527156068805e-20, 8},
      // Stops at MaxIterations, not on the KKT gap.
      {"xor-capped", makeXor(50, R6), Params(1e4, 5.0, 40), 40,
       -10.020718453775268, 5.5195746962898407e-19, 22},
      {"lattice", makeLattice(60, 12, R11), Params(100.0, 1.0), 6706,
       -4317.3587295092602, 0.88294334274651975, 33},
      // Rows that SMO solves as groups, pinned from the solver that ran
      // over every row: 159 rows in 40 groups of 3-5 copies,
      {"repeated", repeatRows(makeXor(10, R21)), Params(50.0, 2.0), 557,
       -10.495905917681089, 0.0, 12},
      // equal features with opposite labels (distinct groups, kernel 1),
      {"conflicting", withConflicts(makeBlobs(15, R22)), Params(10.0, 0.5),
       756, -202.32755495925915, 0.038404859798516107, 31},
      // 0.0 and -0.0 twins, which stay apart (17 groups of 61 rows),
      {"signed-zeros", makeSignedZeros(40, R23), Params(10.0, 1.0), 104,
       -110.75606328670982, -0.047293061399892367, 15},
      // and repeated rows stopped by MaxIterations.
      {"repeated-capped", repeatRows(makeXor(20, R24)), Params(1e4, 5.0, 40),
       40, -7.1414528245015036, 0.0, 24},
      // Pinned from the scalar scan before the vector pass (ml/SmoPass.h):
      // far-apart clusters, whose untouched groups tie at V = +-1 every
      // iteration, also stopped by MaxIterations,
      {"far-apart", makeFarClusters(12, 6, R31), Params(100.0, 1.0), 355,
       -296.09648585523115, -0.013646462025396282, 38},
      {"far-capped", makeFarClusters(10, 6, R32), Params(1e4, 1.0, 25), 25,
       -55.509568366083435, 0.060737681772650834, 30},
      // 0.0 and -0.0 twins far apart,
      {"signed-zeros-far", makeSignedZeros(40, R33, 15.0), Params(10.0, 1.0),
       77, -116.49999923643827, -0.33336041190407495, 19},
      // and 2 to 9 groups, every length modulo the pass's width.
      {"groups-2", makeGroups(2), Params(10.0, 1.0), 58, -4.5208107912759692,
       0.0, 2},
      {"groups-3", makeGroups(3), Params(10.0, 1.0), 202, -15.830526940311731,
       -2.5006747825271738, 3},
      {"groups-4", makeGroups(4), Params(10.0, 1.0), 206, -15.845401515800466,
       -2.5487402052329386, 4},
      {"groups-5", makeGroups(5), Params(10.0, 1.0), 242, -21.59063816618298,
       -2.2331979121657044, 7},
      {"groups-6", makeGroups(6), Params(10.0, 1.0), 231, -22.908835555816289,
       -2.5544950033004716, 6},
      {"groups-7", makeGroups(7), Params(10.0, 1.0), 233, -22.908835419576718,
       -2.554498676842806, 6},
      {"groups-8", makeGroups(8), Params(10.0, 1.0), 250, -27.135461948741231,
       -2.1010397075611258, 8},
      {"groups-9", makeGroups(9), Params(10.0, 1.0), 242, -30.382658181513012,
       -2.5881211259483208, 9},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    SvmModel M = trainCSvc(C.D, C.P);
    EXPECT_EQ(M.iterationsUsed(), C.Iterations);
    EXPECT_EQ(M.objective(), C.Objective);
    EXPECT_EQ(M.bias(), C.Bias);
    EXPECT_EQ(M.numSupportVectors(), C.SupportVectors);
  }
}

TEST(Svm, PassMatchesScalarScan) {
  // Both versions of SMO's vector pass against a scalar reference on
  // random groups with ties, 0.0 and -0.0, infinities, NaN and empty
  // sets: the same V bits, then the largest (I_up) and smallest (I_low)
  // V among the groups in the set, the smallest row among those tied,
  // NaN never chosen and N for a set with nothing to choose.
  const double Inf = std::numeric_limits<double>::infinity();
  const double Pool[] = {1.0,  -1.0, 0.0, -0.0, 0.25,
                         -0.5, Inf,  -Inf, std::nan("")};
  Rng R(41);
  auto Draw = [&](size_t Odds) { return R.nextBelow(Odds) == 0; };
  for (size_t G = 1; G != 20; ++G)
    for (int Trial = 0; Trial != 60; ++Trial) {
      SCOPED_TRACE(G);
      SCOPED_TRACE(Trial);
      const size_t Block = SmoPassArrays::Block;
      const size_t Width = (G + Block - 1) / Block * Block, N = 3 * G;
      std::vector<double> V(Width, 0.0), Ki(Width, 0.0), Kj(Width, 0.0);
      std::vector<double> UpOff(Width, -Inf), UpFirst(Width, Inf);
      std::vector<double> LowOff(Width, Inf), LowFirst(Width, Inf);
      std::vector<size_t> Rows(N);
      for (size_t I = 0; I != N; ++I)
        Rows[I] = I;
      R.shuffle(N, [&](size_t A, size_t B) { std::swap(Rows[A], Rows[B]); });
      for (size_t T = 0; T != G; ++T) {
        V[T] = Draw(3) ? R.nextDoubleIn(-2.0, 2.0) : Pool[R.nextBelow(9)];
        Ki[T] = Draw(3) ? 0.0 : R.nextDoubleIn(0.0, 1.0);
        Kj[T] = Draw(3) ? 1.0 : R.nextDoubleIn(0.0, 1.0);
        // Every fourth trial leaves I_up empty, every fifth I_low.
        if (Trial % 4 != 0 && !Draw(3)) {
          UpOff[T] = 0.0;
          UpFirst[T] = static_cast<double>(Rows[T]);
        }
        if (Trial % 5 != 0 && !Draw(3)) {
          LowOff[T] = 0.0;
          LowFirst[T] = static_cast<double>(Rows[G + T]);
        }
      }
      const double DAi = Trial % 3 ? R.nextDoubleIn(-2.0, 2.0) : 0.0;
      const double DAj = Trial % 3 ? R.nextDoubleIn(-2.0, 2.0) : -0.0;

      std::vector<double> Want = V;
      for (size_t T = 0; T != Width; ++T)
        Want[T] = V[T] - (DAi * Ki[T] + DAj * Kj[T]);
      auto Pick = [&](const std::vector<double> &First, bool Max) {
        double Best = Max ? -Inf : Inf;
        bool Any = false;
        for (size_t T = 0; T != G; ++T)
          if (First[T] != Inf && !std::isnan(Want[T])) {
            Best = Any ? (Max ? std::max(Best, Want[T])
                              : std::min(Best, Want[T]))
                       : Want[T];
            Any = true;
          }
        size_t Row = N;
        for (size_t T = 0; T != G; ++T)
          if (Any && First[T] != Inf && Want[T] == Best)
            Row = std::min(Row, static_cast<size_t>(First[T]));
        return Row;
      };
      const size_t WantI = Pick(UpFirst, true), WantJ = Pick(LowFirst, false);

      for (auto Pass : {&smoPass, &smoPassDefault}) {
        std::vector<double> Got = V;
        SmoPair P = Pass({Got.data(), UpOff.data(), UpFirst.data(),
                          LowOff.data(), LowFirst.data(), Width},
                         Ki.data(), Kj.data(), DAi, DAj, N);
        EXPECT_EQ(P.I, WantI);
        EXPECT_EQ(P.J, WantJ);
        for (size_t T = 0; T != Width; ++T) {
          if (std::isnan(Got[T]) && std::isnan(Want[T]))
            continue;
          EXPECT_EQ(std::memcmp(&Got[T], &Want[T], sizeof(double)), 0)
              << T << ": " << Got[T] << " vs " << Want[T];
        }
      }
    }
}

TEST(Svm, PathMatchesIndependentFits) {
  // Every model of a regularization path must be the one trainCSvc fits
  // at its C, bit for bit. The ladders cover the three ways a smaller C
  // relates to the largest C's run: it leaves at once (its box binds on
  // the first step), it resumes part way, or it never leaves (no alpha
  // reaches its box, so it is the largest C's fit).
  struct Case {
    const char *Name;
    Dataset D;
    double Gamma;
    std::vector<double> Cs;
    size_t MaxIterations;
    size_t NeverLeave; ///< Cs below the largest that share its whole run.
    bool ResumesPartWay;
  };
  Rng R1(1), R2(2), R6(6), R11(11), R11Single(11), R4(4), R25(25);
  Dataset Imbalanced; // 6% positives, so C * w+ is 15.7 C.
  for (int I = 0; I != 470; ++I)
    Imbalanced.add({R4.nextDoubleIn(-1.5, 1.5), R4.nextDoubleIn(-1.5, 1.5)},
                   -1);
  for (int I = 0; I != 30; ++I)
    Imbalanced.add(
        {1.2 + R4.nextDoubleIn(-1.0, 1.0), 1.2 + R4.nextDoubleIn(-1.0, 1.0)},
        1);
  std::vector<Case> Cases = {
      // The first step takes alpha to about 1: smaller Cs leave at once.
      {"blobs", makeBlobs(40, R1), 0.5, {0.01, 0.5, 10.0, 100.0}, 200000, 1,
       false},
      {"xor", makeXor(30, R2), 2.0, {0.3, 1.5, 2.5, 50.0, 5000.0}, 200000, 1,
       true},
      {"lattice", makeLattice(60, 12, R11), 1.0, {1.0, 10.0, 100.0, 1000.0},
       200000, 0, true},
      // One positive (w+ = 30): at C = 1 a value an update clamps lands
      // exactly on the box, so C = 1 must leave the path there (>=, not >).
      {"single-positive", makeLattice(31, 1, R11Single), 1.0,
       {1.0, 50.0, 1e5}, 200000, 0, true},
      {"imbalanced", std::move(Imbalanced), 0.5, {0.1, 1.0, 10.0, 100.0},
       200000, 0, true},
      // Every fit stops at MaxIterations.
      {"xor-capped", makeXor(50, R6), 5.0, {0.5, 1.1, 2.0, 100.0, 1e4}, 40,
       2, true},
      // Repeated rows, some copies with the opposite label.
      {"repeated", withConflicts(repeatRows(makeBlobs(8, R25))), 0.5,
       {0.01, 0.5, 10.0, 100.0}, 200000, 0, true},
  };
  obs::Counter &Shared =
      obs::MetricsRegistry::global().counter("ml.svm.shared_iterations");
  obs::Counter &Capped =
      obs::MetricsRegistry::global().counter("ml.svm.capped_fits");
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    SvmParams P;
    P.Gamma = C.Gamma;
    P.MaxIterations = C.MaxIterations;
    uint64_t SharedBefore = Shared.value(), CappedBefore = Capped.value();
    std::vector<SvmModel> Path = solveCSvcPath(C.D, P, C.Cs);
    uint64_t SharedGrew = Shared.value() - SharedBefore;
    ASSERT_EQ(Path.size(), C.Cs.size());
    // One capped fit per model that stopped at MaxIterations.
    EXPECT_EQ(Capped.value() - CappedBefore,
              static_cast<uint64_t>(std::count_if(
                  Path.begin(), Path.end(), [&](const SvmModel &M) {
                    return M.iterationsUsed() == C.MaxIterations;
                  })));

    size_t Never = 0, SharedByNever = 0;
    const SvmModel &Last = Path.back();
    for (size_t CI = 0; CI != C.Cs.size(); ++CI) {
      SCOPED_TRACE(C.Cs[CI]);
      P.C = C.Cs[CI];
      SvmModel Solo = trainCSvc(C.D, P);
      const SvmModel &M = Path[CI];
      EXPECT_EQ(M.iterationsUsed(), Solo.iterationsUsed());
      EXPECT_EQ(M.objective(), Solo.objective());
      EXPECT_EQ(M.bias(), Solo.bias());
      EXPECT_EQ(M.numSupportVectors(), Solo.numSupportVectors());
      Rng Probe(7);
      for (int I = 0; I != 8; ++I) {
        std::vector<double> X(C.D.dim());
        for (double &V : X)
          V = Probe.nextDoubleIn(-2.0, 4.0);
        EXPECT_EQ(M.decision(X), Solo.decision(X));
      }
      if (CI + 1 != C.Cs.size() &&
          M.iterationsUsed() == Last.iterationsUsed() &&
          M.objective() == Last.objective() && M.bias() == Last.bias()) {
        ++Never;
        SharedByNever += Last.iterationsUsed();
      }
    }
    EXPECT_EQ(Never, C.NeverLeave);
    // Beyond the Cs that never leave, only those resumed part way share.
    if (C.ResumesPartWay)
      EXPECT_GT(SharedGrew, SharedByNever);
    else
      EXPECT_EQ(SharedGrew, SharedByNever);
    EXPECT_GT(SharedGrew, 0u);
  }
}

TEST(Svm, SingleClassGivesConstantClassifier) {
  // One class only: nothing to separate, so the classifier is that class
  // everywhere. All +1 used to give a NaN bias, which predicts -1.
  Rng R(13);
  const double Inf = std::numeric_limits<double>::infinity();
  for (int Label : {-1, 1})
    for (bool Auto : {true, false}) {
      SCOPED_TRACE(Label);
      SCOPED_TRACE(Auto);
      Dataset D;
      for (int I = 0; I != 12; ++I)
        D.add({R.nextDoubleIn(-1.0, 1.0), R.nextDoubleIn(-1.0, 1.0)}, Label);
      SvmParams P;
      P.AutoClassWeight = Auto;
      SvmModel M = trainCSvc(D, P);
      EXPECT_EQ(M.numSupportVectors(), 0u);
      EXPECT_EQ(M.iterationsUsed(), 0u);
      EXPECT_EQ(M.objective(), 0.0);
      EXPECT_EQ(M.bias(), Label > 0 ? Inf : -Inf);
      for (int I = 0; I != 5; ++I)
        EXPECT_EQ(M.predict({R.nextDoubleIn(-3.0, 3.0),
                             R.nextDoubleIn(-3.0, 3.0)}),
                  Label);
      std::vector<SvmModel> Path =
          solveCSvcPath(D, P, {1.0, 10.0});
      ASSERT_EQ(Path.size(), 2u);
      for (const SvmModel &PM : Path) {
        EXPECT_EQ(PM.numSupportVectors(), 0u);
        EXPECT_EQ(PM.bias(), M.bias());
      }
    }
}

TEST(Svm, RejectsMalformedInputs) {
  // Checked in every build, not by assert: Dataset::add's asserts vanish
  // under NDEBUG, and SMO groups rows by their bytes.
  Rng R(14);
  const Dataset D = makeBlobs(5, R);
  SvmParams P;
  P.Gamma = 0.5;
  EXPECT_THROW(trainCSvc(Dataset(), P), std::invalid_argument);
  EXPECT_THROW(solveCSvcPath(Dataset(), P, {1.0}), std::invalid_argument);
  auto Malformed = [&](const char *Name, auto Edit) {
    SCOPED_TRACE(Name);
    Dataset Bad = D;
    Edit(Bad);
    EXPECT_THROW(trainCSvc(Bad, P), std::invalid_argument);
    EXPECT_THROW(solveCSvcPath(Bad, P, {1.0, 10.0}), std::invalid_argument);
  };
  Malformed("extra label", [](Dataset &B) { B.Y.push_back(1); });
  Malformed("missing label", [](Dataset &B) { B.Y.pop_back(); });
  Malformed("short row", [](Dataset &B) { B.X[3].pop_back(); });
  Malformed("long row", [](Dataset &B) { B.X.back().push_back(0.0); });
  for (int Label : {0, 2, -2}) {
    SCOPED_TRACE(Label);
    Malformed("label", [&](Dataset &B) { B.Y[4] = Label; });
  }
  for (double F : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(F);
    Malformed("feature", [&](Dataset &B) { B.X[2][1] = F; });
  }
  for (double Gamma : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(Gamma);
    SvmParams BadGamma = P;
    BadGamma.Gamma = Gamma;
    EXPECT_THROW(trainCSvc(D, BadGamma), std::invalid_argument);
  }
  for (double C : {0.0, -1.0, std::nan("")}) {
    SCOPED_TRACE(C);
    P.C = C;
    EXPECT_THROW(trainCSvc(D, P), std::invalid_argument);
  }
  P.C = 1.0;
  using Ladder = std::vector<double>;
  for (const Ladder &Cs : {Ladder{}, Ladder{10.0, 1.0}, Ladder{0.0, 1.0},
                           Ladder{-1.0}, Ladder{1.0, std::nan("")}}) {
    SCOPED_TRACE(Cs.size());
    EXPECT_THROW(solveCSvcPath(D, P, Cs), std::invalid_argument);
  }
  // Equal Cs are ascending.
  std::vector<SvmModel> Same = solveCSvcPath(D, P, {1.0, 1.0});
  ASSERT_EQ(Same.size(), 2u);
  EXPECT_EQ(Same[0].objective(), Same[1].objective());
}

TEST(FScore, MatchesPaperFormula) {
  ClassAccuracies A{0.8, 0.6};
  EXPECT_NEAR(fScore(A), 2.0 * 0.8 * 0.6 / 1.4, 1e-12);
  EXPECT_EQ(fScore({0.0, 0.0}), 0.0);
  EXPECT_EQ(fScore({1.0, 1.0}), 1.0);
  // Degenerate classifiers (all one class) score 0.
  EXPECT_EQ(fScore({1.0, 0.0}), 0.0);
}

TEST(CrossValidation, ReasonableOnSeparableData) {
  Rng R(7);
  Dataset D = makeBlobs(40, R);
  SvmParams P;
  P.C = 10.0;
  P.Gamma = 0.5;
  Rng FoldRng(1);
  ClassAccuracies A = crossValidate(D, P, 5, FoldRng);
  EXPECT_GT(fScore(A), 0.95);
}

TEST(CrossValidation, StratificationKeepsMinorityInEveryFold) {
  // With only 8 positives and 5 folds, unstratified splits could starve a
  // fold; stratified CV must still produce a usable score.
  Rng R(8);
  Dataset D;
  for (int I = 0; I != 192; ++I)
    D.add({R.nextDoubleIn(-1, 1), R.nextDoubleIn(-1, 1)}, -1);
  for (int I = 0; I != 8; ++I)
    D.add({4.0 + R.nextDoubleIn(-0.3, 0.3), 4.0}, 1);
  Rng FoldRng(2);
  ClassAccuracies A = crossValidate(D, SvmParams(), 4, FoldRng);
  EXPECT_GT(A.Accuracy1, 0.5);
  EXPECT_GT(A.Accuracy2, 0.9);
}

TEST(GridSearch, RanksByFScoreAndCoversGrid) {
  Rng R(9);
  Dataset D = makeXor(15, R);
  GridSearchConfig GC;
  GC.CSteps = 4;
  GC.GammaSteps = 3;
  GC.Folds = 3;
  GC.MaxIterations = 20000;
  std::vector<RankedConfig> All = gridSearch(D, GC);
  ASSERT_EQ(All.size(), 12u);
  for (size_t I = 1; I < All.size(); ++I)
    EXPECT_GE(All[I - 1].FScore, All[I].FScore);
  // The best configuration must actually solve XOR.
  EXPECT_GT(All.front().FScore, 0.9);
  // C and gamma stay within the requested ranges.
  for (const RankedConfig &RC : All) {
    EXPECT_GE(RC.Params.C, GC.CMin);
    EXPECT_LE(RC.Params.C, GC.CMax * 1.0001);
    EXPECT_GE(RC.Params.Gamma, GC.GammaMin);
    EXPECT_LE(RC.Params.Gamma, GC.GammaMax * 1.0001);
  }
}

TEST(GridSearch, PaperGridIs500Configurations) {
  GridSearchConfig GC; // defaults follow §4.3.2
  EXPECT_EQ(GC.CSteps * GC.GammaSteps, 500u);
  EXPECT_DOUBLE_EQ(GC.CMin, 1.0);
  EXPECT_DOUBLE_EQ(GC.CMax, 1e5);
  EXPECT_DOUBLE_EQ(GC.GammaMin, 1e-5);
  EXPECT_DOUBLE_EQ(GC.GammaMax, 1.0);
}

TEST(GridSearch, MatchesSerialCrossValidation) {
  // The pooled search ((gamma, fold) units on threads, each test row
  // scored once per distinct feature row) must rank exactly as scoring
  // each configuration with crossValidate, which scores every row, and
  // stable-sorting. The second dataset has a single positive, so the
  // 5-fold split leaves fold 0 without one to train on; the last two
  // repeat rows, with opposite labels too, and hold 0.0/-0.0 twins.
  Rng R11(11), R11Single(11), R25(25), R23(23);
  std::pair<const char *, Dataset> Sets[] = {
      {"lattice", makeLattice(60, 12, R11)},
      {"single-positive", makeLattice(31, 1, R11Single)},
      {"repeated", withConflicts(repeatRows(makeBlobs(8, R25)))},
      {"signed-zeros", makeSignedZeros(40, R23)},
  };
  for (const auto &[Name, D] : Sets) {
    SCOPED_TRACE(Name);
    GridSearchConfig GC;
    GC.CSteps = 4;
    GC.GammaSteps = 3;
    GC.Folds = 5;
    GC.MaxIterations = 5000;
    obs::Counter &Scored =
        obs::MetricsRegistry::global().counter("ml.grid.scored_rows");
    const uint64_t ScoredBefore = Scored.value();
    std::vector<RankedConfig> All = gridSearch(D, GC);
    ASSERT_EQ(All.size(), 12u);
    // Every set repeats rows, so fewer decisions than 12 per row.
    EXPECT_LT(Scored.value() - ScoredBefore, 12 * D.size());

    // Grid order is gamma-major, both axes ascending.
    std::vector<RankedConfig> Serial = All;
    std::sort(Serial.begin(), Serial.end(),
              [](const RankedConfig &A, const RankedConfig &B) {
                return A.Params.Gamma != B.Params.Gamma
                           ? A.Params.Gamma < B.Params.Gamma
                           : A.Params.C < B.Params.C;
              });
    for (RankedConfig &RC : Serial) {
      SvmParams P;
      P.C = RC.Params.C;
      P.Gamma = RC.Params.Gamma;
      P.MaxIterations = GC.MaxIterations;
      Rng FoldRng(GC.Seed ^ 0x9e37);
      RC.Accuracies = crossValidate(D, P, GC.Folds, FoldRng);
      RC.FScore = fScore(RC.Accuracies);
    }
    std::stable_sort(Serial.begin(), Serial.end(),
                     [](const RankedConfig &A, const RankedConfig &B) {
                       return A.FScore > B.FScore;
                     });
    for (size_t I = 0; I != All.size(); ++I) {
      SCOPED_TRACE(I);
      EXPECT_EQ(All[I].Params.C, Serial[I].Params.C);
      EXPECT_EQ(All[I].Params.Gamma, Serial[I].Params.Gamma);
      EXPECT_EQ(All[I].FScore, Serial[I].FScore);
      EXPECT_EQ(All[I].Accuracies.Accuracy1, Serial[I].Accuracies.Accuracy1);
      EXPECT_EQ(All[I].Accuracies.Accuracy2, Serial[I].Accuracies.Accuracy2);
    }
  }
}

TEST(GridSearch, RejectsFewerThanTwoFolds) {
  // Checked in every build: zero folds used to divide by zero.
  Rng R(12);
  Dataset D = makeBlobs(10, R);
  for (unsigned Folds : {0u, 1u}) {
    SCOPED_TRACE(Folds);
    GridSearchConfig GC;
    GC.CSteps = 2;
    GC.GammaSteps = 2;
    GC.Folds = Folds;
    EXPECT_TRUE(gridSearch(D, GC).empty());
    Rng FoldRng(3);
    ClassAccuracies A = crossValidate(D, SvmParams(), Folds, FoldRng);
    EXPECT_EQ(A.Accuracy1, 0.0);
    EXPECT_EQ(A.Accuracy2, 0.0);
  }
}
