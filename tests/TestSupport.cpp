//===- tests/TestSupport.cpp - Rng, statistics, ArgParser ---------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ArgParser.h"
#include "support/ParallelFor.h"
#include "support/Random.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <thread>

using namespace ipas;

TEST(Rng, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 100; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_EQ(Same, 0);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng R(7);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int I = 0; I != 200; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng R(99);
  const int Buckets = 10;
  const int N = 100000;
  int Counts[Buckets] = {};
  for (int I = 0; I != N; ++I)
    ++Counts[R.nextBelow(Buckets)];
  for (int C : Counts) {
    EXPECT_GT(C, N / Buckets * 0.9);
    EXPECT_LT(C, N / Buckets * 1.1);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng R(5);
  double Sum = 0.0;
  for (int I = 0; I != 10000; ++I) {
    double X = R.nextDouble();
    ASSERT_GE(X, 0.0);
    ASSERT_LT(X, 1.0);
    Sum += X;
  }
  EXPECT_NEAR(Sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NextInRangeInclusive) {
  Rng R(3);
  std::set<int64_t> Seen;
  for (int I = 0; I != 1000; ++I)
    Seen.insert(R.nextInRange(-2, 2));
  EXPECT_EQ(Seen.size(), 5u);
  EXPECT_EQ(*Seen.begin(), -2);
  EXPECT_EQ(*Seen.rbegin(), 2);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng A(11);
  Rng B = A.split();
  // The split stream should not track the parent.
  int Same = 0;
  for (int I = 0; I != 100; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_EQ(Same, 0);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng R(17);
  std::vector<int> V{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  R.shuffle(V.size(), [&](size_t A, size_t B) { std::swap(V[A], V[B]); });
  std::set<int> S(V.begin(), V.end());
  EXPECT_EQ(S.size(), 10u);
}

TEST(RunningStat, MeanVarianceMinMax) {
  RunningStat S;
  for (double X : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.add(X);
  EXPECT_EQ(S.count(), 8u);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_NEAR(S.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
}

TEST(RunningStat, EmptyAndSingle) {
  RunningStat S;
  EXPECT_EQ(S.mean(), 0.0);
  EXPECT_EQ(S.variance(), 0.0);
  S.add(3.5);
  EXPECT_DOUBLE_EQ(S.mean(), 3.5);
  EXPECT_EQ(S.variance(), 0.0);
}

TEST(Statistics, ZCriticalValues) {
  // Standard two-sided critical values.
  EXPECT_NEAR(zCriticalValue(0.95), 1.9600, 1e-3);
  EXPECT_NEAR(zCriticalValue(0.99), 2.5758, 1e-3);
  EXPECT_NEAR(zCriticalValue(0.90), 1.6449, 1e-3);
}

TEST(Statistics, ProportionMarginOfError) {
  // The paper (§6.2) reports ~0.71%-1.34% margins for 1,024-run campaigns
  // at 95% confidence; check the formula reproduces that range.
  double M = proportionMarginOfError(0.05, 1024, 0.95);
  EXPECT_NEAR(M, 0.0133, 5e-4);
  EXPECT_EQ(proportionMarginOfError(0.5, 0), 1.0);
  EXPECT_LT(proportionMarginOfError(0.05, 4096),
            proportionMarginOfError(0.05, 1024));
}

TEST(Statistics, MeanAndStddev) {
  std::vector<double> Xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(Xs), 2.5);
  EXPECT_NEAR(sampleStddev(Xs), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(sampleStddev({1.0}), 0.0);
}

TEST(Statistics, EuclideanDistance) {
  EXPECT_DOUBLE_EQ(euclideanDistance(0, 0, 3, 4), 5.0);
  EXPECT_DOUBLE_EQ(euclideanDistance(1, 1, 1, 1), 0.0);
}

TEST(ArgParser, ParsesTypedFlags) {
  int64_t Runs = 0;
  double Factor = 0.0;
  std::string Name;
  bool Flag = false;
  ArgParser P("test");
  P.addInt("runs", &Runs, "runs");
  P.addDouble("factor", &Factor, "factor");
  P.addString("name", &Name, "name");
  P.addBool("flag", &Flag, "flag");
  const char *Argv[] = {"prog", "--runs", "42", "--factor=2.5",
                        "--name", "fft",  "--flag"};
  ASSERT_TRUE(P.parse(7, Argv));
  EXPECT_EQ(Runs, 42);
  EXPECT_DOUBLE_EQ(Factor, 2.5);
  EXPECT_EQ(Name, "fft");
  EXPECT_TRUE(Flag);
}

TEST(ArgParser, RejectsUnknownFlag) {
  ArgParser P("test");
  const char *Argv[] = {"prog", "--nope"};
  EXPECT_FALSE(P.parse(2, Argv));
}

TEST(ArgParser, RejectsMalformedNumber) {
  int64_t Runs = 0;
  ArgParser P("test");
  P.addInt("runs", &Runs, "runs");
  const char *Argv[] = {"prog", "--runs", "abc"};
  EXPECT_FALSE(P.parse(3, Argv));
}

TEST(ArgParser, CollectsPositionals) {
  ArgParser P("test");
  const char *Argv[] = {"prog", "one", "two"};
  ASSERT_TRUE(P.parse(3, Argv));
  ASSERT_EQ(P.positionals().size(), 2u);
  EXPECT_EQ(P.positionals()[0], "one");
}

TEST(ParallelFor, RunsEachIndexExactlyOnce) {
  for (size_t N : {0u, 1u, 3u, 1000u})
    for (unsigned Workers : {1u, 4u}) {
      std::vector<std::atomic<int>> Hits(N);
      unsigned Ran = parallelFor(N, Workers, [&](size_t K) {
        Hits[K].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t K = 0; K != N; ++K)
        EXPECT_EQ(Hits[K].load(), 1)
            << "N " << N << ", workers " << Workers << ", index " << K;
      EXPECT_GE(Ran, 1u);
      EXPECT_LE(Ran, std::max<size_t>(1, std::min<size_t>(Workers, N)));
    }
}

TEST(ParallelFor, OneWorkerRunsInlineOnTheCaller) {
  const std::thread::id Caller = std::this_thread::get_id();
  for (unsigned Workers : {0u, 1u}) {
    std::vector<size_t> Order;
    EXPECT_EQ(parallelFor(5, Workers,
                          [&](size_t K) {
                            EXPECT_EQ(std::this_thread::get_id(), Caller);
                            Order.push_back(K);
                          }),
              1u);
    EXPECT_EQ(Order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  }
}

TEST(ParallelFor, CampaignWorkersAreHalfTheHardwareThreads) {
  unsigned Hw = std::thread::hardware_concurrency();
  EXPECT_EQ(hardwareWorkers(), std::max(1u, Hw));
  EXPECT_EQ(campaignWorkers(), std::max(1u, Hw / 2));
  EXPECT_LE(campaignWorkers(), hardwareWorkers());
}

// The first exception a body throws comes back to the caller, but only
// after every worker has joined: a slow body that started before the
// throw has finished by the time the caller sees it. No index is claimed
// once the exception is recorded, so the loop stops early.
TEST(ParallelFor, RethrowsTheFirstExceptionAfterJoiningEveryThread) {
  for (unsigned Workers : {1u, 4u}) {
    const size_t N = 1000, Throwing = 2;
    std::atomic<size_t> Ran{0};
    std::atomic<bool> SlowDone{false};
    std::atomic<int> InFlight{0};
    try {
      parallelFor(N, Workers, [&](size_t K) {
        InFlight.fetch_add(1);
        Ran.fetch_add(1);
        if (K == 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          SlowDone = true;
        } else if (K == Throwing) {
          InFlight.fetch_sub(1);
          throw std::runtime_error("body " + std::to_string(K));
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        InFlight.fetch_sub(1);
      });
      ADD_FAILURE() << "no exception with " << Workers << " workers";
    } catch (const std::runtime_error &E) {
      EXPECT_STREQ(E.what(), "body 2");
      EXPECT_TRUE(SlowDone.load()) << Workers << " workers";
      EXPECT_EQ(InFlight.load(), 0) << Workers << " workers";
    }
    if (Workers == 1)
      EXPECT_EQ(Ran.load(), Throwing + 1);
    else
      EXPECT_LT(Ran.load(), N / 10) << "claims continued after the throw";
  }
}
