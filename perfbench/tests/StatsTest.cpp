//===- perfbench/tests/StatsTest.cpp - Metric math of the pipeline benchmark -===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <gtest/gtest.h>

using namespace perfbench;

namespace {

Span span(Layer L, double Start, double End, int Parent) {
  Span S;
  S.Name = layerName(L);
  S.L = L;
  S.Start = Start;
  S.End = End;
  S.Parent = Parent;
  return S;
}

} // namespace

TEST(PerfbenchStats, Median) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({7.0}), 7.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(PerfbenchStats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  std::array<double, 3> Q =
      quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(Q[0], 2.75);
  EXPECT_DOUBLE_EQ(Q[1], 5.5);
  EXPECT_DOUBLE_EQ(Q[2], 8.25);
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  Q = quartiles({16, 8, 4, 2, 1});
  EXPECT_DOUBLE_EQ(Q[0], 1.5);
  EXPECT_DOUBLE_EQ(Q[1], 4.0);
  EXPECT_DOUBLE_EQ(Q[2], 12.0);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  Q = quartiles({2, 1});
  EXPECT_DOUBLE_EQ(Q[0], 0.75);
  EXPECT_DOUBLE_EQ(Q[1], 1.5);
  EXPECT_DOUBLE_EQ(Q[2], 2.25);
}

TEST(PerfbenchStats, NearestRankPercentile) {
  std::vector<double> V;
  for (int I = 1; I <= 1000; ++I)
    V.push_back(I);
  EXPECT_EQ(percentile(V, 50.0), 500.0);
  EXPECT_EQ(percentile(V, 99.0), 990.0);
  EXPECT_EQ(percentile(V, 100.0), 1000.0);
  EXPECT_EQ(percentile({5.0}, 99.0), 5.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(PerfbenchStats, TailPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(samplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(samplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(supportedTailPercentile(10000), 99.9);
  EXPECT_EQ(supportedTailPercentile(1000), 99.0);
  EXPECT_EQ(supportedTailPercentile(999), 95.0);
  EXPECT_EQ(supportedTailPercentile(200), 95.0);
  EXPECT_EQ(supportedTailPercentile(100), 90.0);
  EXPECT_EQ(supportedTailPercentile(20), 50.0);
  EXPECT_EQ(supportedTailPercentile(19), 0.0);
}

TEST(PerfbenchStats, SelfTimeSubtractsNestedChildren) {
  // rep [0, 10): fault [1, 5) containing ml [2, 3); obs [6, 9).
  std::vector<Span> S = {span(Layer::Core, 0, 10, -1),
                         span(Layer::Fault, 1, 5, 0),
                         span(Layer::Ml, 2, 3, 1),
                         span(Layer::Obs, 6, 9, 0)};
  std::vector<double> Self = selfTimes(S);
  EXPECT_DOUBLE_EQ(Self[0], 3.0);
  EXPECT_DOUBLE_EQ(Self[1], 3.0);
  EXPECT_DOUBLE_EQ(Self[2], 1.0);
  EXPECT_DOUBLE_EQ(Self[3], 3.0);

  std::array<double, NumLayers> ByLayer = layerSelfTimes(S);
  double Sum = 0.0;
  for (double V : ByLayer)
    Sum += V;
  EXPECT_DOUBLE_EQ(Sum, 10.0);
  EXPECT_DOUBLE_EQ(ByLayer[static_cast<size_t>(Layer::Fault)], 3.0);
}

TEST(PerfbenchStats, SelfTimeMergesOverlappingAndClipsChildren) {
  // Children overlap each other and one sticks out of its parent.
  std::vector<Span> S = {span(Layer::Core, 0, 10, -1),
                         span(Layer::Fault, 1, 4, 0),
                         span(Layer::Ml, 3, 6, 0),
                         span(Layer::Obs, 8, 12, 0)};
  std::vector<double> Self = selfTimes(S);
  EXPECT_DOUBLE_EQ(Self[0], 10.0 - 5.0 - 2.0);
}

TEST(PerfbenchStats, RecorderCollapsesCallsWithinOneLayer) {
  Recorder &R = Recorder::get();
  R.beginRep(7);
  {
    Scope Outer("fault.campaign", Layer::Fault);
    { Scope Inner("fault.other", Layer::Fault); }
    { Scope Same("fault.campaign", Layer::Fault); }
    { Scope Ml("ml.fit", Layer::Ml); }
  }
  RepTrace T = R.endRep();
  EXPECT_FALSE(R.active());
  ASSERT_EQ(T.Spans.size(), 3u); // rep, fault.campaign, ml.fit
  EXPECT_EQ(T.Spans[1].Parent, 0);
  EXPECT_EQ(T.Spans[2].Parent, 1);
  EXPECT_EQ(T.Spans[2].Rep, 7u);
  EXPECT_EQ(T.Tallies["fault.other"].Calls, 1u);
  EXPECT_GE(T.Tallies["fault.other"].Seconds, 0.0);
  // The nested same-name call is counted but its time is not added twice.
  EXPECT_EQ(T.Tallies["fault.campaign"].Calls, 2u);
  EXPECT_DOUBLE_EQ(T.Tallies["fault.campaign"].Seconds,
                   T.Spans[1].End - T.Spans[1].Start);

  Scope Idle("fault.campaign", Layer::Fault);
  EXPECT_FALSE(Idle.active());
}
