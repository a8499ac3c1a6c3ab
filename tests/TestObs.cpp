//===- tests/TestObs.cpp - Telemetry subsystem ---------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Pipeline.h"
#include "fault/Campaign.h"
#include "fault/FunctionHarness.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace ipas;
using namespace ipas::obs;
using namespace ipas::testutil;

namespace {

//===----------------------------------------------------------------------===//
// Trace-file helpers
//===----------------------------------------------------------------------===//

/// Reads a JSONL trace back, failing the test on any malformed line.
std::vector<JsonValue> readTrace(const std::string &Path) {
  std::vector<JsonValue> Records;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    auto V = parseJson(Line);
    EXPECT_TRUE(V.has_value()) << Path << ":" << LineNo << ": bad JSON";
    if (!V)
      continue;
    EXPECT_TRUE(V->isObject()) << Path << ":" << LineNo;
    EXPECT_NE(V->get("type"), nullptr) << Path << ":" << LineNo;
    Records.push_back(std::move(*V));
  }
  return Records;
}

std::string recordType(const JsonValue &R) {
  const JsonValue *T = R.get("type");
  return T ? T->asString() : std::string();
}

/// All records of one type, in file order.
std::vector<const JsonValue *> recordsOfType(
    const std::vector<JsonValue> &Records, const std::string &Type) {
  std::vector<const JsonValue *> Out;
  for (const JsonValue &R : Records)
    if (recordType(R) == Type)
      Out.push_back(&R);
  return Out;
}

const JsonValue *findEvent(const std::vector<JsonValue> &Records,
                           const std::string &Name) {
  for (const JsonValue &R : Records)
    if (recordType(R) == "event" && R.get("name") &&
        R.get("name")->asString() == Name)
      return &R;
  return nullptr;
}

const JsonValue *findSpan(const std::vector<JsonValue> &Records,
                          const std::string &Name) {
  for (const JsonValue &R : Records)
    if (recordType(R) == "span" && R.get("name") &&
        R.get("name")->asString() == Name)
      return &R;
  return nullptr;
}

/// Asserts the spans of each thread form a laminar family: any two spans
/// are either disjoint or one contains the other (the property
/// `ipas-report --check` enforces).
void expectSpansNest(const std::vector<JsonValue> &Records) {
  struct Iv {
    uint64_t Start, End;
    std::string Name;
    int64_t Tid;
  };
  std::vector<Iv> Spans;
  for (const JsonValue &R : Records) {
    if (recordType(R) != "span")
      continue;
    Iv S;
    S.Start = R.get("start_us")->asU64();
    S.End = R.get("end_us")->asU64();
    S.Name = R.get("name")->asString();
    S.Tid = R.get("tid")->asI64();
    EXPECT_LE(S.Start, S.End) << S.Name;
    Spans.push_back(std::move(S));
  }
  std::sort(Spans.begin(), Spans.end(), [](const Iv &A, const Iv &B) {
    if (A.Tid != B.Tid)
      return A.Tid < B.Tid;
    if (A.Start != B.Start)
      return A.Start < B.Start;
    return A.End > B.End;
  });
  std::vector<const Iv *> Stack;
  int64_t Tid = INT64_MIN;
  for (const Iv &S : Spans) {
    if (S.Tid != Tid) {
      Stack.clear();
      Tid = S.Tid;
    }
    while (!Stack.empty() && Stack.back()->End <= S.Start)
      Stack.pop_back();
    if (!Stack.empty()) {
      EXPECT_LE(S.End, Stack.back()->End)
          << S.Name << " partially overlaps " << Stack.back()->Name;
    }
    Stack.push_back(&S);
  }
}

std::string tempTracePath(const char *Name) {
  return ::testing::TempDir() + Name;
}

//===----------------------------------------------------------------------===//
// Toy campaign fixture (mirrors TestCampaign.cpp)
//===----------------------------------------------------------------------===//

const char *ToySrc =
    "int f(int n) {\n"
    "  double a[32];\n"
    "  for (int i = 0; i < 32; i = i + 1) a[i] = 1.0 * i;\n"
    "  double s = 0.0;\n"
    "  for (int k = 0; k < n; k = k + 1)\n"
    "    for (int i = 0; i < 32; i = i + 1)\n"
    "      s = s + a[i] * 1.0001 - 0.5;\n"
    "  return (int)(s * 1000.0);\n"
    "}\n";

} // namespace

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(ObsMetrics, ConcurrentUpdatesSumExactly) {
  auto &Reg = MetricsRegistry::global();
  Counter &C = Reg.counter("test.concurrent.counter");
  Histogram &H = Reg.histogram("test.concurrent.hist");
  C.reset();
  H.reset();

  constexpr unsigned Threads = 8;
  constexpr uint64_t PerThread = 50000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      // Half the threads race the registry lookup too: references must
      // be stable and name-identical lookups must alias.
      Counter &Mine = T % 2 ? Reg.counter("test.concurrent.counter") : C;
      for (uint64_t I = 0; I != PerThread; ++I) {
        Mine.inc();
        H.observe(T);
      }
    });
  for (std::thread &Th : Pool)
    Th.join();

  EXPECT_EQ(C.value(), Threads * PerThread);
  EXPECT_EQ(H.count(), Threads * PerThread);
  // Sum of observations: each thread T observed its own id PerThread
  // times, so sum = PerThread * (0 + 1 + ... + 7).
  EXPECT_EQ(H.sum(), PerThread * (Threads * (Threads - 1) / 2));
}

TEST(ObsMetrics, HistogramBinEdges) {
  EXPECT_EQ(Histogram::binOf(0), 0u);
  EXPECT_EQ(Histogram::binOf(1), 1u);
  EXPECT_EQ(Histogram::binOf(2), 2u);
  EXPECT_EQ(Histogram::binOf(3), 2u);
  EXPECT_EQ(Histogram::binOf(4), 3u);
  EXPECT_EQ(Histogram::binOf(UINT64_MAX), 64u);

  // Every bin's edges are consistent with binOf: the inclusive lower
  // edge and the last value below the exclusive upper edge both map back
  // to the bin.
  for (unsigned B = 1; B != 64; ++B) {
    EXPECT_EQ(Histogram::binOf(Histogram::binLowerEdge(B)), B);
    EXPECT_EQ(Histogram::binOf(Histogram::binUpperEdge(B) - 1), B);
    EXPECT_EQ(Histogram::binLowerEdge(B + 1), Histogram::binUpperEdge(B));
  }
  EXPECT_EQ(Histogram::binLowerEdge(0), 0u);
  EXPECT_EQ(Histogram::binUpperEdge(0), 1u);
  EXPECT_EQ(Histogram::binUpperEdge(64), UINT64_MAX);

  Histogram H;
  for (uint64_t V : {0ull, 1ull, 2ull, 3ull, 4ull, 1024ull})
    H.observe(V);
  EXPECT_EQ(H.count(), 6u);
  EXPECT_EQ(H.sum(), 1034u);
  EXPECT_DOUBLE_EQ(H.mean(), 1034.0 / 6.0);
  EXPECT_EQ(H.binCount(0), 1u); // 0
  EXPECT_EQ(H.binCount(1), 1u); // 1
  EXPECT_EQ(H.binCount(2), 2u); // 2, 3
  EXPECT_EQ(H.binCount(3), 1u); // 4
  EXPECT_EQ(H.binCount(11), 1u); // 1024
  EXPECT_EQ(H.approxQuantile(0.0), 1u);   // bin 0's upper edge
  EXPECT_EQ(H.approxQuantile(1.0), 2048u); // bin 11's upper edge
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

TEST(ObsJson, SixtyFourBitIntegersRoundTripExactly) {
  JsonWriter W;
  W.beginObject();
  W.key("umax").value(UINT64_MAX);
  W.key("imin").value(INT64_MIN);
  W.key("seedish").value(uint64_t(0x9E3779B97F4A7C15ull));
  W.key("pi").value(3.25);
  W.key("s").value("a\"b\\c\n\t\x01z");
  W.key("yes").value(true);
  W.endObject();

  auto V = parseJson(W.str());
  ASSERT_TRUE(V.has_value());
  ASSERT_TRUE(V->isObject());
  EXPECT_TRUE(V->get("umax")->IsInt);
  EXPECT_EQ(V->get("umax")->asU64(), UINT64_MAX);
  EXPECT_EQ(V->get("imin")->asI64(), INT64_MIN);
  EXPECT_EQ(V->get("seedish")->asU64(), 0x9E3779B97F4A7C15ull);
  EXPECT_DOUBLE_EQ(V->get("pi")->asNumber(), 3.25);
  EXPECT_EQ(V->get("s")->asString(), "a\"b\\c\n\t\x01z");
  EXPECT_TRUE(V->get("yes")->B);
}

TEST(ObsJson, RejectsMalformedInput) {
  EXPECT_FALSE(parseJson("").has_value());
  EXPECT_FALSE(parseJson("{").has_value());
  EXPECT_FALSE(parseJson("{\"a\":1,}").has_value());
  EXPECT_FALSE(parseJson("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(parseJson("\"unterminated").has_value());
  EXPECT_TRUE(parseJson(" {\"a\": [1, 2.5, null]} ").has_value());
}

//===----------------------------------------------------------------------===//
// Trace sink and spans
//===----------------------------------------------------------------------===//

TEST(ObsTrace, JsonlWellFormedAndSpansNest) {
  std::string Path = tempTracePath("obs_trace_basic.jsonl");
  ASSERT_TRUE(TraceSink::open(Path, AttrSet().add("tool", "ipas_tests")));
  {
    PhaseSpan Outer("outer", AttrSet().add("k", uint64_t(1)));
    { PhaseSpan Inner1("inner1"); }
    {
      PhaseSpan Inner2("inner2");
      { PhaseSpan Leaf("leaf"); }
    }
    TraceSink::event("test.event", AttrSet().add("x", 42));
    logMessage(Severity::Debug, "a trace-only message %d", 7);
  }
  TraceSink::close();

  std::vector<JsonValue> Records = readTrace(Path);
  ASSERT_GE(Records.size(), 8u); // header + 4 spans + event + log + metrics
  EXPECT_EQ(recordType(Records.front()), "header");
  EXPECT_EQ(Records.front().get("attrs")->get("tool")->asString(),
            "ipas_tests");
  EXPECT_EQ(recordType(Records.back()), "metrics");

  // All four spans present, with duration arithmetic consistent.
  for (const char *Name : {"outer", "inner1", "inner2", "leaf"}) {
    const JsonValue *S = findSpan(Records, Name);
    ASSERT_NE(S, nullptr) << Name;
    EXPECT_EQ(S->get("dur_us")->asU64(),
              S->get("end_us")->asU64() - S->get("start_us")->asU64());
  }

  // Parent/depth bookkeeping: children record their parent's name and
  // one more level of depth.
  const JsonValue *Outer = findSpan(Records, "outer");
  const JsonValue *Leaf = findSpan(Records, "leaf");
  EXPECT_EQ(Outer->get("depth")->asU64(), 1u);
  EXPECT_EQ(findSpan(Records, "inner1")->get("parent")->asString(), "outer");
  EXPECT_EQ(Leaf->get("parent")->asString(), "inner2");
  EXPECT_EQ(Leaf->get("depth")->asU64(), 3u);

  const JsonValue *Ev = findEvent(Records, "test.event");
  ASSERT_NE(Ev, nullptr);
  EXPECT_EQ(Ev->get("attrs")->get("x")->asI64(), 42);

  // The Debug message is below the stderr threshold but must still be in
  // the trace.
  auto Logs = recordsOfType(Records, "log");
  ASSERT_EQ(Logs.size(), 1u);
  EXPECT_EQ(Logs[0]->get("msg")->asString(), "a trace-only message 7");
  EXPECT_EQ(Logs[0]->get("sev")->asString(), "debug");

  expectSpansNest(Records);
  std::remove(Path.c_str());
}

TEST(ObsTrace, SecondOpenFailsUntilClosed) {
  std::string Path = tempTracePath("obs_trace_reopen.jsonl");
  ASSERT_TRUE(TraceSink::open(Path));
  EXPECT_TRUE(TraceSink::enabled());
  EXPECT_FALSE(TraceSink::open(tempTracePath("obs_trace_other.jsonl")));
  TraceSink::close();
  EXPECT_FALSE(TraceSink::enabled());
  ASSERT_TRUE(TraceSink::open(Path));
  TraceSink::close();
  std::remove(Path.c_str());
}

// The sink is line-buffered, so every complete record reaches the OS as
// it is written: a process that abort()s mid-run (the child below never
// calls close(), and abort() skips the atexit flush) must still leave
// the header and every event written before the abort readable on disk.
TEST(ObsTraceDeathTest, CompletedRecordsSurviveAbort) {
  std::string Path = tempTracePath("obs_trace_abort.jsonl");
  std::remove(Path.c_str());
  EXPECT_DEATH(
      {
        TraceSink::open(Path, AttrSet().add("tool", "abort_test"));
        TraceSink::event("pre.abort", AttrSet().add("k", uint64_t(42)));
        std::abort();
      },
      "");

  std::vector<JsonValue> Records = readTrace(Path);
  ASSERT_GE(Records.size(), 2u);
  EXPECT_EQ(recordType(Records.front()), "header");
  const JsonValue *Ev = findEvent(Records, "pre.abort");
  ASSERT_NE(Ev, nullptr);
  EXPECT_EQ(Ev->get("attrs")->get("k")->asU64(), 42u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Campaign reproducibility from the trace alone (the satellite-3 claim)
//===----------------------------------------------------------------------===//

TEST(ObsTrace, CampaignReproducibleFromTrace) {
  auto M = compile(ToySrc);
  ModuleLayout Layout(*M);

  std::string Path = tempTracePath("obs_trace_campaign.jsonl");
  ASSERT_TRUE(TraceSink::open(Path));
  CampaignConfig CC;
  CC.NumRuns = 80;
  CC.Seed = 0xDEC0DE5EEDull;
  CC.Label = "roundtrip";
  FunctionHarness H1("f", {RtValue::fromI64(25)});
  CampaignResult First = runCampaign(H1, Layout, CC);
  TraceSink::close();

  // Recover the campaign parameters from the trace file alone.
  std::vector<JsonValue> Records = readTrace(Path);
  const JsonValue *Begin = findEvent(Records, "campaign.begin");
  ASSERT_NE(Begin, nullptr);
  const JsonValue *Attrs = Begin->get("attrs");
  ASSERT_NE(Attrs, nullptr);
  EXPECT_EQ(Attrs->get("label")->asString(), "roundtrip");

  // The seed is rendered as a hex string so all 64 bits survive.
  const std::string &SeedStr = Attrs->get("seed")->asString();
  ASSERT_EQ(SeedStr.substr(0, 2), "0x");
  CampaignConfig Replay;
  Replay.Seed = std::strtoull(SeedStr.c_str(), nullptr, 16);
  Replay.NumRuns = Attrs->get("runs")->asU64();
  EXPECT_FALSE(Attrs->get("prune")->B);
  EXPECT_EQ(Replay.Seed, CC.Seed);
  EXPECT_EQ(Replay.NumRuns, CC.NumRuns);

  // One campaign.run record per injection, and the recorded outcome
  // tallies match the result.
  auto Runs = recordsOfType(Records, "event");
  size_t RunEvents = 0;
  for (const JsonValue *E : Runs)
    if (E->get("name")->asString() == "campaign.run")
      ++RunEvents;
  EXPECT_EQ(RunEvents, CC.NumRuns);
  const JsonValue *DoneEv = findEvent(Records, "campaign.done");
  ASSERT_NE(DoneEv, nullptr);
  for (Outcome O : {Outcome::Crash, Outcome::Hang, Outcome::Detected,
                    Outcome::Masked, Outcome::SOC})
    EXPECT_EQ(DoneEv->get("attrs")->get(outcomeName(O))->asU64(),
              First.count(O))
        << outcomeName(O);

  // Replaying with the recovered config (no sink this time) reproduces
  // the injection stream bit-identically.
  FunctionHarness H2("f", {RtValue::fromI64(25)});
  CampaignResult Second = runCampaign(H2, Layout, Replay);
  ASSERT_EQ(Second.Records.size(), First.Records.size());
  for (size_t I = 0; I != First.Records.size(); ++I) {
    EXPECT_EQ(Second.Records[I].InstructionId, First.Records[I].InstructionId);
    EXPECT_EQ(Second.Records[I].BitIndex, First.Records[I].BitIndex);
    EXPECT_EQ(Second.Records[I].Result, First.Records[I].Result);
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Pipeline phase spans
//===----------------------------------------------------------------------===//

TEST(ObsTrace, PipelinePhaseSpansCoverRun) {
  std::string Path = tempTracePath("obs_trace_pipeline.jsonl");
  // Variant profiles add profile.* spans, which run on the worker that
  // evaluates the variant.
  std::string ProfileDir = tempTracePath("obs_trace_pipeline_profiles");
  std::filesystem::create_directories(ProfileDir);
  ASSERT_TRUE(TraceSink::open(Path));
  {
    auto W = makeWorkload("IS");
    PipelineConfig Cfg = PipelineConfig::defaults();
    Cfg.TrainSamples = 150;
    Cfg.EvalRuns = 120;
    Cfg.Grid.CSteps = 3;
    Cfg.Grid.GammaSteps = 3;
    Cfg.Grid.Folds = 3;
    Cfg.TopN = 2;
    Cfg.Seed = 0xBEEF;
    Cfg.PropSampleEvery = 32; // Exercise the tracer path's spans too.
    Cfg.ProfileDir = ProfileDir;
    IpasPipeline P(*W, Cfg);
    WorkloadEvaluation WE = P.run();
    EXPECT_GE(WE.Variants.size(), 4u);
  }
  TraceSink::close();

  std::vector<JsonValue> Records = readTrace(Path);
  expectSpansNest(Records);

  const JsonValue *Root = findSpan(Records, "pipeline");
  ASSERT_NE(Root, nullptr);
  uint64_t RootStart = Root->get("start_us")->asU64();
  uint64_t RootEnd = Root->get("end_us")->asU64();

  // The named phases exist, sit inside the root span, and between them
  // account for nearly all of its duration (the ISSUE acceptance bar is
  // 95% of wall time covered by phase spans).
  uint64_t Covered = 0;
  for (const char *Phase :
       {"pipeline.setup", "pipeline.training", "pipeline.evaluation"}) {
    const JsonValue *S = findSpan(Records, Phase);
    ASSERT_NE(S, nullptr) << Phase;
    EXPECT_EQ(S->get("parent")->asString(), "pipeline") << Phase;
    EXPECT_GE(S->get("start_us")->asU64(), RootStart) << Phase;
    EXPECT_LE(S->get("end_us")->asU64(), RootEnd) << Phase;
    Covered += S->get("dur_us")->asU64();
  }
  ASSERT_GT(RootEnd, RootStart);
  EXPECT_GE(static_cast<double>(Covered) /
                static_cast<double>(RootEnd - RootStart),
            0.95);

  // Training's child phases and per-variant spans are present too.
  EXPECT_NE(findSpan(Records, "training.campaign"), nullptr);
  EXPECT_NE(findSpan(Records, "training.grid_search"), nullptr);
  // Variants are evaluated on the campaign worker pool, yet every
  // variant span names the evaluation phase as its parent and sits one
  // level below it, whichever thread ran it.
  const JsonValue *Evaluation = findSpan(Records, "pipeline.evaluation");
  ASSERT_NE(Evaluation, nullptr);
  int64_t VariantDepth = Evaluation->get("depth")->asI64() + 1;
  std::vector<const JsonValue *> Variants;
  for (const JsonValue &R : Records)
    if (recordType(R) == "span" && R.get("name")->asString() ==
                                       "pipeline.variant")
      Variants.push_back(&R);
  EXPECT_GE(Variants.size(), 4u);
  for (const JsonValue *V : Variants) {
    ASSERT_NE(V->get("parent"), nullptr);
    EXPECT_EQ(V->get("parent")->asString(), "pipeline.evaluation");
    EXPECT_EQ(V->get("depth")->asI64(), VariantDepth);
    EXPECT_GE(V->get("start_us")->asU64(),
              Evaluation->get("start_us")->asU64());
    EXPECT_LE(V->get("end_us")->asU64(), Evaluation->get("end_us")->asU64());
  }

  // Every profile.* span lies inside a pipeline.variant span on its own
  // thread, the rule `ipas-report --check` enforces.
  size_t ProfileSpans = 0;
  for (const JsonValue &R : Records) {
    if (recordType(R) != "span" ||
        R.get("name")->asString().rfind("profile.", 0) != 0)
      continue;
    ++ProfileSpans;
    ASSERT_NE(R.get("parent"), nullptr);
    EXPECT_EQ(R.get("parent")->asString(), "pipeline.variant");
    bool Inside = false;
    for (const JsonValue *V : Variants)
      Inside |= V->get("tid")->asI64() == R.get("tid")->asI64() &&
                V->get("start_us")->asU64() <= R.get("start_us")->asU64() &&
                R.get("end_us")->asU64() <= V->get("end_us")->asU64();
    EXPECT_TRUE(Inside) << "profile span at " << R.get("start_us")->asU64()
                        << " is outside every variant span on its thread";
  }
  EXPECT_EQ(ProfileSpans, Variants.size());

  // Begin/done markers for the run as a whole.
  EXPECT_NE(findEvent(Records, "pipeline.begin"), nullptr);
  EXPECT_NE(findEvent(Records, "pipeline.done"), nullptr);

  // Propagation tracing was sampled, so per-injection tracer spans exist
  // and every one nests inside a campaign span (the laminar rule
  // `ipas-report --check` enforces). expectSpansNest() above already
  // verified containment; here we pin the parent linkage.
  size_t PropSpans = 0;
  for (const JsonValue &R : Records) {
    if (recordType(R) != "span" || !R.get("name") ||
        R.get("name")->asString() != "campaign.prop")
      continue;
    ++PropSpans;
    ASSERT_NE(R.get("parent"), nullptr);
    EXPECT_EQ(R.get("parent")->asString(), "campaign");
  }
  EXPECT_GT(PropSpans, 0u);
  std::remove(Path.c_str());
  std::filesystem::remove_all(ProfileDir);
}
