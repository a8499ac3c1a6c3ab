//===- obs/Trace.cpp -----------------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/Metrics.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

using namespace ipas;
using namespace ipas::obs;

//===----------------------------------------------------------------------===//
// Logging
//===----------------------------------------------------------------------===//

const char *ipas::obs::severityName(Severity S) {
  switch (S) {
  case Severity::Debug:
    return "debug";
  case Severity::Info:
    return "info";
  case Severity::Warn:
    return "warn";
  case Severity::Error:
    return "error";
  case Severity::Silent:
    return "silent";
  }
  return "<bad severity>";
}

static Severity levelFromEnv() {
  const char *V = std::getenv("IPAS_LOG_LEVEL");
  if (!V)
    return Severity::Warn;
  if (!std::strcmp(V, "debug"))
    return Severity::Debug;
  if (!std::strcmp(V, "info"))
    return Severity::Info;
  if (!std::strcmp(V, "warn"))
    return Severity::Warn;
  if (!std::strcmp(V, "error"))
    return Severity::Error;
  if (!std::strcmp(V, "silent") || !std::strcmp(V, "quiet"))
    return Severity::Silent;
  return Severity::Warn;
}

static std::atomic<Severity> Level{levelFromEnv()};

Severity ipas::obs::logLevel() {
  return Level.load(std::memory_order_relaxed);
}

void ipas::obs::setLogLevel(Severity S) {
  Level.store(S, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Clock
//===----------------------------------------------------------------------===//

uint64_t ipas::obs::monotonicMicros() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Anchor = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            Anchor)
          .count());
}

//===----------------------------------------------------------------------===//
// AttrSet
//===----------------------------------------------------------------------===//

AttrSet &AttrSet::addRaw(std::string_view K, std::string Json) {
  KVs.emplace_back(std::string(K), std::move(Json));
  return *this;
}

AttrSet &AttrSet::add(std::string_view K, std::string_view V) {
  std::string J;
  J.reserve(V.size() + 2);
  J += '"';
  appendJsonEscaped(J, V);
  J += '"';
  return addRaw(K, std::move(J));
}

AttrSet &AttrSet::add(std::string_view K, uint64_t V) {
  return addRaw(K, std::to_string(V));
}

AttrSet &AttrSet::add(std::string_view K, int64_t V) {
  return addRaw(K, std::to_string(V));
}

AttrSet &AttrSet::add(std::string_view K, double V) {
  JsonWriter W;
  W.value(V);
  return addRaw(K, W.take());
}

AttrSet &AttrSet::add(std::string_view K, bool V) {
  return addRaw(K, V ? "true" : "false");
}

AttrSet &AttrSet::addHex(std::string_view K, uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "\"0x%llx\"",
                static_cast<unsigned long long>(V));
  return addRaw(K, Buf);
}

AttrSet &AttrSet::merge(const AttrSet &Other) {
  KVs.insert(KVs.end(), Other.KVs.begin(), Other.KVs.end());
  return *this;
}

void AttrSet::writeInto(JsonWriter &W) const {
  for (const auto &[K, V] : KVs)
    W.key(K).rawValue(V);
}

//===----------------------------------------------------------------------===//
// TraceSink
//===----------------------------------------------------------------------===//

namespace {
struct SinkState {
  std::mutex Mu;
  FILE *File = nullptr;
};
} // namespace

static SinkState &sink() {
  static SinkState S;
  return S;
}

static std::atomic<bool> SinkOpen{false};

bool TraceSink::enabled() { return SinkOpen.load(std::memory_order_acquire); }

bool TraceSink::open(const std::string &Path, const AttrSet &HeaderAttrs) {
  SinkState &S = sink();
  std::lock_guard<std::mutex> Lock(S.Mu);
  if (S.File)
    return false;
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  // Line buffering: every record ends with '\n', so each complete record
  // reaches the OS as it is written. A crash or abort() mid-run then
  // loses at most the record being formatted, never the tail of the
  // trace — which is exactly when the trace matters most.
  std::setvbuf(F, nullptr, _IOLBF, 1 << 16);
  S.File = F;
  SinkOpen.store(true, std::memory_order_release);
  setStatsEnabled(true);
  static bool AtExitRegistered = false;
  if (!AtExitRegistered) {
    AtExitRegistered = true;
    std::atexit([] { TraceSink::close(); });
  }

  JsonWriter W;
  W.beginObject();
  W.key("type").value("header");
  W.key("version").value(1);
  W.key("ts_us").value(monotonicMicros());
  W.key("wall_unix_s")
      .value(static_cast<int64_t>(
          std::chrono::duration_cast<std::chrono::seconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count()));
  W.key("attrs").beginObject();
  HeaderAttrs.writeInto(W);
  W.endObject();
  W.endObject();
  std::fputs(W.str().c_str(), S.File);
  std::fputc('\n', S.File);
  return true;
}

void TraceSink::close() {
  SinkState &S = sink();
  std::unique_lock<std::mutex> Lock(S.Mu);
  if (!S.File)
    return;
  JsonWriter W;
  W.beginObject();
  W.key("type").value("metrics");
  W.key("ts_us").value(monotonicMicros());
  W.key("metrics");
  MetricsRegistry::global().writeJson(W);
  W.endObject();
  std::fputs(W.str().c_str(), S.File);
  std::fputc('\n', S.File);
  std::fclose(S.File);
  S.File = nullptr;
  SinkOpen.store(false, std::memory_order_release);
}

void TraceSink::writeRecord(const std::string &JsonLine) {
  if (!enabled())
    return;
  SinkState &S = sink();
  std::lock_guard<std::mutex> Lock(S.Mu);
  if (!S.File)
    return;
  std::fputs(JsonLine.c_str(), S.File);
  std::fputc('\n', S.File);
}

void TraceSink::event(std::string_view Name, const AttrSet &Attrs) {
  if (!enabled())
    return;
  JsonWriter W;
  W.beginObject();
  W.key("type").value("event");
  W.key("name").value(Name);
  W.key("ts_us").value(monotonicMicros());
  if (!Attrs.empty()) {
    W.key("attrs").beginObject();
    Attrs.writeInto(W);
    W.endObject();
  }
  W.endObject();
  writeRecord(W.str());
}

void ipas::obs::logMessage(Severity S, const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);

  if (logEnabled(S) && S != Severity::Silent)
    std::fprintf(stderr, "ipas: %s: %s\n", severityName(S), Buf);

  if (TraceSink::enabled()) {
    JsonWriter W;
    W.beginObject();
    W.key("type").value("log");
    W.key("sev").value(severityName(S));
    W.key("ts_us").value(monotonicMicros());
    W.key("msg").value(std::string_view(Buf));
    W.endObject();
    TraceSink::writeRecord(W.str());
  }
}

//===----------------------------------------------------------------------===//
// PhaseSpan
//===----------------------------------------------------------------------===//

namespace {
struct ThreadSpanState {
  int Tid = -1;
  std::vector<const PhaseSpan *> Stack; ///< Open spans, outermost first.
};
} // namespace

static thread_local ThreadSpanState TlSpans;
static std::atomic<int> NextTid{0};

static ThreadSpanState &threadSpans() {
  if (TlSpans.Tid < 0)
    TlSpans.Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
  return TlSpans;
}

static const PhaseSpan *innermostSpan() {
  ThreadSpanState &TS = threadSpans();
  return TS.Stack.empty() ? nullptr : TS.Stack.back();
}

PhaseSpan::PhaseSpan(std::string N, AttrSet A)
    : PhaseSpan(std::move(N), std::move(A), innermostSpan()) {}

PhaseSpan::PhaseSpan(std::string N, AttrSet A, const PhaseSpan &P)
    : PhaseSpan(std::move(N), std::move(A), &P) {}

PhaseSpan::PhaseSpan(std::string N, AttrSet A, const PhaseSpan *P)
    : Name(std::move(N)), Attrs(std::move(A)),
      StartUs(monotonicMicros()) {
  ThreadSpanState &TS = threadSpans();
  Tid = TS.Tid;
  if (P)
    Parent = P->Name;
  Depth = P ? P->Depth + 1 : 1;
  TS.Stack.push_back(this);
}

PhaseSpan::~PhaseSpan() {
  ThreadSpanState &TS = threadSpans();
  assert(!TS.Stack.empty() && TS.Stack.back() == this &&
         "phase spans must close in LIFO order on their own thread");
  TS.Stack.pop_back();
  if (!TraceSink::enabled())
    return;
  uint64_t EndUs = monotonicMicros();
  JsonWriter W;
  W.beginObject();
  W.key("type").value("span");
  W.key("name").value(Name);
  W.key("tid").value(Tid);
  W.key("depth").value(Depth);
  if (!Parent.empty())
    W.key("parent").value(Parent);
  W.key("start_us").value(StartUs);
  W.key("end_us").value(EndUs);
  W.key("dur_us").value(EndUs - StartUs);
  if (!Attrs.empty()) {
    W.key("attrs").beginObject();
    Attrs.writeInto(W);
    W.endObject();
  }
  W.endObject();
  TraceSink::writeRecord(W.str());
}

void PhaseSpan::addAttr(const AttrSet &More) { Attrs.merge(More); }

double PhaseSpan::seconds() const {
  return static_cast<double>(monotonicMicros() - StartUs) / 1e6;
}
