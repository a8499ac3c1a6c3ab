//===- obs/Metrics.h - Process-wide counters, gauges, histograms ----------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide metrics registry in the Prometheus mold, sized for the
/// campaign hot paths: registration (name lookup) takes a mutex once,
/// after which the returned Counter/Gauge/Histogram reference is stable
/// for the life of the process and every update is a single relaxed
/// atomic operation — safe under the campaign thread pool with no
/// cross-thread serialization.
///
/// Naming convention: `subsystem.noun[.qualifier]`, all lowercase —
/// e.g. `interp.steps`, `fault.outcome.soc`, `ml.svm.iterations`.
/// Histograms use fixed log2-scale bins (bin 0 holds the value 0; bin
/// b>0 holds [2^(b-1), 2^b)), so no configuration is needed and merging
/// across threads is exact.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_OBS_METRICS_H
#define IPAS_OBS_METRICS_H

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace ipas {
namespace obs {

class JsonWriter;

/// Monotonically increasing event count.
class Counter {
public:
  void inc(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
public:
  void set(double X) { V.store(X, std::memory_order_relaxed); }
  double value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> V{0.0};
};

/// Log2-binned histogram of non-negative integer observations.
class Histogram {
public:
  /// Bin 0: value 0. Bin b in [1, 64]: values in [2^(b-1), 2^b).
  static constexpr unsigned NumBins = 65;

  static unsigned binOf(uint64_t V) {
    return V == 0 ? 0 : static_cast<unsigned>(std::bit_width(V));
  }
  /// Inclusive lower edge of \p Bin.
  static uint64_t binLowerEdge(unsigned Bin) {
    return Bin == 0 ? 0 : (uint64_t(1) << (Bin - 1));
  }
  /// Exclusive upper edge of \p Bin (saturates at UINT64_MAX).
  static uint64_t binUpperEdge(unsigned Bin) {
    return Bin >= 64 ? UINT64_MAX : (uint64_t(1) << Bin);
  }

  void observe(uint64_t V) {
    Bins[binOf(V)].fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(V, std::memory_order_relaxed);
  }

  uint64_t binCount(unsigned Bin) const {
    return Bins[Bin].load(std::memory_order_relaxed);
  }
  uint64_t count() const;
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  double mean() const;
  /// Upper edge of the bin containing quantile \p Q in [0, 1] — a
  /// log2-resolution approximation (0 when empty).
  uint64_t approxQuantile(double Q) const;
  void reset();

private:
  std::array<std::atomic<uint64_t>, NumBins> Bins{};
  std::atomic<uint64_t> Sum{0};
};

/// Owns every metric in the process. Lookup by name is mutex-protected;
/// returned references stay valid forever (metrics are never removed).
class MetricsRegistry {
public:
  static MetricsRegistry &global();

  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// Human-readable dump, one `name value` line per metric, sorted.
  std::string renderText() const;
  /// Emits {"counters":{...},"gauges":{...},"histograms":{...}} as the
  /// next value of \p W.
  void writeJson(JsonWriter &W) const;
  /// Zeroes every registered metric (registrations persist). Test-only.
  void resetAll();

private:
  mutable std::mutex Mu;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

/// True when subsystems should collect per-execution statistics that are
/// too hot to gather unconditionally (interpreter opcode counts, per-run
/// campaign latencies). Off by default; enabled by `--metrics`, by
/// opening a trace sink, or explicitly.
bool statsEnabled();
void setStatsEnabled(bool On);

} // namespace obs
} // namespace ipas

#endif // IPAS_OBS_METRICS_H
