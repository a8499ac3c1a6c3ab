//===- perfbench/driver/Spans.h - Metric math and the span recorder -------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two pieces the pipeline benchmark is built on:
///
///  * metric math: median, quartiles (the same "exclusive" method as
///    Python's statistics.quantiles), nearest-rank percentiles and the
///    highest percentile that still has ten samples beyond it;
///  * the span recorder: spans (name, layer, start, end, parent,
///    repetition) kept in memory while a traced repetition runs, plus
///    per-entry-point call tallies. Self time of a span is its duration
///    minus the part of it that its children cover.
///
/// The recorder only records on the thread that armed it, so layer entry
/// points reached from campaign worker threads never race on it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

//===-- Metric math -------------------------------------------------------===//

/// Median of \p V (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> V);

/// First, second and third quartile by the "exclusive" method of Python's
/// statistics.quantiles(V, n=4). Needs at least two values; a single value
/// is returned three times and an empty input gives zeros.
std::array<double, 3> quartiles(std::vector<double> V);

/// Nearest-rank percentile \p P in (0, 100] of \p V; 0 when empty.
double percentile(std::vector<double> V, double P);

/// Samples strictly above the nearest-rank \p P percentile of \p N samples.
size_t samplesBeyond(size_t N, double P);

/// Highest of 99.9, 99, 95, 90, 75 and 50 with at least ten samples beyond
/// it among \p N samples; 0 when not even the median qualifies.
double supportedTailPercentile(size_t N);

//===-- Spans -------------------------------------------------------------===//

/// The repo's modules, as the layers a span is attributed to. Core is the
/// pipeline itself: time no wrapped entry point accounts for.
enum class Layer : uint8_t {
  Core,
  Frontend,
  Transform,
  Analysis,
  Fault,
  Ml,
  Obs,
  Mpi,
};
inline constexpr unsigned NumLayers = 8;
const char *layerName(Layer L);

struct Span {
  const char *Name = ""; ///< Static string, e.g. "fault.campaign".
  Layer L = Layer::Core;
  double Start = 0.0; ///< Seconds on the steady clock.
  double End = 0.0;
  int Parent = -1; ///< Index of the enclosing span; -1 for the root.
  unsigned Rep = 0;
};

/// Self time of every span in \p Spans: its duration minus the union of
/// its children's intervals, clipped to its own interval. Children must
/// refer to parents by index into the same vector.
std::vector<double> selfTimes(const std::vector<Span> &Spans);

/// Sums selfTimes() per layer.
std::array<double, NumLayers> layerSelfTimes(const std::vector<Span> &Spans);

/// Calls into one entry point (or a group of them) during a repetition.
struct Tally {
  uint64_t Calls = 0;
  double Seconds = 0.0; ///< Inclusive time of the calls.
  double Sum = 0.0;     ///< Entry-point specific quantity (see Wrap.cpp).
};

/// Per-injection data gathered from the campaigns of one repetition.
struct CampaignTally {
  uint64_t ExecutedRuns = 0;
  uint64_t PrunedRuns = 0;
  uint64_t VmRuns = 0;
  uint64_t InterpRuns = 0;
  uint64_t CleanSteps = 0;
  double HangMicros = 0.0;
  double RunMicros = 0.0;
  std::vector<double> LatencyUs; ///< Executed runs only.
};

/// What one traced repetition recorded.
struct RepTrace {
  std::vector<Span> Spans; ///< Spans[0] is the repetition's root span.
  std::map<std::string, Tally> Tallies;
  CampaignTally Campaigns;
};

/// Process-wide span recorder. Disarmed, every wrapper is a pass-through.
class Recorder {
public:
  static Recorder &get();

  /// True while a traced repetition runs and the caller is on the thread
  /// that started it.
  bool active() const {
    return Armed.load(std::memory_order_acquire) &&
           std::this_thread::get_id() == Owner;
  }

  /// Starts a repetition: opens its root (Core) span.
  void beginRep(unsigned Rep);
  /// Closes the root span and hands back everything recorded.
  RepTrace endRep();

  /// Opens a span starting at \p Start unless the innermost open span
  /// already belongs to \p L (calls within one layer collapse into the
  /// outer call). Returns the span index, Collapsed, or SameName when the
  /// outer span also has \p Name (its time already covers this call).
  int open(const char *Name, Layer L, double Start);
  static constexpr int Collapsed = -1;
  static constexpr int SameName = -2;
  void close(int Index, double End);

  Tally &tally(const char *Key) { return Cur.Tallies[Key]; }
  CampaignTally &campaigns() { return Cur.Campaigns; }

  /// Nesting depth of gridSearch calls, so SVM decisions made inside model
  /// selection are not counted as classification.
  int GridDepth = 0;

private:
  /// Written only by the owning thread; Owner is set before Armed.
  std::atomic<bool> Armed{false};
  std::thread::id Owner;
  unsigned Rep = 0;
  RepTrace Cur;
  std::vector<int> Open; ///< Stack of open span indices.
};

/// Seconds on the steady clock.
double nowSeconds();

/// RAII span + tally around one call into a layer. Inert when the
/// recorder is not active.
class Scope {
public:
  Scope(const char *Name, Layer L);
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  bool active() const { return Active; }

private:
  const char *Name;
  bool Active;
  int Index = -1;
  double Start = 0.0;
};

/// True in the traced executable (Wrap.cpp), false in the plain one.
bool tracingLinked();

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
