//===- obs/Trace.h - Structured tracing, spans, and leveled logging -------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured side of the telemetry subsystem (docs/OBSERVABILITY.md
/// has the full schema):
///
///  - TraceSink: a process-wide JSONL sink. Each record is one JSON
///    object per line with a `type` of `header`, `span`, `event`, `log`,
///    or `metrics`. Timestamps are monotonic microseconds from a
///    process-start anchor, so traces are insensitive to wall-clock
///    steps.
///  - PhaseSpan: RAII scoped span. Construction pushes onto a
///    thread-local span stack (recording depth and parent); destruction
///    emits the span record with its duration. Spans also double as
///    plain monotonic stopwatches via seconds(), so instrumented code
///    can keep feeding existing `*Seconds` fields.
///  - AttrSet: key/value attributes attached to headers, spans, and
///    events. Values are pre-rendered JSON fragments, so building one is
///    cheap and allocation-light.
///  - logMessage and friends: a severity-leveled logger replacing raw
///    fprintf in library code. Messages below the active level are
///    suppressed on stderr; when a sink is open every message is also
///    mirrored into the trace as a `log` record.
///
/// Everything is safe to call with no sink open (events no-op, spans
/// still measure time) and thread-safe with one open.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_OBS_TRACE_H
#define IPAS_OBS_TRACE_H

#include "obs/Json.h"

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>

namespace ipas {
namespace obs {

//===----------------------------------------------------------------------===//
// Leveled logging
//===----------------------------------------------------------------------===//

enum class Severity : uint8_t { Debug = 0, Info, Warn, Error, Silent };

const char *severityName(Severity S);

/// Active stderr threshold. Defaults to Warn (library code is quiet);
/// initialized once from IPAS_LOG_LEVEL (debug/info/warn/error/silent)
/// when set. `-v` maps to Info, `-q` to Error.
Severity logLevel();
void setLogLevel(Severity S);
inline bool logEnabled(Severity S) { return S >= logLevel(); }

/// printf-style message: to stderr when \p S passes the level, and into
/// the open trace sink (any level) as a `log` record.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 2, 3)))
#endif
void logMessage(Severity S, const char *Fmt, ...);

//===----------------------------------------------------------------------===//
// Attributes
//===----------------------------------------------------------------------===//

/// An ordered set of (key, pre-rendered JSON value) attributes.
class AttrSet {
public:
  AttrSet &add(std::string_view K, std::string_view V);
  AttrSet &add(std::string_view K, const char *V) {
    return add(K, std::string_view(V));
  }
  AttrSet &add(std::string_view K, uint64_t V);
  AttrSet &add(std::string_view K, int64_t V);
  AttrSet &add(std::string_view K, int V) {
    return add(K, static_cast<int64_t>(V));
  }
  AttrSet &add(std::string_view K, unsigned V) {
    return add(K, static_cast<uint64_t>(V));
  }
  AttrSet &add(std::string_view K, double V);
  AttrSet &add(std::string_view K, bool V);
  /// Renders \p V as a "0x..." hex string — exact for 64-bit seeds and
  /// self-describing in the trace.
  AttrSet &addHex(std::string_view K, uint64_t V);

  bool empty() const { return KVs.empty(); }
  /// Appends every pair of \p Other after this set's pairs.
  AttrSet &merge(const AttrSet &Other);
  /// Appends all pairs into an already-open JSON object.
  void writeInto(JsonWriter &W) const;

private:
  AttrSet &addRaw(std::string_view K, std::string Json);
  std::vector<std::pair<std::string, std::string>> KVs;
};

//===----------------------------------------------------------------------===//
// Monotonic clock
//===----------------------------------------------------------------------===//

/// Microseconds since a process-start anchor (steady clock).
uint64_t monotonicMicros();

//===----------------------------------------------------------------------===//
// TraceSink
//===----------------------------------------------------------------------===//

class TraceSink {
public:
  /// Opens the process-wide sink at \p Path and writes the header record
  /// (version, wall-clock anchor, \p HeaderAttrs). Returns false if the
  /// file cannot be created or a sink is already open. Opening a sink
  /// also turns on statsEnabled().
  static bool open(const std::string &Path,
                   const AttrSet &HeaderAttrs = AttrSet());
  /// Writes a final `metrics` record (full registry snapshot) and closes.
  /// Safe to call with no sink open. Also runs at exit.
  static void close();
  static bool enabled();

  /// Emits an `event` record.
  static void event(std::string_view Name,
                    const AttrSet &Attrs = AttrSet());
  /// Appends one pre-rendered JSONL record (no trailing newline).
  static void writeRecord(const std::string &JsonLine);

private:
  TraceSink() = default;
};

//===----------------------------------------------------------------------===//
// PhaseSpan
//===----------------------------------------------------------------------===//

/// RAII scoped phase span. Nesting is tracked per thread; the emitted
/// record carries the thread id, depth (1 = top level), and parent span
/// name so `ipas-report --check` can verify proper nesting.
class PhaseSpan {
public:
  explicit PhaseSpan(std::string Name) : PhaseSpan(std::move(Name), AttrSet()) {}
  PhaseSpan(std::string Name, AttrSet Attrs);
  /// Opens a span whose parent is \p Parent, which may be open on another
  /// thread: a worker of a parallel loop names the phase that started the
  /// loop. Spans opened later on this thread nest under this one as usual.
  /// Only \p Parent's name and depth are read, and only here.
  PhaseSpan(std::string Name, AttrSet Attrs, const PhaseSpan &Parent);
  ~PhaseSpan();

  PhaseSpan(const PhaseSpan &) = delete;
  PhaseSpan &operator=(const PhaseSpan &) = delete;

  /// Merges more attributes before the span closes.
  void addAttr(const AttrSet &More);
  /// Elapsed seconds since construction (works with no sink open).
  double seconds() const;

private:
  PhaseSpan(std::string Name, AttrSet Attrs, const PhaseSpan *Parent);

  std::string Name;
  AttrSet Attrs;
  std::string Parent;
  uint64_t StartUs = 0;
  unsigned Depth = 0;
  int Tid = 0;
};

} // namespace obs
} // namespace ipas

#endif // IPAS_OBS_TRACE_H
