//===- fault/ProgramHarness.cpp -----------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fault/ProgramHarness.h"

#include "obs/Metrics.h"

#include <array>
#include <cstring>

using namespace ipas;

namespace {

/// The closed set of fallback reasons; the last one counts every reason
/// not listed before it.
constexpr const char *FallbackReasons[] = {
    "compile", "observer", "profile_context", "other"};
constexpr size_t NumFallbackReasons = std::size(FallbackReasons);

/// Pre-resolved vm.fallback.<reason> handles: the registry lookup is a
/// string hash we should pay once per process, not once per fallback (a
/// campaign that cannot compile its module falls back on every run).
obs::Counter &fallbackCounter(size_t K) {
  static const std::array<obs::Counter *, NumFallbackReasons> Counters = [] {
    std::array<obs::Counter *, NumFallbackReasons> C;
    for (size_t I = 0; I != NumFallbackReasons; ++I)
      C[I] = &obs::MetricsRegistry::global().counter(
          std::string("vm.fallback.") + FallbackReasons[I]);
    return C;
  }();
  return *Counters[K];
}

} // namespace

const char *ipas::backendName(ExecBackend B) {
  return B == ExecBackend::Vm ? "vm" : "interp";
}

const char *ipas::noteVmFallback(const char *Reason) {
  size_t K = 0;
  while (K + 1 != NumFallbackReasons &&
         std::strcmp(Reason, FallbackReasons[K]) != 0)
    ++K;
  fallbackCounter(K).inc();
  return Reason;
}

uint64_t ipas::vmFallbackTotal() {
  uint64_t Total = 0;
  for (size_t K = 0; K != NumFallbackReasons; ++K)
    Total += fallbackCounter(K).value();
  return Total;
}

std::vector<unsigned>
ProgramHarness::traceValueSteps(const ModuleLayout &Layout) {
  std::vector<unsigned> Trace;
  if (run(Layout, nullptr, UINT64_MAX, {.Trace = &Trace}).Status !=
      RunStatus::Finished)
    Trace.clear(); // tracing failed: disable pruning rather than misprune
  return Trace;
}
