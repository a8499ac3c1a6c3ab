//===- fault/ProgramHarness.cpp -----------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fault/ProgramHarness.h"

#include "obs/Metrics.h"

#include <cstring>

using namespace ipas;

const char *ipas::backendName(ExecBackend B) {
  return B == ExecBackend::Vm ? "vm" : "interp";
}

const char *ipas::noteVmFallback(const char *Reason) {
  // Pre-resolved handles: fallback reasons form a closed set, and the
  // registry lookup is a string hash we should pay once per process,
  // not once per fallback (a campaign that cannot compile its module
  // falls back on every run).
  auto &Reg = obs::MetricsRegistry::global();
  static obs::Counter &Compile = Reg.counter("vm.fallback.compile");
  static obs::Counter &Observer = Reg.counter("vm.fallback.observer");
  static obs::Counter &ProfileContext =
      Reg.counter("vm.fallback.profile_context");
  static obs::Counter &Trace = Reg.counter("vm.fallback.trace");
  static obs::Counter &Mpi = Reg.counter("vm.fallback.mpi");
  static obs::Counter &Other = Reg.counter("vm.fallback.other");
  if (std::strcmp(Reason, "compile") == 0)
    Compile.inc();
  else if (std::strcmp(Reason, "observer") == 0)
    Observer.inc();
  else if (std::strcmp(Reason, "profile_context") == 0)
    ProfileContext.inc();
  else if (std::strcmp(Reason, "trace") == 0)
    Trace.inc();
  else if (std::strcmp(Reason, "mpi") == 0)
    Mpi.inc();
  else
    Other.inc();
  return Reason;
}
