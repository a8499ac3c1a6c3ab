//===- bench/prop_overhead.cpp - Propagation-tracing overhead -------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what shadow dual execution costs a campaign: the same
/// injection campaign runs with propagation tracing off, sampled at
/// 1-in-64 (the documented operating point), and always-on, and the
/// bench reports throughput plus the slowdown factors relative to the
/// untraced campaign. The slowdown ratios — not the absolute
/// throughputs, which are machine-dependent — are regression-gated by
/// ctest via ipas-bench-diff against the checked-in
/// tools/testdata/BENCH_prop_overhead.json baseline.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "fault/Campaign.h"
#include "fault/FunctionHarness.h"
#include "frontend/CodeGen.h"
#include "ir/Verifier.h"
#include "transform/Mem2Reg.h"
#include "transform/SimplifyCFG.h"

using namespace ipas;
using namespace ipas::bench;

namespace {

// A Jacobi-style sweep: enough memory traffic and control flow per run
// that the observer hooks, not campaign bookkeeping, dominate the
// traced-variant cost.
const char *KernelSource =
    "int kernel(int n) {\n"
    "  int a[64];\n"
    "  int i = 0;\n"
    "  while (i < 64) { a[i] = i * 3 + 1; i = i + 1; }\n"
    "  int sweep = 0;\n"
    "  int acc = 0;\n"
    "  while (sweep < n) {\n"
    "    int j = 1;\n"
    "    while (j < 63) {\n"
    "      a[j] = (a[j - 1] + a[j] + a[j + 1]) / 3;\n"
    "      j = j + 1;\n"
    "    }\n"
    "    acc = acc + a[32];\n"
    "    sweep = sweep + 1;\n"
    "  }\n"
    "  return acc;\n"
    "}\n";

std::unique_ptr<Module> compileKernel() {
  Diagnostics Diags;
  std::unique_ptr<Module> M = compileMiniC(KernelSource, "prop_overhead",
                                           Diags);
  if (!M || Diags.hasErrors()) {
    std::fprintf(stderr, "error: kernel does not compile:\n%s\n",
                 Diags.summary().c_str());
    std::exit(1);
  }
  removeUnreachableBlocks(*M);
  promoteAllocasToRegisters(*M);
  M->renumber();
  for (const std::string &E : verifyModule(*M)) {
    std::fprintf(stderr, "error: verifier: %s\n", E.c_str());
    std::exit(1);
  }
  return M;
}

/// One timed campaign; returns injections per second.
double timedCampaign(const ModuleLayout &Layout, size_t NumRuns,
                     uint64_t Seed, size_t PropSampleEvery,
                     size_t *TracedOut = nullptr) {
  FunctionHarness H("kernel", {RtValue::fromI64(24)});
  CampaignConfig CC;
  CC.NumRuns = NumRuns;
  CC.Seed = Seed;
  CC.TraceRuns = false;
  CC.ProgressEvery = NumRuns; // Quiet.
  CC.PropSampleEvery = PropSampleEvery;
  CampaignResult R = runCampaign(H, Layout, CC);
  if (TracedOut)
    *TracedOut = R.TracedRuns;
  return R.WallSeconds > 0.0
             ? static_cast<double>(NumRuns) / R.WallSeconds
             : 0.0;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseOptions(
      Argc, Argv,
      "prop_overhead: campaign throughput with propagation tracing "
      "off / sampled 1-in-64 / always-on");
  BenchReport Report("prop_overhead", Opts);
  const size_t NumRuns = Opts.Cfg.EvalRuns;
  const uint64_t Seed = Opts.Cfg.Seed;

  std::unique_ptr<Module> M = compileKernel();
  ModuleLayout Layout(*M);

  std::printf("== propagation-tracing overhead ==\n");
  std::printf("(kernel: 64-point Jacobi sweep, %zu injections per "
              "variant, seed 0x%llx)\n\n",
              NumRuns, static_cast<unsigned long long>(Seed));

  // Warm up caches/allocator so the first measured variant is not
  // penalized.
  timedCampaign(Layout, NumRuns / 4 + 1, Seed, 0);

  size_t TracedSampled = 0, TracedAlways = 0;
  double Off = timedCampaign(Layout, NumRuns, Seed, 0);
  double Sampled = timedCampaign(Layout, NumRuns, Seed, 64, &TracedSampled);
  double Always = timedCampaign(Layout, NumRuns, Seed, 1, &TracedAlways);

  double SlowSampled = Sampled > 0.0 ? Off / Sampled : 0.0;
  double SlowAlways = Always > 0.0 ? Off / Always : 0.0;

  std::printf("  %-18s %12s %10s %8s\n", "variant", "runs/sec", "slowdown",
              "traced");
  std::printf("  %-18s %12.0f %9.2fx %8d\n", "tracing off", Off, 1.0, 0);
  std::printf("  %-18s %12.0f %9.2fx %8zu\n", "sampled 1-in-64", Sampled,
              SlowSampled, TracedSampled);
  std::printf("  %-18s %12.0f %9.2fx %8zu\n", "always-on", Always,
              SlowAlways, TracedAlways);

  Report.metric("runs_per_sec_off", Off);
  Report.metric("runs_per_sec_sampled", Sampled);
  Report.metric("runs_per_sec_always", Always);
  Report.metric("slowdown_sampled_x", SlowSampled);
  Report.metric("slowdown_always_x", SlowAlways);
  Report.metric("overhead_sampled_pct", 100.0 * (SlowSampled - 1.0));
  Report.metric("overhead_always_pct", 100.0 * (SlowAlways - 1.0));
  return 0;
}
