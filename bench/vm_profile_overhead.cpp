//===- bench/vm_profile_overhead.cpp - VM counting-profiler throughput ----===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what counting-mode profiling costs the bytecode VM, and what
/// profiling on the VM buys over profiling on the interpreter: the same
/// clean run repeats on the VM with profiling off and in counting mode,
/// and on the interpreter in counting mode (the mode campaigns, the
/// pipeline, and --incremental hashing all use). The headline metric is
/// vm_counting_speedup_x — VM-counting throughput over interp-counting
/// throughput — which is what `ipas-cc --profile --backend vm` gains
/// now that counting mode runs natively in the dispatch loop instead of
/// falling back. Per-site counts are compared across the two backends
/// before timing anything: a speedup obtained by diverging from the
/// interpreter's count contract is a bug, not a result. The speedup
/// ratio (not the absolute throughputs, which are machine-dependent) is
/// regression-gated by ctest via ipas-bench-diff against the checked-in
/// tools/testdata/BENCH_vm_profile_overhead.json baseline.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "fault/FunctionHarness.h"
#include "frontend/CodeGen.h"
#include "interp/CostProfiler.h"
#include "ir/Verifier.h"
#include "transform/Duplication.h"
#include "transform/Mem2Reg.h"
#include "transform/SimplifyCFG.h"

using namespace ipas;
using namespace ipas::bench;

namespace {

// The same Jacobi-style sweep vm_speedup.cpp times, protected: per-step
// dispatch-plus-hook cost dominates, which is exactly what the VM's
// in-dispatch counting hook attacks.
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
  std::unique_ptr<Module> M =
      compileMiniC(KernelSource, "vm_profile_overhead", Diags);
  if (!M || Diags.hasErrors()) {
    std::fprintf(stderr, "error: kernel does not compile:\n%s\n",
                 Diags.summary().c_str());
    std::exit(1);
  }
  removeUnreachableBlocks(*M);
  promoteAllocasToRegisters(*M);
  // Profiled clean runs price protected builds, so benchmark that form.
  duplicateAllInstructions(*M);
  M->renumber();
  for (const std::string &E : verifyModule(*M)) {
    std::fprintf(stderr, "error: verifier: %s\n", E.c_str());
    std::exit(1);
  }
  return M;
}

enum class Variant { VmPlain, VmCounting, InterpCounting };
constexpr size_t kNumVariants = 3;

/// One variant's measurement state. The profiled variants use one
/// CostProfiler accumulating across runs, exactly like real callers
/// (buildProfileStore and the incremental hasher attach one profiler to
/// a whole profiling campaign); the accumulated counts are checked
/// against the accumulated step totals at the end.
struct VariantState {
  Variant V;
  FunctionHarness H;
  CostProfiler Prof;
  uint64_t StepsTotal = 0;
  uint64_t ElapsedUs = 0;
  size_t Runs = 0;

  VariantState(Variant V, const ModuleLayout &Layout)
      : V(V), H("kernel", {RtValue::fromI64(24)}),
        Prof(Layout, CostProfiler::Mode::Counting) {
    H.setPreferredBackend(V == Variant::InterpCounting ? ExecBackend::Interp
                                                       : ExecBackend::Vm);
  }

  void batch(const ModuleLayout &Layout, size_t N) {
    uint64_t T0 = obs::monotonicMicros();
    for (size_t R = 0; R != N; ++R) {
      ExecutionRecord Rec;
      if (V == Variant::VmPlain) {
        Rec = H.execute(Layout, nullptr, UINT64_MAX);
      } else {
        Rec = H.run(Layout, nullptr, UINT64_MAX, {.Prof = &Prof});
        StepsTotal += Rec.Steps;
      }
      if (Rec.Status != RunStatus::Finished || !Rec.OutputValid) {
        std::fprintf(stderr, "error: clean run failed\n");
        std::exit(1);
      }
      if (V != Variant::VmPlain && Rec.FallbackReason) {
        std::fprintf(stderr,
                     "error: vm profiling fell back to the interpreter "
                     "(%s) — the measurement is meaningless\n",
                     Rec.FallbackReason);
        std::exit(1);
      }
    }
    ElapsedUs += obs::monotonicMicros() - T0;
    Runs += N;
  }

  double runsPerSec() const {
    return ElapsedUs ? static_cast<double>(Runs) * 1e6 /
                           static_cast<double>(ElapsedUs)
                     : 0.0;
  }
};

/// Measures all three variants by interleaving them in small batches
/// until every variant has at least \p NumRuns runs and half a second
/// of accumulated wall clock. Interleaving matters more than window
/// length here: the headline metric is a ratio, and sequential
/// per-variant windows let frequency scaling and scheduler drift land
/// entirely on one side of the division. The batch sizes are scaled so
/// each variant's batch covers roughly equal wall clock (the VM retires
/// runs ~10x faster than the interpreter).
void measureVariants(const ModuleLayout &Layout, size_t NumRuns,
                     VariantState *S) {
  constexpr uint64_t MinWindowUs = 500000;
  const size_t Batch[kNumVariants] = {32, 32, 4};
  for (bool More = true; More;) {
    More = false;
    for (size_t K = 0; K != kNumVariants; ++K) {
      S[K].batch(Layout, Batch[K]);
      if (S[K].Runs < NumRuns || S[K].ElapsedUs < MinWindowUs)
        More = true;
    }
  }
  for (size_t K = 0; K != kNumVariants; ++K) {
    if (S[K].V == Variant::VmPlain)
      continue;
    if (S[K].Prof.totalSteps() != S[K].StepsTotal) {
      std::fprintf(stderr,
                   "error: profiled counts sum to %llu, runs took %llu "
                   "steps\n",
                   static_cast<unsigned long long>(S[K].Prof.totalSteps()),
                   static_cast<unsigned long long>(S[K].StepsTotal));
      std::exit(1);
    }
  }
}

/// Equivalence first, speed second: one profiled run per backend, and
/// the per-site counts (and their sum) must be bit-identical.
bool sameProfile(const ModuleLayout &Layout) {
  std::vector<uint64_t> Counts[2];
  int I = 0;
  for (ExecBackend B : {ExecBackend::Interp, ExecBackend::Vm}) {
    FunctionHarness H("kernel", {RtValue::fromI64(24)});
    H.setPreferredBackend(B);
    CostProfiler Prof(Layout, CostProfiler::Mode::Counting);
    ExecutionRecord Rec = H.run(Layout, nullptr, UINT64_MAX, {.Prof = &Prof});
    if (Rec.Status != RunStatus::Finished)
      return false;
    Counts[I++] = Prof.flatCounts();
  }
  return Counts[0] == Counts[1];
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseOptions(
      Argc, Argv,
      "vm_profile_overhead: counting-profiled clean-run throughput, "
      "bytecode VM (plain and counting) vs interpreter (counting)");
  BenchReport Report("vm_profile_overhead", Opts);
  const size_t NumRuns = Opts.Cfg.EvalRuns;

  std::unique_ptr<Module> M = compileKernel();
  ModuleLayout Layout(*M);

  std::printf("== VM counting-profiler overhead ==\n");
  std::printf("(kernel: protected 64-point Jacobi sweep, %zu clean runs "
              "per variant)\n\n",
              NumRuns);

  if (!sameProfile(Layout)) {
    std::fprintf(stderr, "error: interpreter and VM counting profiles "
                         "diverged — speedup is meaningless\n");
    return 1;
  }
  std::printf("  per-site counts identical across backends\n\n");

  VariantState S[kNumVariants] = {
      VariantState(Variant::VmPlain, Layout),
      VariantState(Variant::VmCounting, Layout),
      VariantState(Variant::InterpCounting, Layout),
  };
  // Warm up caches/allocator (and the lazy bytecode compile) so the
  // first measured batches are not penalized, then discard the tallies.
  for (size_t K = 0; K != kNumVariants; ++K)
    S[K].batch(Layout, K == 2 ? 4 : 32);
  for (size_t K = 0; K != kNumVariants; ++K) {
    S[K].ElapsedUs = 0;
    S[K].Runs = 0;
  }

  measureVariants(Layout, NumRuns, S);
  double VmPlain = S[0].runsPerSec();
  double VmCounting = S[1].runsPerSec();
  double InterpCounting = S[2].runsPerSec();

  double SlowCounting = VmCounting > 0.0 ? VmPlain / VmCounting : 0.0;
  double Speedup = InterpCounting > 0.0 ? VmCounting / InterpCounting : 0.0;

  std::printf("  %-18s %12s %10s\n", "variant", "runs/sec", "vs");
  std::printf("  %-18s %12.0f %9.2fx\n", "vm plain", VmPlain, 1.0);
  std::printf("  %-18s %12.0f %9.2fx vm plain\n", "vm counting",
              VmCounting, SlowCounting);
  std::printf("  %-18s %12.0f %9.2fx under vm counting\n",
              "interp counting", InterpCounting, Speedup);

  Report.metric("runs_per_sec_vm_plain", VmPlain);
  Report.metric("runs_per_sec_vm_counting", VmCounting);
  Report.metric("runs_per_sec_interp_counting", InterpCounting);
  Report.metric("vm_counting_slowdown_x", SlowCounting);
  Report.metric("vm_counting_speedup_x", Speedup);
  return 0;
}
