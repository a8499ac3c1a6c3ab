//===- bench/vm_speedup.cpp - Bytecode-VM campaign throughput -------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the threaded-code bytecode VM buys a campaign: the same
/// deterministic injection campaign runs on the tree-walking interpreter
/// and on the VM backend, and the bench reports throughput plus the
/// speedup factor. The record streams of the two variants are compared
/// run by run first — a speedup obtained by diverging from interpreter
/// semantics is a bug, not a result. The speedup ratio (not the absolute
/// throughputs, which are machine-dependent) is regression-gated by
/// ctest via ipas-bench-diff against the checked-in
/// tools/testdata/BENCH_vm_speedup.json baseline.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "fault/Campaign.h"
#include "fault/FunctionHarness.h"
#include "frontend/CodeGen.h"
#include "ir/Verifier.h"
#include "transform/Duplication.h"
#include "transform/Mem2Reg.h"
#include "transform/SimplifyCFG.h"

using namespace ipas;
using namespace ipas::bench;

namespace {

// The same Jacobi-style sweep prop_overhead uses: enough arithmetic,
// memory traffic and control flow per run that per-instruction dispatch
// cost — the thing the VM attacks — dominates campaign bookkeeping.
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
      compileMiniC(KernelSource, "vm_speedup", Diags);
  if (!M || Diags.hasErrors()) {
    std::fprintf(stderr, "error: kernel does not compile:\n%s\n",
                 Diags.summary().c_str());
    std::exit(1);
  }
  removeUnreachableBlocks(*M);
  promoteAllocasToRegisters(*M);
  // Campaigns run on protected builds, so benchmark the protected form.
  duplicateAllInstructions(*M);
  M->renumber();
  for (const std::string &E : verifyModule(*M)) {
    std::fprintf(stderr, "error: verifier: %s\n", E.c_str());
    std::exit(1);
  }
  return M;
}

/// One timed campaign on the given backend; returns injections per
/// second and hands the result back for the equivalence check.
double timedCampaign(const ModuleLayout &Layout, size_t NumRuns,
                     uint64_t Seed, ExecBackend Backend,
                     CampaignResult *ResultOut = nullptr) {
  FunctionHarness H("kernel", {RtValue::fromI64(24)});
  CampaignConfig CC;
  CC.NumRuns = NumRuns;
  CC.Seed = Seed;
  CC.TraceRuns = false;
  CC.ProgressEvery = NumRuns; // Quiet.
  CC.Backend = Backend;
  CampaignResult R = runCampaign(H, Layout, CC);
  double RunsPerSec = R.WallSeconds > 0.0
                          ? static_cast<double>(NumRuns) / R.WallSeconds
                          : 0.0;
  if (ResultOut)
    *ResultOut = std::move(R);
  return RunsPerSec;
}

/// Equivalence first, speed second: both variants must produce the same
/// deterministic record stream (LatencyUs excluded, documented
/// machine-dependent).
bool sameRecordStream(const CampaignResult &A, const CampaignResult &B) {
  if (A.Records.size() != B.Records.size() || A.Counts != B.Counts)
    return false;
  for (size_t I = 0; I != A.Records.size(); ++I) {
    const InjectionRecord &X = A.Records[I], &Y = B.Records[I];
    if (X.InstructionId != Y.InstructionId || X.BitIndex != Y.BitIndex ||
        X.TargetValueStep != Y.TargetValueStep || X.Result != Y.Result)
      return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseOptions(
      Argc, Argv,
      "vm_speedup: campaign throughput, tree-walking interpreter vs "
      "threaded-code bytecode VM");
  BenchReport Report("vm_speedup", Opts);
  const size_t NumRuns = Opts.Cfg.EvalRuns;
  const uint64_t Seed = Opts.Cfg.Seed;

  std::unique_ptr<Module> M = compileKernel();
  ModuleLayout Layout(*M);

  std::printf("== bytecode-VM campaign speedup ==\n");
  std::printf("(kernel: protected 64-point Jacobi sweep, %zu injections "
              "per variant, seed 0x%llx)\n\n",
              NumRuns, static_cast<unsigned long long>(Seed));

  // Warm up caches/allocator (and the lazy bytecode compile) so the
  // first measured variant is not penalized.
  timedCampaign(Layout, NumRuns / 4 + 1, Seed, ExecBackend::Vm);

  CampaignResult InterpR, VmR;
  double Interp =
      timedCampaign(Layout, NumRuns, Seed, ExecBackend::Interp, &InterpR);
  double Vm = timedCampaign(Layout, NumRuns, Seed, ExecBackend::Vm, &VmR);

  if (!sameRecordStream(InterpR, VmR)) {
    std::fprintf(stderr, "error: interpreter and VM record streams "
                         "diverged — speedup is meaningless\n");
    return 1;
  }
  std::printf("  record streams identical (%zu runs)\n\n",
              InterpR.Records.size());

  double Speedup = Interp > 0.0 ? Vm / Interp : 0.0;
  std::printf("  %-18s %12s %10s\n", "backend", "runs/sec", "speedup");
  std::printf("  %-18s %12.0f %9.2fx\n", "interpreter", Interp, 1.0);
  std::printf("  %-18s %12.0f %9.2fx\n", "bytecode vm", Vm, Speedup);

  Report.metric("runs_per_sec_interp", Interp);
  Report.metric("runs_per_sec_vm", Vm);
  Report.metric("speedup_x", Speedup);
  return 0;
}
