//===- tests/TestVM.cpp - Bytecode VM vs interpreter equivalence ----------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Three layers of evidence that the threaded-code VM reproduces the
/// interpreter's observable semantics exactly (the fuzzed O5-backend
/// oracle is the fourth):
///  - a trap-parity table mirroring every interpreter trap case, run on
///    both backends and compared field by field;
///  - hand-derived bytecode goldens for the compiler's phi-edge moves,
///    trampolines, and fallthrough layout;
///  - a counting-profiler parity suite: the VM's in-dispatch profiling
///    hook must fill the CostProfiler's buffers (per-site counts and
///    per-function stream hashes) bit-identically to the interpreter;
///  - a backend x threads x pruning x profiling campaign sweep whose
///    sixteen deterministic record streams must be byte-identical.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/SocPropagation.h"
#include "fault/Campaign.h"
#include "fault/FunctionHarness.h"
#include "interp/CostProfiler.h"
#include "transform/Duplication.h"
#include "vm/VM.h"

#include <bit>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>

#include <sys/mman.h>
#include <unistd.h>

using namespace ipas;
using namespace ipas::testutil;

namespace {

/// Everything both backends promise to agree on for one run.
struct BackendRun {
  RunStatus Status = RunStatus::Finished;
  TrapKind Trap = TrapKind::None;
  uint64_t Bits = 0;
  uint64_t Steps = 0;
  uint64_t ValueSteps = 0;
  bool FaultInjected = false;
  unsigned FaultedId = 0;
};

BackendRun runOnInterp(const Module &M, const std::string &Fn,
                       const std::vector<RtValue> &Args,
                       uint64_t MaxSteps = 100000000ull,
                       const FaultPlan *Plan = nullptr) {
  ModuleLayout Layout(M);
  ExecutionContext Ctx(Layout);
  if (Plan)
    Ctx.setFaultPlan(*Plan);
  Ctx.start(M.getFunction(Fn), Args);
  BackendRun R;
  R.Status = Ctx.run(MaxSteps);
  R.Trap = Ctx.trap();
  R.Bits = Ctx.returnValue().Bits;
  R.Steps = Ctx.steps();
  R.ValueSteps = Ctx.valueSteps();
  R.FaultInjected = Ctx.faultWasInjected();
  R.FaultedId = Ctx.faultedInstructionId();
  return R;
}

BackendRun runOnVm(const Module &M, const std::string &Fn,
                   const std::vector<RtValue> &Args,
                   uint64_t MaxSteps = 100000000ull,
                   const FaultPlan *Plan = nullptr) {
  ModuleLayout Layout(M);
  std::string Err;
  std::unique_ptr<vm::VmProgram> Prog = vm::compile(Layout, &Err);
  EXPECT_NE(Prog, nullptr) << "vm compile failed: " << Err;
  BackendRun R;
  if (!Prog) {
    R.Status = RunStatus::Trapped;
    return R;
  }
  vm::VmContext Ctx(*Prog);
  vm::VmContext::Result V = Ctx.run(Prog->indexOf(Fn), Args, Plan, MaxSteps);
  R.Status = V.Status;
  R.Trap = V.Trap;
  R.Bits = V.ReturnValue.Bits;
  R.Steps = V.Steps;
  R.ValueSteps = V.ValueSteps;
  R.FaultInjected = V.FaultInjected;
  R.FaultedId = V.FaultedInstructionId;
  return R;
}

/// Runs \p Fn on both backends and demands identical observable results.
/// Returns the (shared) outcome for additional expectations.
BackendRun expectParity(const Module &M, const std::string &Fn,
                        const std::vector<RtValue> &Args,
                        uint64_t MaxSteps = 100000000ull,
                        const FaultPlan *Plan = nullptr) {
  BackendRun I = runOnInterp(M, Fn, Args, MaxSteps, Plan);
  BackendRun V = runOnVm(M, Fn, Args, MaxSteps, Plan);
  EXPECT_EQ(I.Status, V.Status);
  EXPECT_EQ(I.Trap, V.Trap);
  EXPECT_EQ(I.Steps, V.Steps);
  EXPECT_EQ(I.ValueSteps, V.ValueSteps);
  EXPECT_EQ(I.FaultInjected, V.FaultInjected);
  EXPECT_EQ(I.FaultedId, V.FaultedId);
  if (I.Status == RunStatus::Finished) {
    EXPECT_EQ(I.Bits, V.Bits);
  }
  return I;
}

//===----------------------------------------------------------------------===//
// Trap-parity table
//===----------------------------------------------------------------------===//

/// Every trap source the interpreter test suite covers, replayed on the
/// VM: same Outcome-relevant fields, with and without mem2reg, plain and
/// duplication-protected.
struct TrapCase {
  const char *Name;
  const char *Src;
  const char *Fn;
  std::vector<int64_t> Args;
  bool Mem2Reg;
  TrapKind Expect;
};

const TrapCase TrapTable[] = {
    {"div-by-zero", "int f(int a) { return 10 / a; }", "f", {0}, true,
     TrapKind::DivByZero},
    {"intmin-div-minus-one", "int f(int a, int b) { return a / b; }", "f",
     {INT64_MIN, -1}, true, TrapKind::DivByZero},
    {"mod-by-zero", "int f(int a, int b) { return a % b; }", "f", {7, 0},
     true, TrapKind::DivByZero},
    {"intmin-mod-minus-one", "int f(int a, int b) { return a % b; }", "f",
     {INT64_MIN, -1}, true, TrapKind::DivByZero},
    // The memory model validates addresses, not per-object extents, so
    // out-of-bounds indices must escape the whole address space (or go
    // negative into the guard) to trap — same values as the interpreter
    // suite.
    {"oob-load",
     "double f(int i) { double a[4]; a[0] = 1.0;\n  return a[i]; }", "f",
     {100000000}, true, TrapKind::OutOfBounds},
    {"oob-load-negative",
     "double f(int i) { double a[4]; a[0] = 1.0;\n  return a[i]; }", "f",
     {-100000000}, true, TrapKind::OutOfBounds},
    {"oob-load-no-mem2reg",
     "double f(int i) { double a[4]; a[0] = 1.0;\n  return a[i]; }", "f",
     {100000000}, false, TrapKind::OutOfBounds},
    {"oob-store", "int f(int i) { double a[4]; a[i] = 1.0; return 0; }",
     "f", {100000000}, true, TrapKind::OutOfBounds},
    {"negative-index-store",
     "int f(int i) { double a[4]; a[i] = 1.0; return 0; }", "f", {-1},
     true, TrapKind::OutOfBounds},
    {"null-load", "double f() { double* p; return p[0]; }", "f", {}, true,
     TrapKind::OutOfBounds},
    {"null-store", "int f() { double* p; p[0] = 1.0; return 0; }", "f", {},
     true, TrapKind::OutOfBounds},
    {"null-load-no-mem2reg", "double f() { double* p; return p[3]; }", "f",
     {}, false, TrapKind::OutOfBounds},
    {"call-depth",
     "int f(int n) { if (n <= 0) return 0;\n  return f(n - 1); }", "f",
     {100000}, true, TrapKind::CallDepthExceeded},
};

TEST(VmTrapParity, PlainModules) {
  for (const TrapCase &C : TrapTable) {
    SCOPED_TRACE(C.Name);
    std::unique_ptr<Module> M = compile(C.Src, C.Mem2Reg);
    ASSERT_NE(M, nullptr);
    std::vector<RtValue> Args;
    for (int64_t A : C.Args)
      Args.push_back(RtValue::fromI64(A));
    BackendRun R = expectParity(*M, C.Fn, Args);
    EXPECT_EQ(R.Status, RunStatus::Trapped);
    EXPECT_EQ(R.Trap, C.Expect);
  }
}

TEST(VmTrapParity, ProtectedModules) {
  // Duplication triples the step stream and adds soc.check traffic in
  // front of every trap; the two backends must still agree exactly.
  for (const TrapCase &C : TrapTable) {
    SCOPED_TRACE(C.Name);
    std::unique_ptr<Module> M = compile(C.Src, C.Mem2Reg);
    ASSERT_NE(M, nullptr);
    duplicateAllInstructions(*M);
    M->renumber();
    std::vector<RtValue> Args;
    for (int64_t A : C.Args)
      Args.push_back(RtValue::fromI64(A));
    BackendRun R = expectParity(*M, C.Fn, Args);
    EXPECT_EQ(R.Status, RunStatus::Trapped);
    EXPECT_EQ(R.Trap, C.Expect);
  }
}

TEST(VmTrapParity, FpDivisionByZeroDoesNotTrap) {
  std::unique_ptr<Module> M = compile("double f(double a) { return a / 0.0; }");
  ASSERT_NE(M, nullptr);
  BackendRun R = expectParity(*M, "f", {RtValue::fromF64(1.0)});
  EXPECT_EQ(R.Status, RunStatus::Finished); // IEEE inf, no trap
}

TEST(VmTrapParity, OutOfStepsBudget) {
  std::unique_ptr<Module> M = compile(
      "int f(int n) { int s = 0;\n"
      "  for (int i = 0; i < n; i = i + 1) s = s + i;\n"
      "  return s; }");
  ASSERT_NE(M, nullptr);
  // Identical step accounting means the budget trips at the same count.
  BackendRun Full = expectParity(*M, "f", {RtValue::fromI64(1000)});
  EXPECT_EQ(Full.Status, RunStatus::Finished);
  for (uint64_t Budget : {Full.Steps - 1, Full.Steps / 2, uint64_t(7)}) {
    BackendRun R = expectParity(*M, "f", {RtValue::fromI64(1000)}, Budget);
    EXPECT_EQ(R.Status, RunStatus::OutOfSteps);
  }
}

// A run is start() plus resume() calls: a budget-exhausted VM run resumes
// with a larger budget exactly like a resumed interpreter context, with
// the phi-group budget check and a pending fault plan carried across.
TEST(VmTrapParity, ResumeAfterOutOfStepsMatchesInterpreter) {
  std::unique_ptr<Module> M = compile(
      "int f(int n) { int s = 0;\n"
      "  for (int i = 0; i < n; i = i + 1) s = s + i * i;\n"
      "  return s; }");
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  std::unique_ptr<vm::VmProgram> Prog = vm::compile(Layout);
  ASSERT_NE(Prog, nullptr);
  std::vector<RtValue> Args = {RtValue::fromI64(200)};
  FaultPlan Plan;
  Plan.TargetValueStep = 700;
  Plan.BitDraw = 3;
  const FaultPlan *const Plans[] = {nullptr, &Plan};
  for (const FaultPlan *P : Plans) {
    SCOPED_TRACE(P ? "faulted" : "clean");
    ExecutionContext I(Layout);
    if (P)
      I.setFaultPlan(*P);
    I.start(M->getFunction("f"), Args);
    vm::VmContext V(*Prog);
    V.start(Prog->indexOf("f"), Args, P);
    for (uint64_t Budget : {uint64_t(5), uint64_t(301), uint64_t(302),
                            uint64_t(2000), UINT64_MAX}) {
      SCOPED_TRACE("budget " + std::to_string(Budget));
      RunStatus SI = I.run(Budget);
      vm::VmContext::Result RV = V.resume(Budget);
      EXPECT_EQ(RV.Status, SI);
      EXPECT_EQ(RV.Steps, I.steps());
      EXPECT_EQ(RV.ValueSteps, I.valueSteps());
      EXPECT_EQ(RV.FaultInjected, I.faultWasInjected());
    }
    EXPECT_EQ(V.status(), RunStatus::Finished);
    EXPECT_EQ(V.returnValue().Bits, I.returnValue().Bits);
    EXPECT_EQ(V.faultWasInjected(), P != nullptr);
  }
}

TEST(VmTrapParity, FaultPlansHitTheSameSite) {
  std::unique_ptr<Module> M = compile(
      "int f(int n) { int s = 1;\n"
      "  for (int i = 0; i < n; i = i + 1) s = s + s % (i + 1);\n"
      "  return s; }");
  ASSERT_NE(M, nullptr);
  BackendRun Clean = expectParity(*M, "f", {RtValue::fromI64(40)});
  ASSERT_EQ(Clean.Status, RunStatus::Finished);
  ASSERT_GT(Clean.ValueSteps, 8u);
  // Keep the budget modest: a flipped loop counter can turn the loop
  // near-infinite, and parity on *when* the budget trips is exactly what
  // this test checks.
  const uint64_t Budget = 100000;
  for (uint64_t Step = 0; Step < Clean.ValueSteps; Step += 7) {
    for (uint64_t Bit : {0ull, 31ull, 52ull, 63ull}) {
      SCOPED_TRACE(::testing::Message() << "step=" << Step << " bit=" << Bit);
      FaultPlan Plan;
      Plan.TargetValueStep = Step;
      Plan.BitDraw = Bit;
      BackendRun R = expectParity(*M, "f", {RtValue::fromI64(40)}, Budget,
                                  &Plan);
      EXPECT_TRUE(R.FaultInjected);
    }
  }
}

//===----------------------------------------------------------------------===//
// Bytecode goldens
//===----------------------------------------------------------------------===//

std::string disasmOf(const Module &M, const char *Fn) {
  ModuleLayout Layout(M);
  std::string Err;
  std::unique_ptr<vm::VmProgram> Prog = vm::compile(Layout, &Err);
  EXPECT_NE(Prog, nullptr) << Err;
  if (!Prog)
    return std::string();
  return vm::disassemble(*Prog, Fn);
}

size_t countSubstr(const std::string &Haystack, const std::string &Needle) {
  size_t N = 0;
  for (size_t At = Haystack.find(Needle); At != std::string::npos;
       At = Haystack.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

TEST(VmBytecode, StraightLineGolden) {
  std::unique_ptr<Module> M =
      compile("int f(int a, int b) { return a + b; }");
  ASSERT_NE(M, nullptr);
  // Hand-derived: args in r0/r1, one Add (instruction id 0) into the
  // instruction's frame slot, Ret of that slot. No constants, no
  // staging registers.
  EXPECT_EQ(disasmOf(*M, "f"),
            "func f: args=2 slots=3 stage=0 consts=0 ret=w64\n"
            "     0: BinAdd    r2 <- r0, r1  id=0\n"
            "     1: Ret       r2  id=1\n");
}

TEST(VmBytecode, PhiEdgeMovesAndFallthrough) {
  // After mem2reg the loop becomes two phis (s, i). The compiler must
  // stage both incoming values on each edge (entry and latch) and commit
  // them atomically at the loop head.
  std::unique_ptr<Module> M = compile(
      "int f(int n) { int s = 0; int i = 0;\n"
      "  while (i < n) { s = s + i; i = i + 1; }\n"
      "  return s; }");
  ASSERT_NE(M, nullptr);
  // Hand-derived layout: both edges into the header (entry and latch)
  // end in unconditional Br, so their phi moves stage inline before the
  // branch; the header commits both phis atomically (ids 1/2 are the
  // value-step sites a FaultPlan can hit); the entry->header branch is
  // a fallthrough in all but PC assignment.
  EXPECT_EQ(disasmOf(*M, "f"),
            "func f: args=1 slots=6 stage=2 consts=2 ret=w64\n"
            "  const c0 = 0x0000000000000000\n"
            "  const c1 = 0x0000000000000001\n"
            "     0: Stage     s0 <- c0\n"
            "     1: Stage     s1 <- c0\n"
            "     2: Br        -> 3  ; fallthrough\n"
            "     3: PhiCommit n=2 [r1 <- s0 w64 id=1] [r2 <- s1 w64 id=2]\n"
            "     4: ICmpLT    r3 <- r1, r0  id=3\n"
            "     5: CondBr    r3 ? -> 6 : -> 11  id=4\n"
            "     6: BinAdd    r4 <- r2, r1  id=5\n"
            "     7: BinAdd    r5 <- r1, c1  id=6\n"
            "     8: Stage     s0 <- r5\n"
            "     9: Stage     s1 <- r4\n"
            "    10: Br        -> 3\n"
            "    11: Ret       r2  id=8\n");
}

TEST(VmBytecode, CondBrEdgeIntoPhiBlockGetsGotoTrampoline) {
  // `if` without `else`: the false leg of the entry CondBr jumps
  // straight into the join block's phi, so its edge move cannot run
  // inline in the predecessor (the true leg must not see it). The
  // compiler appends a trampoline (Stage + step-free Goto) after the
  // function body and retargets the CondBr at it.
  std::unique_ptr<Module> M = compile(
      "int f(int n) { int s = 1; if (n > 0) s = n + 2; return s; }");
  ASSERT_NE(M, nullptr);
  std::string D = disasmOf(*M, "f");
  SCOPED_TRACE(D);
  EXPECT_EQ(countSubstr(D, "PhiCommit"), 1u);
  EXPECT_EQ(countSubstr(D, "Goto"), 1u);
  // One Stage on the then-edge (inline) + one in the trampoline.
  EXPECT_EQ(countSubstr(D, "Stage"), 2u);
  EXPECT_GE(countSubstr(D, "; fallthrough"), 1u);

  // The trampoline preserves semantics on both legs, on both backends.
  for (int64_t N : {5, -5}) {
    BackendRun R = expectParity(*M, "f", {RtValue::fromI64(N)});
    EXPECT_EQ(R.Status, RunStatus::Finished);
    EXPECT_EQ(static_cast<int64_t>(R.Bits), N > 0 ? N + 2 : 1);
  }
}

TEST(VmBytecode, ConstantsArePooledAndDeduped) {
  std::unique_ptr<Module> M = compile(
      "int f(int a) { return a * 7 + 7 + 2; }");
  ASSERT_NE(M, nullptr);
  std::string D = disasmOf(*M, "f");
  SCOPED_TRACE(D);
  // 7 appears twice in the source but once in the pool.
  EXPECT_EQ(countSubstr(D, "const c0 = 0x0000000000000007"), 1u);
  EXPECT_EQ(countSubstr(D, "const c1 = 0x0000000000000002"), 1u);
  EXPECT_EQ(countSubstr(D, "consts=2"), 1u);
}

TEST(VmBytecode, SelftestBugChangesSemantics) {
  std::unique_ptr<Module> M =
      compile("int f(int a, int b) { return a - b; }");
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  std::unique_ptr<vm::VmProgram> Prog = vm::compile(Layout);
  ASSERT_NE(Prog, nullptr);
  ASSERT_TRUE(vm::injectSelftestBug(*Prog));
  vm::VmContext Ctx(*Prog);
  vm::VmContext::Result V = Ctx.run(
      Prog->indexOf("f"), {RtValue::fromI64(10), RtValue::fromI64(3)},
      nullptr, 1000);
  ASSERT_EQ(V.Status, RunStatus::Finished);
  EXPECT_EQ(V.ReturnValue.asI64(), -7); // operands swapped: b - a
}

//===----------------------------------------------------------------------===//
// Counting-profiler parity: the VM's in-dispatch profiling hook
//===----------------------------------------------------------------------===//

/// One counting-mode profiled clean run (optionally repeated to check
/// cross-run accumulation) on the chosen backend, via the same
/// FunctionHarness profiled-run path the drivers use.
struct ProfiledRun {
  std::vector<uint64_t> Counts;
  uint64_t Steps = 0;
  std::vector<uint64_t> Hashes;
  ExecBackend Used = ExecBackend::Interp;
  const char *Fallback = nullptr;
};

ProfiledRun profileOn(const Module &M, const char *Fn,
                      const std::vector<RtValue> &Args, ExecBackend Backend,
                      unsigned Repeats = 1) {
  ModuleLayout Layout(M);
  FunctionHarness Harness(Fn, Args);
  Harness.setPreferredBackend(Backend);
  CostProfiler Prof(Layout, CostProfiler::Mode::Counting);
  Prof.enableFunctionHashes();
  for (unsigned R = 0; R != Repeats; ++R) {
    ExecutionRecord Rec =
        Harness.run(Layout, nullptr, UINT64_MAX, {.Prof = &Prof});
    EXPECT_EQ(Rec.Status, RunStatus::Finished);
    if (R + 1 == Repeats) {
      ProfiledRun Out;
      Out.Counts = Prof.flatCounts();
      Out.Steps = Prof.totalSteps();
      Out.Hashes = Prof.functionHashes();
      Out.Used = Rec.BackendUsed;
      Out.Fallback = Rec.FallbackReason;
      return Out;
    }
  }
  return ProfiledRun();
}

/// Profiles on both backends and demands the profiler's buffers end up
/// bit-identical: per-site counts, total steps, and the per-function
/// FNV stream hashes incremental campaigns key reuse on. Also asserts
/// the VM run really executed natively (no silent interpreter
/// fallback, which would make the comparison vacuous).
void expectProfileParity(const Module &M, const char *Fn,
                         const std::vector<RtValue> &Args,
                         unsigned Repeats = 1) {
  ProfiledRun I = profileOn(M, Fn, Args, ExecBackend::Interp, Repeats);
  ProfiledRun V = profileOn(M, Fn, Args, ExecBackend::Vm, Repeats);
  EXPECT_EQ(V.Used, ExecBackend::Vm) << "vm profiling fell back: "
                                     << (V.Fallback ? V.Fallback : "?");
  EXPECT_EQ(V.Fallback, nullptr);
  EXPECT_EQ(I.Used, ExecBackend::Interp);
  EXPECT_EQ(I.Counts, V.Counts);
  EXPECT_EQ(I.Steps, V.Steps);
  EXPECT_EQ(I.Hashes, V.Hashes);
  EXPECT_GT(V.Steps, 0u);
}

const char *const ProfileMicroPrograms[] = {
    // Straight line: every site counts once.
    "int f(int a, int b) { return a * b + 7; }",
    // Loop with phis: PhiCommit counts per phi per commit.
    "int f(int n) { int s = 0;\n"
    "  for (int i = 0; i < n; i = i + 1) s = s + i * i;\n"
    "  return s; }",
    // Calls: the call's own step plus the callee's, and the caller-side
    // return-value commit folds into the *caller's* function hash at the
    // call site — the trickiest attribution to keep bit-identical.
    "int g(int x) { return x * x + 1; }\n"
    "int f(int n) { int s = 0;\n"
    "  for (int i = 0; i < n; i = i + 1) s = s + g(i);\n"
    "  return s; }",
    // FP + memory traffic (loads/stores survive without mem2reg effects
    // on the dead-store side).
    "double f(int n) { double a[8]; double s = 0.0;\n"
    "  for (int i = 0; i < 8; i = i + 1) a[i] = 0.5 * i;\n"
    "  for (int j = 0; j < n; j = j + 1) s = s + a[j % 8];\n"
    "  return s; }",
};

/// 13 for every parameter of @f (the harness refuses an argument list
/// that does not match the entry's arity).
std::vector<RtValue> microArgs(const Module &M) {
  return std::vector<RtValue>(M.getFunction("f")->numArgs(),
                              RtValue::fromI64(13));
}

TEST(VmCountingProfiler, MicroProgramParity) {
  for (const char *Src : ProfileMicroPrograms) {
    SCOPED_TRACE(Src);
    std::unique_ptr<Module> M = compile(Src);
    ASSERT_NE(M, nullptr);
    expectProfileParity(*M, "f", microArgs(*M));
  }
}

TEST(VmCountingProfiler, ProtectedMicroProgramParity) {
  // Duplication triples the commit stream (shadow + check sites); the
  // hashes cover every committed value, so any VM/interp divergence in
  // the protected step accounting shows up here.
  for (const char *Src : ProfileMicroPrograms) {
    SCOPED_TRACE(Src);
    std::unique_ptr<Module> M = compile(Src);
    ASSERT_NE(M, nullptr);
    duplicateAllInstructions(*M);
    M->renumber();
    expectProfileParity(*M, "f", microArgs(*M));
  }
}

TEST(VmCountingProfiler, AccumulatesAcrossRunsLikeAttach) {
  // Campaign-style reuse: one profiler, several clean runs. The hook
  // must accumulate into the same buffers attach() would.
  std::unique_ptr<Module> M = compile(ProfileMicroPrograms[2]);
  ASSERT_NE(M, nullptr);
  expectProfileParity(*M, "f", {RtValue::fromI64(9)}, 3);
}

/// One low-level profiled run with an explicit budget and optional
/// fault plan — the abnormal-exit paths a FunctionHarness profiled run
/// never takes. The VM reconstructs counts from control-transfer tallies
/// after the run, so the interesting cases are exactly the ones where a
/// run stops mid-flight and the final arrival must be corrected for.
struct AbnormalProfile {
  RunStatus Status = RunStatus::Finished;
  TrapKind Trap = TrapKind::None;
  uint64_t Steps = 0;
  std::vector<uint64_t> Counts;
  uint64_t CountedSteps = 0;
};

AbnormalProfile profiledInterpRun(const ModuleLayout &Layout, const char *Fn,
                                  const std::vector<RtValue> &Args,
                                  uint64_t Budget, const FaultPlan *Plan) {
  CostProfiler Prof(Layout, CostProfiler::Mode::Counting);
  ExecutionContext Ctx(Layout);
  if (Plan)
    Ctx.setFaultPlan(*Plan);
  const Function *F = Layout.module().getFunction(Fn);
  Prof.attach(Ctx, F);
  Ctx.start(F, Args);
  AbnormalProfile Out;
  Out.Status = Ctx.run(Budget);
  Out.Trap = Ctx.trap();
  Out.Steps = Ctx.steps();
  Out.Counts = Prof.flatCounts();
  Out.CountedSteps = Prof.totalSteps();
  return Out;
}

AbnormalProfile profiledVmRun(const ModuleLayout &Layout, const char *Fn,
                              const std::vector<RtValue> &Args,
                              uint64_t Budget, const FaultPlan *Plan) {
  std::string Err;
  std::unique_ptr<vm::VmProgram> Prog = vm::compile(Layout, &Err);
  EXPECT_NE(Prog, nullptr) << Err;
  AbnormalProfile Out;
  if (!Prog)
    return Out;
  CostProfiler Prof(Layout, CostProfiler::Mode::Counting);
  ProfileHook Hook = Prof.countingHook(Layout.module().getFunction(Fn));
  vm::VmContext Ctx(*Prog);
  vm::VmContext::Result R =
      Ctx.run(Prog->indexOf(Fn), Args, Plan, Budget, &Hook);
  Out.Status = R.Status;
  Out.Trap = R.Trap;
  Out.Steps = R.Steps;
  Out.Counts = Prof.flatCounts();
  Out.CountedSteps = Prof.totalSteps();
  return Out;
}

/// Runs both backends under the same budget/plan and demands identical
/// outcomes AND identical per-site counts — including the partial final
/// straight-line run the VM has to carve off during reconstruction.
void expectAbnormalParity(const ModuleLayout &Layout, const char *Fn,
                          const std::vector<RtValue> &Args, uint64_t Budget,
                          const FaultPlan *Plan = nullptr) {
  AbnormalProfile I = profiledInterpRun(Layout, Fn, Args, Budget, Plan);
  AbnormalProfile V = profiledVmRun(Layout, Fn, Args, Budget, Plan);
  EXPECT_EQ(I.Status, V.Status);
  EXPECT_EQ(I.Trap, V.Trap);
  EXPECT_EQ(I.Steps, V.Steps);
  EXPECT_EQ(I.Counts, V.Counts);
  EXPECT_EQ(I.CountedSteps, V.CountedSteps);
}

TEST(VmCountingProfiler, BudgetSweepParity) {
  // Exhaust the budget at every possible step count: the run can stop
  // at any instruction — mid straight-line, at a branch, at a call, at
  // a phi group's single atomic budget check — and the counts must
  // still match the interpreter's exactly.
  std::unique_ptr<Module> M = compile(ProfileMicroPrograms[2]);
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  std::vector<RtValue> Args{RtValue::fromI64(5)};
  AbnormalProfile Full =
      profiledInterpRun(Layout, "f", Args, UINT64_MAX, nullptr);
  ASSERT_EQ(Full.Status, RunStatus::Finished);
  ASSERT_GT(Full.Steps, 20u);
  for (uint64_t B = 0; B <= Full.Steps; ++B) {
    SCOPED_TRACE(::testing::Message() << "budget=" << B);
    expectAbnormalParity(Layout, "f", Args, B);
  }
}

TEST(VmCountingProfiler, ProtectedBudgetSweepParity) {
  // Same sweep over a protected module: PhiCommit groups, Check sites
  // and shadow instructions all in play.
  std::unique_ptr<Module> M = compile(ProfileMicroPrograms[1]);
  ASSERT_NE(M, nullptr);
  duplicateAllInstructions(*M);
  M->renumber();
  ModuleLayout Layout(*M);
  std::vector<RtValue> Args{RtValue::fromI64(6)};
  AbnormalProfile Full =
      profiledInterpRun(Layout, "f", Args, UINT64_MAX, nullptr);
  ASSERT_EQ(Full.Status, RunStatus::Finished);
  for (uint64_t B = 0; B <= Full.Steps; B += 3)
    expectAbnormalParity(Layout, "f", Args, B);
}

TEST(VmCountingProfiler, TrapParity) {
  // Mid-loop division by zero: the trapping instruction counts its
  // step, everything after it in the straight line must not.
  std::unique_ptr<Module> M = compile(
      "int f(int n) { int s = 0;\n"
      "  for (int i = 0; i < n; i = i + 1) s = s + n / (i - 3);\n"
      "  return s; }");
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  std::vector<RtValue> Args{RtValue::fromI64(10)};
  AbnormalProfile I = profiledInterpRun(Layout, "f", Args, UINT64_MAX, nullptr);
  ASSERT_EQ(I.Status, RunStatus::Trapped);
  EXPECT_EQ(I.Trap, TrapKind::DivByZero);
  expectAbnormalParity(Layout, "f", Args, UINT64_MAX);
}

TEST(VmCountingProfiler, CallDepthTrapParity) {
  // Unbounded recursion trips the call-depth trap, which fires *before*
  // the call's step is counted — the one trap that needs the
  // uncounted-exit correction.
  std::unique_ptr<Module> M =
      compile("int f(int n) { return f(n + 1) + 1; }");
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  std::vector<RtValue> Args{RtValue::fromI64(0)};
  AbnormalProfile I = profiledInterpRun(Layout, "f", Args, UINT64_MAX, nullptr);
  ASSERT_EQ(I.Status, RunStatus::Trapped);
  EXPECT_EQ(I.Trap, TrapKind::CallDepthExceeded);
  expectAbnormalParity(Layout, "f", Args, UINT64_MAX);
}

TEST(VmCountingProfiler, FaultedRunParity) {
  // Profiled faulty runs across every outcome the fault can force
  // (finished, detected, trapped, out-of-steps): count parity must hold
  // wherever the run ends up stopping.
  std::unique_ptr<Module> M = compile(ProfileMicroPrograms[1]);
  ASSERT_NE(M, nullptr);
  duplicateAllInstructions(*M);
  M->renumber();
  ModuleLayout Layout(*M);
  std::vector<RtValue> Args{RtValue::fromI64(8)};
  AbnormalProfile Clean =
      profiledInterpRun(Layout, "f", Args, UINT64_MAX, nullptr);
  ASSERT_EQ(Clean.Status, RunStatus::Finished);
  const uint64_t Budget = 100000;
  uint64_t ValueSteps = 0;
  {
    // Value steps bound the fault-site space; recover it from a clean
    // low-level run.
    ExecutionContext Ctx(Layout);
    Ctx.start(Layout.module().getFunction("f"), Args);
    ASSERT_EQ(Ctx.run(UINT64_MAX), RunStatus::Finished);
    ValueSteps = Ctx.valueSteps();
  }
  ASSERT_GT(ValueSteps, 8u);
  for (uint64_t Step = 0; Step < ValueSteps; Step += 5) {
    for (uint64_t Bit : {0ull, 63ull}) {
      SCOPED_TRACE(::testing::Message() << "step=" << Step << " bit=" << Bit);
      FaultPlan Plan;
      Plan.TargetValueStep = Step;
      Plan.BitDraw = Bit;
      expectAbnormalParity(Layout, "f", Args, Budget, &Plan);
    }
  }
}

//===----------------------------------------------------------------------===//
// Record-stream invariance: backend x threads x pruning x profiling
//===----------------------------------------------------------------------===//

std::string readTestdata(const char *Name) {
  std::ifstream In(std::string(IPAS_TESTDATA_DIR) + "/" + Name);
  EXPECT_TRUE(In.good()) << "cannot open testdata file " << Name;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The deterministic columns of one campaign's record stream, packed
/// into bytes (LatencyUs is wall time and documented as excluded).
std::string packRecordStream(const CampaignResult &R) {
  std::string Bytes;
  Bytes.reserve(R.Records.size() * 17);
  for (const InjectionRecord &Rec : R.Records) {
    char Buf[17];
    std::memcpy(Buf, &Rec.InstructionId, 4);
    std::memcpy(Buf + 4, &Rec.BitIndex, 4);
    std::memcpy(Buf + 8, &Rec.TargetValueStep, 8);
    Buf[16] = static_cast<char>(Rec.Result);
    Bytes.append(Buf, sizeof(Buf));
  }
  return Bytes;
}

void sweepRecordInvariance(const char *File, const char *Fn,
                           std::vector<RtValue> Args, size_t Runs) {
  std::string Src = readTestdata(File);
  ASSERT_FALSE(Src.empty());

  std::string GoldenStream;
  std::array<size_t, NumOutcomes> GoldenCounts{};
  bool HaveGoldenStream = false;
  size_t GoldenPruned = 0;
  std::vector<uint64_t> GoldenProfCounts, GoldenProfHashes;

  for (ExecBackend Backend : {ExecBackend::Interp, ExecBackend::Vm}) {
    for (unsigned Threads : {1u, 4u}) {
      for (bool Prune : {false, true}) {
        for (bool Profile : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << File << " backend="
                       << (Backend == ExecBackend::Vm ? "vm" : "interp")
                       << " threads=" << Threads << " prune=" << Prune
                       << " profile=" << Profile);
          // Fresh module/layout/harness per variant: every campaign must
          // reproduce the stream from scratch.
          std::unique_ptr<Module> M = compile(Src);
          ASSERT_NE(M, nullptr);
          duplicateAllInstructions(*M);
          M->renumber();
          SocPropagation Soc(*M);
          ModuleLayout Layout(*M);
          FunctionHarness Harness(Fn, Args);
          // The profiled clean run rides the same harness before the
          // campaign, exactly like the drivers; it must not perturb the
          // record stream, and its counts/hashes must themselves be
          // invariant across backends and thread counts.
          if (Profile) {
            Harness.setPreferredBackend(Backend);
            CostProfiler Prof(Layout, CostProfiler::Mode::Counting);
            Prof.enableFunctionHashes();
            ExecutionRecord PR =
                Harness.run(Layout, nullptr, UINT64_MAX, {.Prof = &Prof});
            ASSERT_EQ(PR.Status, RunStatus::Finished);
            EXPECT_EQ(PR.BackendUsed, Backend);
            if (GoldenProfCounts.empty()) {
              GoldenProfCounts = Prof.flatCounts();
              GoldenProfHashes = Prof.functionHashes();
            } else {
              EXPECT_EQ(Prof.flatCounts(), GoldenProfCounts);
              EXPECT_EQ(Prof.functionHashes(), GoldenProfHashes);
            }
          }
          CampaignConfig CC;
          CC.NumRuns = Runs;
          CC.Seed = 11;
          CC.NumThreads = Threads;
          CC.Backend = Backend;
          CC.TraceRuns = false;
          if (Prune)
            CC.ProvablyBenign = &Soc.provablyBenign();
          CampaignResult R = runCampaign(Harness, Layout, CC);
          ASSERT_EQ(R.Records.size(), Runs);
          // The backend split must account for every run, and the
          // requested backend must actually serve the executed runs.
          EXPECT_EQ(R.VmRuns + R.InterpRuns + R.PrunedRuns, Runs);
          if (Backend == ExecBackend::Vm)
            EXPECT_EQ(R.InterpRuns, 0u);
          else
            EXPECT_EQ(R.VmRuns, 0u);

          std::string Stream = packRecordStream(R);
          if (!HaveGoldenStream) {
            GoldenStream = Stream;
            GoldenCounts = R.Counts;
            HaveGoldenStream = true;
          } else {
            EXPECT_EQ(Stream, GoldenStream)
                << "record stream diverged from the first variant";
            EXPECT_EQ(R.Counts, GoldenCounts);
          }
          if (Prune) {
            if (GoldenPruned == 0)
              GoldenPruned = R.PrunedRuns;
            EXPECT_EQ(R.PrunedRuns, GoldenPruned);
          } else {
            EXPECT_EQ(R.PrunedRuns, 0u);
          }
        }
      }
    }
  }
}

TEST(VmRecordSweep, ResidualSixteenWayInvariance) {
  sweepRecordInvariance("residual.mc", "f", {RtValue::fromI64(32)}, 120);
}

TEST(VmRecordSweep, GenfuzzSixteenWayInvariance) {
  sweepRecordInvariance("genfuzz.mc", "run",
                        {RtValue::fromI64(3), RtValue::fromI64(5)}, 60);
}

// Testdata-scale profiler parity (the micro-program parity suite above
// pins the per-site contract; these two pin it on real programs with
// protection, calls, and memory traffic).
TEST(VmCountingProfiler, ResidualParity) {
  std::unique_ptr<Module> M = compile(readTestdata("residual.mc"));
  ASSERT_NE(M, nullptr);
  duplicateAllInstructions(*M);
  M->renumber();
  expectProfileParity(*M, "f", {RtValue::fromI64(32)});
}

TEST(VmCountingProfiler, GenfuzzParity) {
  std::unique_ptr<Module> M = compile(readTestdata("genfuzz.mc"));
  ASSERT_NE(M, nullptr);
  duplicateAllInstructions(*M);
  M->renumber();
  expectProfileParity(*M, "run",
                      {RtValue::fromI64(3), RtValue::fromI64(5)});
}

// The executor compiles bytecode once per layout. A layout built in the
// storage of a destroyed one gets the same address, so the cache must
// key on the layout's identity, not its address, or the second module
// would silently run the first one's bytecode.
TEST(VmExecutor, NewLayoutAtARecycledAddressIsRecompiled) {
  std::unique_ptr<Module> A = compile("int f(int a) { return a + 1; }");
  std::unique_ptr<Module> B = compile("int f(int a) { return a * 3; }");
  ASSERT_TRUE(A && B);
  ProgramExecutor::Config Cfg;
  Cfg.Entry = "f";
  Cfg.Args = {RtValue::fromI64(5)};
  ProgramExecutor Exec(Cfg);
  Exec.setBackend(ExecBackend::Vm);
  alignas(ModuleLayout) unsigned char Storage[sizeof(ModuleLayout)];
  int64_t Results[2] = {0, 0};
  const Module *Mods[2] = {A.get(), B.get()};
  for (int K = 0; K != 2; ++K) {
    auto *Layout = new (Storage) ModuleLayout(*Mods[K]);
    ProgramExecutor::Run R = Exec.run(*Layout, nullptr, UINT64_MAX);
    Layout->~ModuleLayout();
    ASSERT_EQ(R.Rec.Status, RunStatus::Finished);
    EXPECT_EQ(R.Rec.BackendUsed, ExecBackend::Vm);
    Results[K] = R.ReturnValue.asI64();
  }
  EXPECT_EQ(Results[0], 6);
  EXPECT_EQ(Results[1], 15);
}

// The executor runs a value-step trace on the VM (the interpreter's trace,
// no fallback), and a trace together with a profiler on the interpreter,
// tagged `other`: the VM runs one of the two per run.
TEST(VmExecutor, TracesNativelyAndFallsBackWhenAlsoProfiled) {
  std::unique_ptr<Module> M = compile(
      "int f(int n) { int s = 0;\n"
      "  for (int i = 0; i < n; i = i + 1) s = s + i * i;\n"
      "  return s; }");
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  ProgramExecutor::Config Cfg;
  Cfg.Entry = "f";
  Cfg.Args = {RtValue::fromI64(20)};
  std::vector<unsigned> Traces[2];
  for (ExecBackend B : {ExecBackend::Interp, ExecBackend::Vm}) {
    ProgramExecutor Exec(Cfg);
    Exec.setBackend(B);
    ProgramExecutor::Run R = Exec.run(Layout, nullptr, UINT64_MAX,
                                      {.Trace = &Traces[static_cast<int>(B)]});
    ASSERT_EQ(R.Rec.Status, RunStatus::Finished);
    EXPECT_EQ(R.Rec.BackendUsed, B);
    EXPECT_EQ(R.Rec.FallbackReason, nullptr);
    EXPECT_EQ(Traces[static_cast<int>(B)].size(), R.Rec.ValueSteps);
  }
  EXPECT_EQ(Traces[1], Traces[0]);

  ProgramExecutor Exec(Cfg);
  Exec.setBackend(ExecBackend::Vm);
  CostProfiler Prof(Layout, CostProfiler::Mode::Counting);
  std::vector<unsigned> Trace;
  ProgramExecutor::Run R = Exec.run(Layout, nullptr, UINT64_MAX,
                                    {.Prof = &Prof, .Trace = &Trace});
  ASSERT_EQ(R.Rec.Status, RunStatus::Finished);
  EXPECT_EQ(R.Rec.BackendUsed, ExecBackend::Interp);
  EXPECT_STREQ(R.Rec.FallbackReason, "other");
  EXPECT_EQ(Trace, Traces[0]);
  EXPECT_EQ(Prof.totalSteps(), R.Rec.Steps);
}

// A faulted pointer store far from the rest of a run's writes stretches
// the arena's dirty span across megabytes. The next run on the same
// pooled context must still start from all-zero memory and produce the
// record a fresh context gives, and the span's page-aligned interior must
// go back to the kernel instead of staying resident in every context.
TEST(VmArena, StrayFarStoreIsZeroedAndReleasedByReset) {
  // a[] is the entry's first alloca, so it sits at the stack base
  // (Memory::GuardBytes); I spans it to just below the default arena's
  // top. W > 0 stores at a[I / 4], a[I / 2], a[I]; W == 0 reads them back;
  // W < 0 touches none of them.
  std::unique_ptr<Module> M =
      compile("double f(int i, int w) {\n"
              "  double a[4];\n"
              "  double old = 0.0;\n"
              "  if (w >= 0) old = a[i / 4] + a[i / 2] + a[i];\n"
              "  if (w > 0) { a[i / 4] = 7.0; a[i / 2] = 7.0; a[i] = 7.0; }\n"
              "  return old;\n"
              "}\n");
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  std::string Err;
  std::unique_ptr<vm::VmProgram> Prog = vm::compile(Layout, &Err);
  ASSERT_NE(Prog, nullptr) << Err;
  Memory::Config Mem;
  const uint64_t Top = Memory::GuardBytes + Mem.StackBytes + Mem.HeapBytes;
  const int64_t I = static_cast<int64_t>((Top - Memory::GuardBytes) / 8 - 8);
  auto Args = [&](int64_t W) {
    return std::vector<RtValue>{RtValue::fromI64(I), RtValue::fromI64(W)};
  };
  auto Addr = [](int64_t Index) {
    return Memory::GuardBytes + 8 * static_cast<uint64_t>(Index);
  };
  const uint32_t Fn = Prog->indexOf("f");

  vm::VmContext Pooled(*Prog);
  vm::VmContext::Result Dirty = Pooled.run(Fn, Args(1), nullptr, UINT64_MAX);
  ASSERT_EQ(Dirty.Status, RunStatus::Finished);
  for (int64_t K : {I / 4, I / 2, I})
    ASSERT_EQ(Pooled.memory().read64(Addr(K)), std::bit_cast<uint64_t>(7.0))
        << "a[] is not at the stack base; the test's addresses are off";

  // The reset at the start of this run releases the interior page that
  // holds a[I / 2]; the run itself touches none of the far addresses.
  ASSERT_EQ(Pooled.run(Fn, Args(-1), nullptr, UINT64_MAX).Status,
            RunStatus::Finished);
  const long Page = sysconf(_SC_PAGESIZE);
  unsigned char Resident = 1;
  uint64_t MidPage = Addr(I / 2) & ~static_cast<uint64_t>(Page - 1);
  ASSERT_EQ(mincore(const_cast<uint8_t *>(Pooled.memory().data()) + MidPage,
                    static_cast<size_t>(Page), &Resident),
            0);
  EXPECT_EQ(Resident & 1, 0) << "released interior page is still resident";

  vm::VmContext::Result Reused = Pooled.run(Fn, Args(0), nullptr, UINT64_MAX);
  vm::VmContext Fresh(*Prog);
  vm::VmContext::Result Clean = Fresh.run(Fn, Args(0), nullptr, UINT64_MAX);
  ASSERT_EQ(Clean.Status, RunStatus::Finished);
  EXPECT_EQ(Clean.ReturnValue.Bits, std::bit_cast<uint64_t>(0.0));
  EXPECT_EQ(Reused.Status, Clean.Status);
  EXPECT_EQ(Reused.Trap, Clean.Trap);
  EXPECT_EQ(Reused.Steps, Clean.Steps);
  EXPECT_EQ(Reused.ValueSteps, Clean.ValueSteps);
  EXPECT_EQ(Reused.ReturnValue.Bits, Clean.ReturnValue.Bits);
  for (uint64_t A = Memory::GuardBytes; A != Top; A += 8)
    if (Pooled.memory().read64(A) != Fresh.memory().read64(A)) {
      ADD_FAILURE() << "arena differs from a fresh one at address " << A;
      break;
    }
}

// The heap a run allocated is its working set: the next run writes the
// same pages again, so reset() zeroes them in place instead of releasing
// them (which would re-fault every page on every run). A large array
// must come back zero and stay resident.
TEST(VmArena, AllocatedHeapIsZeroedInPlaceByReset) {
  // 32768 slots = 256 KiB of heap, well over any one page.
  std::unique_ptr<Module> M =
      compile("double f(int w) {\n"
              "  double* p = (double*)malloc(32768);\n"
              "  double old = p[0] + p[16384] + p[32767];\n"
              "  if (w > 0) {\n"
              "    for (int i = 0; i < 32768; i = i + 1) p[i] = 7.0;\n"
              "  }\n"
              "  return old;\n"
              "}\n");
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  std::string Err;
  std::unique_ptr<vm::VmProgram> Prog = vm::compile(Layout, &Err);
  ASSERT_NE(Prog, nullptr) << Err;
  const uint32_t Fn = Prog->indexOf("f");
  auto Arg = [](int64_t W) {
    return std::vector<RtValue>{RtValue::fromI64(W)};
  };

  vm::VmContext Pooled(*Prog);
  ASSERT_EQ(Pooled.run(Fn, Arg(1), nullptr, UINT64_MAX).Status,
            RunStatus::Finished);
  vm::VmContext::Result Reused = Pooled.run(Fn, Arg(0), nullptr, UINT64_MAX);
  ASSERT_EQ(Reused.Status, RunStatus::Finished);
  EXPECT_EQ(Reused.ReturnValue.Bits, std::bit_cast<uint64_t>(0.0));

  Memory::Config Mem;
  const uint64_t HeapBase = Memory::GuardBytes + Mem.StackBytes;
  const uint64_t Page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  const uint64_t Lo = (HeapBase + Page - 1) & ~(Page - 1);
  const uint64_t Hi = (HeapBase + 32768 * 8) & ~(Page - 1);
  std::vector<unsigned char> Resident((Hi - Lo) / Page);
  ASSERT_EQ(mincore(const_cast<uint8_t *>(Pooled.memory().data()) + Lo,
                    Hi - Lo, Resident.data()),
            0);
  for (size_t K = 0; K != Resident.size(); ++K)
    ASSERT_EQ(Resident[K] & 1, 1) << "heap page " << K << " was released";
  for (uint64_t A = HeapBase; A != HeapBase + 32768 * 8; A += 8)
    ASSERT_EQ(Pooled.memory().read64(A), 0u) << "address " << A;
}

} // namespace
