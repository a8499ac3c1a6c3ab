//===- tests/TestVmCheckpoint.cpp - Clean-run checkpoints are exact --------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Injected VM runs start from the clean run's checkpoints and end early
/// when their state reconverges with it (fault/ProgramExecutor.h). The
/// proof is differential: the interpreter has no checkpoints, so every
/// record it produces is what a full execution yields, and the VM's must
/// equal it field by field — on all five workloads, plain and fully
/// duplicated, at targets on and next to a checkpoint, and under budgets
/// that end before one. VmContext's own checkpoint contract (stray bytes,
/// foreign programs) and its checked start() preconditions are here too.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "fault/Campaign.h"
#include "fault/ProgramExecutor.h"
#include "transform/Duplication.h"
#include "vm/VM.h"
#include "workloads/WorkloadHarness.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

using namespace ipas;
using namespace ipas::testutil;

namespace {

/// The executor configuration a serial WorkloadHarness run uses.
ProgramExecutor::Config workloadConfig(const Workload &W) {
  std::vector<int64_t> Params = W.inputParams(1);
  ProgramExecutor::Config Cfg;
  Cfg.Entry = Workload::EntryName;
  for (int64_t P : Params)
    Cfg.Args.push_back(RtValue::fromI64(P));
  Cfg.Mem = W.memoryConfig(Params);
  Cfg.OutputSlots = W.outputSlots(Params);
  return Cfg;
}

/// One program run on both engines: the interpreter executes every run
/// in full, the VM from its checkpoints.
struct EnginePair {
  ProgramExecutor Vm, Interp;
  ProgramExecutor::Run VmClean, InterpClean;

  EnginePair(const ProgramExecutor::Config &Cfg, const ModuleLayout &Layout)
      : Vm(Cfg), Interp(Cfg) {
    Vm.setBackend(ExecBackend::Vm);
    VmClean = Vm.run(Layout, nullptr, UINT64_MAX);
    InterpClean = Interp.run(Layout, nullptr, UINT64_MAX);
  }
};

/// Runs \p Plan on both engines and demands the same record and output.
/// \p Verify maps a run's output to its OutputValid verdict.
template <typename VerifyFn>
ProgramExecutor::Run expectSameRun(EnginePair &E, const ModuleLayout &Layout,
                              const FaultPlan &Plan, uint64_t Budget,
                              VerifyFn Verify) {
  SCOPED_TRACE(::testing::Message()
               << "target " << Plan.TargetValueStep << " bit "
               << Plan.BitDraw % 64 << " budget " << Budget);
  ProgramExecutor::Run V = E.Vm.run(Layout, &Plan, Budget);
  ProgramExecutor::Run I = E.Interp.run(Layout, &Plan, Budget);
  EXPECT_EQ(V.Rec.Status, I.Rec.Status);
  EXPECT_EQ(V.Rec.Trap, I.Rec.Trap);
  EXPECT_EQ(V.Rec.Steps, I.Rec.Steps);
  EXPECT_EQ(V.Rec.ValueSteps, I.Rec.ValueSteps);
  EXPECT_EQ(V.Rec.FaultInjected, I.Rec.FaultInjected);
  EXPECT_EQ(V.Rec.FaultedInstructionId, I.Rec.FaultedInstructionId);
  EXPECT_EQ(V.Rec.BackendUsed, ExecBackend::Vm);
  if (I.Rec.Status == RunStatus::Finished) {
    EXPECT_EQ(Verify(V.Output), Verify(I.Output));
    EXPECT_EQ(V.ReturnValue.Bits, I.ReturnValue.Bits);
    EXPECT_EQ(V.Output.size(), I.Output.size());
    for (size_t K = 0; K < std::min(V.Output.size(), I.Output.size()); ++K)
      EXPECT_EQ(V.Output[K].Bits, I.Output[K].Bits) << "slot " << K;
  }
  return V;
}

/// The checkpoint a run with \p Target and \p Budget must start from:
/// the last one at or before its target value step, below its budget.
size_t expectedStart(const std::vector<ProgramExecutor::CheckpointMark> &Cps,
                     uint64_t Target, uint64_t Budget) {
  size_t From = 0;
  for (size_t K = 1; K != Cps.size(); ++K)
    if (Cps[K].ValueSteps <= Target && Cps[K].Steps < Budget)
      From = K;
  return From;
}

void checkWorkload(const char *Name) {
  std::unique_ptr<Workload> W = makeWorkload(Name);
  ASSERT_TRUE(W);
  for (bool Dup : {false, true}) {
    SCOPED_TRACE(std::string(Name) + (Dup ? " full-dup" : " unprotected"));
    std::unique_ptr<Module> M = compileWorkload(*W);
    if (Dup) {
      duplicateAllInstructions(*M);
      M->renumber();
    }
    ModuleLayout Layout(*M);
    EnginePair E(workloadConfig(*W), Layout);
    ASSERT_EQ(E.VmClean.Rec.Status, RunStatus::Finished);
    ASSERT_EQ(E.VmClean.Rec.Steps, E.InterpClean.Rec.Steps);
    const std::vector<RtValue> Golden = E.InterpClean.Output;
    std::vector<int64_t> Params = W->inputParams(1);
    auto Verify = [&](const std::vector<RtValue> &Out) {
      return !Out.empty() && W->verify(Out, Golden, Params);
    };

    std::vector<ProgramExecutor::CheckpointMark> Cps = E.Vm.checkpoints();
    ASSERT_GE(Cps.size(), 3u);
    EXPECT_LE(Cps.size(), 16u);
    EXPECT_EQ(Cps[0].Steps, 0u);
    for (size_t K = 1; K != Cps.size(); ++K) {
      EXPECT_GT(Cps[K].Steps, Cps[K - 1].Steps);
      EXPECT_GT(Cps[K].ValueSteps, Cps[K - 1].ValueSteps);
    }
    const uint64_t CleanSteps = E.VmClean.Rec.Steps;
    const uint64_t CleanVS = E.VmClean.Rec.ValueSteps;
    const uint64_t Budget = std::max(10 * CleanSteps, CleanSteps + 1000);

    // Uniformly drawn plans, as a campaign draws them.
    Rng Draw(testSeed() ^ 0xc0ffee);
    IPAS_SEED_TRACE(testSeed());
    for (int K = 0; K != 8; ++K) {
      FaultPlan Plan;
      Plan.TargetValueStep = Draw.nextBelow(CleanVS);
      Plan.BitDraw = Draw.next();
      expectSameRun(E, Layout, Plan, Budget, Verify);
    }

    // Targets on a checkpoint's value step and one before it: the run
    // must start from that checkpoint and from the one before it.
    size_t Unconverged = 0;
    for (size_t K : {Cps.size() / 2, Cps.size() - 1}) {
      for (uint64_t Target : {Cps[K].ValueSteps, Cps[K].ValueSteps - 1}) {
        for (uint64_t Bit : {0ull, 52ull}) {
          FaultPlan Plan{Target, Bit};
          ExecutionRecord R =
              expectSameRun(E, Layout, Plan, Budget, Verify).Rec;
          size_t From = expectedStart(Cps, Target, Budget);
          EXPECT_EQ(From, Target == Cps[K].ValueSteps ? K : K - 1);
          if (R.Converged) {
            EXPECT_GT(R.SkippedSteps, Cps[From].Steps);
          } else {
            EXPECT_EQ(R.SkippedSteps, Cps[From].Steps);
            ++Unconverged;
          }
        }
      }
    }
    EXPECT_GT(Unconverged, 0u);

    // Budgets at, below and just above a checkpoint's step count: a
    // checkpoint is used only below the budget, and the run ends where the
    // interpreter's does. A target past the checkpoint is never reached.
    size_t K = Cps.size() / 2;
    for (uint64_t B : {Cps[K].Steps, Cps[K].Steps - 1, Cps[K].Steps + 1}) {
      for (uint64_t Target :
           {Cps[K].ValueSteps + 100, Cps[K - 1].ValueSteps}) {
        FaultPlan Plan{Target, 7};
        ExecutionRecord R = expectSameRun(E, Layout, Plan, B, Verify).Rec;
        if (Target > Cps[K].ValueSteps) {
          EXPECT_EQ(R.Status, RunStatus::OutOfSteps);
          EXPECT_FALSE(R.FaultInjected);
        }
        EXPECT_EQ(R.SkippedSteps, Cps[expectedStart(Cps, Target, B)].Steps);
      }
    }
  }
}

} // namespace

TEST(VmCheckpoint, AmgRecordsMatchInterpreter) { checkWorkload("AMG"); }
TEST(VmCheckpoint, CoMDRecordsMatchInterpreter) { checkWorkload("CoMD"); }
TEST(VmCheckpoint, FftRecordsMatchInterpreter) { checkWorkload("FFT"); }
TEST(VmCheckpoint, HpccgRecordsMatchInterpreter) { checkWorkload("HPCCG"); }
TEST(VmCheckpoint, IsRecordsMatchInterpreter) { checkWorkload("IS"); }

// A loop-carried value lives only in a register: a fault in it leaves
// the PC, counters, frames and memory equal to the clean run's at every
// later checkpoint. Only the register comparison tells the runs apart.
TEST(VmCheckpoint, RegisterOnlyDivergenceDoesNotConverge) {
  std::unique_ptr<Module> M = compile(R"(
double f(int n) {
  double s = 0.0;
  for (int i = 0; i < n; i = i + 1) {
    s = s + 1.0;
  }
  return s;
}
)");
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  ProgramExecutor::Config Cfg;
  Cfg.Entry = "f";
  Cfg.Args = {RtValue::fromI64(80000)};
  EnginePair E(Cfg, Layout);
  ASSERT_EQ(E.VmClean.Rec.Status, RunStatus::Finished);
  ASSERT_GE(E.Vm.checkpoints().size(), 4u);
  auto Verify = [&](const std::vector<RtValue> &) { return true; };
  size_t Corrupted = 0;
  for (uint64_t Target = 0; Target != 60; ++Target) {
    FaultPlan Plan{Target, 60};
    ProgramExecutor::Run V =
        expectSameRun(E, Layout, Plan, UINT64_MAX, Verify);
    if (V.Rec.Status == RunStatus::Finished &&
        V.ReturnValue.Bits != E.VmClean.ReturnValue.Bits) {
      ++Corrupted;
      EXPECT_FALSE(V.Rec.Converged);
    }
  }
  EXPECT_GT(Corrupted, 0u);
}

// Campaigns on the two workloads with small heaps use all their
// checkpoints: runs skip clean-run steps and masked runs converge.
TEST(VmCheckpoint, CampaignsSkipAndConverge) {
  for (const char *Name : {"HPCCG", "FFT"}) {
    SCOPED_TRACE(Name);
    std::unique_ptr<Workload> W = makeWorkload(Name);
    std::unique_ptr<Module> M = compileWorkload(*W);
    ModuleLayout Layout(*M);
    WorkloadHarness H(*W, 1);
    CampaignConfig CC;
    CC.NumRuns = 60;
    CC.Seed = testSeed();
    CC.Backend = ExecBackend::Vm;
    CC.TraceRuns = false;
    CampaignResult R = runCampaign(H, Layout, CC);
    EXPECT_EQ(R.VmRuns, CC.NumRuns);
    EXPECT_GT(R.SkippedSteps, 0u);
    EXPECT_GT(R.ConvergedRuns, 0u);
    EXPECT_LE(R.ConvergedRuns, R.count(Outcome::Masked));
  }
}

namespace {

const char *const StoreLoopSrc = R"(
double f(int n) {
  double* a = (double*)malloc(n);
  for (int i = 0; i < n; i = i + 1) {
    a[i] = 1.0 * i;
  }
  double s = 0.0;
  for (int i = 0; i < n; i = i + 1) {
    s = s + a[i];
  }
  return s;
}
)";

} // namespace

// A faulted address can store far outside anything the run allocated.
// Restoring a checkpoint afterwards must leave the arena byte for byte
// as a fresh context restoring the same checkpoint has it.
TEST(VmCheckpoint, RestoreLeavesNoStrayByte) {
  std::unique_ptr<Module> M = compile(StoreLoopSrc);
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  std::unique_ptr<vm::VmProgram> Prog = vm::compile(Layout);
  ASSERT_NE(Prog, nullptr);
  vm::VmContext::Config Cfg;
  Cfg.Mem.StackBytes = 64 << 10;
  Cfg.Mem.HeapBytes = 64 << 10;
  const uint64_t Limit =
      Memory::GuardBytes + Cfg.Mem.StackBytes + Cfg.Mem.HeapBytes;
  const uint64_t HeapBase = Memory::GuardBytes + Cfg.Mem.StackBytes;
  const uint32_t Fn = Prog->indexOf("f");
  const std::vector<RtValue> Args = {RtValue::fromI64(16)};

  vm::VmContext Ctx(*Prog, Cfg);
  Ctx.start(Fn, Args, nullptr);
  Ctx.resume(40);
  vm::VmContext::Checkpoint Mid = Ctx.checkpoint();
  vm::VmContext::Result Clean = Ctx.resume(UINT64_MAX);
  ASSERT_EQ(Clean.Status, RunStatus::Finished);

  // Find a plan whose flipped address bit moves a store 4 KiB away from
  // the array (its 16 slots at the heap base), out of everything the run
  // allocated.
  auto StrayBytes = [&](const vm::VmContext &C) {
    size_t N = 0;
    for (uint64_t A = 0; A != Limit; ++A)
      N += (A < HeapBase || A >= HeapBase + 16 * 8) &&
           C.memory().data()[A] != 0;
    return N;
  };
  bool Found = false;
  for (uint64_t T = 0; T != Clean.ValueSteps && !Found; ++T) {
    FaultPlan Plan{T, 12};
    Ctx.run(Fn, Args, &Plan, UINT64_MAX);
    Found = StrayBytes(Ctx) != 0;
  }
  ASSERT_TRUE(Found) << "no plan stored outside the array";

  Ctx.restore(Mid);
  EXPECT_EQ(StrayBytes(Ctx), 0u);
  EXPECT_TRUE(Ctx.matches(Mid));
  vm::VmContext Fresh(*Prog, Cfg);
  Fresh.restore(Mid);
  EXPECT_EQ(std::memcmp(Ctx.memory().data(), Fresh.memory().data(), Limit),
            0);
  // A context that never ran continues into the clean run's end.
  vm::VmContext::Result R = Fresh.resume(UINT64_MAX);
  EXPECT_EQ(R.Status, RunStatus::Finished);
  EXPECT_EQ(R.Steps, Clean.Steps);
  EXPECT_EQ(R.ReturnValue.Bits, Clean.ReturnValue.Bits);
}

// A checkpoint names the program it was captured on; restoring it into
// a context of another program, even one compiled from the same source,
// is refused in every build.
TEST(VmCheckpoint, RestoreRejectsAnotherProgram) {
  std::unique_ptr<Module> M = compile(StoreLoopSrc);
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  std::unique_ptr<vm::VmProgram> P1 = vm::compile(Layout);
  std::unique_ptr<vm::VmProgram> P2 = vm::compile(Layout);
  ASSERT_TRUE(P1 && P2);
  vm::VmContext C1(*P1), C2(*P2);
  C1.start(P1->indexOf("f"), {RtValue::fromI64(8)}, nullptr);
  C1.resume(20);
  vm::VmContext::Checkpoint Cp = C1.checkpoint();
  EXPECT_THROW(C2.restore(Cp), std::logic_error);
  EXPECT_NO_THROW(C1.restore(Cp));
}

// start()'s preconditions hold without assert: a bad entry index or an
// argument count the entry does not take is a BadEntry trap.
TEST(VmCheckpoint, StartRejectsBadEntryIndex) {
  std::unique_ptr<Module> M = compile(StoreLoopSrc);
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  std::unique_ptr<vm::VmProgram> Prog = vm::compile(Layout);
  ASSERT_NE(Prog, nullptr);
  vm::VmContext Ctx(*Prog);
  vm::VmContext::Result R = Ctx.run(
      static_cast<uint32_t>(Prog->Functions.size()), {RtValue::fromI64(8)},
      nullptr, UINT64_MAX);
  EXPECT_EQ(R.Status, RunStatus::Trapped);
  EXPECT_EQ(R.Trap, TrapKind::BadEntry);
  EXPECT_EQ(R.Steps, 0u);
  // The context stays usable.
  R = Ctx.run(Prog->indexOf("f"), {RtValue::fromI64(8)}, nullptr, UINT64_MAX);
  EXPECT_EQ(R.Status, RunStatus::Finished);
}

TEST(VmCheckpoint, StartRejectsArgumentCountMismatch) {
  std::unique_ptr<Module> M = compile(StoreLoopSrc);
  ASSERT_NE(M, nullptr);
  ModuleLayout Layout(*M);
  std::unique_ptr<vm::VmProgram> Prog = vm::compile(Layout);
  ASSERT_NE(Prog, nullptr);
  vm::VmContext Ctx(*Prog);
  Ctx.start(Prog->indexOf("f"), {}, nullptr);
  vm::VmContext::Result R = Ctx.resume(UINT64_MAX);
  EXPECT_EQ(R.Status, RunStatus::Trapped);
  EXPECT_EQ(R.Trap, TrapKind::BadEntry);
  EXPECT_EQ(R.Steps, 0u);
}
