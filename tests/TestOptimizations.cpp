//===- tests/TestOptimizations.cpp - Constant folding and DCE -----------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "fault/Campaign.h"
#include "fault/FunctionHarness.h"
#include "transform/ConstantFold.h"
#include "transform/DCE.h"
#include "transform/Duplication.h"

using namespace ipas;
using namespace ipas::testutil;

namespace {

size_t countOps(const Function &F, Opcode Op) {
  size_t N = 0;
  for (BasicBlock *BB : F)
    for (Instruction *I : *BB)
      if (I->opcode() == Op)
        ++N;
  return N;
}

} // namespace

TEST(ConstantFold, FoldsFullyConstantExpressions) {
  auto M = compile("int f() { return (2 + 3) * 4 - 6 / 2; }");
  Function *F = M->getFunction("f");
  unsigned Folded = foldConstants(*F);
  EXPECT_GT(Folded, 0u);
  M->renumber();
  EXPECT_TRUE(verifyModule(*M).empty());
  RunResult R = runFunction(*M, "f", {});
  EXPECT_EQ(R.Value.asI64(), 17);
  // Everything folds: only the ret remains.
  EXPECT_EQ(F->numInstructions(), 1u);
}

TEST(ConstantFold, FoldsDoubleArithmeticAndCasts) {
  auto M = compile("double f() { return (double)3 * 1.5 + 0.25; }");
  foldConstants(*M);
  M->renumber();
  EXPECT_TRUE(verifyModule(*M).empty());
  EXPECT_EQ(M->getFunction("f")->numInstructions(), 1u);
  EXPECT_DOUBLE_EQ(runFunction(*M, "f", {}).Value.asF64(), 4.75);
}

TEST(ConstantFold, NeverFoldsTrappingDivision) {
  // 1/0 must stay in the IR and still trap at runtime.
  Module M("m");
  Function *F = M.createFunction("f", types::I64, {});
  IRBuilder B(M);
  B.setInsertPoint(F->addBlock("entry"));
  Value *Div = B.createSDiv(B.getInt64(1), B.getInt64(0));
  B.createRet(Div);
  M.renumber();
  EXPECT_EQ(foldConstants(*F), 0u);
  RunResult R = runFunction(M, "f", {});
  EXPECT_EQ(R.Status, RunStatus::Trapped);
  EXPECT_EQ(R.Trap, TrapKind::DivByZero);
}

TEST(ConstantFold, AppliesIdentities) {
  // x + 0 and x * 1 fold away without constant operands on both sides.
  auto M = compile("int f(int x) { return (x + 0) * 1; }");
  Function *F = M->getFunction("f");
  foldConstants(*F);
  M->renumber();
  EXPECT_TRUE(verifyModule(*M).empty());
  EXPECT_EQ(F->numInstructions(), 1u); // just the ret
  EXPECT_EQ(runFunction(*M, "f", {RtValue::fromI64(9)}).Value.asI64(), 9);
}

TEST(ConstantFold, SemanticsPreservedOnWorkloadStyleCode) {
  const char *Src = "int f(int a) { int s = 0;\n"
                    "  for (int i = 0; i < a; i = i + 1)\n"
                    "    s += (i * 2 + 1) % 7;\n"
                    "  return s * (3 - 2); }";
  auto Plain = compile(Src);
  auto Opt = compile(Src);
  foldConstants(*Opt);
  eliminateDeadCode(*Opt);
  Opt->renumber();
  ASSERT_TRUE(verifyModule(*Opt).empty());
  for (int64_t Arg : {0, 3, 17}) {
    RunResult A = runFunction(*Plain, "f", {RtValue::fromI64(Arg)});
    RunResult B = runFunction(*Opt, "f", {RtValue::fromI64(Arg)});
    EXPECT_EQ(A.Value.asI64(), B.Value.asI64()) << Arg;
    EXPECT_LE(B.Steps, A.Steps);
  }
}

TEST(Dce, RemovesUnusedChains) {
  Module M("m");
  Function *F = M.createFunction("f", types::I64, {types::I64});
  IRBuilder B(M);
  B.setInsertPoint(F->addBlock("entry"));
  // A dead chain feeding nothing.
  Value *D1 = B.createAdd(F->arg(0), M.getInt64(1));
  Value *D2 = B.createMul(D1, D1);
  B.createSub(D2, M.getInt64(3));
  B.createRet(F->arg(0));
  M.renumber();
  EXPECT_EQ(eliminateDeadCode(*F), 3u);
  EXPECT_EQ(F->numInstructions(), 1u);
  EXPECT_TRUE(verifyModule(M).empty());
}

TEST(Dce, KeepsSideEffects) {
  auto M = compile("int f(double* p) { p[0] = 1.0;\n"
                   "  double unused = p[0] * 2.0;\n"
                   "  rand_seed(1);\n"
                   "  return 0; }");
  Function *F = M->getFunction("f");
  size_t StoresBefore = countOps(*F, Opcode::Store);
  eliminateDeadCode(*F);
  M->renumber();
  EXPECT_TRUE(verifyModule(*M).empty());
  EXPECT_EQ(countOps(*F, Opcode::Store), StoresBefore);
  EXPECT_EQ(countOps(*F, Opcode::Call), 1u); // rand_seed kept
  EXPECT_EQ(countOps(*F, Opcode::FMul), 0u); // dead multiply removed
}

TEST(Dce, RemovesUnusedAllocaAndLoad) {
  Module M("m");
  Function *F = M.createFunction("f", types::I64, {});
  IRBuilder B(M);
  B.setInsertPoint(F->addBlock("entry"));
  Value *A = B.createAlloca(4);
  B.createLoad(types::I64, A); // unused load
  B.createRet(M.getInt64(0));
  M.renumber();
  EXPECT_EQ(eliminateDeadCode(*F), 2u);
  EXPECT_EQ(F->numInstructions(), 1u);
}

TEST(Dce, FixpointAcrossBlocks) {
  auto M = compile("int f(int a) {\n"
                   "  int x = a * 2;\n"
                   "  if (a > 0) { int y = x + 1; }\n"
                   "  return a; }");
  eliminateDeadCode(*M);
  M->renumber();
  ASSERT_TRUE(verifyModule(*M).empty());
  // x and y are dead through the branch.
  Function *F = M->getFunction("f");
  EXPECT_EQ(countOps(*F, Opcode::Mul), 0u);
  EXPECT_EQ(countOps(*F, Opcode::Add), 0u);
  EXPECT_EQ(runFunction(*M, "f", {RtValue::fromI64(5)}).Value.asI64(), 5);
}

TEST(Campaign, ThreadedCampaignMatchesSerial) {
  // Determinism across thread counts: plans are pre-drawn.
  const char *Src = "int f(int n) {\n"
                    "  double s = 0.0;\n"
                    "  for (int i = 0; i < n; i = i + 1)\n"
                    "    s = s + 1.0 / (1.0 + i);\n"
                    "  return (int)(s * 1000.0); }";
  auto M = compile(Src);
  duplicateAllInstructions(*M);
  M->renumber();
  ModuleLayout Layout(*M);

  CampaignConfig Serial;
  Serial.NumRuns = 80;
  Serial.Seed = 99;
  CampaignConfig Threaded = Serial;
  Threaded.NumThreads = 4;

  FunctionHarness H1("f", {RtValue::fromI64(40)});
  CampaignResult A = runCampaign(H1, Layout, Serial);
  FunctionHarness H2("f", {RtValue::fromI64(40)});
  // Capture the golden before going parallel (the campaign's clean run
  // does this, single-threaded, before any injection).
  CampaignResult B = runCampaign(H2, Layout, Threaded);
  ASSERT_EQ(A.Records.size(), B.Records.size());
  for (size_t I = 0; I != A.Records.size(); ++I) {
    EXPECT_EQ(A.Records[I].InstructionId, B.Records[I].InstructionId);
    EXPECT_EQ(A.Records[I].Result, B.Records[I].Result);
  }
}
