//===- fault/ProfileBuild.cpp -------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fault/ProfileBuild.h"

#include "ir/Module.h"
#include "obs/Trace.h"

#include <cassert>
#include <map>

using namespace ipas;

static std::map<const Function *, uint32_t> functionIndexOf(const Module &M) {
  std::map<const Function *, uint32_t> Ix;
  for (size_t Fi = 0; Fi != M.numFunctions(); ++Fi)
    Ix.emplace(M.function(Fi), static_cast<uint32_t>(Fi));
  return Ix;
}

static uint32_t indexOrZero(const std::map<const Function *, uint32_t> &Ix,
                            const Instruction *I) {
  const Function *F = I->parent() ? I->parent()->parent() : nullptr;
  auto It = Ix.find(F);
  return It == Ix.end() ? 0 : It->second;
}

bool ipas::buildProfileStore(ProgramHarness &Harness,
                             const ModuleLayout &Layout, CostProfiler &Prof,
                             const ProfileBuildInputs &In,
                             obs::ProfileStore &Out, std::string *Err) {
  const Module &M = Layout.module();
  assert(&M == &Prof.module() && "profiler built for a different layout");
  if (!Harness.supportsInstruments()) {
    if (Err)
      *Err = "harness does not support profiling";
    return false;
  }

  bool CtxMode = Prof.mode() == CostProfiler::Mode::Context;
  obs::PhaseSpan Span(
      CtxMode ? "profile.context" : "profile.clean",
      obs::AttrSet()
          .add("entry", In.EntryFunction)
          .add("label", In.Label.empty() ? "profile" : In.Label.c_str()));
  ExecutionRecord R =
      Harness.run(Layout, nullptr, UINT64_MAX, {.Prof = &Prof});
  if (R.Status != RunStatus::Finished || !R.OutputValid) {
    if (Err)
      *Err = "profiled clean run did not finish with valid output";
    return false;
  }

  Out.ModuleName = M.name();
  Out.EntryFunction = In.EntryFunction;
  Out.Label = In.Label;
  Out.SourceText = In.SourceText;
  Out.Mode = CtxMode ? obs::ProfileContext : obs::ProfileCounting;
  const CostModel &CM = Prof.model();
  Out.CostModelCycles.assign(CM.Cycles.begin(), CM.Cycles.end());

  std::map<const Function *, uint32_t> FnIndex = functionIndexOf(M);
  Out.Functions.reserve(M.numFunctions());
  for (size_t Fi = 0; Fi != M.numFunctions(); ++Fi)
    Out.Functions.push_back(M.function(Fi)->name());

  std::vector<uint64_t> Flat = Prof.flatCounts();
  std::vector<Instruction *> Insts = M.allInstructions();
  Out.CleanSteps = Prof.totalSteps();
  Out.TotalCycles = 0;
  Out.Instructions.reserve(Insts.size());
  for (const Instruction *I : Insts) {
    obs::ProfInstr P;
    P.Id = I->id();
    P.Opcode = static_cast<uint8_t>(I->opcode());
    P.DupRole = static_cast<uint8_t>(I->dupRole());
    P.Line = I->debugLoc().Line;
    P.Col = I->debugLoc().Col;
    P.FunctionIndex = indexOrZero(FnIndex, I);
    P.ExecCount = P.Id < Flat.size() ? Flat[P.Id] : 0;
    P.Cycles = P.ExecCount * CM.of(I->opcode());
    Out.TotalCycles += P.Cycles;
    Out.Instructions.push_back(P);
  }

  if (CtxMode) {
    const std::vector<CostProfiler::ContextNode> &Nodes = Prof.contexts();
    Out.Contexts.reserve(Nodes.size());
    for (size_t N = 0; N != Nodes.size(); ++N) {
      const CostProfiler::ContextNode &Node = Nodes[N];
      obs::ProfContext PC;
      PC.Id = static_cast<uint32_t>(N);
      PC.Parent = Node.Parent;
      auto FIt = FnIndex.find(Node.Fn);
      PC.FunctionIndex = FIt == FnIndex.end() ? 0 : FIt->second;
      for (uint64_t Cnt : Node.Counts)
        PC.Steps += Cnt;
      PC.Cycles = Prof.nodeCycles(Node);
      Out.Contexts.push_back(PC);

      // (function, line) cost rows for this context. A node only ever
      // counts instructions of its own function, but the aggregation
      // does not rely on that.
      std::map<std::pair<uint32_t, uint32_t>, std::pair<uint64_t, uint64_t>>
          ByLine;
      for (const Instruction *I : Insts) {
        uint64_t Cnt =
            I->id() < Node.Counts.size() ? Node.Counts[I->id()] : 0;
        if (!Cnt)
          continue;
        auto &Cell = ByLine[{indexOrZero(FnIndex, I), I->debugLoc().Line}];
        Cell.first += Cnt;
        Cell.second += Cnt * CM.of(I->opcode());
      }
      for (const auto &[Key, Cell] : ByLine) {
        obs::ProfLineCost LC;
        LC.ContextId = PC.Id;
        LC.FunctionIndex = Key.first;
        LC.Line = Key.second;
        LC.Count = Cell.first;
        LC.Cycles = Cell.second;
        Out.LineCosts.push_back(LC);
      }
    }
  }

  // Record which engine actually ran the profiled execution (the VM
  // serves counting mode natively; context mode and non-compiling
  // modules fall back — the reason rides along when it did).
  obs::AttrSet Done;
  Done.add("steps", Out.CleanSteps)
      .add("cycles", Out.TotalCycles)
      .add("contexts", static_cast<uint64_t>(Out.Contexts.size()))
      .add("backend", backendName(R.BackendUsed));
  if (R.FallbackReason)
    Done.add("fallback_reason", R.FallbackReason);
  Span.addAttr(Done);
  return true;
}

bool ipas::attributeOverhead(const Module &Base,
                             const std::vector<uint64_t> &BaseCounts,
                             const Module &Prot,
                             const std::vector<uint64_t> &ProtCounts,
                             const CostModel &CM, obs::ProfileStore &Out,
                             std::string *Err) {
  auto Fail = [&](const char *Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  std::vector<Instruction *> BaseInsts = Base.allInstructions();
  std::vector<Instruction *> ProtInsts = Prot.allInstructions();

  // Pass 1: the non-clone subsequence of the protected module corresponds
  // 1:1 in order with the baseline (duplication inserts Shadow/Check
  // clones but never removes or reorders surviving originals). Verify
  // rather than trust it.
  std::vector<uint32_t> ProtToSite(Prot.numInstructions(), UINT32_MAX);
  size_t Bi = 0;
  for (const Instruction *PI : ProtInsts) {
    DupRole Role = PI->dupRole();
    if (Role == DupRole::Shadow || Role == DupRole::Check)
      continue;
    if (Bi == BaseInsts.size())
      return Fail("overhead attribution: protected build has more "
                  "surviving originals than the baseline has instructions");
    if (BaseInsts[Bi]->opcode() != PI->opcode())
      return Fail("overhead attribution: opcode mismatch between baseline "
                  "and protected builds (different pass pipelines?)");
    if (PI->id() < ProtToSite.size())
      ProtToSite[PI->id()] = static_cast<uint32_t>(Bi);
    ++Bi;
  }
  if (Bi != BaseInsts.size())
    return Fail("overhead attribution: baseline has more instructions than "
                "the protected build's surviving originals");

  // Pass 2: clones charge to their original's site via dupLink.
  for (const Instruction *PI : ProtInsts) {
    DupRole Role = PI->dupRole();
    if (Role != DupRole::Shadow && Role != DupRole::Check)
      continue;
    const Instruction *Orig = PI->dupLink();
    if (!Orig || Orig->id() >= ProtToSite.size() ||
        ProtToSite[Orig->id()] == UINT32_MAX)
      return Fail("overhead attribution: clone without a mapped original "
                  "(broken dupLink provenance)");
    if (PI->id() < ProtToSite.size())
      ProtToSite[PI->id()] = ProtToSite[Orig->id()];
  }

  // One row per baseline site, zero rows included — the optimizer needs
  // the unprotected sites too (their marginal cost is the Prot-Base skew,
  // normally 0).
  std::map<const Function *, uint32_t> FnIndex = functionIndexOf(Base);
  Out.Overheads.assign(BaseInsts.size(), obs::ProfSiteOverhead());
  for (size_t Si = 0; Si != BaseInsts.size(); ++Si) {
    const Instruction *BI = BaseInsts[Si];
    obs::ProfSiteOverhead &Row = Out.Overheads[Si];
    Row.SiteId = BI->id();
    Row.Opcode = static_cast<uint8_t>(BI->opcode());
    Row.Line = BI->debugLoc().Line;
    Row.Col = BI->debugLoc().Col;
    Row.FunctionIndex = indexOrZero(FnIndex, BI);
    if (BI->id() < BaseCounts.size())
      Row.BaseCycles = BaseCounts[BI->id()] * CM.of(BI->opcode());
  }
  for (const Instruction *PI : ProtInsts) {
    uint32_t Site =
        PI->id() < ProtToSite.size() ? ProtToSite[PI->id()] : UINT32_MAX;
    if (Site == UINT32_MAX)
      return Fail("overhead attribution: unmapped protected instruction");
    uint64_t Cyc = (PI->id() < ProtCounts.size() ? ProtCounts[PI->id()] : 0) *
                   CM.of(PI->opcode());
    obs::ProfSiteOverhead &Row = Out.Overheads[Site];
    switch (PI->dupRole()) {
    case DupRole::Shadow:
      Row.ShadowCycles += Cyc;
      Row.Protected_ = 1;
      break;
    case DupRole::Check:
      Row.CheckCycles += Cyc;
      Row.Protected_ = 1;
      break;
    default:
      Row.ProtCycles += Cyc;
      break;
    }
  }
  Out.BaselineTotalCycles = cyclesOfCounts(Base, BaseCounts, CM);
  Out.HasOverhead = 1;
  return true;
}

bool ipas::writeProfileArtifact(const obs::ProfileStore &S,
                                const std::string &Path, std::string *Err) {
  if (!obs::writeProfileStore(S, Path, Err))
    return false;
  obs::AttrSet Attrs;
  Attrs.add("label", S.Label.empty() ? "profile" : S.Label.c_str())
      .add("path", Path)
      .add("mode", S.Mode == obs::ProfileContext ? "context" : "counting")
      .add("instructions", static_cast<uint64_t>(S.Instructions.size()))
      .add("steps", S.CleanSteps)
      .add("cycles", S.TotalCycles);
  if (S.HasOverhead)
    Attrs.add("baseline_cycles", S.BaselineTotalCycles);
  obs::TraceSink::event("profile.store", Attrs);
  return true;
}
