//===- fault/Propagation.cpp --------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The tracer is a two-pass scheme rather than two interpreters in literal
// lockstep: one observed clean run is flattened into per-event sequences
// (CleanReference), then the faulty run re-executes with an observer that
// compares each event against the reference. While control flow matches
// the clean path, commit index k *is* dynamic value step k, so "is this
// value corrupted" is one array compare — no second interpreter state to
// keep in sync. The observer mirrors the call stack with per-slot taint
// (corrupt bit, propagation depth, producing instruction) to attribute
// each corrupted result to the operands that carried the corruption in,
// and a store-address taint map to carry corruption through memory.
//
//===----------------------------------------------------------------------===//

#include "fault/Propagation.h"

#include "ir/Module.h"
#include "obs/RecordStore.h" // classifier-verdict codes (PredictProtect...)
#include "obs/Trace.h"

#include <cassert>
#include <deque>
#include <map>
#include <tuple>

using namespace ipas;

namespace {

/// Observer for the clean pass: records the event sequences the faulty
/// pass compares against.
class CleanRecorder : public ExecObserver {
public:
  explicit CleanRecorder(CleanReference &Ref) : Ref(Ref) {}

  void onValueCommit(const Instruction *I, RtValue V, uint64_t) override {
    Ref.Ids.push_back(I->id());
    Ref.Values.push_back(V.Bits);
  }
  void onStore(const Instruction *, uint64_t Addr, RtValue V) override {
    Ref.Stores.emplace_back(Addr, V.Bits);
  }
  void onCondBranch(const Instruction *, bool Cond) override {
    Ref.Branches.push_back(Cond ? 1 : 0);
  }

private:
  CleanReference &Ref;
};

/// Observer for the faulty pass. See the file header for the scheme.
class PropagationTracer : public ExecObserver {
public:
  PropagationTracer(const ModuleLayout &Layout, const CleanReference &Ref,
                    uint64_t TargetStep)
      : Layout(Layout), Ref(Ref), TargetStep(TargetStep) {
    Rec.InjectionStep = TargetStep;
  }

  void onValueCommit(const Instruction *I, RtValue V,
                     uint64_t) override {
    if (Diverged)
      return;
    ensureFrame(I);
    uint64_t K = CommitIdx++;
    if (K >= Ref.Ids.size() || Ref.Ids[K] != I->id()) {
      // Commit stream left the clean path without a corrupted branch —
      // stop comparing (defensive; branches catch the normal case).
      markDiverged();
      return;
    }

    // Gather the operands that could have carried corruption in.
    Sources.clear();
    uint8_t EdgeKind = obs::PropEdgeDefUse;
    switch (I->opcode()) {
    case Opcode::Phi: {
      // Only the incoming value for the edge actually taken is live.
      if (!PhiChoices.empty()) {
        addSource(PhiChoices.front());
        PhiChoices.pop_front();
      } else {
        for (unsigned K2 = 0; K2 != I->numOperands(); ++K2)
          addSource(I->operand(K2));
      }
      break;
    }
    case Opcode::Select: {
      const Value *Cond = I->operand(0);
      addSource(Cond);
      uint64_t CondBits;
      if (knownBits(Cond, CondBits)) {
        addSource(I->operand((CondBits & 1) ? 1 : 2));
      } else {
        addSource(I->operand(1));
        addSource(I->operand(2));
      }
      break;
    }
    case Opcode::Load: {
      addSource(I->operand(0));
      if (PendingLoad.Valid) {
        auto It = MemTaint.find(PendingLoad.Addr);
        if (It != MemTaint.end()) {
          Sources.push_back({It->second.ProducerId, It->second.Depth,
                             /*Corrupt=*/true});
          EdgeKind = obs::PropEdgeMemory;
        }
      }
      break;
    }
    case Opcode::Call:
      if (PendingRet.Valid) {
        // Function return: attribute to the returned value, not the
        // call's arguments (those were attributed at onCall).
        if (PendingRet.Corrupt)
          Sources.push_back(
              {PendingRet.ProducerId, PendingRet.Depth, /*Corrupt=*/true});
        break;
      }
      // Intrinsic call: arguments are the operands.
      for (unsigned K2 = 0; K2 != I->numOperands(); ++K2)
        addSource(I->operand(K2));
      break;
    default:
      for (unsigned K2 = 0; K2 != I->numOperands(); ++K2)
        addSource(I->operand(K2));
      break;
    }
    PendingLoad.Valid = false;
    PendingRet.Valid = false;

    bool AnyCorruptSource = false;
    uint32_t SrcDepth = 0;
    for (const Source &S : Sources)
      if (S.Corrupt) {
        AnyCorruptSource = true;
        if (S.Depth > SrcDepth)
          SrcDepth = S.Depth;
      }

    SlotState &St = Frames.back().Slots[Layout.slotOfInstruction(I)];
    // A corrupted value overwritten without ever being consumed died
    // unobserved (loop-carried slots).
    if (St.Corrupt && !St.Consumed)
      addMask(St.ProducerOp, obs::PropMaskDead);

    bool IsInjection = K == TargetStep;
    bool Corrupt = V.Bits != Ref.Values[K];
    St.Bits = V.Bits;
    St.BitsKnown = true;
    St.Consumed = false;
    if (IsInjection) {
      St.Corrupt = true;
      St.Depth = 0;
      St.ProducerId = I->id();
      St.ProducerOp = static_cast<uint8_t>(I->opcode());
      ++Rec.CorruptedValues;
    } else if (Corrupt) {
      uint32_t Depth = AnyCorruptSource ? SrcDepth + 1 : 0;
      for (const Source &S : Sources)
        if (S.Corrupt)
          addEdge(S.ProducerId, I->id(), EdgeKind);
      St.Corrupt = true;
      St.Depth = Depth;
      St.ProducerId = I->id();
      St.ProducerOp = static_cast<uint8_t>(I->opcode());
      ++Rec.CorruptedValues;
      if (Depth > Rec.PropagationDepth)
        Rec.PropagationDepth = Depth;
    } else {
      if (AnyCorruptSource)
        // Corrupted operand, bit-equal result: logical masking.
        addMask(static_cast<uint8_t>(I->opcode()), obs::PropMaskLogical);
      St.Corrupt = false;
    }
  }

  void onPhiChoice(const PhiInst *, const Value *Chosen) override {
    if (Diverged)
      return;
    PhiChoices.push_back(Chosen);
  }

  void onLoad(const Instruction *, uint64_t Addr) override {
    if (Diverged)
      return;
    PendingLoad.Valid = true;
    PendingLoad.Addr = Addr;
  }

  void onStore(const Instruction *I, uint64_t Addr, RtValue V) override {
    if (Diverged)
      return;
    ensureFrame(I);
    size_t Idx = StoreIdx++;
    SlotState *ValSt = stateOf(I->operand(0));
    SlotState *PtrSt = stateOf(I->operand(1));
    bool ValCorrupt = ValSt && ValSt->Corrupt;
    bool PtrCorrupt = PtrSt && PtrSt->Corrupt;
    if (ValCorrupt)
      ValSt->Consumed = true;
    if (PtrCorrupt)
      PtrSt->Consumed = true;
    if (Idx >= Ref.Stores.size()) {
      markDiverged();
      return;
    }
    uint64_t CleanAddr = Ref.Stores[Idx].first;
    uint64_t CleanBits = Ref.Stores[Idx].second;
    if (ValCorrupt || PtrCorrupt)
      Rec.DynReachMask |= obs::PropReachStore;
    if (Addr == CleanAddr && V.Bits == CleanBits) {
      // The store's effect is bit-identical to the clean run's: any
      // corruption previously written to this address is overwritten.
      auto It = MemTaint.find(Addr);
      if (It != MemTaint.end()) {
        addMask(static_cast<uint8_t>(I->opcode()), obs::PropMaskOverwrite);
        MemTaint.erase(It);
      }
      return;
    }
    // Memory diverges from the clean run at this store: record the
    // propagation edge(s) and taint the written (and, on a corrupted
    // address, the abandoned clean) location.
    uint32_t Depth = 0;
    if (ValCorrupt && ValSt->Depth > Depth)
      Depth = ValSt->Depth;
    if (PtrCorrupt && PtrSt->Depth > Depth)
      Depth = PtrSt->Depth;
    Depth += (ValCorrupt || PtrCorrupt) ? 1 : 0;
    if (ValCorrupt)
      addEdge(ValSt->ProducerId, I->id(), obs::PropEdgeDefUse);
    if (PtrCorrupt)
      addEdge(PtrSt->ProducerId, I->id(), obs::PropEdgeDefUse);
    MemTaint[Addr] = {I->id(), Depth};
    if (Addr != CleanAddr)
      MemTaint[CleanAddr] = {I->id(), Depth};
    if (Depth > Rec.PropagationDepth)
      Rec.PropagationDepth = Depth;
    if (Rec.FirstOutputStep == UINT64_MAX)
      Rec.FirstOutputStep = CommitIdx;
  }

  void onCondBranch(const Instruction *I, bool Cond) override {
    if (Diverged)
      return;
    ensureFrame(I);
    size_t Idx = BranchIdx++;
    SlotState *CS = stateOf(I->operand(0));
    if (CS && CS->Corrupt) {
      CS->Consumed = true;
      Rec.DynReachMask |= obs::PropReachControlFlow;
      addEdge(CS->ProducerId, I->id(), obs::PropEdgeControl);
      if (CS->Depth + 1 > Rec.PropagationDepth)
        Rec.PropagationDepth = CS->Depth + 1;
    }
    bool CleanCond =
        Idx < Ref.Branches.size() && Ref.Branches[Idx] != 0;
    if (Idx >= Ref.Branches.size() || Cond != CleanCond)
      markDiverged();
  }

  void onCheck(const Instruction *I, RtValue A, RtValue B) override {
    if (Diverged)
      return;
    ensureFrame(I);
    SlotState *AS = stateOf(I->operand(0));
    SlotState *BS = stateOf(I->operand(1));
    bool AC = AS && AS->Corrupt, BC = BS && BS->Corrupt;
    if (AC)
      AS->Consumed = true;
    if (BC)
      BS->Consumed = true;
    if (AC || BC) {
      Rec.DynReachMask |= obs::PropReachCheck;
      if (AC)
        addEdge(AS->ProducerId, I->id(), obs::PropEdgeDefUse);
      if (BC)
        addEdge(BS->ProducerId, I->id(), obs::PropEdgeDefUse);
      // Both operands corrupted identically: the check cannot fire —
      // the duplication protection was itself masked.
      if (A.Bits == B.Bits)
        addMask(static_cast<uint8_t>(I->opcode()), obs::PropMaskLogical);
    }
  }

  void onCall(const CallInst *Call,
              const std::vector<RtValue> &Args) override {
    if (Diverged)
      return;
    ensureFrame(Call);
    MirrorFrame Callee;
    Callee.Slots.assign(Layout.frameSlots(Call->callee()), SlotState());
    for (unsigned K = 0; K != Call->numArgs(); ++K) {
      SlotState *AS = stateOf(Call->arg(K));
      SlotState &Dst = Callee.Slots[K];
      Dst.Bits = Args[K].Bits;
      Dst.BitsKnown = true;
      if (AS && AS->Corrupt) {
        AS->Consumed = true;
        Rec.DynReachMask |= obs::PropReachCallArgument;
        addEdge(AS->ProducerId, Call->id(), obs::PropEdgeDefUse);
        Dst.Corrupt = true;
        Dst.Depth = AS->Depth;
        Dst.ProducerId = AS->ProducerId;
        Dst.ProducerOp = AS->ProducerOp;
      }
    }
    Frames.push_back(std::move(Callee));
  }

  void onReturn(const Instruction *I, bool HasValue, RtValue) override {
    if (Diverged)
      return;
    ensureFrame(I);
    SlotState *RS = HasValue ? stateOf(I->operand(0)) : nullptr;
    bool RetCorrupt = RS && RS->Corrupt;
    if (RetCorrupt) {
      RS->Consumed = true;
      Rec.DynReachMask |= obs::PropReachReturn;
    }
    scanDead(Frames.back());
    uint32_t Depth = RetCorrupt ? RS->Depth : 0;
    uint32_t Producer = RetCorrupt ? RS->ProducerId : 0;
    Frames.pop_back();
    if (Frames.empty()) {
      // Top-level return: this is the output the FunctionHarness
      // verification routine reads.
      if (RetCorrupt && Rec.FirstOutputStep == UINT64_MAX)
        Rec.FirstOutputStep = CommitIdx;
      return;
    }
    PendingRet.Valid = true;
    PendingRet.Corrupt = RetCorrupt;
    PendingRet.ProducerId = Producer;
    PendingRet.Depth = Depth;
  }

  /// Flushes aggregates and returns the finished record. \p R is the
  /// endpoint of the traced execution.
  obs::PropRecord finish(const ExecutionRecord &R) {
    if (!Diverged)
      for (const MirrorFrame &F : Frames)
        scanDead(F);
    if (R.Status == RunStatus::Trapped)
      Rec.DynReachMask |= obs::PropReachTrap;
    for (const auto &[Key, Count] : EdgeCounts) {
      obs::PropEdge E;
      E.SrcId = std::get<0>(Key);
      E.DstId = std::get<1>(Key);
      E.Kind = std::get<2>(Key);
      E.Count = Count;
      Rec.Edges.push_back(E);
    }
    for (const auto &[Key, Count] : MaskCounts) {
      obs::PropMaskEvent M;
      M.Opcode = Key.first;
      M.Kind = Key.second;
      M.Count = Count;
      Rec.Masks.push_back(M);
      switch (Key.second) {
      case obs::PropMaskLogical:
        Rec.MaskedLogical += Count;
        break;
      case obs::PropMaskOverwrite:
        Rec.MaskedOverwrite += Count;
        break;
      default:
        Rec.MaskedDead += Count;
        break;
      }
    }
    return Rec;
  }

private:
  struct SlotState {
    bool Corrupt = false;
    bool Consumed = false;
    bool BitsKnown = false;
    uint8_t ProducerOp = 0;
    uint32_t Depth = 0;
    uint32_t ProducerId = 0;
    uint64_t Bits = 0;
  };
  struct MirrorFrame {
    std::vector<SlotState> Slots;
  };
  struct Source {
    uint32_t ProducerId;
    uint32_t Depth;
    bool Corrupt;
  };
  struct Taint {
    uint32_t ProducerId = 0;
    uint32_t Depth = 0;
  };

  /// The entry frame is created lazily from the first observed
  /// instruction (the interpreter pushes it in start(), before any
  /// observable event fires).
  void ensureFrame(const Instruction *I) {
    if (!Frames.empty())
      return;
    const Function *Fn = I->parent()->parent();
    MirrorFrame F;
    F.Slots.assign(Layout.frameSlots(Fn), SlotState());
    Frames.push_back(std::move(F));
  }

  SlotState *stateOf(const Value *V) {
    MirrorFrame &F = Frames.back();
    if (V->kind() == ValueKind::Argument)
      return &F.Slots[static_cast<const Argument *>(V)->index()];
    if (V->kind() == ValueKind::Instruction)
      return &F.Slots[Layout.slotOfInstruction(
          static_cast<const Instruction *>(V))];
    return nullptr; // constants are never corrupt
  }

  void addSource(const Value *V) {
    SlotState *S = stateOf(V);
    if (!S)
      return;
    if (S->Corrupt)
      S->Consumed = true;
    Sources.push_back({S->ProducerId, S->Depth, S->Corrupt});
  }

  /// Faulty-run bits of \p V when derivable (committed slots, seeded
  /// arguments, integer constants).
  bool knownBits(const Value *V, uint64_t &Bits) {
    if (V->kind() == ValueKind::ConstantInt) {
      Bits = static_cast<uint64_t>(
          static_cast<const ConstantInt *>(V)->value());
      return true;
    }
    SlotState *S = stateOf(V);
    if (S && S->BitsKnown) {
      Bits = S->Bits;
      return true;
    }
    return false;
  }

  void addEdge(uint32_t Src, uint32_t Dst, uint8_t Kind) {
    ++EdgeCounts[{Src, Dst, Kind}];
  }
  void addMask(uint8_t Op, uint8_t Kind) { ++MaskCounts[{Op, Kind}]; }

  void scanDead(const MirrorFrame &F) {
    for (const SlotState &S : F.Slots)
      if (S.Corrupt && !S.Consumed)
        addMask(S.ProducerOp, obs::PropMaskDead);
  }

  void markDiverged() {
    Diverged = true;
    Rec.ControlDiverged = 1;
  }

  const ModuleLayout &Layout;
  const CleanReference &Ref;
  uint64_t TargetStep;
  obs::PropRecord Rec;

  bool Diverged = false;
  uint64_t CommitIdx = 0;
  size_t StoreIdx = 0;
  size_t BranchIdx = 0;
  std::vector<MirrorFrame> Frames;
  std::vector<Source> Sources;
  std::deque<const Value *> PhiChoices;
  struct {
    bool Valid = false;
    uint64_t Addr = 0;
  } PendingLoad;
  struct {
    bool Valid = false;
    bool Corrupt = false;
    uint32_t ProducerId = 0;
    uint32_t Depth = 0;
  } PendingRet;
  std::map<uint64_t, Taint> MemTaint;
  std::map<std::tuple<uint32_t, uint32_t, uint8_t>, uint32_t> EdgeCounts;
  std::map<std::pair<uint8_t, uint8_t>, uint32_t> MaskCounts;
};

} // namespace

CleanReference ipas::captureCleanReference(ProgramHarness &Harness,
                                           const ModuleLayout &Layout) {
  CleanReference Ref;
  CleanRecorder Recorder(Ref);
  ExecutionRecord R =
      Harness.run(Layout, nullptr, UINT64_MAX, {.Obs = &Recorder});
  Ref.Valid = R.Status == RunStatus::Finished && R.OutputValid;
  if (!Ref.Valid) {
    Ref.Ids.clear();
    Ref.Values.clear();
    Ref.Stores.clear();
    Ref.Branches.clear();
  }
  return Ref;
}

obs::PropRecord ipas::tracePropagation(ProgramHarness &Harness,
                                       const ModuleLayout &Layout,
                                       const CleanReference &Ref,
                                       const FaultPlan &Plan,
                                       uint64_t StepBudget,
                                       uint64_t RunIndex) {
  PropagationTracer Tracer(Layout, Ref, Plan.TargetValueStep);
  ExecutionRecord R =
      Harness.run(Layout, &Plan, StepBudget, {.Obs = &Tracer});
  obs::PropRecord Rec = Tracer.finish(R);
  Rec.RunIndex = RunIndex;
  Rec.InstructionId = R.FaultedInstructionId;
  Rec.BitIndex = static_cast<uint32_t>(Plan.BitDraw % 64);
  Rec.TargetValueStep = Plan.TargetValueStep;
  Rec.Outcome = static_cast<uint8_t>(classifyOutcome(R));
  return Rec;
}

obs::PropagationStore
ipas::buildPropagationStore(const PropBuildInputs &In) {
  assert(In.M && In.Result && "module and campaign result are required");
  const Module &M = *In.M;

  obs::PropagationStore S;
  S.ModuleName = M.name();
  S.EntryFunction = In.EntryFunction;
  S.Label = In.Label;
  S.Seed = In.Seed;
  S.SampleEvery = In.SampleEvery;
  S.TotalRuns = In.Result->totalRuns();
  S.CleanSteps = In.Result->CleanSteps;
  S.CleanValueSteps = In.Result->CleanValueSteps;

  std::map<const Function *, uint32_t> FnIndex;
  std::vector<Instruction *> Insts = M.allInstructions();
  S.Instructions.reserve(Insts.size());
  for (const Instruction *I : Insts) {
    obs::PropInstr Rec;
    Rec.Id = I->id();
    Rec.Opcode = static_cast<uint8_t>(I->opcode());
    Rec.Line = I->debugLoc().Line;
    Rec.Col = I->debugLoc().Col;
    const Function *F = I->parent() ? I->parent()->parent() : nullptr;
    auto It = FnIndex.find(F);
    if (It == FnIndex.end()) {
      It = FnIndex.emplace(F, static_cast<uint32_t>(S.Functions.size()))
               .first;
      S.Functions.push_back(F ? F->name() : std::string("<detached>"));
    }
    Rec.FunctionIndex = It->second;
    if (In.StaticBenign && Rec.Id < In.StaticBenign->size())
      Rec.StaticBenign = (*In.StaticBenign)[Rec.Id] ? 1 : 0;
    if (In.StaticSinkMask && Rec.Id < In.StaticSinkMask->size())
      Rec.StaticSinkMask = (*In.StaticSinkMask)[Rec.Id];
    if (In.Predictions && Rec.Id < In.Predictions->size()) {
      int P = (*In.Predictions)[Rec.Id];
      Rec.Predicted = P > 0 ? obs::PredictProtect
                            : (P < 0 ? obs::PredictSkip : obs::PredictNone);
    }
    S.Instructions.push_back(Rec);
  }

  S.Records = In.Result->PropRecords;
  return S;
}

bool ipas::writePropagationRecord(const obs::PropagationStore &S,
                                  const std::string &Path,
                                  std::string *Err) {
  if (!obs::writePropagationStore(S, Path, Err))
    return false;
  obs::TraceSink::event(
      "campaign.prop.record",
      obs::AttrSet()
          .add("label", S.Label.empty() ? "campaign" : S.Label.c_str())
          .add("path", Path)
          .add("records", static_cast<uint64_t>(S.Records.size()))
          .add("sample_every", S.SampleEvery));
  return true;
}
