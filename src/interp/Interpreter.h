//===- interp/Interpreter.h - IR interpreter with fault injection ---------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, non-recursive IR interpreter. It is the "hardware" of
/// this reproduction: the fault injector flips a bit in the result of a
/// chosen dynamic instruction instance, exactly the FlipIt fault model the
/// paper uses. Traps (out-of-bounds access, division by zero, stack
/// overflow) model the observable symptoms of §5.5; `soc.check`
/// mismatches raise Detected; exceeding a step budget models hangs.
///
/// MPI intrinsics execute inline for single-rank contexts; in multi-rank
/// jobs they suspend the context (RunStatus::Blocked) until the SimMPI
/// scheduler resolves the collective across ranks. The bytecode VM
/// (vm/VM.h) implements the same contract.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_INTERP_INTERPRETER_H
#define IPAS_INTERP_INTERPRETER_H

#include "interp/Memory.h"
#include "interp/RuntimeValue.h"
#include "ir/Module.h"
#include "support/Random.h"

#include <array>
#include <map>
#include <memory>
#include <vector>

namespace ipas {

enum class RunStatus : uint8_t {
  Running,    ///< More work to do (internal).
  Blocked,    ///< Waiting on an MPI rendezvous (multi-rank only).
  Finished,   ///< Entry function returned.
  Trapped,    ///< Hardware-exception symptom (see TrapKind).
  Detected,   ///< A duplication check caught a mismatch.
  OutOfSteps, ///< Step budget exceeded (hang symptom when budgeted so).
};

enum class TrapKind : uint8_t {
  None,
  OutOfBounds,
  DivByZero,
  OutOfMemory,
  StackOverflow,
  CallDepthExceeded,
  MpiMismatch, ///< Ranks disagreed on the collective being executed.
  /// The harness could not start the run: the entry function is missing
  /// or does not take the harness's arguments, or the harness cannot
  /// honor the request (a fault plan or instrument on a multi-rank
  /// run). Never raised by a running program.
  BadEntry,
};

const char *runStatusName(RunStatus S);
const char *trapKindName(TrapKind K);

/// Number of distinct opcodes (for per-opcode execution counters).
constexpr unsigned NumOpcodeKinds = static_cast<unsigned>(Opcode::Ret) + 1;

/// One planned bit flip: when the running context is about to commit the
/// result of its TargetValueStep-th value-producing dynamic instruction,
/// bit (BitDraw % width) of that result is flipped.
struct FaultPlan {
  uint64_t TargetValueStep = UINT64_MAX;
  uint64_t BitDraw = 0;
};

/// Dense slot assignment for fast operand access: per function, arguments
/// occupy slots [0, numArgs) and each value-producing instruction gets one
/// slot. Built once per module (after Module::renumber()) and shared by
/// every context executing it.
class ModuleLayout {
public:
  explicit ModuleLayout(const Module &M);

  const Module &module() const { return M; }
  unsigned slotOfInstruction(const Instruction *I) const {
    assert(I->id() < InstSlot.size() && "stale module numbering");
    return InstSlot[I->id()];
  }
  unsigned frameSlots(const Function *F) const {
    return FrameSlots.at(F);
  }
  size_t numInstructions() const { return InstSlot.size(); }
  /// Process-unique identity, never reused (unlike the layout's address,
  /// which a later layout may occupy): what caches derived from a layout,
  /// such as compiled bytecode, are keyed on.
  uint64_t id() const { return Id; }

private:
  const Module &M;
  uint64_t Id;
  std::vector<unsigned> InstSlot;
  std::map<const Function *, unsigned> FrameSlots;
};

/// A pending blocking MPI operation (multi-rank mode).
struct PendingMpi {
  Intrinsic Op = Intrinsic::None;
  RtValue Args[3];
};

/// Passive execution observer: the interpreter calls these hooks at the
/// semantically interesting points of a run (value commits, memory
/// traffic, control decisions, call boundaries). Every call site is
/// gated on a null check, so an unobserved run pays one well-predicted
/// branch per event — the same cost class as the existing value-step
/// trace hook. The fault-propagation tracer (fault/Propagation.h)
/// implements this to reconstruct where a flipped bit spread, was
/// masked, and first reached output.
class ExecObserver {
public:
  virtual ~ExecObserver();

  /// A value-producing instruction I committed value V (post
  /// fault-injection) as the given dynamic value step.
  virtual void onValueCommit(const Instruction * /*I*/, RtValue /*V*/,
                             uint64_t /*ValueStep*/) {}
  /// A phi is about to commit the value of Chosen (the incoming value
  /// for the edge actually taken). Fired in block order just before the
  /// phi's onValueCommit, so observers can attribute the commit to the
  /// one operand that was live rather than scanning all incoming values.
  virtual void onPhiChoice(const PhiInst * /*Phi*/,
                           const Value * /*Chosen*/) {}
  /// A Store wrote V to a validated address.
  virtual void onStore(const Instruction * /*I*/, uint64_t /*Addr*/,
                       RtValue /*V*/) {}
  /// A Load is about to read from a validated address (its
  /// onValueCommit follows immediately).
  virtual void onLoad(const Instruction * /*I*/, uint64_t /*Addr*/) {}
  /// A conditional branch evaluated its condition.
  virtual void onCondBranch(const Instruction * /*I*/, bool /*Cond*/) {}
  /// A `soc.check` compared A against B (fires before the mismatch
  /// verdict, so it is seen even when the run ends Detected).
  virtual void onCheck(const Instruction * /*I*/, RtValue /*A*/,
                       RtValue /*B*/) {}
  /// A non-intrinsic call evaluated its arguments and is about to push
  /// the callee frame.
  virtual void onCall(const CallInst * /*Call*/,
                      const std::vector<RtValue> & /*Args*/) {}
  /// A Ret is about to pop the current frame, returning V when HasValue.
  virtual void onReturn(const Instruction * /*Ret*/, bool /*HasValue*/,
                        RtValue /*V*/) {}
};

/// One executing "process" (MPI rank): memory, call stack, and counters.
class ExecutionContext {
public:
  struct Config {
    Memory::Config Mem;
    unsigned MaxCallDepth = 512;
    int Rank = 0;
    int NumRanks = 1;
    uint64_t WorkloadRngSeed = 0x1234abcd;
  };

  ExecutionContext(const ModuleLayout &Layout, const Config &Cfg);
  explicit ExecutionContext(const ModuleLayout &Layout);
  /// Flushes locally collected telemetry (opcode counts, step totals,
  /// execution time) into the global obs::MetricsRegistry. Collection is
  /// armed at construction when obs::statsEnabled() is true; otherwise
  /// the interpreter pays only a dead branch per step.
  ~ExecutionContext();

  /// Prepares execution of \p Entry with the given arguments. The context
  /// must be freshly constructed.
  void start(const Function *Entry, const std::vector<RtValue> &Args);

  /// Runs until finish/trap/detect/block, or until the *cumulative* step
  /// count reaches \p MaxSteps (returns OutOfSteps; resumable).
  RunStatus run(uint64_t MaxSteps);

  RunStatus status() const { return Status; }
  TrapKind trap() const { return Trap; }
  RtValue returnValue() const { return ReturnValue; }

  uint64_t steps() const { return Steps; }
  uint64_t valueSteps() const { return ValueSteps; }
  /// Dynamic executions of \p Op in this context (all zero unless stats
  /// collection was enabled when the context was constructed).
  uint64_t opcodeCount(Opcode Op) const {
    return OpCount[static_cast<unsigned>(Op)];
  }

  Memory &memory() { return Mem; }
  const Memory &memory() const { return Mem; }

  /// Host-side heap allocation for I/O buffers shared with the program.
  uint64_t hostAlloc(uint64_t Slots) { return Mem.mallocBytes(Slots * 8); }

  // Fault injection.
  void setFaultPlan(const FaultPlan &P) { Plan = P; }
  bool faultWasInjected() const { return FaultInjected; }
  unsigned faultedInstructionId() const { return FaultedId; }

  /// When set, every committed value step appends the producing
  /// instruction's id to \p T, so T[k] is the static instruction behind
  /// dynamic value step k. The campaign driver uses one traced clean run
  /// to map fault plans to instructions without executing (site pruning).
  void setValueStepTrace(std::vector<unsigned> *T) { ValueStepTrace = T; }

  /// Attaches \p O (may be null) to receive execution events. Must be
  /// set before start(); the observer is borrowed, not owned.
  void setObserver(ExecObserver *O) { Obs = O; }

  /// When set, every executed instruction (every step, not just value
  /// commits) bumps (*C)[I->id()]. The vector must be sized to
  /// ModuleLayout::numInstructions() and is borrowed, not owned. This is
  /// the cost profiler's counting hook (interp/CostProfiler.h): the same
  /// cost class as the value-step trace — one well-predicted branch plus
  /// an indexed increment when armed, a dead branch when not. May be
  /// re-seated between steps (the calling-context profiler swaps the
  /// destination array at call boundaries). Invariant: the sum over all
  /// armed arrays equals steps().
  void setSiteCounts(std::vector<uint64_t> *C) { SiteCounts = C; }

  // Multi-rank MPI interface (used by the SimMPI scheduler).
  int rank() const { return Cfg.Rank; }
  int numRanks() const { return Cfg.NumRanks; }
  const PendingMpi &pending() const { return Pending; }
  /// Completes the blocked MPI call with \p Result and resumes.
  void completePendingCall(RtValue Result);
  /// Aborts the blocked MPI call with a trap (e.g. bad buffer).
  void failPending(TrapKind K);

private:
  struct Frame {
    const Function *Fn = nullptr;
    const BasicBlock *Block = nullptr;
    const BasicBlock *PrevBlock = nullptr;
    size_t InstIdx = 0;
    uint64_t SavedStackPtr = 0;
    std::vector<RtValue> Slots;
  };

  /// Per-opcode accounting: a well-predicted dead branch when stats
  /// collection is off (measured within noise of no instrumentation on
  /// the campaign workloads).
  void countOp(Opcode Op) {
    if (CollectStats)
      ++OpCount[static_cast<unsigned>(Op)];
  }

  /// Per-site accounting for the cost profiler. Called at exactly the
  /// same points as the `++Steps` bookkeeping, so profiled counts sum to
  /// the step total.
  void countSite(const Instruction *I) {
    if (SiteCounts)
      ++(*SiteCounts)[I->id()];
  }

  RtValue eval(const Frame &F, const Value *V) const;
  /// Commits a value-producing instruction's result, applying the fault
  /// plan when this is the targeted dynamic instance.
  void writeResult(Frame &F, const Instruction *I, RtValue V);
  void stepOnce();
  void execPhis(Frame &F);
  void execCall(Frame &F, const CallInst *Call);
  void execIntrinsic(Frame &F, const CallInst *Call);
  bool execMpiSingleRank(Frame &F, const CallInst *Call);
  void raiseTrap(TrapKind K) {
    Trap = K;
    Status = RunStatus::Trapped;
  }
  void pushFrame(const Function *Fn, std::vector<RtValue> Args);
  void returnFromFrame(bool HasValue, RtValue V);

  const ModuleLayout &Layout;
  Config Cfg;
  Memory Mem;
  std::vector<Frame> CallStack;
  RunStatus Status = RunStatus::Running;
  TrapKind Trap = TrapKind::None;
  RtValue ReturnValue;
  uint64_t Steps = 0;
  uint64_t ValueSteps = 0;
  Rng WorkloadRng;
  FaultPlan Plan;
  bool FaultInjected = false;
  unsigned FaultedId = 0;
  std::vector<unsigned> *ValueStepTrace = nullptr;
  std::vector<uint64_t> *SiteCounts = nullptr;
  ExecObserver *Obs = nullptr;
  PendingMpi Pending;
  bool Started = false;
  // Telemetry (see ~ExecutionContext).
  bool CollectStats = false;
  std::array<uint64_t, NumOpcodeKinds> OpCount{};
  uint64_t ExecMicros = 0;
};

} // namespace ipas

#endif // IPAS_INTERP_INTERPRETER_H
