//===- fault/ProgramExecutor.h - Backend-neutral run execution ------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place that knows how a harness run executes. A harness
/// supplies data — entry function, arguments, memory sizing, an optional
/// host-allocated output region — plus its verification routine; the
/// executor picks the engine (reference interpreter or bytecode VM),
/// compiles bytecode lazily once per layout, pools VM contexts across
/// runs and threads, and tags every run the VM hands back to the
/// interpreter with its vm.fallback.<reason> (an observer, a
/// context-mode profile, or a module that does not compile). Multi-rank
/// jobs (mpi/SimMpi.h) reuse its compiled program through vmProgram().
///
/// Injected VM runs reuse the clean run. The first clean, uninstrumented
/// VM run on a layout snapshots its state at up to 16 evenly spaced step
/// counts (512 KiB of snapshots at most). An uninstrumented run with a
/// fault plan then starts from the last checkpoint before its target
/// value step, since until that step it is the clean run, and once its
/// fault has fired it compares its state with each later checkpoint it
/// reaches: an equal state continues exactly as the clean run did, so
/// the run ends there with the clean run's final record. Records are
/// those of a full execution, bit for bit; only ExecutionRecord::
/// SkippedSteps and Converged tell the difference.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_FAULT_PROGRAMEXECUTOR_H
#define IPAS_FAULT_PROGRAMEXECUTOR_H

#include "fault/ProgramHarness.h"

#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ipas {

namespace vm {
struct VmProgram;
class VmContext;
} // namespace vm

class ProgramExecutor {
public:
  struct Config {
    std::string Entry;
    std::vector<RtValue> Args;
    Memory::Config Mem;
    uint64_t WorkloadRngSeed = 0x1234abcd;
    /// When nonzero, every run host-allocates this many 8-byte slots
    /// right after memory reset, passes their address as the entry's
    /// last argument, and reads them back after a finished run.
    uint64_t OutputSlots = 0;
  };

  /// One run, before verification (Rec.OutputValid is left false).
  struct Run {
    ExecutionRecord Rec;
    RtValue ReturnValue;
    /// The output slots after a finished run; empty when there are none
    /// or a faulted run left their address outside valid memory.
    std::vector<RtValue> Output;
  };

  explicit ProgramExecutor(Config Cfg);
  ~ProgramExecutor();

  /// Vm routes runs through the bytecode VM when the module compiles;
  /// otherwise, and for runs whose instruments need the interpreter
  /// (an observer, a context-mode profiler, or a value-step trace
  /// together with a profiler), the run falls back and is tagged with
  /// its reason.
  void setBackend(ExecBackend B) { Backend = B; }
  ExecBackend backend() const { return Backend; }

  /// Executes the entry once under \p Plan (null = clean) within
  /// \p StepBudget steps, with \p With attached. A run that cannot
  /// start — missing entry, wrong arity, output region larger than the
  /// heap — comes back Trapped (BadEntry / OutOfMemory) on either
  /// engine, so a caller's clean-run check refuses it. Thread-safe once
  /// the first run for \p Layout has returned (runCampaign's serial
  /// clean run ensures this before the injection threads start).
  Run run(const ModuleLayout &Layout, const FaultPlan *Plan,
          uint64_t StepBudget, const Instruments &With = {});

  /// The bytecode for \p Layout (compiled on first use, shared with this
  /// executor's pooled contexts); null when the module or the entry does
  /// not compile. Thread-safe; the program lives until the layout
  /// changes or the executor is destroyed.
  const vm::VmProgram *vmProgram(const ModuleLayout &Layout);

  /// The record of a run that could not start, or that its harness
  /// refuses (a fault plan or instrument on a multi-rank run).
  static ExecutionRecord failedRun(TrapKind Trap);

  /// Where a clean-run checkpoint stands.
  struct CheckpointMark {
    uint64_t Steps = 0;
    uint64_t ValueSteps = 0;
  };
  /// The checkpoints injected VM runs start from, in step order; empty
  /// until a clean, uninstrumented VM run on the current layout finished.
  std::vector<CheckpointMark> checkpoints();

private:
  struct CleanRun;
  /// A pooled context lent to one VM run, with the clean run an injected
  /// run fast-forwards from, or the order to capture it.
  struct VmLease {
    std::unique_ptr<vm::VmContext> Ctx;
    std::shared_ptr<const CleanRun> Clean;
    bool Capture = false;
  };

  Run runInterp(const ModuleLayout &Layout, const Function *Entry,
                const FaultPlan *Plan, uint64_t StepBudget,
                const Instruments &With);
  Run runVm(VmLease L, const Function *Entry, const FaultPlan *Plan,
            uint64_t StepBudget, const Instruments &With);
  /// An injected run from the clean run's checkpoints (see the file
  /// comment); \p Ctx has been start()ed under \p Plan.
  Run runFromCheckpoints(vm::VmContext &Ctx, const CleanRun &Clean,
                         const FaultPlan &Plan, uint64_t StepBudget,
                         uint64_t OutPtr) const;
  /// The record, return value and output of the run \p Ctx stopped.
  Run vmRun(const vm::VmContext &Ctx, uint64_t OutPtr) const;
  /// Compiles \p Layout on first use (recompiling when the layout
  /// changes, which drops the pool and the checkpoints); null when the
  /// module does not compile to bytecode. Callers hold VmMutex.
  const vm::VmProgram *compiled(const ModuleLayout &Layout);
  /// Lends out a pooled context for \p Layout's program; its Ctx is null
  /// when the module does not compile to bytecode.
  VmLease acquireVm(const ModuleLayout &Layout, const FaultPlan *Plan,
                    const Instruments &With);

  const Config Cfg;
  ExecBackend Backend = ExecBackend::Interp;
  std::mutex VmMutex;
  uint64_t VmLayoutId = 0; ///< ModuleLayout::id() VmProg was built from.
  std::unique_ptr<vm::VmProgram> VmProg;
  uint32_t VmEntryIndex = 0;
  std::vector<std::unique_ptr<vm::VmContext>> VmPool;
  /// VmProg's clean run, shared read-only by every injected run.
  std::shared_ptr<const CleanRun> Clean;
  /// True while a run is capturing Clean.
  bool Capturing = false;
};

} // namespace ipas

#endif // IPAS_FAULT_PROGRAMEXECUTOR_H
