//===- vm/VM.h - Threaded-code VM for campaign execution ------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes vm/Bytecode.h programs with direct-threaded dispatch
/// (computed goto under GCC/Clang, a portable switch otherwise — define
/// IPAS_VM_FORCE_SWITCH to force the fallback). The VM is a drop-in
/// replacement for the interpreter on the campaign hot path and clones
/// its observable semantics exactly: step and value-step accounting,
/// trap conditions, fault-injection sites, output bits — and, when
/// asked, counting-mode profiling (per-site counts and per-function
/// stream hashes) and value-step traces, bit-identical to the
/// interpreter's. A context can also be one rank of a SimMPI job
/// (mpi/SimMpi.h): collectives suspend it until the scheduler resolves
/// them. What it cannot express (interpreter observers, context-mode
/// profiling) stays on the interpreter — fault/ProgramExecutor.h falls
/// back per run and tags the record with a vm.fallback reason.
///
/// Two things make it fast:
///  - threaded dispatch over flat pre-decoded instructions with all
///    operands as register indices (no tree walk, no operand switch);
///  - a pooled arena (VmArena) with the interpreter Memory's exact
///    address layout but a reset bounded by the span the last run wrote
///    instead of a fresh ~9 MB zero-fill per run — the dominant per-run
///    cost of the interpreter on campaign workloads.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_VM_VM_H
#define IPAS_VM_VM_H

#include "interp/Interpreter.h"
#include "interp/ProfileHook.h"
#include "vm/Bytecode.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace ipas {
namespace vm {

/// Flat address space with the same layout, bounds rules and bump
/// allocators as interp/Memory.h (addresses are observable values: a
/// flipped pointer bit must produce the same in/out-of-bounds verdict on
/// either backend). Stores track one dirty span [lowest, highest written
/// byte), so reset cost follows that span, not the bytes written: a
/// stray store far from the rest (a faulted pointer) stretches it across
/// the arena. reset() therefore zeroes in place only the part of the span
/// the run allocated and hands the rest back to the kernel, which keeps
/// a pooled context's resident set at its runs' working set.
class VmArena {
public:
  /// Maps the arena as anonymous private memory: the kernel supplies
  /// zero pages on first touch, so an idle pooled arena stays resident
  /// only for the pages its runs actually wrote.
  explicit VmArena(const Memory::Config &Cfg);
  ~VmArena();
  VmArena(const VmArena &) = delete;
  VmArena &operator=(const VmArena &) = delete;

  /// Rewinds both allocators and re-zeroes every byte written since the
  /// last reset, restoring the freshly-constructed state. Dirty bytes
  /// the run allocated (the stack up to its high-water mark, the heap up
  /// to HeapPtr) are its working set, which the next run writes again,
  /// so they are memset. Dirty bytes anywhere else were reached only by
  /// stray stores; they go through zeroAndRelease.
  void reset();

  uint64_t allocaBytes(uint64_t Bytes) {
    Bytes = (Bytes + 7) & ~7ull;
    if (Bytes > StackLimit - StackPtr)
      return 0;
    uint64_t Addr = StackPtr;
    StackPtr += Bytes;
    StackHigh = std::max(StackHigh, StackPtr);
    return Addr;
  }

  uint64_t mallocBytes(uint64_t Bytes) {
    Bytes = (Bytes + 7) & ~7ull;
    if (Bytes == 0)
      Bytes = 8;
    if (Bytes > Limit - HeapPtr)
      return 0;
    uint64_t Addr = HeapPtr;
    HeapPtr += Bytes;
    return Addr;
  }

  /// The mapping's page-aligned base (arena address 0), for residency
  /// checks with mincore(2).
  const uint8_t *data() const { return Data; }

  uint64_t stackPointer() const { return StackPtr; }
  void restoreStackPointer(uint64_t SP) { StackPtr = SP; }

  bool validRange(uint64_t Addr, uint64_t Size) const {
    return Addr >= FirstValid && Size <= Limit && Addr <= Limit - Size;
  }

  uint64_t read64(uint64_t Addr) const {
    uint64_t V;
    std::memcpy(&V, Data + Addr, sizeof(V));
    return V;
  }

  /// Unchecked 8-byte store; tracks the dirty span (a faulted pointer
  /// can write anywhere inside the valid range, so every store counts).
  void write64(uint64_t Addr, uint64_t V) {
    std::memcpy(Data + Addr, &V, sizeof(V));
    DirtyLo = std::min(DirtyLo, Addr);
    DirtyHi = std::max(DirtyHi, Addr + 8);
  }

  /// The allocators, the dirty span and the bytes inside it: all a run
  /// has changed since reset(), since every byte outside the span is zero.
  struct Snapshot {
    uint64_t StackPtr = 0, StackHigh = 0, HeapPtr = 0;
    uint64_t DirtyLo = 0, DirtyHi = 0;
    std::vector<uint8_t> Bytes; ///< [DirtyLo, DirtyHi); empty if Lo >= Hi.
  };
  Snapshot snapshot() const;
  /// reset(), then the snapshot's allocators, span and bytes.
  void restore(const Snapshot &S);
  /// Bytes snapshot() would copy.
  size_t dirtyBytes() const {
    return DirtyLo < DirtyHi ? DirtyHi - DirtyLo : 0;
  }
  /// True when the allocation pointers equal the snapshot's.
  bool sameAllocators(const Snapshot &S) const {
    return StackPtr == S.StackPtr && HeapPtr == S.HeapPtr;
  }
  /// True when every byte equals the snapshot's: memcmp over its span,
  /// and zero wherever this arena's span reaches beyond it.
  bool sameBytes(const Snapshot &S) const;

private:
  /// Zeroes [Lo, Hi) by memsetting its partial head and tail pages and
  /// releasing the page-aligned interior with madvise(MADV_DONTNEED),
  /// which refills a private anonymous map with zero pages on the next
  /// touch. Falls back to memset if madvise fails.
  void zeroAndRelease(uint64_t Lo, uint64_t Hi);

  uint64_t FirstValid;
  uint64_t Limit;
  uint64_t StackBase, StackLimit, StackPtr;
  uint64_t StackHigh; ///< Highest StackPtr since the last reset.
  uint64_t HeapBase, HeapPtr;
  uint64_t DirtyLo, DirtyHi;
  uint8_t *Data; ///< Limit bytes, mapped by the constructor.
};

/// Reusable execution state for one VmProgram: arena, register stack and
/// frame stack. start() fully resets the context, so one VmContext can
/// serve thousands of campaign runs back to back; it is not
/// thread-safe — use one context per thread (fault/ProgramExecutor.h
/// keeps a pool).
///
/// A run is start() followed by resume() calls: the dispatch state (PC,
/// step and value-step counters, fault flags, frames) lives in the
/// context between them. With Config::NumRanks > 1 the context is one
/// rank of a SimMPI job (mpi/SimMpi.h): mpi_rank()/mpi_size() return the
/// configured values and a collective suspends the run with
/// RunStatus::Blocked until the scheduler resolves it through
/// completePendingCall() or failPending() — the interpreter
/// ExecutionContext's multi-rank contract, step for step. With one rank
/// the collectives are the interpreter's inline single-rank identities.
class VmContext {
  struct VmFrame {
    const VmFunction *Fn = nullptr;
    uint32_t RegBase = 0;
    uint32_t RetPC = 0;
    uint32_t CallId = 0;
    uint16_t RetReg = kNoReg;
    uint8_t RetWidth = 0;
    uint64_t SavedStackPtr = 0;
    bool operator==(const VmFrame &) const = default;
  };

public:
  struct Config {
    Memory::Config Mem;
    unsigned MaxCallDepth = 512;
    int Rank = 0;
    int NumRanks = 1;
    uint64_t WorkloadRngSeed = 0x1234abcd;
  };

  struct Result {
    RunStatus Status = RunStatus::Finished;
    TrapKind Trap = TrapKind::None;
    uint64_t Steps = 0;
    uint64_t ValueSteps = 0;
    RtValue ReturnValue;
    bool FaultInjected = false;
    unsigned FaultedInstructionId = 0;
  };

  /// The full state of a single-rank run between resume() calls: the
  /// arena snapshot, the live registers [0, top frame's RegBase +
  /// regsTotal), the frames, the resume PC, the workload RNG and the
  /// status and counters. Everything else a context holds is either
  /// rewritten before it is read (registers above the live extent, by
  /// the dominance argument in start()) or belongs to the run, not the
  /// program's state (the fault plan). Immutable once taken, so one
  /// checkpoint can be restored by many threads at once.
  class Checkpoint {
  public:
    uint64_t steps() const { return St.Steps; }
    uint64_t valueSteps() const { return St.ValueSteps; }
    /// Heap bytes the snapshot holds.
    size_t bytes() const {
      return Mem.Bytes.size() + Regs.size() * sizeof(uint64_t) +
             Frames.size() * sizeof(VmFrame);
    }

  private:
    friend class VmContext;
    const VmProgram *Prog = nullptr;
    VmArena::Snapshot Mem;
    std::vector<uint64_t> Regs;
    std::vector<VmFrame> Frames;
    uint32_t ResumePC = 0;
    Rng WorkloadRng;
    Result St;
  };

  VmContext(const VmProgram &P, const Config &Cfg);
  explicit VmContext(const VmProgram &P) : VmContext(P, Config()) {}

  const VmProgram &program() const { return P; }

  /// Prepares function \p FnIndex on \p Args under \p Plan (null =
  /// clean): resets the arena (unless hostAlloc() just did), the workload
  /// RNG, the frames and every counter. Nothing executes until resume().
  /// An entry index out of range or an argument count the entry does not
  /// take leaves the run Trapped with TrapKind::BadEntry, in every build.
  void start(uint32_t FnIndex, const std::vector<RtValue> &Args,
             const FaultPlan *Plan);

  /// Captures the run's state; the context must be single-rank and
  /// stopped between resume() calls (or right after start()).
  Checkpoint checkpoint() const;
  /// What checkpoint().bytes() would be now, without the copy.
  size_t checkpointBytes() const;

  /// Puts the run back into \p C's state, keeping the fault plan start()
  /// set: the arena is reset first (stray bytes of the previous run
  /// included) and registers above the live extent are zeroed, so what
  /// follows depends only on \p C and the plan. Throws std::logic_error
  /// if \p C was captured on another VmProgram, in every build.
  void restore(const Checkpoint &C);

  /// True when the run's state equals \p C's: then the rest of the run
  /// is the one \p C continues into (a fault plan whose target step has
  /// passed never fires again). Compares the cheap fields first (PC,
  /// counters, frames, allocators, RNG), then the live registers, then
  /// the arena bytes, so a diverged run usually fails fast.
  bool matches(const Checkpoint &C) const;

  /// Executes from where the context stopped until it finishes, traps,
  /// detects, blocks on a collective, or its *cumulative* step count
  /// reaches \p MaxSteps (OutOfSteps; resumable with a larger budget),
  /// with the interpreter's budget semantics: the budget is checked
  /// before every step, phi groups commit atomically. A context that
  /// finished, trapped, detected or is blocked returns its state as is.
  Result resume(uint64_t MaxSteps);

  /// start() plus one resume().
  ///
  /// \p Prof, when non-null (with SiteCounts set), arms counting-mode
  /// profiling: per-site counts and optional per-function FNV stream
  /// hashes bit-identical to the interpreter's site-count hook +
  /// CostProfiler::onValueCommit. Counts are collected at control-
  /// transfer granularity — the dispatch loop only bumps a per-target
  /// entry counter at branches, calls and returns, and the exact
  /// per-instruction counts are reconstructed afterwards by one linear
  /// walk over the bytecode (straight-line ops execute exactly as often
  /// as control enters their run).
  ///
  /// \p Trace, when non-null, receives per committed value step the id
  /// of the instruction that produced it — the interpreter's
  /// ExecutionContext::setValueStepTrace, entry for entry. It cannot be
  /// combined with \p Prof, and neither applies to a multi-rank rank.
  ///
  /// The profiled and traced loops are separate template
  /// instantiations, so passing null costs the unprofiled hot path
  /// nothing.
  Result run(uint32_t FnIndex, const std::vector<RtValue> &Args,
             const FaultPlan *Plan, uint64_t MaxSteps,
             const ProfileHook *Prof = nullptr,
             std::vector<unsigned> *Trace = nullptr);

  /// Host-side heap allocation for I/O buffers shared with the next
  /// run (ExecutionContext::hostAlloc). The first allocation after a
  /// run resets the arena and the next start() keeps it, so the address
  /// is exactly the one a freshly constructed interpreter context
  /// returns — a flipped pointer bit then gets the same bounds verdict on
  /// either backend. Returns 0 when the heap is exhausted.
  uint64_t hostAlloc(uint64_t Slots);

  /// The arena as the run left it, for bounds-checked output readback
  /// (validRange() before read64()) and SimMPI's buffer collectives.
  const VmArena &memory() const { return Arena; }
  VmArena &memory() { return Arena; }

  RunStatus status() const { return St.Status; }
  TrapKind trap() const { return St.Trap; }
  uint64_t steps() const { return St.Steps; }
  uint64_t valueSteps() const { return St.ValueSteps; }
  RtValue returnValue() const { return St.ReturnValue; }
  bool faultWasInjected() const { return St.FaultInjected; }
  unsigned faultedInstructionId() const { return St.FaultedInstructionId; }

  // Multi-rank MPI interface (used by the SimMPI scheduler).
  int rank() const { return Cfg.Rank; }
  const PendingMpi &pending() const { return Pending; }
  /// Completes the blocked collective with \p Value: one step, plus a
  /// value step (subject to the fault plan) when the collective
  /// produces a value. The next resume() continues after it.
  void completePendingCall(RtValue Value);
  /// Aborts the blocked collective with a trap (e.g. bad buffer).
  void failPending(TrapKind K);

private:
  /// Dispatch-loop instantiation selector: profiling off, site counts
  /// only, site counts + per-commit hash folds, a value-step trace, or a
  /// rank of a multi-rank job (collectives suspend). Counting-only gets
  /// its own instantiation because the hash-fold pointers otherwise stay
  /// live across the whole dispatch loop and cost registers in the
  /// hottest handlers even when hashes are disabled; the trace appends
  /// where the hash fold folds. The suspend paths get theirs for the
  /// same reason: compiled into the serial loop, they cost it a register.
  enum DispatchMode {
    ProfOff = 0,
    ProfCount = 1,
    ProfCountHash = 2,
    ProfTrace = 3,
    MultiRank = 4
  };

  template <int Mode>
  Result runImpl(uint64_t MaxSteps, const ProfileHook *Prof,
                 std::vector<unsigned> *Trace);
  /// The live register extent: the top frame's registers and every
  /// frame's below them.
  size_t liveRegisters() const;
  /// Records the collective \p In (operands in register file \p R) as
  /// the pending operation.
  void suspendAt(const VmInst &In, const uint64_t *R);

  /// Replays EdgeCounts into exact per-site step counts (+= into
  /// \p SiteCounts, which accumulates across runs like the interpreter
  /// hook). \p ExitPc is the instruction the run stopped at and
  /// \p ExitCounted says whether that final arrival counted its step
  /// (true for traps and clean finishes, false for budget exhaustion
  /// and the call-depth trap, which fire before the step is counted).
  void reconstructCounts(uint64_t *SiteCounts, uint32_t ExitPc,
                         bool ExitCounted) const;

  const VmProgram &P;
  Config Cfg;
  VmArena Arena;
  /// True between hostAlloc() and the start() that consumes it.
  bool HostAllocated = false;
  std::vector<uint64_t> RegStack;
  std::vector<VmFrame> Frames;
  Rng WorkloadRng;
  FaultPlan Plan;
  /// The run so far, between start() and resume() calls (what resume()
  /// returns); runImpl keeps the hot counters in locals and writes them
  /// back on exit.
  Result St;
  /// Where resume() continues: the blocked collective while Blocked.
  uint32_t ResumePC = 0;
  PendingMpi Pending;
  /// Profiled runs only: per-bytecode-offset control-transfer entry
  /// tallies, zeroed per run and replayed by reconstructCounts().
  std::vector<uint64_t> EdgeCounts;
};

} // namespace vm
} // namespace ipas

#endif // IPAS_VM_VM_H
