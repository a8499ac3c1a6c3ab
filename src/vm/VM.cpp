//===- vm/VM.cpp ---------------------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
// The dispatch loop below is written once and compiled in one of two
// modes: direct-threaded (computed goto, GNU extension) or a portable
// switch. Both share the handler bodies via the VM_CASE/VM_NEXT macros.
// Semantics notes live next to each handler; the reference is
// interp/Interpreter.cpp, which this file must track bit for bit.
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "obs/BinCodec.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <new>
#include <stdexcept>

#include <sys/mman.h>
#include <unistd.h>

using namespace ipas;
using namespace ipas::vm;

#if defined(__GNUC__) && !defined(IPAS_VM_FORCE_SWITCH)
#define IPAS_VM_COMPUTED_GOTO 1
#endif

namespace {

inline double toD(uint64_t B) { return std::bit_cast<double>(B); }
inline uint64_t toU(double D) { return std::bit_cast<uint64_t>(D); }

/// RtValue::flipBit on raw bits: flip (Index % Width), mask to Width.
inline uint64_t flipBits(uint64_t Bits, unsigned Index, unsigned Width) {
  Bits ^= 1ull << (Index % Width);
  if (Width < 64)
    Bits &= (1ull << Width) - 1;
  return Bits;
}

/// CostProfiler::onValueCommit's FNV-1a fold, byte for byte: (local site
/// id, post-flip committed bits), 8 little-endian bytes each, into the
/// owning function's stream hash. Keeping the fold here (instead of
/// calling back into the profiler) lets the profiled dispatch loop stay
/// observer-free.
inline void foldCommitHash(uint64_t *FnHashes, const uint32_t *IdToFn,
                           const uint64_t *FirstId, uint32_t Id,
                           uint64_t Bits) {
  uint32_t Fn = IdToFn[Id];
  uint64_t H = FnHashes[Fn];
  uint64_t Local = Id - FirstId[Fn];
  for (int B = 0; B != 8; ++B) {
    H ^= (Local >> (8 * B)) & 0xff;
    H *= obs::FnvPrime;
  }
  for (int B = 0; B != 8; ++B) {
    H ^= (Bits >> (8 * B)) & 0xff;
    H *= obs::FnvPrime;
  }
  FnHashes[Fn] = H;
}

} // namespace

VmArena::VmArena(const Memory::Config &Cfg)
    : FirstValid(Memory::GuardBytes),
      Limit(Memory::GuardBytes + Cfg.StackBytes + Cfg.HeapBytes),
      StackBase(Memory::GuardBytes), StackLimit(StackBase + Cfg.StackBytes),
      StackPtr(StackBase), StackHigh(StackBase), HeapBase(StackLimit),
      HeapPtr(HeapBase),
      DirtyLo(Limit), DirtyHi(FirstValid),
      Data(static_cast<uint8_t *>(
          mmap(nullptr, Limit, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0))) {
  if (Data == MAP_FAILED)
    throw std::bad_alloc();
}

VmArena::~VmArena() { munmap(Data, Limit); }

void VmArena::zeroAndRelease(uint64_t Lo, uint64_t Hi) {
  // Data is page aligned, so arena offsets align exactly as addresses do.
  static const uint64_t Page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  uint64_t InLo = (Lo + Page - 1) & ~(Page - 1);
  uint64_t InHi = Hi & ~(Page - 1);
  if (InHi > InLo && madvise(Data + InLo, InHi - InLo, MADV_DONTNEED) == 0) {
    std::memset(Data + Lo, 0, InLo - Lo);
    std::memset(Data + InHi, 0, Hi - InHi);
    return;
  }
  std::memset(Data + Lo, 0, Hi - Lo);
}

void VmArena::reset() {
  auto Zero = [&](uint64_t Lo, uint64_t Hi, bool Allocated) {
    Lo = std::max(Lo, DirtyLo);
    Hi = std::min(Hi, DirtyHi);
    if (Lo >= Hi)
      return;
    if (Allocated)
      std::memset(Data + Lo, 0, Hi - Lo);
    else
      zeroAndRelease(Lo, Hi);
  };
  Zero(StackBase, StackHigh, true);
  Zero(StackHigh, HeapBase, false);
  Zero(HeapBase, HeapPtr, true);
  Zero(HeapPtr, Limit, false);
  DirtyLo = Limit;
  DirtyHi = FirstValid;
  StackPtr = StackHigh = StackBase;
  HeapPtr = HeapBase;
}

VmArena::Snapshot VmArena::snapshot() const {
  Snapshot S;
  S.StackPtr = StackPtr;
  S.StackHigh = StackHigh;
  S.HeapPtr = HeapPtr;
  S.DirtyLo = DirtyLo;
  S.DirtyHi = DirtyHi;
  if (DirtyLo < DirtyHi)
    S.Bytes.assign(Data + DirtyLo, Data + DirtyHi);
  return S;
}

void VmArena::restore(const Snapshot &S) {
  reset();
  std::copy(S.Bytes.begin(), S.Bytes.end(), Data + S.DirtyLo);
  StackPtr = S.StackPtr;
  StackHigh = S.StackHigh;
  HeapPtr = S.HeapPtr;
  DirtyLo = S.DirtyLo;
  DirtyHi = S.DirtyHi;
}

bool VmArena::sameBytes(const Snapshot &S) const {
  // Outside both spans every byte is zero on either side; inside the
  // snapshot's, memcmp stops at the first difference.
  auto AllZero = [&](uint64_t Lo, uint64_t Hi) {
    return Lo >= Hi ||
           (Data[Lo] == 0 && std::memcmp(Data + Lo, Data + Lo + 1,
                                         Hi - Lo - 1) == 0);
  };
  if (!S.Bytes.empty() &&
      std::memcmp(Data + S.DirtyLo, S.Bytes.data(), S.Bytes.size()) != 0)
    return false;
  return AllZero(DirtyLo, std::min(DirtyHi, S.DirtyLo)) &&
         AllZero(std::max(DirtyLo, S.DirtyHi), DirtyHi);
}

uint64_t VmContext::hostAlloc(uint64_t Slots) {
  if (!HostAllocated) {
    Arena.reset();
    HostAllocated = true;
  }
  return Arena.mallocBytes(Slots * 8);
}

VmContext::VmContext(const VmProgram &Prog, const Config &C)
    : P(Prog), Cfg(C), Arena(C.Mem), WorkloadRng(C.WorkloadRngSeed) {
  RegStack.resize(4096);
  Frames.reserve(64);
}

void VmContext::start(uint32_t FnIndex, const std::vector<RtValue> &Args,
                      const FaultPlan *RunPlan) {
  if (!HostAllocated)
    Arena.reset();
  HostAllocated = false;
  WorkloadRng.reseed(Cfg.WorkloadRngSeed);
  Frames.clear();
  Plan = RunPlan ? *RunPlan : FaultPlan();
  St = Result();
  Pending = PendingMpi();

  if (FnIndex >= P.Functions.size() ||
      P.Functions[FnIndex].NumArgs != Args.size()) {
    St.Status = RunStatus::Trapped;
    St.Trap = TrapKind::BadEntry;
    return;
  }
  const VmFunction &Entry = P.Functions[FnIndex];
  if (RegStack.size() < Entry.regsTotal())
    RegStack.resize(Entry.regsTotal());
  // Register files are not cleared between runs: the IR verifier
  // guarantees defs dominate uses (faults flip values, never the CFG
  // edges control follows), phi reads go through staging registers the
  // edge just wrote, and arguments/constants are rewritten here.
  for (size_t K = 0; K != Args.size(); ++K)
    RegStack[K] = Args[K].Bits;
  std::copy(Entry.ConstPool.begin(), Entry.ConstPool.end(),
            RegStack.begin() + Entry.ConstBase);
  VmFrame F;
  F.Fn = &Entry;
  F.SavedStackPtr = Arena.stackPointer();
  Frames.push_back(F);
  St.Status = RunStatus::Running;
  ResumePC = Entry.CodeStart;
}

size_t VmContext::liveRegisters() const {
  return Frames.empty()
             ? 0
             : Frames.back().RegBase + Frames.back().Fn->regsTotal();
}

VmContext::Checkpoint VmContext::checkpoint() const {
  Checkpoint C;
  C.Prog = &P;
  C.Mem = Arena.snapshot();
  C.Regs.assign(RegStack.begin(), RegStack.begin() + liveRegisters());
  C.Frames = Frames;
  C.ResumePC = ResumePC;
  C.WorkloadRng = WorkloadRng;
  C.St = St;
  return C;
}

size_t VmContext::checkpointBytes() const {
  return Arena.dirtyBytes() + liveRegisters() * sizeof(uint64_t) +
         Frames.size() * sizeof(VmFrame);
}

void VmContext::restore(const Checkpoint &C) {
  if (C.Prog != &P)
    throw std::logic_error(
        "VmContext::restore: checkpoint captured on another program");
  Arena.restore(C.Mem);
  HostAllocated = false;
  if (RegStack.size() < C.Regs.size())
    RegStack.resize(C.Regs.size());
  std::copy(C.Regs.begin(), C.Regs.end(), RegStack.begin());
  std::fill(RegStack.begin() + C.Regs.size(), RegStack.end(), 0);
  Frames = C.Frames;
  ResumePC = C.ResumePC;
  WorkloadRng = C.WorkloadRng;
  St = C.St;
  Pending = PendingMpi();
}

bool VmContext::matches(const Checkpoint &C) const {
  if (ResumePC != C.ResumePC || St.Steps != C.St.Steps ||
      St.ValueSteps != C.St.ValueSteps || St.Status != C.St.Status ||
      Frames != C.Frames || !Arena.sameAllocators(C.Mem) ||
      WorkloadRng != C.WorkloadRng)
    return false;
  // Equal frames mean equal live extents.
  if (!C.Regs.empty() &&
      std::memcmp(RegStack.data(), C.Regs.data(),
                  C.Regs.size() * sizeof(uint64_t)) != 0)
    return false;
  return Arena.sameBytes(C.Mem);
}

void VmContext::completePendingCall(RtValue Value) {
  assert(St.Status == RunStatus::Blocked && "no pending call to complete");
  const VmInst &In = P.Code[ResumePC];
  ++St.Steps;
  // Every value-producing collective (allreduce, bcast) is an
  // IMpiIdentity committing at width 64, like its inline single-rank
  // form; barriers and buffer collectives commit nothing.
  if (In.Op == VmOp::IMpiIdentity) {
    uint64_t V = Value.Bits;
    if (St.ValueSteps == Plan.TargetValueStep) {
      V = flipBits(V, static_cast<unsigned>(Plan.BitDraw), 64);
      St.FaultInjected = true;
      St.FaultedInstructionId = In.Id;
    }
    ++St.ValueSteps;
    RegStack[Frames.back().RegBase + In.A] = V;
  }
  ++ResumePC;
  Pending.Op = Intrinsic::None;
  St.Status = RunStatus::Running;
}

void VmContext::failPending(TrapKind K) {
  assert(St.Status == RunStatus::Blocked && "no pending call to fail");
  Pending.Op = Intrinsic::None;
  St.Status = RunStatus::Trapped;
  St.Trap = K;
}

// Counting-mode profiling hooks, compiled in only in the profiled
// instantiations of runImpl (counting-only and counting+hashes), and the
// value-step trace, compiled in only in the traced one. Per-site counts
// are NOT bumped per step:
// every control transfer is explicit in the bytecode (CondBr carries
// both targets, calls and returns jump), so a straight-line instruction
// executes exactly as often as control enters its run. VM_EDGE tallies
// each transfer's target offset, and reconstructCounts() replays those
// tallies into exact per-instruction counts after the run — the hot
// loop pays one increment per branch instead of one per step. VM_FOLD
// mirrors CostProfiler::onValueCommit (every committed value, post-flip
// bits); value commits cannot be batched the same way because the hash
// folds the bits that flowed, not how often. The trace appends at the
// same point (ExecutionContext::writeResult's value-step trace).
#define VM_EDGE()                                                              \
  do {                                                                         \
    if constexpr (Counting)                                                    \
      ++EC[PC];                                                                \
  } while (0)

#define VM_FOLD(Id, Bits)                                                      \
  do {                                                                         \
    if constexpr (Mode == ProfCountHash)                                       \
      foldCommitHash(FH, HookIdToFn, HookFirstId, (Id), (Bits));               \
    else if constexpr (Mode == ProfTrace)                                      \
      Tr->push_back(Id);                                                       \
  } while (0)

// Budget check + step accounting of ExecutionContext::run/stepOnce: the
// budget is tested *before* the instruction executes, then the step is
// counted unconditionally (trapping instructions count their step too).
#define VM_STEP()                                                              \
  do {                                                                         \
    if (Steps >= MaxSteps)                                                     \
      goto out_of_steps;                                                       \
    ++Steps;                                                                   \
  } while (0)

// writeResult(): flip at the targeted value step, count the value step,
// commit to the destination register.
#define VM_COMMIT(Width, ValBits)                                              \
  do {                                                                         \
    uint64_t CommitV = (ValBits);                                              \
    if (VS == FaultTarget) {                                                   \
      CommitV = flipBits(CommitV, BitIndex, (Width));                          \
      FaultInjected = true;                                                    \
      FaultedId = In->Id;                                                      \
    }                                                                          \
    VM_FOLD(In->Id, CommitV);                                                  \
    ++VS;                                                                      \
    R[In->A] = CommitV;                                                        \
  } while (0)

// A collective in a multi-rank job (ExecutionContext::execIntrinsic):
// the budget check of the step it will take, then suspend with its
// arguments pending; PC stays on the collective until the scheduler
// completes it, which counts the step. The other instantiations are
// single-rank and fall through to the inline identity.
#define VM_MPI_COLLECTIVE()                                                    \
  do {                                                                         \
    if constexpr (Mode == MultiRank) {                                         \
      if (Steps >= MaxSteps)                                                   \
        goto out_of_steps;                                                     \
      suspendAt(*In, R);                                                       \
      Res.Status = RunStatus::Blocked;                                         \
      goto done;                                                               \
    }                                                                          \
  } while (0)

#define VM_TRAP(K)                                                             \
  do {                                                                         \
    TrapOut = TrapKind::K;                                                     \
    goto trapped;                                                              \
  } while (0)

#ifdef IPAS_VM_COMPUTED_GOTO
#define VM_CASE(N) Lbl_##N:
#define VM_NEXT()                                                              \
  do {                                                                         \
    In = &Code[PC];                                                            \
    goto *Dispatch[static_cast<unsigned>(In->Op)];                             \
  } while (0)
#else
#define VM_CASE(N) case VmOp::N:
#define VM_NEXT() goto dispatch
#endif

VmContext::Result VmContext::run(uint32_t FnIndex,
                                 const std::vector<RtValue> &Args,
                                 const FaultPlan *Plan, uint64_t MaxSteps,
                                 const ProfileHook *Prof,
                                 std::vector<unsigned> *Trace) {
  assert(!(Trace && Prof) && "a traced run cannot also be profiled");
  assert((Cfg.NumRanks <= 1 || (!Trace && !Prof)) &&
         "profiles and traces are single-rank");
  start(FnIndex, Args, Plan);
  if (St.Status != RunStatus::Running)
    return St; // a bad entry
  // Dispatch to a dedicated instantiation so the unprofiled hot path
  // carries zero profiling code (bench/vm_speedup gates that), and the
  // counting-only path carries no hash-fold code (bench/
  // vm_profile_overhead gates that).
  if (Trace)
    return runImpl<ProfTrace>(MaxSteps, nullptr, Trace);
  if (Prof && Prof->SiteCounts) {
    EdgeCounts.assign(P.Code.size(), 0);
    ++EdgeCounts[ResumePC]; // the entry offset is "entered" once per run
    if (Prof->FnHashes)
      return runImpl<ProfCountHash>(MaxSteps, Prof, nullptr);
    return runImpl<ProfCount>(MaxSteps, Prof, nullptr);
  }
  return resume(MaxSteps);
}

VmContext::Result VmContext::resume(uint64_t MaxSteps) {
  if (Cfg.NumRanks > 1)
    return runImpl<MultiRank>(MaxSteps, nullptr, nullptr);
  return runImpl<ProfOff>(MaxSteps, nullptr, nullptr);
}

void VmContext::suspendAt(const VmInst &In, const uint64_t *R) {
  // The collective's intrinsic and argument registers are in the
  // instruction (vm/Bytecode.h).
  Pending.Op = static_cast<Intrinsic>(In.X);
  const uint16_t ArgRegs[3] = {In.B, In.C, In.D};
  for (int32_t K = 0; K != In.Y; ++K)
    Pending.Args[K] = RtValue{R[ArgRegs[K]]};
}

template <int Mode>
VmContext::Result VmContext::runImpl(uint64_t MaxSteps,
                                     const ProfileHook *Prof,
                                     std::vector<unsigned> *Trace) {
  constexpr bool Counting = Mode == ProfCount || Mode == ProfCountHash;
  if (St.Status == RunStatus::OutOfSteps)
    St.Status = RunStatus::Running; // a budget stop is resumable
  if (St.Status != RunStatus::Running)
    return St;

  // The exits fill a local Result and copy it back once: writing St
  // through `this` on every exit path costs the dispatch loop a register.
  Result Res = St;
  uint64_t Steps = Res.Steps;
  uint64_t VS = Res.ValueSteps;
  // __restrict matters: the profiler buffers are uint64_t like the
  // register file, so without it every tally/fold store forces the
  // compiler to reload VM state in the dispatch loop.
  [[maybe_unused]] uint64_t *const __restrict EC =
      Counting ? EdgeCounts.data() : nullptr;
  [[maybe_unused]] uint64_t *const __restrict FH =
      Mode == ProfCountHash ? Prof->FnHashes : nullptr;
  [[maybe_unused]] const uint32_t *const HookIdToFn =
      Mode == ProfCountHash ? Prof->IdToFn : nullptr;
  [[maybe_unused]] const uint64_t *const HookFirstId =
      Mode == ProfCountHash ? Prof->FirstId : nullptr;
  [[maybe_unused]] std::vector<unsigned> *const Tr =
      Mode == ProfTrace ? Trace : nullptr;
  const uint64_t FaultTarget = Plan.TargetValueStep;
  const unsigned BitIndex = static_cast<unsigned>(Plan.BitDraw);
  bool FaultInjected = Res.FaultInjected;
  uint32_t FaultedId = Res.FaultedInstructionId;
  TrapKind TrapOut = TrapKind::None;
  uint64_t RetBits = 0;

  const VmInst *Code = P.Code.data();
  const VmInst *In = nullptr;
  uint64_t *R = RegStack.data() + Frames.back().RegBase;
  uint32_t PC = ResumePC;

#ifdef IPAS_VM_COMPUTED_GOTO
  static const void *const Dispatch[kNumVmOps] = {
#define IPAS_VM_OP_LABEL(N) &&Lbl_##N,
      IPAS_VM_OPS(IPAS_VM_OP_LABEL)
#undef IPAS_VM_OP_LABEL
  };
  VM_NEXT();
#else
dispatch:
  In = &Code[PC];
  switch (In->Op) {
#endif

  VM_CASE(BinAdd) {
    VM_STEP();
    VM_COMMIT(64, R[In->B] + R[In->C]);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(BinSub) {
    VM_STEP();
    VM_COMMIT(64, R[In->B] - R[In->C]);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(BinMul) {
    VM_STEP();
    VM_COMMIT(64, R[In->B] * R[In->C]);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(BinAnd) {
    VM_STEP();
    VM_COMMIT(64, R[In->B] & R[In->C]);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(BinOr) {
    VM_STEP();
    VM_COMMIT(64, R[In->B] | R[In->C]);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(BinXor) {
    VM_STEP();
    VM_COMMIT(64, R[In->B] ^ R[In->C]);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(BinShl) {
    VM_STEP();
    VM_COMMIT(64, R[In->B] << (R[In->C] & 63));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(BinAShr) {
    VM_STEP();
    VM_COMMIT(64, static_cast<uint64_t>(static_cast<int64_t>(R[In->B]) >>
                                        (R[In->C] & 63)));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(BinI1) {
    VM_STEP();
    {
      uint64_t A = R[In->B], B = R[In->C], V = 0;
      switch (In->D) {
      case 0: V = A + B; break;
      case 1: V = A - B; break;
      case 2: V = A * B; break;
      case 3: V = A & B; break;
      case 4: V = A | B; break;
      case 5: V = A ^ B; break;
      case 6: V = A << (B & 63); break;
      default:
        V = static_cast<uint64_t>(static_cast<int64_t>(A) >> (B & 63));
        break;
      }
      VM_COMMIT(1, V & 1);
    }
    ++PC;
    VM_NEXT();
  }
  VM_CASE(SDiv) {
    VM_STEP();
    {
      int64_t A = static_cast<int64_t>(R[In->B]);
      int64_t B = static_cast<int64_t>(R[In->C]);
      // Division by zero and INT64_MIN / -1 raise SIGFPE on x86.
      if (B == 0 || (A == INT64_MIN && B == -1))
        VM_TRAP(DivByZero);
      VM_COMMIT(64, static_cast<uint64_t>(A / B));
    }
    ++PC;
    VM_NEXT();
  }
  VM_CASE(SRem) {
    VM_STEP();
    {
      int64_t A = static_cast<int64_t>(R[In->B]);
      int64_t B = static_cast<int64_t>(R[In->C]);
      if (B == 0 || (A == INT64_MIN && B == -1))
        VM_TRAP(DivByZero);
      VM_COMMIT(64, static_cast<uint64_t>(A % B));
    }
    ++PC;
    VM_NEXT();
  }
  VM_CASE(FAdd) {
    VM_STEP();
    VM_COMMIT(64, toU(toD(R[In->B]) + toD(R[In->C])));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(FSub) {
    VM_STEP();
    VM_COMMIT(64, toU(toD(R[In->B]) - toD(R[In->C])));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(FMul) {
    VM_STEP();
    VM_COMMIT(64, toU(toD(R[In->B]) * toD(R[In->C])));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(FDiv) {
    VM_STEP();
    VM_COMMIT(64, toU(toD(R[In->B]) / toD(R[In->C]))); // IEEE: never traps
    ++PC;
    VM_NEXT();
  }
  VM_CASE(ICmpEQ) {
    VM_STEP();
    VM_COMMIT(1, static_cast<int64_t>(R[In->B]) ==
                         static_cast<int64_t>(R[In->C])
                     ? 1u
                     : 0u);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(ICmpNE) {
    VM_STEP();
    VM_COMMIT(1, static_cast<int64_t>(R[In->B]) !=
                         static_cast<int64_t>(R[In->C])
                     ? 1u
                     : 0u);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(ICmpLT) {
    VM_STEP();
    VM_COMMIT(1, static_cast<int64_t>(R[In->B]) <
                         static_cast<int64_t>(R[In->C])
                     ? 1u
                     : 0u);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(ICmpLE) {
    VM_STEP();
    VM_COMMIT(1, static_cast<int64_t>(R[In->B]) <=
                         static_cast<int64_t>(R[In->C])
                     ? 1u
                     : 0u);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(ICmpGT) {
    VM_STEP();
    VM_COMMIT(1, static_cast<int64_t>(R[In->B]) >
                         static_cast<int64_t>(R[In->C])
                     ? 1u
                     : 0u);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(ICmpGE) {
    VM_STEP();
    VM_COMMIT(1, static_cast<int64_t>(R[In->B]) >=
                         static_cast<int64_t>(R[In->C])
                     ? 1u
                     : 0u);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(UCmpEQ) {
    VM_STEP();
    VM_COMMIT(1, R[In->B] == R[In->C] ? 1u : 0u);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(UCmpNE) {
    VM_STEP();
    VM_COMMIT(1, R[In->B] != R[In->C] ? 1u : 0u);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(UCmpLT) {
    VM_STEP();
    VM_COMMIT(1, R[In->B] < R[In->C] ? 1u : 0u);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(UCmpLE) {
    VM_STEP();
    VM_COMMIT(1, R[In->B] <= R[In->C] ? 1u : 0u);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(UCmpGT) {
    VM_STEP();
    VM_COMMIT(1, R[In->B] > R[In->C] ? 1u : 0u);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(UCmpGE) {
    VM_STEP();
    VM_COMMIT(1, R[In->B] >= R[In->C] ? 1u : 0u);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(FCmpEQ) {
    VM_STEP();
    VM_COMMIT(1, toD(R[In->B]) == toD(R[In->C]) ? 1u : 0u);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(FCmpNE) {
    VM_STEP();
    VM_COMMIT(1, toD(R[In->B]) != toD(R[In->C]) ? 1u : 0u); // true on NaN
    ++PC;
    VM_NEXT();
  }
  VM_CASE(FCmpLT) {
    VM_STEP();
    VM_COMMIT(1, toD(R[In->B]) < toD(R[In->C]) ? 1u : 0u);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(FCmpLE) {
    VM_STEP();
    VM_COMMIT(1, toD(R[In->B]) <= toD(R[In->C]) ? 1u : 0u);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(FCmpGT) {
    VM_STEP();
    VM_COMMIT(1, toD(R[In->B]) > toD(R[In->C]) ? 1u : 0u);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(FCmpGE) {
    VM_STEP();
    VM_COMMIT(1, toD(R[In->B]) >= toD(R[In->C]) ? 1u : 0u);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(SIToFP) {
    VM_STEP();
    VM_COMMIT(64,
              toU(static_cast<double>(static_cast<int64_t>(R[In->B]))));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(FPToSI) {
    VM_STEP();
    {
      double V = toD(R[In->B]);
      // Out-of-range conversions produce the x86 "integer indefinite".
      int64_t Rv;
      if (std::isnan(V) || V >= 9.2233720368547758e18 ||
          V <= -9.2233720368547758e18)
        Rv = INT64_MIN;
      else
        Rv = static_cast<int64_t>(V);
      VM_COMMIT(64, static_cast<uint64_t>(Rv));
    }
    ++PC;
    VM_NEXT();
  }
  VM_CASE(ZExt) {
    VM_STEP();
    VM_COMMIT(64, R[In->B] & 1);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(Bitcast) {
    VM_STEP();
    VM_COMMIT(64, R[In->B]);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(Alloca) {
    VM_STEP();
    {
      uint64_t Addr = Arena.allocaBytes(P.Aux64[In->X] * 8);
      if (!Addr)
        VM_TRAP(StackOverflow);
      VM_COMMIT(64, Addr);
    }
    ++PC;
    VM_NEXT();
  }
  VM_CASE(Load) {
    VM_STEP();
    {
      uint64_t Addr = R[In->B];
      if (!Arena.validRange(Addr, 8))
        VM_TRAP(OutOfBounds);
      VM_COMMIT(64, Arena.read64(Addr));
    }
    ++PC;
    VM_NEXT();
  }
  VM_CASE(LoadI1) {
    VM_STEP();
    {
      uint64_t Addr = R[In->B];
      if (!Arena.validRange(Addr, 8))
        VM_TRAP(OutOfBounds);
      VM_COMMIT(1, Arena.read64(Addr) & 1);
    }
    ++PC;
    VM_NEXT();
  }
  VM_CASE(Store) {
    VM_STEP();
    {
      uint64_t Addr = R[In->C];
      if (!Arena.validRange(Addr, 8))
        VM_TRAP(OutOfBounds);
      Arena.write64(Addr, R[In->B]);
    }
    ++PC;
    VM_NEXT();
  }
  VM_CASE(Gep) {
    VM_STEP();
    VM_COMMIT(64, R[In->B] + R[In->C] * 8);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(Select) {
    VM_STEP();
    VM_COMMIT(64, (R[In->B] & 1) ? R[In->C] : R[In->D]);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(SelectI1) {
    VM_STEP();
    VM_COMMIT(1, (R[In->B] & 1) ? R[In->C] : R[In->D]);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(Check) {
    VM_STEP();
    if (R[In->B] != R[In->C])
      goto detected;
    ++PC;
    VM_NEXT();
  }
  VM_CASE(Stage) {
    // Pre-resolved phi move on an edge: pure data movement into a
    // staging register, no step, no budget interaction (the interpreter
    // reads all incoming values inside the phi group's step).
    R[In->A] = R[In->B];
    ++PC;
    VM_NEXT();
  }
  VM_CASE(PhiCommit) {
    // execPhis: one budget check for the whole group (it commits
    // atomically and may overshoot the budget), then one step + one
    // value step per phi in block order.
    if (Steps >= MaxSteps)
      goto out_of_steps;
    {
      const VmPhiMeta *M = &P.PhiMetas[In->X];
      for (unsigned K = 0; K != In->A; ++K, ++M) {
        ++Steps;
        uint64_t V = R[M->Stage];
        if (VS == FaultTarget) {
          V = flipBits(V, BitIndex, M->Width);
          FaultInjected = true;
          FaultedId = M->Id;
        }
        VM_FOLD(M->Id, V);
        ++VS;
        R[M->Dest] = V;
      }
    }
    ++PC;
    VM_NEXT();
  }
  VM_CASE(Br) {
    VM_STEP();
    PC = static_cast<uint32_t>(In->X);
    VM_EDGE();
    VM_NEXT();
  }
  VM_CASE(CondBr) {
    VM_STEP();
    PC = static_cast<uint32_t>((R[In->B] & 1) ? In->X : In->Y);
    VM_EDGE();
    VM_NEXT();
  }
  VM_CASE(Goto) {
    // Trampoline exit: control transfer only (the CondBr already
    // accounted the step).
    PC = static_cast<uint32_t>(In->X);
    VM_EDGE();
    VM_NEXT();
  }
  VM_CASE(Call) {
    // execCall: depth check before the step is counted, then one step,
    // argument evaluation, frame push.
    if (Steps >= MaxSteps)
      goto out_of_steps;
    if (Frames.size() >= Cfg.MaxCallDepth)
      VM_TRAP(CallDepthExceeded);
    ++Steps;
    {
      const VmFunction &Callee = P.Functions[In->X];
      uint32_t CallerBase = Frames.back().RegBase;
      uint32_t NewBase = CallerBase + Frames.back().Fn->regsTotal();
      if (RegStack.size() < static_cast<size_t>(NewBase) + Callee.regsTotal())
        RegStack.resize(
            std::max(RegStack.size() * 2,
                     static_cast<size_t>(NewBase) + Callee.regsTotal()));
      const uint16_t *Srcs = P.ArgRegs.data() + In->Y;
      uint64_t *CallerRegs = RegStack.data() + CallerBase;
      uint64_t *CalleeRegs = RegStack.data() + NewBase;
      for (unsigned K = 0; K != In->B; ++K)
        CalleeRegs[K] = CallerRegs[Srcs[K]];
      std::copy(Callee.ConstPool.begin(), Callee.ConstPool.end(),
                CalleeRegs + Callee.ConstBase);
      VmFrame NF;
      NF.Fn = &Callee;
      NF.RegBase = NewBase;
      NF.RetPC = PC + 1;
      NF.CallId = In->Id;
      NF.RetReg = In->A;
      NF.RetWidth = Callee.RetWidth;
      NF.SavedStackPtr = Arena.stackPointer();
      Frames.push_back(NF);
      R = CalleeRegs;
      PC = Callee.CodeStart;
      VM_EDGE();
    }
    VM_NEXT();
  }
  VM_CASE(Ret) {
    VM_STEP();
    {
      uint64_t V = R[In->B];
      VmFrame Done = Frames.back();
      Frames.pop_back();
      Arena.restoreStackPointer(Done.SavedStackPtr);
      if (Frames.empty()) {
        RetBits = V;
        goto finished;
      }
      R = RegStack.data() + Frames.back().RegBase;
      PC = Done.RetPC;
      VM_EDGE();
      // returnFromFrame: the call result is a value step attributed to
      // the *call* instruction, flipping at the callee's return width.
      // The hash fold sees it as a commit of the call site (the caller's
      // id), exactly like the interpreter's observer does.
      if (Done.RetReg != kNoReg) {
        if (VS == FaultTarget) {
          V = flipBits(V, BitIndex, Done.RetWidth);
          FaultInjected = true;
          FaultedId = Done.CallId;
        }
        VM_FOLD(Done.CallId, V);
        ++VS;
        R[Done.RetReg] = V;
      }
    }
    VM_NEXT();
  }
  VM_CASE(RetVoid) {
    VM_STEP();
    {
      VmFrame Done = Frames.back();
      Frames.pop_back();
      Arena.restoreStackPointer(Done.SavedStackPtr);
      if (Frames.empty()) {
        RetBits = 0;
        goto finished;
      }
      R = RegStack.data() + Frames.back().RegBase;
      PC = Done.RetPC;
      VM_EDGE();
    }
    VM_NEXT();
  }
  VM_CASE(ISqrt) {
    VM_STEP();
    VM_COMMIT(64, toU(std::sqrt(toD(R[In->B]))));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IFabs) {
    VM_STEP();
    VM_COMMIT(64, toU(std::fabs(toD(R[In->B]))));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(ISin) {
    VM_STEP();
    VM_COMMIT(64, toU(std::sin(toD(R[In->B]))));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(ICos) {
    VM_STEP();
    VM_COMMIT(64, toU(std::cos(toD(R[In->B]))));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IExp) {
    VM_STEP();
    VM_COMMIT(64, toU(std::exp(toD(R[In->B]))));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(ILog) {
    VM_STEP();
    VM_COMMIT(64, toU(std::log(toD(R[In->B]))));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IPow) {
    VM_STEP();
    VM_COMMIT(64, toU(std::pow(toD(R[In->B]), toD(R[In->C]))));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IFloor) {
    VM_STEP();
    VM_COMMIT(64, toU(std::floor(toD(R[In->B]))));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IFMin) {
    VM_STEP();
    VM_COMMIT(64, toU(std::fmin(toD(R[In->B]), toD(R[In->C]))));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IFMax) {
    VM_STEP();
    VM_COMMIT(64, toU(std::fmax(toD(R[In->B]), toD(R[In->C]))));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IIMin) {
    VM_STEP();
    VM_COMMIT(64, static_cast<uint64_t>(
                      std::min(static_cast<int64_t>(R[In->B]),
                               static_cast<int64_t>(R[In->C]))));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IIMax) {
    VM_STEP();
    VM_COMMIT(64, static_cast<uint64_t>(
                      std::max(static_cast<int64_t>(R[In->B]),
                               static_cast<int64_t>(R[In->C]))));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IMalloc) {
    VM_STEP();
    {
      int64_t Slots = static_cast<int64_t>(R[In->B]);
      if (Slots < 0)
        VM_TRAP(OutOfMemory);
      uint64_t Addr = Arena.mallocBytes(static_cast<uint64_t>(Slots) * 8);
      if (!Addr)
        VM_TRAP(OutOfMemory);
      VM_COMMIT(64, Addr);
    }
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IFree) {
    VM_STEP(); // bump allocator: no recycling, the step still counts
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IRandSeed) {
    VM_STEP();
    WorkloadRng.reseed(R[In->B]);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IRandI64) {
    VM_STEP();
    {
      int64_t Bound = static_cast<int64_t>(R[In->B]);
      VM_COMMIT(64, Bound <= 0 ? 0
                               : WorkloadRng.nextBelow(
                                     static_cast<uint64_t>(Bound)));
    }
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IRandF64) {
    VM_STEP();
    VM_COMMIT(64, toU(WorkloadRng.nextDouble()));
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IMpiRank) {
    VM_STEP();
    // Single-rank semantics (execMpiSingleRank) outside a job.
    VM_COMMIT(64, Mode == MultiRank ? static_cast<uint64_t>(Cfg.Rank) : 0);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IMpiSize) {
    VM_STEP();
    VM_COMMIT(64,
              Mode == MultiRank ? static_cast<uint64_t>(Cfg.NumRanks) : 1);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IMpiBarrier) {
    VM_MPI_COLLECTIVE();
    VM_STEP();
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IMpiIdentity) {
    VM_MPI_COLLECTIVE();
    VM_STEP();
    VM_COMMIT(64, R[In->B]);
    ++PC;
    VM_NEXT();
  }
  VM_CASE(IMpiCopy) {
    VM_MPI_COLLECTIVE();
    VM_STEP();
    {
      uint64_t Send = R[In->B];
      uint64_t Recv = R[In->C];
      int64_t N = static_cast<int64_t>(R[In->D]);
      if (N < 0)
        VM_TRAP(OutOfBounds);
      uint64_t Count = static_cast<uint64_t>(N);
      if (!Arena.validRange(Send, Count * 8) ||
          !Arena.validRange(Recv, Count * 8))
        VM_TRAP(OutOfBounds);
      // Forward slot-by-slot copy, exactly like copySlots (overlap
      // behaves like the interpreter, not like memcpy).
      for (uint64_t K = 0; K != Count; ++K)
        Arena.write64(Recv + K * 8, Arena.read64(Send + K * 8));
    }
    ++PC;
    VM_NEXT();
  }

#ifndef IPAS_VM_COMPUTED_GOTO
  } // switch
  assert(false && "unhandled VM opcode");
  goto dispatch;
#endif

out_of_steps:
  Res.Status = RunStatus::OutOfSteps;
  goto done;
trapped:
  Res.Status = RunStatus::Trapped;
  Res.Trap = TrapOut;
  goto done;
detected:
  Res.Status = RunStatus::Detected;
  goto done;
finished:
  Res.Status = RunStatus::Finished;
  Res.ReturnValue.Bits = RetBits;
done:
  Res.Steps = Steps;
  Res.ValueSteps = VS;
  Res.FaultInjected = FaultInjected;
  Res.FaultedInstructionId = FaultedId;
  St = Res;
  ResumePC = PC;
  if constexpr (Counting) {
    // Every exit leaves PC at the instruction the run stopped on. Its
    // final arrival counted a step except when the budget ran out or
    // the call-depth trap fired — both are checked before the step is
    // counted (PhiCommit's group check included).
    bool ExitCounted = Res.Status != RunStatus::OutOfSteps &&
                       TrapOut != TrapKind::CallDepthExceeded;
    reconstructCounts(Prof->SiteCounts, PC, ExitCounted);
  }
  return Res;
}

/// One linear pass over the bytecode turns control-transfer tallies into
/// exact per-instruction execution counts: a straight-line instruction
/// runs Carry times (however often its predecessor fell through) plus
/// EdgeCounts[PC] times (however often something jumped here). Control
/// ops never fall through — the trampoline Goto included — so Carry
/// resets to zero behind them, which also makes function boundaries
/// self-sealing (every function ends in a terminator). The instruction
/// the run exited at needs one correction: its final arrival never fell
/// through, and counted a step only when \p ExitCounted says so.
void VmContext::reconstructCounts(uint64_t *SiteCounts, uint32_t ExitPc,
                                  bool ExitCounted) const {
  const uint64_t *EC = EdgeCounts.data();
  uint64_t Carry = 0;
  for (uint32_t PC = 0; PC != P.Code.size(); ++PC) {
    const VmInst &In = P.Code[PC];
    uint64_t N = Carry + EC[PC];
    bool Exit = PC == ExitPc;
    uint64_t Counted = N - ((Exit && !ExitCounted) ? 1 : 0);
    switch (In.Op) {
    case VmOp::Stage: // data movement, never a step (and never an exit)
      Carry = N;
      break;
    case VmOp::Goto: // trampoline transfer, never a step
      Carry = 0;
      break;
    case VmOp::Br:
    case VmOp::CondBr:
    case VmOp::Call:
    case VmOp::Ret:
    case VmOp::RetVoid:
      SiteCounts[In.Id] += Counted;
      Carry = 0;
      break;
    case VmOp::PhiCommit: {
      // One step per phi, keyed by each phi's own site; the group
      // commits atomically, so a partial group can never be observed.
      const VmPhiMeta *M = &P.PhiMetas[In.X];
      for (unsigned K = 0; K != In.A; ++K, ++M)
        SiteCounts[M->Id] += Counted;
      Carry = Exit ? N - 1 : N;
      break;
    }
    default:
      SiteCounts[In.Id] += Counted;
      Carry = Exit ? N - 1 : N;
      break;
    }
  }
}
