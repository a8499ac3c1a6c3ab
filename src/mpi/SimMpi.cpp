//===- mpi/SimMpi.cpp ----------------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "mpi/SimMpi.h"

#include "vm/VM.h"

#include <algorithm>
#include <stdexcept>
#include <string>

using namespace ipas;

namespace {

void checkRanks(int NumRanks) {
  if (NumRanks < 1)
    throw std::invalid_argument("MpiJob: NumRanks must be at least 1, got " +
                                std::to_string(NumRanks));
}

/// Rank \p R's context configuration from the job's template.
template <class CtxConfig>
CtxConfig rankConfig(const MpiJob::Config &Cfg, int R) {
  CtxConfig C;
  C.Mem = Cfg.Rank.Mem;
  C.MaxCallDepth = Cfg.Rank.MaxCallDepth;
  C.Rank = R;
  C.NumRanks = Cfg.NumRanks;
  // Decorrelate per-rank workload RNG streams.
  C.WorkloadRngSeed =
      Cfg.Rank.WorkloadRngSeed * 1000003ull + static_cast<uint64_t>(R);
  return C;
}

// The two engines' start/advance calls differ only in spelling.
void startRank(ExecutionContext &Ctx, const Function *Entry,
               const std::vector<RtValue> &Args, const FaultPlan &Plan) {
  Ctx.setFaultPlan(Plan);
  Ctx.start(Entry, Args);
}
void startRank(vm::VmContext &Ctx, const Function *Entry,
               const std::vector<RtValue> &Args, const FaultPlan &Plan) {
  Ctx.start(Ctx.program().indexOf(Entry->name()), Args, &Plan);
}
RunStatus advance(ExecutionContext &Ctx, uint64_t Budget) {
  return Ctx.run(Budget);
}
RunStatus advance(vm::VmContext &Ctx, uint64_t Budget) {
  return Ctx.resume(Budget).Status;
}

} // namespace

MpiJob::MpiJob(const ModuleLayout &Layout, const Config &C) : Cfg(C) {
  checkRanks(Cfg.NumRanks);
  for (int R = 0; R != Cfg.NumRanks; ++R)
    InterpRanks.push_back(std::make_unique<ExecutionContext>(
        Layout, rankConfig<ExecutionContext::Config>(Cfg, R)));
  Plans.resize(static_cast<size_t>(Cfg.NumRanks));
  CommCost.resize(static_cast<size_t>(Cfg.NumRanks));
}

MpiJob::MpiJob(const vm::VmProgram &Prog, const Config &C) : Cfg(C) {
  checkRanks(Cfg.NumRanks);
  for (int R = 0; R != Cfg.NumRanks; ++R)
    VmRanks.push_back(std::make_unique<vm::VmContext>(
        Prog, rankConfig<vm::VmContext::Config>(Cfg, R)));
  Plans.resize(static_cast<size_t>(Cfg.NumRanks));
  CommCost.resize(static_cast<size_t>(Cfg.NumRanks));
}

MpiJob::~MpiJob() = default;

template <class Fn> decltype(auto) MpiJob::withRank(int R, Fn &&F) const {
  size_t K = static_cast<size_t>(R);
  return VmRanks.empty() ? F(*InterpRanks[K]) : F(*VmRanks[K]);
}

uint64_t MpiJob::hostAlloc(int R, uint64_t Slots) {
  return withRank(R, [&](auto &Ctx) { return Ctx.hostAlloc(Slots); });
}

void MpiJob::setFaultPlan(int R, const FaultPlan &Plan) {
  Plans[static_cast<size_t>(R)] = Plan;
}

void MpiJob::start(const Function *Entry,
                   const std::function<std::vector<RtValue>(int)> &ArgsFor) {
  for (int R = 0; R != Cfg.NumRanks; ++R)
    withRank(R, [&](auto &Ctx) {
      startRank(Ctx, Entry, ArgsFor(R), Plans[static_cast<size_t>(R)]);
    });
}

uint64_t MpiJob::steps(int R) const {
  return withRank(R, [](auto &Ctx) { return Ctx.steps(); });
}
uint64_t MpiJob::valueSteps(int R) const {
  return withRank(R, [](auto &Ctx) { return Ctx.valueSteps(); });
}
RtValue MpiJob::returnValue(int R) const {
  return withRank(R, [](auto &Ctx) { return Ctx.returnValue(); });
}
bool MpiJob::faultWasInjected(int R) const {
  return withRank(R, [](auto &Ctx) { return Ctx.faultWasInjected(); });
}

std::vector<RtValue> MpiJob::readSlots(int R, uint64_t Addr,
                                       uint64_t Slots) const {
  return withRank(
      R, [&](auto &Ctx) { return readOutputSlots(Ctx.memory(), Addr, Slots); });
}

void MpiJob::chargeComm(uint64_t Bytes) {
  uint64_t Cost = Cfg.AlphaCost +
                  static_cast<uint64_t>(Cfg.BetaCostPerByte *
                                        static_cast<double>(Bytes));
  for (uint64_t &C : CommCost)
    C += Cost;
}

JobResult MpiJob::run() {
  return VmRanks.empty() ? schedule(InterpRanks) : schedule(VmRanks);
}

template <class Ctx> JobResult MpiJob::schedule(RankList<Ctx> &Ranks) {
  JobResult Result;
  while (true) {
    for (int R = 0; R != Cfg.NumRanks; ++R) {
      Ctx &C = *Ranks[static_cast<size_t>(R)];
      if (C.status() != RunStatus::Running)
        continue;
      RunStatus S = advance(C, Cfg.StepBudgetPerRank);
      if (S == RunStatus::Trapped || S == RunStatus::Detected ||
          S == RunStatus::OutOfSteps) {
        // One failing process aborts the whole job (observable symptom /
        // detection propagates, paper §4.4.1).
        Result.Status = S;
        Result.Trap = C.trap();
        Result.FailedRank = R;
        break;
      }
    }
    if (Result.Status != RunStatus::Finished)
      break;

    bool AllFinished = true;
    bool AllSettled = true; // finished or blocked
    int NumBlocked = 0;
    for (auto &C : Ranks) {
      if (C->status() == RunStatus::Blocked)
        ++NumBlocked;
      if (C->status() != RunStatus::Finished)
        AllFinished = false;
      if (C->status() == RunStatus::Running)
        AllSettled = false;
    }
    if (AllFinished)
      break;
    if (!AllSettled)
      continue;
    if (NumBlocked != Cfg.NumRanks) {
      // Some ranks exited while others wait on a collective: the real job
      // would hang in MPI_Wait forever.
      Result.Status = RunStatus::OutOfSteps;
      Result.FailedRank = -1;
      break;
    }
    if (!resolveCollective(Ranks, Result))
      break;
  }

  for (size_t R = 0; R != Ranks.size(); ++R) {
    Result.TotalSteps += Ranks[R]->steps();
    Result.CriticalPathCycles = std::max(Result.CriticalPathCycles,
                                         Ranks[R]->steps() + CommCost[R]);
  }
  return Result;
}

template <class Ctx>
bool MpiJob::resolveCollective(RankList<Ctx> &Ranks, JobResult &Result) {
  const int P = Cfg.NumRanks;
  auto Fail = [&](Ctx &C, TrapKind K) {
    C.failPending(K);
    Result.Status = RunStatus::Trapped;
    Result.Trap = K;
    Result.FailedRank = C.rank();
    return false;
  };

  Intrinsic Op = Ranks[0]->pending().Op;
  for (auto &C : Ranks)
    if (C->pending().Op != Op) {
      // A corrupted rank reached a different collective: communicator
      // mismatch, which MVAPICH would surface as a fatal error.
      return Fail(*C, TrapKind::MpiMismatch);
    }

  auto CompleteAll = [&](RtValue V) {
    for (auto &C : Ranks)
      C->completePendingCall(V);
  };

  switch (Op) {
  case Intrinsic::MpiBarrier:
    chargeComm(0);
    CompleteAll(RtValue());
    return true;
  case Intrinsic::MpiAllreduceSumD: {
    double Sum = 0.0;
    for (auto &C : Ranks)
      Sum += C->pending().Args[0].asF64();
    chargeComm(8ull * static_cast<uint64_t>(P));
    CompleteAll(RtValue::fromF64(Sum));
    return true;
  }
  case Intrinsic::MpiAllreduceMaxD: {
    double Max = Ranks[0]->pending().Args[0].asF64();
    for (auto &C : Ranks)
      Max = std::max(Max, C->pending().Args[0].asF64());
    chargeComm(8ull * static_cast<uint64_t>(P));
    CompleteAll(RtValue::fromF64(Max));
    return true;
  }
  case Intrinsic::MpiAllreduceSumI: {
    int64_t Sum = 0;
    for (auto &C : Ranks)
      Sum += C->pending().Args[0].asI64();
    chargeComm(8ull * static_cast<uint64_t>(P));
    CompleteAll(RtValue::fromI64(Sum));
    return true;
  }
  case Intrinsic::MpiBcastD:
  case Intrinsic::MpiBcastI: {
    int64_t Root = Ranks[0]->pending().Args[1].asI64();
    if (Root < 0 || Root >= P)
      return Fail(*Ranks[0], TrapKind::MpiMismatch);
    RtValue V = Ranks[static_cast<size_t>(Root)]->pending().Args[0];
    chargeComm(8ull * static_cast<uint64_t>(P));
    CompleteAll(V);
    return true;
  }
  case Intrinsic::MpiAllgatherD:
  case Intrinsic::MpiAlltoallD: {
    // Allgather: rank r contributes N slots; every rank receives P*N
    // slots with rank r's data at offset r*N. Alltoall: rank r's send
    // buffer holds P segments of N slots; segment k goes to rank k's
    // recv buffer at offset r*N.
    bool Gather = Op == Intrinsic::MpiAllgatherD;
    int64_t N = Ranks[0]->pending().Args[2].asI64();
    for (auto &C : Ranks)
      if (C->pending().Args[2].asI64() != N || N < 0)
        return Fail(*C, TrapKind::MpiMismatch);
    uint64_t Count = static_cast<uint64_t>(N);
    uint64_t Full = Count * 8 * static_cast<uint64_t>(P);
    // Validate all buffers before moving data.
    for (auto &C : Ranks) {
      uint64_t Send = C->pending().Args[0].asPtr();
      uint64_t Recv = C->pending().Args[1].asPtr();
      if (!C->memory().validRange(Send, Gather ? Count * 8 : Full) ||
          !C->memory().validRange(Recv, Full))
        return Fail(*C, TrapKind::OutOfBounds);
    }
    for (int Src = 0; Src != P; ++Src) {
      Ctx &From = *Ranks[static_cast<size_t>(Src)];
      uint64_t SendBase = From.pending().Args[0].asPtr();
      for (int Dst = 0; Dst != P; ++Dst) {
        Ctx &To = *Ranks[static_cast<size_t>(Dst)];
        uint64_t SegSrc =
            SendBase + (Gather ? 0 : static_cast<uint64_t>(Dst) * Count * 8);
        uint64_t SegDst = To.pending().Args[1].asPtr() +
                          static_cast<uint64_t>(Src) * Count * 8;
        for (uint64_t K = 0; K != Count; ++K)
          To.memory().write64(SegDst + K * 8,
                              From.memory().read64(SegSrc + K * 8));
      }
    }
    chargeComm(Full);
    CompleteAll(RtValue());
    return true;
  }
  default:
    // Both engines only ever suspend at the collectives above, so this
    // is an engine bug; reporting the job as finished would mislabel it.
    throw std::logic_error(
        std::string("MpiJob: rank blocked on non-collective intrinsic ") +
        intrinsicName(Op));
  }
}
