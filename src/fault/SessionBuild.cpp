//===- fault/SessionBuild.cpp -------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fault/SessionBuild.h"

#include "analysis/CallGraph.h"
#include "analysis/FunctionSummary.h"
#include "ir/Module.h"
#include "obs/BinCodec.h"
#include "obs/Metrics.h"
#include "obs/ProfileStore.h"
#include "obs/Trace.h"

#include <cassert>
#include <map>

using namespace ipas;

namespace {

/// The canonical vm.fallback.* reason set (fault/ProgramHarness.cpp).
/// Always recorded in this order, zero or not, so the serialized layout
/// does not depend on which reasons happened to fire. The manifest stores
/// name/count pairs, so the set can change without a format bump.
const char *const FallbackReasons[] = {
    "vm.fallback.compile", "vm.fallback.observer",
    "vm.fallback.profile_context", "vm.fallback.other"};

} // namespace

obs::SessionStore ipas::buildSessionStore(const SessionBuildInputs &In) {
  assert(In.M && In.Result && "module and campaign result are required");
  const Module &M = *In.M;
  const CampaignResult &R = *In.Result;

  obs::SessionStore S;
  S.Tool = In.Tool;
  S.ModuleName = M.name();
  S.EntryFunction = In.EntryFunction;
  S.Label = In.Label;
  S.SessionLabel = In.SessionLabel;
  S.Seed = In.Seed;
  S.Backend = static_cast<uint8_t>(In.Backend);
  S.Threads = In.Threads;
  S.Pruning = In.Pruning ? 1 : 0;
  S.Incremental = In.Incremental ? 1 : 0;
  S.PropSampleEvery = In.PropSampleEvery;
  S.WallSeconds = R.WallSeconds;
  S.RunsPerSec = R.RunsPerSec;
  S.Heartbeats = R.HeartbeatsEmitted;
  S.Runs = R.totalRuns();
  S.PrunedRuns = R.PrunedRuns;
  S.VmRuns = R.VmRuns;
  S.InterpRuns = R.InterpRuns;
  S.OutcomeTotals.assign(R.Counts.begin(), R.Counts.end());

  obs::MetricsRegistry &Reg = obs::MetricsRegistry::global();
  for (const char *Name : FallbackReasons) {
    S.FallbackReasons.push_back(Name);
    S.FallbackCounts.push_back(Reg.counter(Name).value());
  }

  // Function identity: canonical content/reachable hashes over the
  // module the campaign ran on, in module order.
  CallGraph CG(M);
  ModuleSummaries Summaries(M, CG);
  std::map<const Function *, size_t> FnIndex;
  uint64_t ModuleHash = obs::FnvOffset;
  for (size_t I = 0; I != M.numFunctions(); ++I) {
    const Function *F = M.function(I);
    obs::SessionFunction Row;
    Row.Name = F->name();
    Row.ContentHash = Summaries.contentHash(F);
    Row.ReachableHash = Summaries.reachableHash(F);
    FnIndex[F] = S.Functions.size();
    S.Functions.push_back(Row);
    std::string Key = F->name();
    obs::Encoder(Key).u64(Row.ContentHash);
    ModuleHash = obs::fnv1a(Key.data(), Key.size(), ModuleHash);
  }
  S.ModuleHash = ModuleHash;

  // Per-function injection tallies: map each record's instruction id to
  // its owning function.
  std::vector<Instruction *> Insts = M.allInstructions();
  std::vector<size_t> FnOfInst(Insts.size(), SIZE_MAX);
  for (const Instruction *I : Insts) {
    const Function *F = I->parent() ? I->parent()->parent() : nullptr;
    auto It = FnIndex.find(F);
    if (It != FnIndex.end()) {
      FnOfInst[I->id()] = It->second;
      ++S.Functions[It->second].Sites;
    }
  }
  for (const InjectionRecord &Rec : R.Records) {
    if (Rec.InstructionId >= FnOfInst.size())
      continue;
    size_t Fn = FnOfInst[Rec.InstructionId];
    if (Fn == SIZE_MAX)
      continue;
    ++S.Functions[Fn].Runs;
    if (Rec.Result == Outcome::SOC)
      ++S.Functions[Fn].Soc;
  }

  // Marginal protection cycles per function, from the cost profile of
  // the same run when the driver attached one. Negative marginals never
  // occur for duplication; clamp defensively anyway.
  if (In.Profile) {
    for (const obs::ProfSiteOverhead &O : In.Profile->Overheads) {
      if (O.FunctionIndex >= In.Profile->Functions.size())
        continue;
      const std::string &Name = In.Profile->Functions[O.FunctionIndex];
      for (obs::SessionFunction &F : S.Functions)
        if (F.Name == Name) {
          int64_t Cycles = obs::marginalCycles(O);
          if (Cycles > 0)
            F.OverheadCycles += static_cast<uint64_t>(Cycles);
          break;
        }
    }
  }
  return S;
}

bool ipas::addSessionArtifact(obs::SessionStore &S, uint8_t Kind,
                              const std::string &Path, std::string *Err) {
  obs::SessionArtifact A;
  A.Kind = Kind;
  A.Path = Path;
  if (Kind == obs::SessionArtifactTrace) {
    // The trace sink is still streaming (it closes at exit), so size and
    // checksum would be stale by the time anyone verifies them. Record
    // the path with Checksum 0 = "unchecked".
    S.Artifacts.push_back(A);
    return true;
  }
  if (!obs::checksumFile(Path, A.Size, A.Checksum, Err))
    return false;
  S.Artifacts.push_back(A);
  return true;
}

bool ipas::writeSessionManifest(const obs::SessionStore &S,
                                const std::string &Path, std::string *Err) {
  if (!obs::writeSessionStore(S, Path, Err))
    return false;
  obs::AttrSet Attrs;
  Attrs.add("label", S.Label.empty() ? "campaign" : S.Label.c_str())
      .add("path", Path)
      .add("runs", S.Runs)
      .add("artifacts", static_cast<uint64_t>(S.Artifacts.size()));
  for (size_t O = 0; O != S.OutcomeTotals.size() && O != NumOutcomes; ++O)
    Attrs.add(outcomeName(static_cast<Outcome>(O)), S.OutcomeTotals[O]);
  obs::TraceSink::event("campaign.session", Attrs);
  return true;
}
