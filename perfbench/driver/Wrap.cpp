//===- perfbench/driver/Wrap.cpp - Layer entry points timed as spans ---------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linked only into pipeline_bench_traced, whose link line carries
/// `-Wl,--wrap=<symbol>` for every function below (CMakeLists.txt): the
/// linker sends each call the library makes to <symbol> to __wrap_<symbol>
/// here, and __real_<symbol> reaches the original. The pipeline itself is
/// not modified; only calls that cross object files are seen, which is
/// every call listed here.
///
/// The wrappers are declared with C linkage only to get the exact symbol
/// names; their parameter and return types are the C++ ones, so the
/// calling convention matches the original function. Member functions
/// take the object as the first parameter, as the Itanium C++ ABI passes
/// it (after the hidden return slot, which the compiler adds for both).
///
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "analysis/CallGraph.h"
#include "analysis/Features.h"
#include "analysis/FunctionSummary.h"
#include "analysis/SocPropagation.h"
#include "fault/Campaign.h"
#include "fault/ProfileBuild.h"
#include "fault/RecordBuild.h"
#include "fault/SessionBuild.h"
#include "ml/ModelSelection.h"
#include "mpi/SimMpi.h"
#include "obs/ProfileStore.h"
#include "transform/Duplication.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <filesystem>

using namespace ipas;
using perfbench::Layer;
using perfbench::Recorder;
using perfbench::Scope;

bool perfbench::tracingLinked() { return true; }

namespace {

/// Counts a store file the pipeline wrote and its size.
void noteWritten(const std::string &Path, bool Ok) {
  Recorder &R = Recorder::get();
  if (!Ok || !R.active())
    return;
  std::error_code EC;
  uintmax_t Size = std::filesystem::file_size(Path, EC);
  perfbench::Tally &T = R.tally("obs.artifact");
  ++T.Calls;
  T.Sum += EC ? 0.0 : static_cast<double>(Size);
}

/// Folds one campaign's result into the repetition's campaign tally.
void noteCampaign(const CampaignResult &C) {
  perfbench::CampaignTally &T = Recorder::get().campaigns();
  T.ExecutedRuns += C.VmRuns + C.InterpRuns;
  T.PrunedRuns += C.PrunedRuns;
  T.VmRuns += C.VmRuns;
  T.InterpRuns += C.InterpRuns;
  T.CleanSteps += C.CleanSteps;
  for (const InjectionRecord &Rec : C.Records) {
    // Pruned runs are recorded with LatencyUs 0; every executed run of a
    // paper workload takes well over a microsecond.
    if (Rec.LatencyUs == 0)
      continue;
    double Us = static_cast<double>(Rec.LatencyUs);
    T.LatencyUs.push_back(Us);
    T.RunMicros += Us;
    if (Rec.Result == Outcome::Hang)
      T.HangMicros += Us;
  }
}

} // namespace

extern "C" {

// frontend ------------------------------------------------------------------

std::unique_ptr<Module>
__real__ZN4ipas15compileWorkloadERKNS_8WorkloadE(const Workload &W);
std::unique_ptr<Module>
__wrap__ZN4ipas15compileWorkloadERKNS_8WorkloadE(const Workload &W) {
  Scope S("frontend.compile", Layer::Frontend);
  return __real__ZN4ipas15compileWorkloadERKNS_8WorkloadE(W);
}

// transform -----------------------------------------------------------------

DuplicationStats
__real__ZN4ipas21duplicateInstructionsERNS_6ModuleERKSt8functionIFbRKNS_11InstructionEEERKNS_18DuplicationOptionsE(
    Module &M, const ProtectionPredicate &P, const DuplicationOptions &O);
DuplicationStats
__wrap__ZN4ipas21duplicateInstructionsERNS_6ModuleERKSt8functionIFbRKNS_11InstructionEEERKNS_18DuplicationOptionsE(
    Module &M, const ProtectionPredicate &P, const DuplicationOptions &O) {
  Scope S("transform.duplicate", Layer::Transform);
  DuplicationStats Stats =
      __real__ZN4ipas21duplicateInstructionsERNS_6ModuleERKSt8functionIFbRKNS_11InstructionEEERKNS_18DuplicationOptionsE(
          M, P, O);
  if (S.active())
    Recorder::get().tally("transform.duplicate").Sum +=
        static_cast<double>(Stats.DuplicatedInstructions);
  return Stats;
}

DuplicationStats __real__ZN4ipas24duplicateAllInstructionsERNS_6ModuleE(
    Module &M);
DuplicationStats __wrap__ZN4ipas24duplicateAllInstructionsERNS_6ModuleE(
    Module &M) {
  Scope S("transform.duplicate", Layer::Transform);
  DuplicationStats Stats =
      __real__ZN4ipas24duplicateAllInstructionsERNS_6ModuleE(M);
  if (S.active())
    Recorder::get().tally("transform.duplicate").Sum +=
        static_cast<double>(Stats.DuplicatedInstructions);
  return Stats;
}

// analysis ------------------------------------------------------------------

std::vector<FeatureVector>
__real__ZNK4ipas16FeatureExtractor13extractModuleERKNS_6ModuleE(
    const FeatureExtractor *Self, const Module &M);
std::vector<FeatureVector>
__wrap__ZNK4ipas16FeatureExtractor13extractModuleERKNS_6ModuleE(
    const FeatureExtractor *Self, const Module &M) {
  Scope S("analysis.features", Layer::Analysis);
  return __real__ZNK4ipas16FeatureExtractor13extractModuleERKNS_6ModuleE(
      Self, M);
}

std::vector<std::vector<double>>
__real__ZNK4ipas16FeatureExtractor17extractModuleRowsERKNS_6ModuleE(
    const FeatureExtractor *Self, const Module &M);
std::vector<std::vector<double>>
__wrap__ZNK4ipas16FeatureExtractor17extractModuleRowsERKNS_6ModuleE(
    const FeatureExtractor *Self, const Module &M) {
  Scope S("analysis.features", Layer::Analysis);
  return __real__ZNK4ipas16FeatureExtractor17extractModuleRowsERKNS_6ModuleE(
      Self, M);
}

void __real__ZN4ipas9CallGraphC1ERKNS_6ModuleE(CallGraph *Self,
                                               const Module &M);
void __wrap__ZN4ipas9CallGraphC1ERKNS_6ModuleE(CallGraph *Self,
                                               const Module &M) {
  Scope S("analysis.prune", Layer::Analysis);
  __real__ZN4ipas9CallGraphC1ERKNS_6ModuleE(Self, M);
}

void __real__ZN4ipas15ModuleSummariesC1ERKNS_6ModuleERKNS_9CallGraphE(
    ModuleSummaries *Self, const Module &M, const CallGraph &CG);
void __wrap__ZN4ipas15ModuleSummariesC1ERKNS_6ModuleERKNS_9CallGraphE(
    ModuleSummaries *Self, const Module &M, const CallGraph &CG) {
  Scope S("analysis.prune", Layer::Analysis);
  __real__ZN4ipas15ModuleSummariesC1ERKNS_6ModuleERKNS_9CallGraphE(Self, M,
                                                                     CG);
}

void __real__ZN4ipas14SocPropagationC1ERKNS_6ModuleERKNS_15ModuleSummariesE(
    SocPropagation *Self, const Module &M, const ModuleSummaries &Sums);
void __wrap__ZN4ipas14SocPropagationC1ERKNS_6ModuleERKNS_15ModuleSummariesE(
    SocPropagation *Self, const Module &M, const ModuleSummaries &Sums) {
  Scope S("analysis.prune", Layer::Analysis);
  __real__ZN4ipas14SocPropagationC1ERKNS_6ModuleERKNS_15ModuleSummariesE(
      Self, M, Sums);
  if (S.active()) {
    const std::vector<bool> &Benign = Self->provablyBenign();
    Recorder::get().tally("analysis.prune").Sum += static_cast<double>(
        std::count(Benign.begin(), Benign.end(), true));
  }
}

// fault ---------------------------------------------------------------------

CampaignResult
__real__ZN4ipas11runCampaignERNS_14ProgramHarnessERKNS_12ModuleLayoutERKNS_14CampaignConfigE(
    ProgramHarness &H, const ModuleLayout &L, const CampaignConfig &C);
CampaignResult
__wrap__ZN4ipas11runCampaignERNS_14ProgramHarnessERKNS_12ModuleLayoutERKNS_14CampaignConfigE(
    ProgramHarness &H, const ModuleLayout &L, const CampaignConfig &C) {
  CampaignResult R;
  {
    Scope S("fault.campaign", Layer::Fault);
    R = __real__ZN4ipas11runCampaignERNS_14ProgramHarnessERKNS_12ModuleLayoutERKNS_14CampaignConfigE(
        H, L, C);
  }
  if (Recorder::get().active())
    noteCampaign(R);
  return R;
}

// ml ------------------------------------------------------------------------

std::vector<RankedConfig>
__real__ZN4ipas10gridSearchERKNS_7DatasetERKNS_16GridSearchConfigE(
    const Dataset &D, const GridSearchConfig &C);
std::vector<RankedConfig>
__wrap__ZN4ipas10gridSearchERKNS_7DatasetERKNS_16GridSearchConfigE(
    const Dataset &D, const GridSearchConfig &C) {
  Scope S("ml.grid", Layer::Ml);
  Recorder &R = Recorder::get();
  if (S.active())
    ++R.GridDepth;
  std::vector<RankedConfig> Out =
      __real__ZN4ipas10gridSearchERKNS_7DatasetERKNS_16GridSearchConfigE(D, C);
  if (S.active())
    --R.GridDepth;
  return Out;
}

SvmModel __real__ZN4ipas9trainCSvcERKNS_7DatasetERKNS_9SvmParamsE(
    const Dataset &D, const SvmParams &P);
SvmModel __wrap__ZN4ipas9trainCSvcERKNS_7DatasetERKNS_9SvmParamsE(
    const Dataset &D, const SvmParams &P) {
  Scope S("ml.fit", Layer::Ml);
  SvmModel Model = __real__ZN4ipas9trainCSvcERKNS_7DatasetERKNS_9SvmParamsE(D, P);
  if (S.active())
    Recorder::get().tally("ml.fit").Sum +=
        static_cast<double>(Model.iterationsUsed());
  return Model;
}

double __real__ZNK4ipas8SvmModel8decisionERKSt6vectorIdSaIdEE(
    const SvmModel *Self, const std::vector<double> &X);
double __wrap__ZNK4ipas8SvmModel8decisionERKSt6vectorIdSaIdEE(
    const SvmModel *Self, const std::vector<double> &X) {
  // Decisions inside model selection belong to the grid search.
  Recorder &R = Recorder::get();
  if (!R.active() || R.GridDepth > 0)
    return __real__ZNK4ipas8SvmModel8decisionERKSt6vectorIdSaIdEE(Self, X);
  Scope S("ml.classify", Layer::Ml);
  return __real__ZNK4ipas8SvmModel8decisionERKSt6vectorIdSaIdEE(Self, X);
}

// obs -----------------------------------------------------------------------

obs::RecordStore __real__ZN4ipas16buildRecordStoreERKNS_17RecordBuildInputsE(
    const RecordBuildInputs &In);
obs::RecordStore __wrap__ZN4ipas16buildRecordStoreERKNS_17RecordBuildInputsE(
    const RecordBuildInputs &In) {
  Scope S("obs.write", Layer::Obs);
  return __real__ZN4ipas16buildRecordStoreERKNS_17RecordBuildInputsE(In);
}

bool __real__ZN4ipas19writeCampaignRecordERKNS_3obs11RecordStoreERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS9_(
    const obs::RecordStore &St, const std::string &Path, std::string *Err);
bool __wrap__ZN4ipas19writeCampaignRecordERKNS_3obs11RecordStoreERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS9_(
    const obs::RecordStore &St, const std::string &Path, std::string *Err) {
  bool Ok;
  {
    Scope S("obs.write", Layer::Obs);
    Ok = __real__ZN4ipas19writeCampaignRecordERKNS_3obs11RecordStoreERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS9_(
        St, Path, Err);
  }
  noteWritten(Path, Ok);
  return Ok;
}

bool __real__ZN4ipas17buildProfileStoreERNS_14ProgramHarnessERKNS_12ModuleLayoutERNS_12CostProfilerERKNS_18ProfileBuildInputsERNS_3obs12ProfileStoreEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    ProgramHarness &H, const ModuleLayout &L, CostProfiler &Prof,
    const ProfileBuildInputs &In, obs::ProfileStore &Out, std::string *Err);
bool __wrap__ZN4ipas17buildProfileStoreERNS_14ProgramHarnessERKNS_12ModuleLayoutERNS_12CostProfilerERKNS_18ProfileBuildInputsERNS_3obs12ProfileStoreEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    ProgramHarness &H, const ModuleLayout &L, CostProfiler &Prof,
    const ProfileBuildInputs &In, obs::ProfileStore &Out, std::string *Err) {
  Scope S("obs.profile", Layer::Obs);
  return __real__ZN4ipas17buildProfileStoreERNS_14ProgramHarnessERKNS_12ModuleLayoutERNS_12CostProfilerERKNS_18ProfileBuildInputsERNS_3obs12ProfileStoreEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
      H, L, Prof, In, Out, Err);
}

bool __real__ZN4ipas20writeProfileArtifactERKNS_3obs12ProfileStoreERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS9_(
    const obs::ProfileStore &St, const std::string &Path, std::string *Err);
bool __wrap__ZN4ipas20writeProfileArtifactERKNS_3obs12ProfileStoreERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS9_(
    const obs::ProfileStore &St, const std::string &Path, std::string *Err) {
  bool Ok;
  {
    Scope S("obs.write", Layer::Obs);
    Ok = __real__ZN4ipas20writeProfileArtifactERKNS_3obs12ProfileStoreERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS9_(
        St, Path, Err);
  }
  noteWritten(Path, Ok);
  return Ok;
}

obs::SessionStore
__real__ZN4ipas17buildSessionStoreERKNS_18SessionBuildInputsE(
    const SessionBuildInputs &In);
obs::SessionStore
__wrap__ZN4ipas17buildSessionStoreERKNS_18SessionBuildInputsE(
    const SessionBuildInputs &In) {
  Scope S("obs.write", Layer::Obs);
  return __real__ZN4ipas17buildSessionStoreERKNS_18SessionBuildInputsE(In);
}

bool __real__ZN4ipas18addSessionArtifactERNS_3obs12SessionStoreEhRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS8_(
    obs::SessionStore &St, uint8_t Kind, const std::string &Path,
    std::string *Err);
bool __wrap__ZN4ipas18addSessionArtifactERNS_3obs12SessionStoreEhRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS8_(
    obs::SessionStore &St, uint8_t Kind, const std::string &Path,
    std::string *Err) {
  Scope S("obs.write", Layer::Obs);
  return __real__ZN4ipas18addSessionArtifactERNS_3obs12SessionStoreEhRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS8_(
      St, Kind, Path, Err);
}

bool __real__ZN4ipas20writeSessionManifestERKNS_3obs12SessionStoreERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS9_(
    const obs::SessionStore &St, const std::string &Path, std::string *Err);
bool __wrap__ZN4ipas20writeSessionManifestERKNS_3obs12SessionStoreERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS9_(
    const obs::SessionStore &St, const std::string &Path, std::string *Err) {
  bool Ok;
  {
    Scope S("obs.write", Layer::Obs);
    Ok = __real__ZN4ipas20writeSessionManifestERKNS_3obs12SessionStoreERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS9_(
        St, Path, Err);
  }
  noteWritten(Path, Ok);
  return Ok;
}

bool __real__ZN4ipas3obs16readProfileStoreERNS0_12ProfileStoreERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS8_(
    obs::ProfileStore &St, const std::string &Path, std::string *Err);
bool __wrap__ZN4ipas3obs16readProfileStoreERNS0_12ProfileStoreERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS8_(
    obs::ProfileStore &St, const std::string &Path, std::string *Err) {
  Scope S("obs.read", Layer::Obs);
  return __real__ZN4ipas3obs16readProfileStoreERNS0_12ProfileStoreERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS8_(
      St, Path, Err);
}

// mpi -----------------------------------------------------------------------

JobResult __real__ZN4ipas6MpiJob3runEv(MpiJob *Self);
JobResult __wrap__ZN4ipas6MpiJob3runEv(MpiJob *Self) {
  Scope S("mpi.job", Layer::Mpi);
  return __real__ZN4ipas6MpiJob3runEv(Self);
}

} // extern "C"
