//===- tools/ipas-cc.cpp - MiniC compiler/runner driver -------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// A command-line driver in the opt/lli mold: compiles a MiniC source
/// file, runs the selected passes, optionally protects it by duplication,
/// and either dumps the IR or executes a function.
///
///   ipas-cc prog.mc --emit-ir                         # dump IR
///   ipas-cc prog.mc --run main --args 10,20           # execute
///   ipas-cc prog.mc --O --protect --emit-ir           # optimize+protect
///   ipas-cc prog.mc --run f --args 8 --fault-step 100 --fault-bit 52
///   ipas-cc prog.mc --protect --lint                  # check invariants
///   ipas-cc prog.mc --O --protect --verify-each       # bisect pass bugs
///
//===----------------------------------------------------------------------===//

#include "analysis/Features.h"
#include "analysis/FunctionSummary.h"
#include "analysis/ProtectionLint.h"
#include "analysis/SocPropagation.h"
#include "fault/FunctionHarness.h"
#include "fault/Incremental.h"
#include "fault/ProgramExecutor.h"
#include "fault/ProfileBuild.h"
#include "fault/Propagation.h"
#include "fault/RecordBuild.h"
#include "fault/SessionBuild.h"
#include "frontend/CodeGen.h"
#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "obs/CliOptions.h"
#include "obs/ProfileStore.h"
#include "obs/SummaryStore.h"
#include "support/ArgParser.h"
#include "transform/ConstantFold.h"
#include "transform/DCE.h"
#include "transform/Duplication.h"
#include "transform/Mem2Reg.h"
#include "transform/SimplifyCFG.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace ipas;

static std::vector<RtValue> parseArgs(const Function *F,
                                      const std::string &ArgsCsv) {
  std::vector<RtValue> Args;
  std::istringstream SS(ArgsCsv);
  std::string Tok;
  unsigned Index = 0;
  while (std::getline(SS, Tok, ',')) {
    if (Tok.empty())
      continue;
    if (Index >= F->numArgs()) {
      std::fprintf(stderr, "error: too many arguments for @%s\n",
                   F->name().c_str());
      std::exit(2);
    }
    Type T = F->arg(Index)->type();
    if (T.isF64())
      Args.push_back(RtValue::fromF64(std::strtod(Tok.c_str(), nullptr)));
    else
      Args.push_back(
          RtValue::fromI64(std::strtoll(Tok.c_str(), nullptr, 10)));
    ++Index;
  }
  return Args;
}

int main(int Argc, char **Argv) {
  bool EmitIr = false, Optimize = false, Protect = false, Verify = false;
  bool Lint = false, VerifyEach = false, RequireLocs = false;
  bool Interproc = false, Incremental = false;
  bool CallBoundaryChecks = false, LintCallBoundary = false;
  bool Profile = false, ProfileContext = false;
  std::string RunFn, ArgsCsv, RecordOut, PropOut, RecordIn, SummaryOut;
  std::string ProfileOut, SessionOut, SessionLabel;
  std::string BackendName = "interp";
  int64_t FaultStep = -1, FaultBit = 0, MaxSteps = -1;
  int64_t CampaignRuns = 0, CampaignSeed = 0xf417, CampaignThreads = 1;
  int64_t PropSample = 0, HeartbeatMs = 0;

  ArgParser P("ipas-cc: compile, transform, protect, and run MiniC");
  P.addBool("emit-ir", &EmitIr, "print the final IR");
  P.addBool("O", &Optimize, "run constant folding + DCE");
  P.addBool("protect", &Protect, "apply full instruction duplication");
  P.addBool("verify-only", &Verify, "verify the module and exit");
  P.addBool("lint", &Lint,
            "check protection invariants (ipas-lint) after the passes");
  P.addBool("verify-each", &VerifyEach,
            "verify the module between every pass and name the first "
            "failing pass");
  P.addString("run", &RunFn, "function to execute");
  P.addString("args", &ArgsCsv, "comma-separated arguments for --run");
  P.addInt("fault-step", &FaultStep,
           "inject a bit flip at this value-producing dynamic step");
  P.addInt("fault-bit", &FaultBit, "bit to flip (modulo result width)");
  P.addInt("max-steps", &MaxSteps, "step budget (hang guard)");
  P.addBool("require-locs", &RequireLocs,
            "verifier also requires a valid source location on every "
            "instruction");
  P.addInt("campaign", &CampaignRuns,
           "run a fault-injection campaign of N runs over --run");
  P.addInt("seed", &CampaignSeed, "campaign RNG seed");
  P.addInt("threads", &CampaignThreads, "campaign worker threads");
  P.addString("backend", &BackendName,
              "execution engine for --run/--campaign: interp (reference "
              "interpreter, default) or vm (threaded-code bytecode VM, "
              "observably equivalent)");
  P.addInt("heartbeat-ms", &HeartbeatMs,
           "emit a campaign.heartbeat trace record every N ms (live "
           "progress for ipas-top; 0 disables)");
  P.addString("record-out", &RecordOut,
              "write the campaign's .iprec provenance record store here");
  P.addInt("prop-sample", &PropSample,
           "trace fault propagation for every Nth campaign injection");
  P.addString("prop-out", &PropOut,
              "write the traced injections' .ipprop propagation store "
              "here (requires --prop-sample)");
  P.addBool("interproc", &Interproc,
            "use interprocedural (summary-aware) SOC propagation for "
            "campaign pruning and --prop-out claims");
  P.addBool("incremental", &Incremental,
            "draw per-function injection plans and reuse unchanged "
            "functions' outcomes from --record-in");
  P.addString("record-in", &RecordIn,
              "prior .iprec store to reuse under --incremental");
  P.addString("summary-out", &SummaryOut,
              "write the module's .ipsum function-summary store here");
  P.addBool("profile", &Profile,
            "profile one clean run of --run: per-instruction dynamic "
            "counts priced by the standard cycle model");
  P.addString("profile-out", &ProfileOut,
              "write the clean-run .ipprof cost profile here (implies "
              "--profile); with --protect, protection overhead is "
              "attributed per original site against a baseline build");
  P.addBool("profile-context", &ProfileContext,
            "profile per calling context (implies --profile)");
  P.addString("session-out", &SessionOut,
              "write the campaign's .ipses session manifest here (config, "
              "module hashes, outcome totals, artifact checksums — the "
              "unit ipas-db ingests)");
  P.addString("session-label", &SessionLabel,
              "free-form label recorded in the session manifest (e.g. a "
              "commit id)");
  P.addBool("call-boundary-checks", &CallBoundaryChecks,
            "with --protect, also check duplicated values right before "
            "every call they are passed to (closes lint rule R6)");
  P.addBool("lint-call-boundary", &LintCallBoundary,
            "with --lint, also enforce rule R6 (checked call boundaries)");
  obs::CliOptions Obs;
  obs::addCliFlags(P, Obs);
  if (!P.parse(Argc, Argv))
    return 2;
  if (P.positionals().size() != 1) {
    std::fprintf(stderr, "usage: ipas-cc <file.mc> [flags]\n%s",
                 P.usage().c_str());
    return 2;
  }
  if (!obs::applyCliFlags(Obs, "ipas-cc",
                          obs::AttrSet().add("input", P.positionals()[0])))
    return 2;
  if (BackendName != "interp" && BackendName != "vm") {
    std::fprintf(stderr,
                 "error: unknown backend '%s' (use interp or vm)\n",
                 BackendName.c_str());
    return 2;
  }
  const ExecBackend Backend =
      BackendName == "vm" ? ExecBackend::Vm : ExecBackend::Interp;
  if (!SessionOut.empty() && CampaignRuns <= 0) {
    std::fprintf(stderr,
                 "error: --session-out needs --campaign (a session "
                 "manifest records one campaign run)\n");
    return 2;
  }

  std::ifstream In(P.positionals()[0]);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n",
                 P.positionals()[0].c_str());
    return 1;
  }
  std::ostringstream SS;
  SS << In.rdbuf();

  std::unique_ptr<Module> M;
  {
    obs::PhaseSpan Span("cc.compile");
    Diagnostics Diags;
    M = compileMiniC(SS.str(), P.positionals()[0], Diags);
    if (!M) {
      std::fprintf(stderr, "%s\n", Diags.summary().c_str());
      return 1;
    }
  }
  // The pass pipeline. With --verify-each, verifyModule runs after every
  // pass so a verifier failure names the pass that introduced it instead
  // of surfacing at the end of the pipeline.
  bool PipelineBroken = false;
  auto RunPass = [&](const char *Name, auto &&Pass) {
    if (PipelineBroken)
      return;
    {
      obs::PhaseSpan Span("cc.pass", obs::AttrSet().add("pass", Name));
      Pass();
    }
    if (!VerifyEach)
      return;
    std::vector<std::string> Errs = verifyModule(*M);
    if (Errs.empty())
      return;
    std::fprintf(stderr, "verification failed after pass '%s':\n", Name);
    for (const std::string &E : Errs)
      std::fprintf(stderr, "verifier: %s\n", E.c_str());
    PipelineBroken = true;
  };

  RunPass("simplifycfg", [&] { removeUnreachableBlocks(*M); });
  RunPass("mem2reg", [&] { promoteAllocasToRegisters(*M); });
  if (Optimize) {
    RunPass("constfold", [&] { foldConstants(*M); });
    RunPass("dce", [&] { eliminateDeadCode(*M); });
  }
  if (Protect)
    RunPass("duplicate", [&] {
      DuplicationOptions DupOpts;
      DupOpts.CheckCallBoundary = CallBoundaryChecks;
      DuplicationStats Stats = duplicateInstructions(
          *M, [](const Instruction &) { return true; }, DupOpts);
      std::fprintf(stderr, "; protected: %zu duplicated, %zu checks\n",
                   Stats.DuplicatedInstructions, Stats.ChecksInserted);
    });
  if (PipelineBroken)
    return 1;
  M->renumber();

  VerifierOptions VerifyOpts;
  VerifyOpts.RequireDebugLocs = RequireLocs;
  std::vector<std::string> Errs = verifyModule(*M, VerifyOpts);
  for (const std::string &E : Errs)
    std::fprintf(stderr, "verifier: %s\n", E.c_str());
  if (!Errs.empty())
    return 1;
  if (Verify) {
    std::printf("ok: %zu instructions across %zu functions\n",
                M->numInstructions(), M->numFunctions());
    return 0;
  }

  if (Lint) {
    LintOptions LintOpts;
    LintOpts.ExpectFullDuplication = Protect;
    LintOpts.CheckCallBoundary = LintCallBoundary;
    std::vector<LintViolation> Violations =
        lintProtectedModule(*M, LintOpts);
    for (const LintViolation &V : Violations)
      std::fprintf(stderr, "lint: %s\n", V.toString().c_str());
    if (!Violations.empty())
      return 6;
    std::printf("lint: no violations\n");
  }

  if (EmitIr)
    std::fputs(printModule(*M).c_str(), stdout);

  // Interprocedural analysis artifacts, shared by campaign pruning,
  // --prop-out's static claims, and --summary-out.
  std::unique_ptr<CallGraph> CG;
  std::unique_ptr<ModuleSummaries> Summaries;
  std::unique_ptr<SocPropagation> InterSoc;
  if (Interproc || !SummaryOut.empty()) {
    obs::PhaseSpan Span("cc.summaries");
    CG = std::make_unique<CallGraph>(*M);
    Summaries = std::make_unique<ModuleSummaries>(*M, *CG);
  }
  if (Interproc) {
    InterSoc = std::make_unique<SocPropagation>(*M, *Summaries);
    SocPropagation Intra(*M);
    size_t InterBenign = 0, IntraBenign = 0;
    for (bool B : InterSoc->provablyBenign())
      InterBenign += B;
    for (bool B : Intra.provablyBenign())
      IntraBenign += B;
    std::printf("interproc: %zu of %zu sites provably benign "
                "(intraprocedural %zu)\n",
                InterBenign, M->numInstructions(), IntraBenign);
  }
  if (!SummaryOut.empty()) {
    obs::SummaryStore Sum;
    Sum.ModuleName = M->name();
    Sum.EntryFunction = RunFn;
    for (const Function *F : *M) {
      obs::SummaryFunc SF;
      SF.Name = F->name();
      SF.ContentHash = Summaries->contentHash(F);
      SF.ReachableHash = Summaries->reachableHash(F);
      for (const Function *C : CG->callees(F))
        SF.Callees.push_back(C->name());
      for (const ArgChannel &Ch : Summaries->summary(F).Args) {
        obs::SummaryArg A;
        A.SinkMask = Ch.SinkMask;
        A.FlowsToReturn = Ch.FlowsToReturn ? 1 : 0;
        A.MinSinkDistance = Ch.MinSinkDistance;
        SF.Args.push_back(A);
      }
      Sum.Functions.push_back(std::move(SF));
    }
    std::string Err;
    if (!obs::writeSummaryStore(Sum, SummaryOut, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("summary store: %s (%zu functions)\n", SummaryOut.c_str(),
                Sum.Functions.size());
  }

  if (RunFn.empty()) {
    if (Profile || !ProfileOut.empty() || ProfileContext) {
      std::fprintf(stderr,
                   "error: --profile needs --run (profiling is a clean "
                   "run of one function)\n");
      return 2;
    }
    return 0;
  }
  const Function *F = M->getFunction(RunFn);
  if (!F) {
    std::fprintf(stderr, "error: no function '%s'\n", RunFn.c_str());
    return 1;
  }
  std::vector<RtValue> Args = parseArgs(F, ArgsCsv);
  if (Args.size() != F->numArgs()) {
    std::fprintf(stderr, "error: @%s takes %u argument(s), got %zu\n",
                 F->name().c_str(), F->numArgs(), Args.size());
    return 2;
  }

  ModuleLayout Layout(*M);

  // Cost profiling: one serial clean run with the profiler armed. Runs
  // before any campaign so an incremental campaign can reuse the
  // profiled run's per-function hashes instead of re-deriving them.
  bool DoProfile = Profile || !ProfileOut.empty() || ProfileContext;
  std::vector<uint64_t> ProfHashes;
  // Hoisted out of the profiling block: the session manifest folds the
  // profile's per-function overhead cycles into its function table.
  obs::ProfileStore PS;
  if (DoProfile) {
    obs::PhaseSpan Span(
        "cc.profile",
        obs::AttrSet()
            .add("function", RunFn)
            .add("mode", ProfileContext ? "context" : "counting")
            .add("backend", BackendName));
    FunctionHarness ProfHarness(RunFn, Args);
    // Counting-mode profiling runs natively on the VM when requested —
    // same counts, same hashes, VM speed (context mode falls back and
    // says so via vm.fallback.profile_context).
    ProfHarness.setPreferredBackend(Backend);
    CostProfiler Prof(Layout, ProfileContext
                                  ? CostProfiler::Mode::Context
                                  : CostProfiler::Mode::Counting);
    Prof.enableFunctionHashes();
    ProfileBuildInputs PIn;
    PIn.EntryFunction = RunFn;
    PIn.Label = "cc.profile";
    PIn.SourceText = SS.str();
    std::string Err;
    if (!buildProfileStore(ProfHarness, Layout, Prof, PIn, PS, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    ProfHashes = Prof.functionHashes();
    std::printf("profile: %llu steps, %llu model cycles (%s mode)\n",
                static_cast<unsigned long long>(PS.CleanSteps),
                static_cast<unsigned long long>(PS.TotalCycles),
                ProfileContext ? "context" : "counting");
    if (Backend == ExecBackend::Vm) {
      // Profile-only campaigns on the VM must not silently degrade:
      // report (and let tests assert) the interpreter-fallback total.
      std::printf("profile backend: vm (%llu interpreter fallbacks)\n",
                  static_cast<unsigned long long>(vmFallbackTotal()));
    }

    if (Protect) {
      // Baseline build: the same source through the identical pass
      // pipeline minus `duplicate`, profiled on the same arguments — the
      // reference every added cycle is attributed against.
      Diagnostics BaseDiags;
      std::unique_ptr<Module> BaseM =
          compileMiniC(SS.str(), P.positionals()[0], BaseDiags);
      if (!BaseM) {
        std::fprintf(stderr, "error: baseline recompile failed: %s\n",
                     BaseDiags.summary().c_str());
        return 1;
      }
      removeUnreachableBlocks(*BaseM);
      promoteAllocasToRegisters(*BaseM);
      if (Optimize) {
        foldConstants(*BaseM);
        eliminateDeadCode(*BaseM);
      }
      BaseM->renumber();
      ModuleLayout BaseLayout(*BaseM);
      FunctionHarness BaseHarness(RunFn, Args);
      BaseHarness.setPreferredBackend(Backend);
      CostProfiler BaseProf(BaseLayout, CostProfiler::Mode::Counting,
                            Prof.model());
      ExecutionRecord BR = BaseHarness.run(BaseLayout, nullptr, UINT64_MAX,
                                           {.Prof = &BaseProf});
      if (BR.Status == RunStatus::Finished && BR.OutputValid) {
        if (!attributeOverhead(*BaseM, BaseProf.flatCounts(), *M,
                               Prof.flatCounts(), Prof.model(), PS, &Err)) {
          std::fprintf(stderr,
                       "warning: overhead attribution failed: %s\n",
                       Err.c_str());
        } else {
          double Pct =
              PS.BaselineTotalCycles
                  ? 100.0 *
                        (static_cast<double>(PS.TotalCycles) -
                         static_cast<double>(PS.BaselineTotalCycles)) /
                        static_cast<double>(PS.BaselineTotalCycles)
                  : 0.0;
          std::printf("profile overhead: %llu cycles vs baseline %llu "
                      "(+%.1f%%)\n",
                      static_cast<unsigned long long>(PS.TotalCycles),
                      static_cast<unsigned long long>(
                          PS.BaselineTotalCycles),
                      Pct);
        }
      } else {
        std::fprintf(stderr, "warning: baseline clean run failed; "
                             "overhead attribution skipped\n");
      }
    }

    if (!ProfileOut.empty()) {
      if (!writeProfileArtifact(PS, ProfileOut, &Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
      std::printf("profile store: %s (%zu instructions, %zu contexts)\n",
                  ProfileOut.c_str(), PS.Instructions.size(),
                  PS.Contexts.size());
    }
  }

  if (CampaignRuns > 0) {
    FunctionHarness Harness(RunFn, Args);
    CampaignConfig CC;
    CC.NumRuns = static_cast<size_t>(CampaignRuns);
    CC.Seed = static_cast<uint64_t>(CampaignSeed);
    CC.NumThreads =
        CampaignThreads > 0 ? static_cast<unsigned>(CampaignThreads) : 1;
    CC.Label = "cc.campaign";
    CC.Backend = Backend;
    if (HeartbeatMs > 0)
      CC.HeartbeatMs = static_cast<size_t>(HeartbeatMs);
    if (PropSample > 0)
      CC.PropSampleEvery = static_cast<size_t>(PropSample);
    if (Interproc)
      CC.ProvablyBenign = &InterSoc->provablyBenign();

    CampaignResult R;
    std::vector<obs::FunctionMeta> FnMetas;
    obs::RecordStore PriorStore; // must outlive the incremental campaign
    if (Incremental) {
      IncrementalConfig IC;
      IC.Base = CC;
      if (!ProfHashes.empty())
        IC.ProfileHashes = &ProfHashes; // reuse the profiled clean run
      if (!RecordIn.empty()) {
        std::string Err;
        if (!obs::readRecordStore(PriorStore, RecordIn, &Err)) {
          std::fprintf(stderr, "error: %s\n", Err.c_str());
          return 1;
        }
        IC.Prior = &PriorStore;
      }
      IncrementalResult IR = runIncrementalCampaign(Harness, Layout, *M, IC);
      R = std::move(IR.Campaign);
      FnMetas = std::move(IR.FunctionMetas);
      std::printf("incremental: %zu reused, %zu executed, %zu pruned of "
                  "%zu runs\n",
                  R.ReusedRuns, R.executedRuns(), R.PrunedRuns,
                  R.Records.size());
      for (const obs::FunctionMeta &FM : FnMetas)
        std::printf("  @%s: %s (%llu reused of %llu planned)\n",
                    M->function(FM.FunctionIndex)->name().c_str(),
                    invalidationReasonName(
                        static_cast<InvalidationReason>(FM.Invalidation)),
                    static_cast<unsigned long long>(FM.ReusedRuns),
                    static_cast<unsigned long long>(FM.PlannedRuns));
    } else {
      R = runCampaign(Harness, Layout, CC);
    }
    std::printf("campaign: %zu runs on @%s\n", R.Records.size(),
                RunFn.c_str());
    for (size_t O = 0; O != NumOutcomes; ++O)
      std::printf("  %-8s %6zu\n", outcomeName(static_cast<Outcome>(O)),
                  R.Counts[O]);
    if (CC.ProvablyBenign)
      std::printf("pruned: %zu runs at %zu provably-benign sites\n",
                  R.PrunedRuns, R.PrunedSites);
    if (!PropOut.empty()) {
      if (R.PropRecords.empty())
        std::fprintf(stderr, "warning: --prop-out without traced "
                             "injections (pass --prop-sample N)\n");
      // Static claims for the cross-validation columns: the same
      // analysis whose benign verdicts drive campaign pruning —
      // interprocedural under --interproc, so ipas-prop --cross-validate
      // gates the sharper claims too.
      std::unique_ptr<SocPropagation> OwnSoc;
      if (!InterSoc)
        OwnSoc = std::make_unique<SocPropagation>(*M);
      const SocPropagation &Soc = InterSoc ? *InterSoc : *OwnSoc;
      std::vector<unsigned> SinkMasks(M->numInstructions(), 0);
      for (const Instruction *I : M->allInstructions())
        SinkMasks[I->id()] = Soc.info(I).SinkMask;
      PropBuildInputs PIn;
      PIn.M = M.get();
      PIn.Result = &R;
      PIn.EntryFunction = RunFn;
      PIn.Label = "cc.campaign";
      PIn.Seed = CC.Seed;
      PIn.SampleEvery = CC.PropSampleEvery;
      PIn.StaticBenign = &Soc.provablyBenign();
      PIn.StaticSinkMask = &SinkMasks;
      std::string Err;
      obs::PropagationStore PropStore = buildPropagationStore(PIn);
      if (!writePropagationRecord(PropStore, PropOut, &Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
      std::printf("propagation store: %s (%zu traces)\n", PropOut.c_str(),
                  PropStore.Records.size());
    }
    if (!RecordOut.empty()) {
      std::vector<unsigned> StepTrace = Harness.traceValueSteps(Layout);
      FeatureExtractor Extractor;
      std::vector<std::vector<double>> Rows = Extractor.extractModuleRows(*M);
      std::vector<double> Flat;
      Flat.reserve(Rows.size() * Extractor.numFeatures());
      for (const std::vector<double> &Row : Rows)
        Flat.insert(Flat.end(), Row.begin(), Row.end());
      RecordBuildInputs Inputs;
      Inputs.M = M.get();
      Inputs.Result = &R;
      Inputs.EntryFunction = RunFn;
      Inputs.Label = "cc.campaign";
      Inputs.Seed = CC.Seed;
      Inputs.SourceText = SS.str();
      Inputs.ValueStepTrace = &StepTrace;
      Inputs.NumFeatures = Extractor.numFeatures();
      Inputs.Features = &Flat;
      if (!FnMetas.empty())
        Inputs.FunctionMetas = &FnMetas;
      obs::RecordStore Store = buildRecordStore(Inputs);
      std::string Err;
      if (!writeCampaignRecord(Store, RecordOut, &Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
      std::printf("record store: %s (%zu rows)\n", RecordOut.c_str(),
                  Store.Rows.size());
    }
    if (!SessionOut.empty()) {
      SessionBuildInputs SIn;
      SIn.M = M.get();
      SIn.Result = &R;
      SIn.Tool = "ipas-cc";
      SIn.EntryFunction = RunFn;
      SIn.Label = "cc.campaign";
      SIn.SessionLabel = SessionLabel;
      SIn.Seed = CC.Seed;
      SIn.Threads = R.Threads;
      SIn.Backend = Backend;
      SIn.Pruning = CC.ProvablyBenign != nullptr;
      SIn.Incremental = Incremental;
      SIn.PropSampleEvery = CC.PropSampleEvery;
      if (DoProfile)
        SIn.Profile = &PS;
      obs::SessionStore Sess = buildSessionStore(SIn);
      std::string Err;
      auto AddArtifact = [&](uint8_t Kind, const std::string &Path) {
        if (Path.empty())
          return true;
        if (addSessionArtifact(Sess, Kind, Path, &Err))
          return true;
        std::fprintf(stderr, "error: session artifact: %s\n", Err.c_str());
        return false;
      };
      if (!AddArtifact(obs::SessionArtifactRecord, RecordOut) ||
          !AddArtifact(obs::SessionArtifactPropagation, PropOut) ||
          !AddArtifact(obs::SessionArtifactSummary, SummaryOut) ||
          !AddArtifact(obs::SessionArtifactProfile, ProfileOut) ||
          !AddArtifact(obs::SessionArtifactTrace, Obs.TracePath))
        return 1;
      if (!writeSessionManifest(Sess, SessionOut, &Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
      std::printf("session manifest: %s (%zu artifacts, %zu functions)\n",
                  SessionOut.c_str(), Sess.Artifacts.size(),
                  Sess.Functions.size());
    }
    return 0;
  }

  FaultPlan Plan;
  Plan.TargetValueStep = static_cast<uint64_t>(FaultStep);
  Plan.BitDraw = static_cast<uint64_t>(FaultBit);
  ProgramExecutor::Config RunCfg;
  RunCfg.Entry = RunFn;
  RunCfg.Args = std::move(Args);
  ProgramExecutor Exec(std::move(RunCfg));
  Exec.setBackend(Backend);
  ProgramExecutor::Run R;
  {
    obs::PhaseSpan Span("cc.run", obs::AttrSet()
                                      .add("function", RunFn)
                                      .add("backend", BackendName));
    R = Exec.run(Layout, FaultStep >= 0 ? &Plan : nullptr,
                 MaxSteps > 0 ? static_cast<uint64_t>(MaxSteps) : UINT64_MAX);
    Span.addAttr(obs::AttrSet()
                     .add("status", runStatusName(R.Rec.Status))
                     .add("steps", R.Rec.Steps));
  }
  if (R.Rec.FallbackReason)
    std::fprintf(stderr,
                 "warning: vm fallback (%s); ran on the interpreter\n",
                 R.Rec.FallbackReason);

  switch (R.Rec.Status) {
  case RunStatus::Finished: {
    if (F->returnType().isF64())
      std::printf("result: %.17g\n", R.ReturnValue.asF64());
    else if (!F->returnType().isVoid())
      std::printf("result: %lld\n",
                  static_cast<long long>(R.ReturnValue.asI64()));
    std::printf("executed %llu instructions%s\n",
                static_cast<unsigned long long>(R.Rec.Steps),
                R.Rec.FaultInjected ? " (fault injected)" : "");
    return 0;
  }
  case RunStatus::Detected:
    std::printf("fault detected by a soc.check after %llu instructions\n",
                static_cast<unsigned long long>(R.Rec.Steps));
    return 3;
  case RunStatus::Trapped:
    std::printf("trap: %s\n", trapKindName(R.Rec.Trap));
    return 4;
  case RunStatus::OutOfSteps:
    std::printf("step budget exceeded (possible hang)\n");
    return 5;
  default:
    return 1;
  }
}
