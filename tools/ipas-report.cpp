//===- tools/ipas-report.cpp - Render and validate JSONL traces -----------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Renders an IPAS telemetry trace (docs/OBSERVABILITY.md) as a terminal
/// report, or validates it structurally:
///
///   ipas-report trace.jsonl              # phase times, outcomes, opcodes
///   ipas-report trace.jsonl --check      # well-formedness + span nesting
///   ipas-report trace.jsonl --top 20     # more rows in the opcode table
///
/// The report shows the phase-time breakdown (top-level spans aggregated
/// by name with min/mean/max), the campaign outcome histogram, and the
/// hottest interpreter opcodes — everything derived from the trace file
/// alone, so it works on traces from any machine.
///
/// --check exits nonzero when any line fails to parse, the header is
/// missing or out of place, span intervals partially overlap on a thread
/// (spans must nest), a span's duration is inconsistent with its
/// endpoints, a campaign.prop span (a propagation trace) escapes its
/// campaign phase span, a profile.* span (a profiled clean run) escapes
/// its named parent phase, a campaign.record event (an .iprec store
/// written next to the trace) disagrees with the campaign.done event of
/// the same label on the outcome totals, a campaign.session event (an
/// .ipses session manifest written for the ipas-db ledger) disagrees
/// with the campaign.done totals of its label or its totals do not sum
/// to its run count, or the campaign.heartbeat
/// stream of a label is inconsistent: heartbeats must be strictly
/// increasing in seq, monotonic (non-decreasing) in done with done <=
/// runs, timestamped inside a campaign span (the monitor thread lives
/// strictly within the campaign phase), and only the last heartbeat may
/// carry final=true (with done == runs). The CTest suite runs it over a
/// fresh ipas-cc trace.
///
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "support/ArgParser.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

using namespace ipas;
using namespace ipas::obs;

namespace {

const char *const OutcomeNames[] = {"crash", "hang", "detected", "masked",
                                    "soc"};
constexpr size_t NumOutcomeNames = 5;

/// Outcome totals carried by a campaign.done or campaign.record event.
struct CampaignTotals {
  std::string Label;
  std::string Path; ///< campaign.record only.
  uint64_t Rows = 0;
  uint64_t Totals[NumOutcomeNames] = {};

  bool sameTotals(const CampaignTotals &O) const {
    for (size_t K = 0; K != NumOutcomeNames; ++K)
      if (Totals[K] != O.Totals[K])
        return false;
    return true;
  }
};

/// One campaign.heartbeat event from the live campaign monitor.
struct HeartbeatEv {
  std::string Label;
  uint64_t Seq = 0;
  uint64_t Done = 0;
  uint64_t Runs = 0;
  uint64_t TsUs = 0;
  bool Final = false;
  /// pruned + vm_runs + interp_runs, and reused when the heartbeat
  /// carries it (older traces do not).
  uint64_t Accounted = 0;
  bool HasReused = false;
};

/// One .ipses session manifest announced by a campaign.session event.
struct SessionEv {
  std::string Label;
  std::string Path;
  uint64_t Runs = 0;
  uint64_t Artifacts = 0;
  uint64_t Totals[NumOutcomeNames] = {};
};

/// One .ipprof store announced by a profile.store event.
struct ProfileStoreEv {
  std::string Label;
  std::string Path;
  std::string Mode;
  uint64_t Instructions = 0;
  uint64_t Steps = 0;
  uint64_t Cycles = 0;
};

struct SpanRec {
  std::string Name;
  std::string Parent;
  int Tid = 0;
  unsigned Depth = 0;
  uint64_t StartUs = 0;
  uint64_t EndUs = 0;
  uint64_t DurUs = 0;
};

struct TraceData {
  bool HaveHeader = false;
  JsonValue Header;
  std::vector<SpanRec> Spans;
  std::map<std::string, uint64_t> EventCounts;
  std::vector<CampaignTotals> CampaignDones;
  std::vector<CampaignTotals> RecordStores; ///< campaign.record events.
  std::vector<ProfileStoreEv> ProfileStores; ///< profile.store events.
  std::vector<SessionEv> Sessions; ///< campaign.session events.
  std::vector<HeartbeatEv> Heartbeats; ///< campaign.heartbeat events, in order.
  /// Flattened counters from the final `metrics` record.
  std::map<std::string, uint64_t> Counters;
  size_t Records = 0;
  uint64_t FirstTs = UINT64_MAX;
  uint64_t LastTs = 0;
};

struct Checker {
  int Violations = 0;

  void fail(size_t Line, const char *Fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
      __attribute__((format(printf, 3, 4)))
#endif
      ;
};

void Checker::fail(size_t Line, const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  std::fprintf(stderr, "ipas-report: line %zu: %s\n", Line, Buf);
  ++Violations;
}

uint64_t tsOf(const JsonValue &R) {
  const JsonValue *Ts = R.get("ts_us");
  return Ts ? Ts->asU64() : 0;
}

bool loadTrace(const std::string &Path, TraceData &T, Checker &C) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "ipas-report: cannot open '%s'\n", Path.c_str());
    return false;
  }
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    std::optional<JsonValue> Parsed = parseJson(Line);
    if (!Parsed) {
      C.fail(LineNo, "malformed JSON");
      continue;
    }
    if (!Parsed->isObject()) {
      C.fail(LineNo, "record is not a JSON object");
      continue;
    }
    ++T.Records;
    const JsonValue *Type = Parsed->get("type");
    if (!Type || !Type->isString()) {
      C.fail(LineNo, "record has no string 'type'");
      continue;
    }
    const std::string &Kind = Type->asString();

    if (Kind == "header") {
      if (T.HaveHeader)
        C.fail(LineNo, "duplicate header record");
      else if (T.Records != 1)
        C.fail(LineNo, "header is not the first record");
      T.HaveHeader = true;
      T.Header = *Parsed;
    } else if (Kind == "span") {
      SpanRec S;
      if (const JsonValue *V = Parsed->get("name"))
        S.Name = V->asString();
      if (const JsonValue *V = Parsed->get("parent"))
        S.Parent = V->asString();
      if (const JsonValue *V = Parsed->get("tid"))
        S.Tid = static_cast<int>(V->asI64());
      if (const JsonValue *V = Parsed->get("depth"))
        S.Depth = static_cast<unsigned>(V->asU64());
      if (const JsonValue *V = Parsed->get("start_us"))
        S.StartUs = V->asU64();
      if (const JsonValue *V = Parsed->get("end_us"))
        S.EndUs = V->asU64();
      if (const JsonValue *V = Parsed->get("dur_us"))
        S.DurUs = V->asU64();
      if (S.Name.empty())
        C.fail(LineNo, "span without a name");
      if (S.EndUs < S.StartUs)
        C.fail(LineNo, "span '%s' ends before it starts", S.Name.c_str());
      else if (S.DurUs != S.EndUs - S.StartUs)
        C.fail(LineNo, "span '%s' duration %" PRIu64
                       " != end-start %" PRIu64,
               S.Name.c_str(), S.DurUs, S.EndUs - S.StartUs);
      T.FirstTs = std::min(T.FirstTs, S.StartUs);
      T.LastTs = std::max(T.LastTs, S.EndUs);
      T.Spans.push_back(std::move(S));
      continue; // span timestamps handled above
    } else if (Kind == "event") {
      const JsonValue *Name = Parsed->get("name");
      if (!Name || !Name->isString()) {
        C.fail(LineNo, "event without a name");
      } else {
        ++T.EventCounts[Name->asString()];
        const std::string &EventName = Name->asString();
        if (EventName == "campaign.done" || EventName == "campaign.record") {
          CampaignTotals CT;
          if (const JsonValue *Attrs = Parsed->get("attrs")) {
            if (const JsonValue *V = Attrs->get("label"))
              CT.Label = V->asString();
            if (const JsonValue *V = Attrs->get("path"))
              CT.Path = V->asString();
            if (const JsonValue *V = Attrs->get("rows"))
              CT.Rows = V->asU64();
            for (size_t K = 0; K != NumOutcomeNames; ++K)
              if (const JsonValue *V = Attrs->get(OutcomeNames[K]))
                CT.Totals[K] = V->asU64();
          }
          (EventName == "campaign.record" ? T.RecordStores
                                          : T.CampaignDones)
              .push_back(std::move(CT));
        } else if (EventName == "campaign.session") {
          SessionEv SE;
          if (const JsonValue *Attrs = Parsed->get("attrs")) {
            if (const JsonValue *V = Attrs->get("label"))
              SE.Label = V->asString();
            if (const JsonValue *V = Attrs->get("path"))
              SE.Path = V->asString();
            if (const JsonValue *V = Attrs->get("runs"))
              SE.Runs = V->asU64();
            if (const JsonValue *V = Attrs->get("artifacts"))
              SE.Artifacts = V->asU64();
            for (size_t K = 0; K != NumOutcomeNames; ++K)
              if (const JsonValue *V = Attrs->get(OutcomeNames[K]))
                SE.Totals[K] = V->asU64();
          }
          T.Sessions.push_back(std::move(SE));
        } else if (EventName == "profile.store") {
          ProfileStoreEv PS;
          if (const JsonValue *Attrs = Parsed->get("attrs")) {
            if (const JsonValue *V = Attrs->get("label"))
              PS.Label = V->asString();
            if (const JsonValue *V = Attrs->get("path"))
              PS.Path = V->asString();
            if (const JsonValue *V = Attrs->get("mode"))
              PS.Mode = V->asString();
            if (const JsonValue *V = Attrs->get("instructions"))
              PS.Instructions = V->asU64();
            if (const JsonValue *V = Attrs->get("steps"))
              PS.Steps = V->asU64();
            if (const JsonValue *V = Attrs->get("cycles"))
              PS.Cycles = V->asU64();
          }
          T.ProfileStores.push_back(std::move(PS));
        } else if (EventName == "campaign.heartbeat") {
          HeartbeatEv HB;
          HB.TsUs = tsOf(*Parsed);
          if (const JsonValue *Attrs = Parsed->get("attrs")) {
            if (const JsonValue *V = Attrs->get("label"))
              HB.Label = V->asString();
            if (const JsonValue *V = Attrs->get("seq"))
              HB.Seq = V->asU64();
            if (const JsonValue *V = Attrs->get("done"))
              HB.Done = V->asU64();
            if (const JsonValue *V = Attrs->get("runs"))
              HB.Runs = V->asU64();
            if (const JsonValue *V = Attrs->get("final"))
              HB.Final = V->K == JsonValue::Kind::Bool && V->B;
            for (const char *Key : {"pruned", "vm_runs", "interp_runs"})
              if (const JsonValue *V = Attrs->get(Key))
                HB.Accounted += V->asU64();
            if (const JsonValue *V = Attrs->get("reused")) {
              HB.Accounted += V->asU64();
              HB.HasReused = true;
            }
          }
          T.Heartbeats.push_back(std::move(HB));
        }
      }
    } else if (Kind == "log") {
      if (!Parsed->get("msg"))
        C.fail(LineNo, "log record without 'msg'");
    } else if (Kind == "metrics") {
      const JsonValue *M = Parsed->get("metrics");
      const JsonValue *Counters = M ? M->get("counters") : nullptr;
      if (!Counters)
        C.fail(LineNo, "metrics record without counters");
      else
        for (const auto &[Name, V] : Counters->Members)
          T.Counters[Name] = V.asU64();
    } else {
      C.fail(LineNo, "unknown record type '%s'", Kind.c_str());
    }
    uint64_t Ts = tsOf(*Parsed);
    if (Ts) {
      T.FirstTs = std::min(T.FirstTs, Ts);
      T.LastTs = std::max(T.LastTs, Ts);
    }
  }
  if (!T.HaveHeader)
    C.fail(0, "trace has no header record");
  return true;
}

/// Spans on one thread must form a laminar family: any two intervals are
/// either disjoint or one contains the other. Sort by (start asc, end
/// desc) and sweep with a stack of enclosing intervals.
void checkNesting(const TraceData &T, Checker &C) {
  std::map<int, std::vector<const SpanRec *>> ByTid;
  for (const SpanRec &S : T.Spans)
    ByTid[S.Tid].push_back(&S);
  for (auto &[Tid, Spans] : ByTid) {
    std::stable_sort(Spans.begin(), Spans.end(),
                     [](const SpanRec *A, const SpanRec *B) {
                       if (A->StartUs != B->StartUs)
                         return A->StartUs < B->StartUs;
                       return A->EndUs > B->EndUs;
                     });
    std::vector<const SpanRec *> Open;
    for (const SpanRec *S : Spans) {
      while (!Open.empty() && Open.back()->EndUs <= S->StartUs)
        Open.pop_back();
      if (!Open.empty() && S->EndUs > Open.back()->EndUs)
        C.fail(0,
               "tid %d: span '%s' [%" PRIu64 ", %" PRIu64
               "] partially overlaps '%s' [%" PRIu64 ", %" PRIu64 "]",
               Tid, S->Name.c_str(), S->StartUs, S->EndUs,
               Open.back()->Name.c_str(), Open.back()->StartUs,
               Open.back()->EndUs);
      Open.push_back(S);
    }
  }
}

/// Per-injection propagation traces run as a serial post-pass inside the
/// campaign phase, so every `campaign.prop` span must name "campaign" as
/// its parent and be fully contained in a campaign span on its thread.
/// A prop span outside the campaign would mean the tracer ran against a
/// harness the campaign was not measuring — silent corruption of the
/// phase accounting itself.
void checkPropSpans(const TraceData &T, Checker &C) {
  for (const SpanRec &S : T.Spans) {
    if (S.Name != "campaign.prop")
      continue;
    if (S.Parent != "campaign")
      C.fail(0,
             "campaign.prop span [%" PRIu64 ", %" PRIu64
             "] has parent '%s', expected 'campaign'",
             S.StartUs, S.EndUs, S.Parent.c_str());
    bool Contained = false;
    for (const SpanRec &Outer : T.Spans)
      if (Outer.Name == "campaign" && Outer.Tid == S.Tid &&
          Outer.StartUs <= S.StartUs && S.EndUs <= Outer.EndUs) {
        Contained = true;
        break;
      }
    if (!Contained)
      C.fail(0,
             "tid %d: campaign.prop span [%" PRIu64 ", %" PRIu64
             "] is not contained in any campaign span",
             S.Tid, S.StartUs, S.EndUs);
  }
}

/// Cost-profiled clean runs are serial sub-phases of a named parent
/// phase (cc.profile in the driver, pipeline.variant in the pipeline),
/// so every `profile.*` span must carry a non-empty parent and be fully
/// contained in a span of that name on its thread. A profile span
/// floating outside its parent would mean the profiler measured a run
/// the phase accounting did not — the cost attribution would then be
/// charged against the wrong phase.
void checkProfileSpans(const TraceData &T, Checker &C) {
  for (const SpanRec &S : T.Spans) {
    if (S.Name.rfind("profile.", 0) != 0)
      continue;
    if (S.Parent.empty()) {
      C.fail(0,
             "profile span '%s' [%" PRIu64 ", %" PRIu64
             "] has no parent phase",
             S.Name.c_str(), S.StartUs, S.EndUs);
      continue;
    }
    bool Contained = false;
    for (const SpanRec &Outer : T.Spans)
      if (Outer.Name == S.Parent && Outer.Tid == S.Tid &&
          Outer.StartUs <= S.StartUs && S.EndUs <= Outer.EndUs) {
        Contained = true;
        break;
      }
    if (!Contained)
      C.fail(0,
             "tid %d: profile span '%s' [%" PRIu64 ", %" PRIu64
             "] is not contained in any '%s' span",
             S.Tid, S.Name.c_str(), S.StartUs, S.EndUs, S.Parent.c_str());
  }
}

/// Every campaign.record event (a written .iprec store) must agree with
/// a campaign.done event of the same label on all five outcome totals:
/// the store is derived from the same CampaignResult, so any drift means
/// the record writer and the campaign driver disagree about what
/// happened — exactly the silent corruption this tool exists to catch.
void checkRecords(const TraceData &T, Checker &C) {
  for (const CampaignTotals &R : T.RecordStores) {
    bool LabelSeen = false, Matched = false;
    for (const CampaignTotals &D : T.CampaignDones) {
      if (D.Label != R.Label)
        continue;
      LabelSeen = true;
      Matched |= R.sameTotals(D);
    }
    if (!LabelSeen)
      C.fail(0,
             "record store '%s' (label '%s') has no matching "
             "campaign.done event",
             R.Path.c_str(), R.Label.c_str());
    else if (!Matched)
      C.fail(0,
             "record store '%s' (label '%s') outcome totals do not match "
             "any campaign.done event with that label",
             R.Path.c_str(), R.Label.c_str());
  }
}

/// A campaign.session event announces a written .ipses session manifest
/// (fault/SessionBuild.h). The manifest folds the campaign's outcome
/// totals into the longitudinal ledger, so it must agree with the
/// campaign.done event of the same label on all five totals and on the
/// run count — drift here means ipas-db would trend numbers the
/// campaign never produced.
void checkSessions(const TraceData &T, Checker &C) {
  for (const SessionEv &S : T.Sessions) {
    bool LabelSeen = false, Matched = false;
    for (const CampaignTotals &D : T.CampaignDones) {
      if (D.Label != S.Label)
        continue;
      LabelSeen = true;
      bool Same = true;
      for (size_t K = 0; K != NumOutcomeNames; ++K)
        Same &= S.Totals[K] == D.Totals[K];
      Matched |= Same;
    }
    if (!LabelSeen)
      C.fail(0,
             "session manifest '%s' (label '%s') has no matching "
             "campaign.done event",
             S.Path.c_str(), S.Label.c_str());
    else if (!Matched)
      C.fail(0,
             "session manifest '%s' (label '%s') outcome totals do not "
             "match any campaign.done event with that label",
             S.Path.c_str(), S.Label.c_str());
    uint64_t Total = 0;
    for (size_t K = 0; K != NumOutcomeNames; ++K)
      Total += S.Totals[K];
    if (Total != S.Runs)
      C.fail(0,
             "session manifest '%s' (label '%s') outcome totals sum to "
             "%" PRIu64 " but claim %" PRIu64 " runs",
             S.Path.c_str(), S.Label.c_str(), Total, S.Runs);
  }
}

/// Heartbeats are the live progress protocol (docs/OBSERVABILITY.md):
/// consumers like ipas-top trust them to reconstruct a campaign's state
/// without the record stream. Per label, the stream must be strictly
/// increasing in seq (no drops or reorders survive a file tail),
/// monotonic in done with done <= runs (progress never runs backwards),
/// and only the last heartbeat may be final (with done == runs, and,
/// when it carries `reused`, pruned + reused + vm_runs + interp_runs ==
/// done: every row is accounted for exactly once). Every
/// heartbeat must also be timestamped inside a campaign span — the
/// monitor thread starts after the span opens and its final beat is
/// emitted before the span closes, so an escaping heartbeat means the
/// monitor outlived the campaign it was reporting on.
void checkHeartbeats(const TraceData &T, Checker &C) {
  std::map<std::string, const HeartbeatEv *> PrevByLabel;
  for (const HeartbeatEv &HB : T.Heartbeats) {
    if (const HeartbeatEv *Prev = PrevByLabel[HB.Label]) {
      if (HB.Seq <= Prev->Seq)
        C.fail(0,
               "heartbeat (label '%s') seq %" PRIu64
               " does not increase over previous seq %" PRIu64,
               HB.Label.c_str(), HB.Seq, Prev->Seq);
      if (HB.Done < Prev->Done)
        C.fail(0,
               "heartbeat (label '%s') done %" PRIu64
               " regressed from %" PRIu64,
               HB.Label.c_str(), HB.Done, Prev->Done);
      if (Prev->Final)
        C.fail(0,
               "heartbeat (label '%s') seq %" PRIu64
               " follows a final heartbeat",
               HB.Label.c_str(), HB.Seq);
    }
    if (HB.Done > HB.Runs)
      C.fail(0,
             "heartbeat (label '%s') done %" PRIu64 " exceeds runs %" PRIu64,
             HB.Label.c_str(), HB.Done, HB.Runs);
    if (HB.Final && HB.Done != HB.Runs)
      C.fail(0,
             "final heartbeat (label '%s') done %" PRIu64
             " != runs %" PRIu64,
             HB.Label.c_str(), HB.Done, HB.Runs);
    if (HB.Final && HB.HasReused && HB.Accounted != HB.Done)
      C.fail(0,
             "final heartbeat (label '%s') pruned + reused + vm_runs + "
             "interp_runs = %" PRIu64 " != done %" PRIu64,
             HB.Label.c_str(), HB.Accounted, HB.Done);
    bool Contained = false;
    for (const SpanRec &S : T.Spans)
      if (S.Name == "campaign" && S.StartUs <= HB.TsUs &&
          HB.TsUs <= S.EndUs) {
        Contained = true;
        break;
      }
    if (!Contained)
      C.fail(0,
             "heartbeat (label '%s', ts %" PRIu64
             "us) is not contained in any campaign span",
             HB.Label.c_str(), HB.TsUs);
    PrevByLabel[HB.Label] = &HB;
  }
}

std::string formatUs(uint64_t Us) {
  char Buf[32];
  if (Us >= 1000000)
    std::snprintf(Buf, sizeof(Buf), "%.2fs", static_cast<double>(Us) / 1e6);
  else if (Us >= 1000)
    std::snprintf(Buf, sizeof(Buf), "%.2fms",
                  static_cast<double>(Us) / 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%" PRIu64 "us", Us);
  return Buf;
}

void printReport(const TraceData &T, int64_t TopN) {
  if (T.HaveHeader) {
    std::printf("trace header:\n");
    if (const JsonValue *Attrs = T.Header.get("attrs"))
      for (const auto &[K, V] : Attrs->Members) {
        std::string Rendered;
        if (V.isString())
          Rendered = V.asString();
        else if (V.K == JsonValue::Kind::Bool)
          Rendered = V.B ? "true" : "false";
        else if (V.IsInt)
          Rendered = std::to_string(V.UInt);
        else if (V.isNumber())
          Rendered = std::to_string(V.Num);
        else
          Rendered = "<value>";
        std::printf("  %-18s %s\n", K.c_str(), Rendered.c_str());
      }
    std::printf("\n");
  }

  uint64_t Wall = T.LastTs > T.FirstTs ? T.LastTs - T.FirstTs : 0;

  // Phase breakdown: aggregate spans by name. Percentages are of wall
  // time and only meaningful for non-overlapping phases, so the table is
  // sorted by total time with nested spans indented by minimum depth.
  struct Agg {
    uint64_t Total = 0, Min = UINT64_MAX, Max = 0;
    size_t Count = 0;
    unsigned MinDepth = UINT32_MAX;
  };
  std::map<std::string, Agg> Phases;
  for (const SpanRec &S : T.Spans) {
    Agg &A = Phases[S.Name];
    A.Total += S.DurUs;
    A.Min = std::min(A.Min, S.DurUs);
    A.Max = std::max(A.Max, S.DurUs);
    A.MinDepth = std::min(A.MinDepth, S.Depth);
    ++A.Count;
  }
  if (!Phases.empty()) {
    std::vector<std::pair<std::string, Agg>> Rows(Phases.begin(),
                                                  Phases.end());
    std::stable_sort(Rows.begin(), Rows.end(),
                     [](const auto &A, const auto &B) {
                       if (A.second.MinDepth != B.second.MinDepth)
                         return A.second.MinDepth < B.second.MinDepth;
                       return A.second.Total > B.second.Total;
                     });
    std::printf("phase breakdown (wall %s):\n", formatUs(Wall).c_str());
    std::printf("  %-28s %6s %10s %10s %10s %7s\n", "phase", "count",
                "total", "mean", "max", "% wall");
    for (const auto &[Name, A] : Rows) {
      std::string Indented(2 * (A.MinDepth > 0 ? A.MinDepth - 1 : 0), ' ');
      Indented += Name;
      std::printf("  %-28s %6zu %10s %10s %10s %6.1f%%\n",
                  Indented.c_str(), A.Count, formatUs(A.Total).c_str(),
                  formatUs(A.Total / A.Count).c_str(),
                  formatUs(A.Max).c_str(),
                  Wall ? 100.0 * static_cast<double>(A.Total) /
                             static_cast<double>(Wall)
                       : 0.0);
    }
    std::printf("\n");
  }

  // Outcome histogram from the final metrics snapshot.
  const auto &Outcomes = OutcomeNames;
  uint64_t OutcomeTotal = 0;
  for (const char *O : Outcomes) {
    auto It = T.Counters.find(std::string("fault.outcome.") + O);
    if (It != T.Counters.end())
      OutcomeTotal += It->second;
  }
  if (OutcomeTotal) {
    std::printf("campaign outcomes (%" PRIu64 " runs):\n", OutcomeTotal);
    for (const char *O : Outcomes) {
      auto It = T.Counters.find(std::string("fault.outcome.") + O);
      uint64_t N = It != T.Counters.end() ? It->second : 0;
      int Bar = static_cast<int>(
          50.0 * static_cast<double>(N) / static_cast<double>(OutcomeTotal));
      std::printf("  %-10s %8" PRIu64 " %6.2f%% %s\n", O, N,
                  100.0 * static_cast<double>(N) /
                      static_cast<double>(OutcomeTotal),
                  std::string(static_cast<size_t>(Bar), '#').c_str());
    }
    std::printf("\n");
  }

  // Per-reason VM fallback totals from the final metrics snapshot. A
  // nonzero total under --backend vm means runs silently degraded to
  // the interpreter; the reason names say why (docs/OBSERVABILITY.md).
  std::vector<std::pair<std::string, uint64_t>> Fallbacks;
  uint64_t FallbackTotal = 0;
  for (const auto &[Name, V] : T.Counters)
    if (Name.rfind("vm.fallback.", 0) == 0) {
      Fallbacks.push_back({Name.substr(12), V});
      FallbackTotal += V;
    }
  if (!Fallbacks.empty()) {
    std::printf("vm fallbacks (%" PRIu64 " total):\n", FallbackTotal);
    for (const auto &[Reason, N] : Fallbacks)
      std::printf("  %-16s %8" PRIu64 "\n", Reason.c_str(), N);
    std::printf("\n");
  }

  if (!T.Heartbeats.empty()) {
    const HeartbeatEv &Last = T.Heartbeats.back();
    std::printf("heartbeats: %zu (last: %" PRIu64 "/%" PRIu64 " runs%s)\n\n",
                T.Heartbeats.size(), Last.Done, Last.Runs,
                Last.Final ? ", final" : "");
  }

  // Hottest opcodes from interp.op.* counters.
  std::vector<std::pair<uint64_t, std::string>> Ops;
  for (const auto &[Name, V] : T.Counters)
    if (Name.rfind("interp.op.", 0) == 0)
      Ops.push_back({V, Name.substr(10)});
  if (!Ops.empty()) {
    std::sort(Ops.rbegin(), Ops.rend());
    uint64_t Total = 0;
    for (const auto &[N, Op] : Ops)
      Total += N;
    std::printf("hottest opcodes (%" PRIu64 " executed):\n", Total);
    size_t Limit = TopN > 0 ? static_cast<size_t>(TopN) : Ops.size();
    for (size_t K = 0; K != std::min(Limit, Ops.size()); ++K)
      std::printf("  %-12s %14" PRIu64 " %6.2f%%\n", Ops[K].second.c_str(),
                  Ops[K].first,
                  100.0 * static_cast<double>(Ops[K].first) /
                      static_cast<double>(Total));
    std::printf("\n");
  }

  if (!T.RecordStores.empty()) {
    std::printf("record stores written:\n");
    for (const CampaignTotals &R : T.RecordStores) {
      std::printf("  %-16s %6" PRIu64 " rows  %s\n", R.Label.c_str(),
                  R.Rows, R.Path.c_str());
      std::printf("    ");
      for (size_t K = 0; K != NumOutcomeNames; ++K)
        std::printf("%s %" PRIu64 "%s", OutcomeNames[K], R.Totals[K],
                    K + 1 != NumOutcomeNames ? "  " : "\n");
    }
    std::printf("\n");
  }

  if (!T.Sessions.empty()) {
    std::printf("session manifests written:\n");
    for (const SessionEv &S : T.Sessions) {
      std::printf("  %-16s %6" PRIu64 " runs  %" PRIu64
                  " artifact(s)  %s\n",
                  S.Label.c_str(), S.Runs, S.Artifacts, S.Path.c_str());
      std::printf("    ");
      for (size_t K = 0; K != NumOutcomeNames; ++K)
        std::printf("%s %" PRIu64 "%s", OutcomeNames[K], S.Totals[K],
                    K + 1 != NumOutcomeNames ? "  " : "\n");
    }
    std::printf("\n");
  }

  if (!T.ProfileStores.empty()) {
    std::printf("profile stores written:\n");
    for (const ProfileStoreEv &P : T.ProfileStores) {
      std::printf("  %-16s %8s mode  %6" PRIu64 " instrs  %8" PRIu64
                  " steps  %10" PRIu64 " cycles\n",
                  P.Label.c_str(), P.Mode.c_str(), P.Instructions, P.Steps,
                  P.Cycles);
      std::printf("    %s\n", P.Path.c_str());
    }
    std::printf("\n");
  }

  if (!T.EventCounts.empty()) {
    std::printf("events:\n");
    for (const auto &[Name, N] : T.EventCounts)
      std::printf("  %-28s %8" PRIu64 "\n", Name.c_str(), N);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  bool Check = false;
  int64_t TopN = 10;
  ArgParser P("ipas-report: render or validate an IPAS JSONL trace");
  P.addBool("check", &Check,
            "validate structure (parse, header, span nesting); exit "
            "nonzero on any violation");
  P.addInt("top", &TopN, "rows in the hottest-opcode table (default 10)");
  if (!P.parse(Argc, Argv))
    return 2;
  if (P.positionals().size() != 1) {
    std::fprintf(stderr, "usage: ipas-report <trace.jsonl> [flags]\n%s",
                 P.usage().c_str());
    return 2;
  }

  TraceData T;
  Checker C;
  if (!loadTrace(P.positionals()[0], T, C))
    return 1;
  checkNesting(T, C);
  checkPropSpans(T, C);
  checkProfileSpans(T, C);
  checkRecords(T, C);
  checkSessions(T, C);
  checkHeartbeats(T, C);

  if (Check) {
    if (C.Violations) {
      std::fprintf(stderr, "ipas-report: %d violation(s)\n", C.Violations);
      return 1;
    }
    std::printf("ok: %zu records, %zu spans, %zu event kinds\n", T.Records,
                T.Spans.size(), T.EventCounts.size());
    return 0;
  }

  printReport(T, TopN);
  return C.Violations ? 1 : 0;
}
