//===- tools/ipas-bench-diff.cpp - Compare BENCH_*.json result files -----------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Compares the machine-readable BENCH_<name>.json files the benchmark
/// harnesses emit and fails loudly when a metric regresses:
///
///   ipas-bench-diff old/BENCH_paper.json new/BENCH_paper.json
///   ipas-bench-diff old.json new.json --threshold 10
///   ipas-bench-diff old.json new.json --higher-better coverage_pct
///
/// Metrics are lower-is-better by default (SOC rates, slowdowns, train
/// seconds); name the exceptions with --higher-better. A metric regresses
/// when it moves in the bad direction by more than --threshold percent.
/// wall_seconds is always informational only — wall time depends on the
/// machine, not the change under test.
///
/// A baseline metric that is absent from the candidate file is an error
/// (exit 3) unless listed in --ignore: a metric a benchmark stopped
/// emitting must never pass the gate silently. Metrics only in the
/// candidate are informational — a benchmark may grow new ones freely.
///
/// --json replaces the human table with one machine-readable JSON
/// document (rows of metric/base/candidate/delta_pct/status, plus the
/// gate verdict) for dashboards and `ipas-db ingest --bench`. The exit
/// codes are identical in both modes, and the human output without the
/// flag is byte-for-byte what it always was.
///
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "support/ArgParser.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

using namespace ipas;

namespace {

std::set<std::string> splitCsv(const std::string &Csv) {
  std::set<std::string> Out;
  std::istringstream SS(Csv);
  std::string Tok;
  while (std::getline(SS, Tok, ','))
    if (!Tok.empty())
      Out.insert(Tok);
  return Out;
}

bool loadMetrics(const std::string &Path, std::string &BenchName,
                 std::map<std::string, double> &Metrics) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  std::optional<obs::JsonValue> Doc = obs::parseJson(SS.str());
  if (!Doc || !Doc->isObject()) {
    std::fprintf(stderr, "error: '%s' is not a JSON object\n",
                 Path.c_str());
    return false;
  }
  if (const obs::JsonValue *Name = Doc->get("benchmark"))
    BenchName = Name->asString();
  const obs::JsonValue *M = Doc->get("metrics");
  if (!M || !M->isObject()) {
    std::fprintf(stderr, "error: '%s' has no \"metrics\" object\n",
                 Path.c_str());
    return false;
  }
  for (const auto &[Key, V] : M->Members)
    if (V.isNumber())
      Metrics[Key] = V.asNumber();
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  double Threshold = 5.0;
  bool Json = false;
  std::string HigherBetterCsv, IgnoreCsv;
  ArgParser P("ipas-bench-diff: compare two BENCH_*.json result files");
  P.addDouble("threshold", &Threshold,
              "percent a metric may move in the bad direction before this "
              "tool fails (default 5)");
  P.addString("higher-better", &HigherBetterCsv,
              "comma-separated metrics where larger is better");
  P.addString("ignore", &IgnoreCsv,
              "comma-separated metrics to report but never fail on");
  P.addBool("json", &Json,
            "emit one JSON document instead of the human table (same "
            "exit codes)");
  if (!P.parse(Argc, Argv))
    return 2;
  if (P.positionals().size() != 2) {
    std::fprintf(stderr,
                 "usage: ipas-bench-diff <old.json> <new.json> [flags]\n%s",
                 P.usage().c_str());
    return 2;
  }

  std::string OldName, NewName;
  std::map<std::string, double> OldM, NewM;
  if (!loadMetrics(P.positionals()[0], OldName, OldM) ||
      !loadMetrics(P.positionals()[1], NewName, NewM))
    return 1;
  if (!Json && !OldName.empty() && !NewName.empty() && OldName != NewName)
    std::printf("note: comparing different benchmarks ('%s' vs '%s')\n",
                OldName.c_str(), NewName.c_str());

  std::set<std::string> HigherBetter = splitCsv(HigherBetterCsv);
  std::set<std::string> Ignore = splitCsv(IgnoreCsv);
  Ignore.insert("wall_seconds"); // machine-dependent, never gate on it

  std::set<std::string> Keys;
  for (const auto &[K, V] : OldM)
    Keys.insert(K);
  for (const auto &[K, V] : NewM)
    Keys.insert(K);

  obs::JsonWriter W;
  if (Json) {
    W.beginObject();
    W.key("tool").value("ipas-bench-diff");
    W.key("base").value(P.positionals()[0]);
    W.key("candidate").value(P.positionals()[1]);
    W.key("threshold").value(Threshold);
    W.key("rows");
    W.beginArray();
  } else {
    std::printf("%-28s %14s %14s %9s\n", "metric", "old", "new", "delta%");
  }
  unsigned Regressions = 0, Missing = 0;
  for (const std::string &K : Keys) {
    auto OldIt = OldM.find(K), NewIt = NewM.find(K);
    if (OldIt != OldM.end() && NewIt == NewM.end()) {
      // Present in the baseline, gone from the candidate: the gate has
      // nothing to check, which must fail loudly rather than pass by
      // omission (unless the caller explicitly ignores the metric).
      bool Ignored = Ignore.count(K) != 0;
      if (Json) {
        W.beginObject();
        W.key("metric").value(K);
        W.key("base").value(OldIt->second);
        W.key("candidate").nullValue();
        W.key("delta_pct").nullValue();
        W.key("status").value(Ignored ? "ignored" : "missing");
        W.endObject();
      } else {
        std::printf("%-28s %14s %14s %9s  %s\n", K.c_str(), "present", "-",
                    "-", Ignored ? "(only in old, ignored)" : "MISSING");
      }
      if (!Ignored) {
        std::fprintf(stderr,
                     "error: baseline metric '%s' is missing from '%s'; "
                     "the gate cannot check it (add it back, regenerate "
                     "the baseline, or pass --ignore %s)\n",
                     K.c_str(), P.positionals()[1].c_str(), K.c_str());
        ++Missing;
      }
      continue;
    }
    if (OldIt == OldM.end()) {
      if (Json) {
        W.beginObject();
        W.key("metric").value(K);
        W.key("base").nullValue();
        W.key("candidate").value(NewIt->second);
        W.key("delta_pct").nullValue();
        W.key("status").value("only-new");
        W.endObject();
      } else {
        std::printf("%-28s %14s %14s %9s  (only in new)\n", K.c_str(), "-",
                    "present", "-");
      }
      continue;
    }
    double Old = OldIt->second, New = NewIt->second;
    double Pct = Old != 0.0 ? 100.0 * (New - Old) / std::fabs(Old)
                            : (New != 0.0 ? 100.0 : 0.0);
    // Bad direction: up for lower-is-better metrics, down otherwise.
    double Bad = HigherBetter.count(K) ? -Pct : Pct;
    bool Regressed = !Ignore.count(K) && Bad > Threshold;
    if (Json) {
      W.beginObject();
      W.key("metric").value(K);
      W.key("base").value(Old);
      W.key("candidate").value(New);
      W.key("delta_pct").value(Pct);
      W.key("status").value(Regressed ? "regressed"
                            : Ignore.count(K) ? "ignored"
                                              : "ok");
      W.endObject();
    } else {
      std::printf("%-28s %14.6g %14.6g %+8.1f%%%s\n", K.c_str(), Old, New,
                  Pct,
                  Regressed ? "  REGRESSED"
                            : (Ignore.count(K) ? "  (ignored)" : ""));
    }
    Regressions += Regressed;
  }

  if (Json) {
    W.endArray();
    W.key("missing").value(static_cast<uint64_t>(Missing));
    W.key("regressions").value(static_cast<uint64_t>(Regressions));
    W.key("ok").value(Missing == 0 && Regressions == 0);
    W.endObject();
    std::printf("%s\n", W.str().c_str());
    return Missing ? 3 : Regressions ? 7 : 0;
  }
  if (Missing) {
    std::printf("%u baseline metric(s) missing from the candidate\n",
                Missing);
    return 3;
  }
  if (Regressions) {
    std::printf("%u metric(s) regressed past %.1f%%\n", Regressions,
                Threshold);
    return 7;
  }
  std::printf("ok: no metric regressed past %.1f%%\n", Threshold);
  return 0;
}
