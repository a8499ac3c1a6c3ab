//===- tools/ipas-db.cpp - Cross-run campaign ledger ----------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The longitudinal half of the observability stack: ingests `.ipses`
/// session manifests (ipas-cc --session-out, PipelineConfig::SessionDir)
/// into an append-only history directory and answers the questions a
/// protection campaign's maintainer asks across commits:
///
///   ipas-db ingest HIST a.ipses b.ipses   # append (idempotent, verified)
///   ipas-db ingest HIST c.ipses --bench BENCH_f.json
///   ipas-db list HIST                     # one line per session
///   ipas-db trend HIST                    # SOC rate / throughput table
///   ipas-db trend HIST --function f       # one function across sessions
///   ipas-db diff HIST 1 2                 # attribute movement to edits
///   ipas-db regressions HIST --threshold 0.5   # CI gate (exit 9)
///   ipas-db html HIST out.html            # self-contained dashboard
///
/// The history is plain files: `ledger.idx` (one line per ingested
/// session, in ingest order — the longitudinal order every query uses)
/// plus one copied manifest per session named by its checksum, so the
/// whole history survives `rsync` and needs no database. Ingest is
/// idempotent by manifest checksum, and re-verifies every checksummed
/// artifact the manifest references — a tampered or stale artifact set
/// is rejected with a distinct exit code (4) before it can pollute the
/// history. `diff` attributes SOC movement to the functions whose
/// canonical content hash changed between the two sessions
/// (FastFlip-style: "this edit moved SOC only in these functions");
/// movement in hash-unchanged functions is called out as drift.
///
/// Exit codes: 0 ok, 1 I/O or parse error, 2 usage, 4 artifact
/// verification failure at ingest, 9 regression gate fired.
///
//===----------------------------------------------------------------------===//

#include "obs/BinCodec.h"
#include "obs/Json.h"
#include "obs/LineTable.h"
#include "obs/SessionStore.h"
#include "support/ArgParser.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <vector>

using namespace ipas;

namespace {

//===----------------------------------------------------------------------===//
// Small path helpers
//===----------------------------------------------------------------------===//

std::string dirnameOf(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  return Slash == std::string::npos ? std::string(".")
                                    : Path.substr(0, Slash);
}

std::string basenameOf(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  return Slash == std::string::npos ? Path : Path.substr(Slash + 1);
}

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

//===----------------------------------------------------------------------===//
// History model
//===----------------------------------------------------------------------===//

/// One line of ledger.idx: the session id (manifest checksum, 16 hex
/// digits), the stored manifest filename, then any attached bench files.
struct LedgerEntry {
  std::string Id;
  std::string File;
  std::vector<std::string> BenchFiles;
};

std::string indexPath(const std::string &Hist) {
  return Hist + "/ledger.idx";
}

bool loadIndex(const std::string &Hist, std::vector<LedgerEntry> &Entries,
               std::string *Err) {
  Entries.clear();
  std::string Text;
  std::string ReadErr;
  if (!obs::readFile(indexPath(Hist), Text, &ReadErr))
    return true; // An absent index is an empty history.
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Line.empty())
      continue;
    LedgerEntry E;
    size_t Cur = 0;
    while (Cur < Line.size()) {
      size_t Sp = Line.find(' ', Cur);
      if (Sp == std::string::npos)
        Sp = Line.size();
      std::string Tok = Line.substr(Cur, Sp - Cur);
      Cur = Sp + 1;
      if (Tok.empty())
        continue;
      if (E.Id.empty())
        E.Id = Tok;
      else if (E.File.empty())
        E.File = Tok;
      else
        E.BenchFiles.push_back(Tok);
    }
    if (E.Id.empty() || E.File.empty()) {
      if (Err)
        *Err = "malformed ledger.idx line: '" + Line + "'";
      return false;
    }
    Entries.push_back(std::move(E));
  }
  return true;
}

/// One loaded session: its ledger entry plus the parsed manifest.
struct LoadedSession {
  LedgerEntry Entry;
  obs::SessionStore S;
};

bool loadSessions(const std::string &Hist,
                  std::vector<LoadedSession> &Sessions, std::string *Err) {
  std::vector<LedgerEntry> Entries;
  if (!loadIndex(Hist, Entries, Err))
    return false;
  Sessions.clear();
  for (LedgerEntry &E : Entries) {
    LoadedSession L;
    L.Entry = std::move(E);
    if (!obs::readSessionStore(L.S, Hist + "/" + L.Entry.File, Err))
      return false;
    Sessions.push_back(std::move(L));
  }
  return true;
}

/// Resolves \p Key — a 1-based ordinal or a session-id hex prefix — to
/// an index into \p Sessions; -1 (with a diagnostic) when it resolves to
/// nothing or to more than one session.
int resolveSession(const std::vector<LoadedSession> &Sessions,
                   const std::string &Key) {
  bool AllDigits = !Key.empty() &&
                   Key.find_first_not_of("0123456789") == std::string::npos;
  if (AllDigits) {
    long Ord = std::strtol(Key.c_str(), nullptr, 10);
    if (Ord >= 1 && static_cast<size_t>(Ord) <= Sessions.size())
      return static_cast<int>(Ord - 1);
  }
  int Found = -1;
  for (size_t I = 0; I != Sessions.size(); ++I) {
    if (Sessions[I].Entry.Id.rfind(Key, 0) == 0) {
      if (Found >= 0) {
        std::fprintf(stderr, "error: session '%s' is ambiguous\n",
                     Key.c_str());
        return -1;
      }
      Found = static_cast<int>(I);
    }
  }
  if (Found < 0)
    std::fprintf(stderr, "error: no session '%s' in the history\n",
                 Key.c_str());
  return Found;
}

/// The label shown for a session: the free-form session label when the
/// producer recorded one, else the campaign label.
const std::string &displayLabel(const obs::SessionStore &S) {
  return S.SessionLabel.empty() ? S.Label : S.SessionLabel;
}

//===----------------------------------------------------------------------===//
// ingest
//===----------------------------------------------------------------------===//

int cmdIngest(const std::string &Hist,
              const std::vector<std::string> &Manifests,
              const std::string &BenchFile) {
  // A fresh history directory is created on first ingest; EEXIST is the
  // common case and fine.
  if (::mkdir(Hist.c_str(), 0777) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "error: cannot create history '%s': %s\n",
                 Hist.c_str(), std::strerror(errno));
    return 1;
  }
  std::vector<LedgerEntry> Entries;
  std::string Err;
  if (!loadIndex(Hist, Entries, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  // An attached bench file must at least be valid JSON before it enters
  // the history; both BENCH_*.json files and ipas-bench-diff --json
  // outputs qualify.
  std::string BenchBytes;
  if (!BenchFile.empty()) {
    if (!obs::readFile(BenchFile, BenchBytes, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    if (!obs::parseJson(BenchBytes)) {
      std::fprintf(stderr, "error: '%s' is not valid JSON\n",
                   BenchFile.c_str());
      return 1;
    }
  }

  for (const std::string &Path : Manifests) {
    std::string Bytes;
    if (!obs::readFile(Path, Bytes, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    obs::SessionStore S;
    if (!obs::parseSessionStore(S, Bytes, &Err)) {
      std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
      return 1;
    }

    // Artifact verification happens before the idempotency check: a
    // tampered artifact set must be rejected even when the manifest
    // itself was already ingested.
    std::string BaseDir = dirnameOf(Path);
    size_t Unchecked = 0;
    for (const obs::SessionArtifact &A : S.Artifacts) {
      switch (obs::verifySessionArtifact(A, BaseDir)) {
      case obs::ArtifactState::Ok:
        break;
      case obs::ArtifactState::Unchecked:
        ++Unchecked;
        break;
      case obs::ArtifactState::Missing:
        std::fprintf(stderr,
                     "warning: %s: %s artifact '%s' not found (history "
                     "keeps the manifest only)\n",
                     Path.c_str(), obs::sessionArtifactKindName(A.Kind),
                     A.Path.c_str());
        break;
      case obs::ArtifactState::Mismatch:
        std::fprintf(stderr,
                     "error: %s: %s artifact '%s' does not match its "
                     "recorded checksum (stale or tampered)\n",
                     Path.c_str(), obs::sessionArtifactKindName(A.Kind),
                     A.Path.c_str());
        return 4;
      }
    }

    std::string Id = hex16(obs::fnv1a(Bytes.data(), Bytes.size()));
    bool Dup = false;
    for (const LedgerEntry &E : Entries)
      if (E.Id == Id) {
        Dup = true;
        break;
      }
    if (Dup) {
      std::printf("ingest: %.8s already in history (skipped)\n",
                  Id.c_str());
      continue;
    }

    LedgerEntry E;
    E.Id = Id;
    E.File = Id + ".ipses";
    if (!obs::writeFileAtomic(Hist + "/" + E.File, Bytes, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    if (!BenchFile.empty()) {
      std::string Stored = Id.substr(0, 8) + "-" + basenameOf(BenchFile);
      if (!obs::writeFileAtomic(Hist + "/" + Stored, BenchBytes, &Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
      E.BenchFiles.push_back(Stored);
    }

    std::string Line = E.Id + " " + E.File;
    for (const std::string &B : E.BenchFiles)
      Line += " " + B;
    Line += "\n";
    FILE *Idx = std::fopen(indexPath(Hist).c_str(), "ab");
    if (!Idx || std::fwrite(Line.data(), 1, Line.size(), Idx) !=
                    Line.size()) {
      if (Idx)
        std::fclose(Idx);
      std::fprintf(stderr, "error: cannot append to %s\n",
                   indexPath(Hist).c_str());
      return 1;
    }
    std::fclose(Idx);
    Entries.push_back(E);

    std::printf("ingest: %.8s %s label=%s runs=%llu soc=%llu "
                "artifacts=%zu%s\n",
                Id.c_str(), S.ModuleName.c_str(),
                displayLabel(S).c_str(),
                static_cast<unsigned long long>(S.Runs),
                static_cast<unsigned long long>(S.socTotal()),
                S.Artifacts.size(),
                Unchecked ? " (trace unchecked)" : "");
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// list / trend
//===----------------------------------------------------------------------===//

int cmdList(const std::string &Hist) {
  std::vector<LoadedSession> Sessions;
  std::string Err;
  if (!loadSessions(Hist, Sessions, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::printf("ledger: %s (%zu sessions)\n", Hist.c_str(),
              Sessions.size());
  for (size_t I = 0; I != Sessions.size(); ++I) {
    const obs::SessionStore &S = Sessions[I].S;
    std::printf("%3zu  %.8s  %-12s %-14s runs %6llu  soc %4llu "
                "(%5.2f%%)  %s x%u%s%s\n",
                I + 1, Sessions[I].Entry.Id.c_str(),
                S.ModuleName.c_str(), displayLabel(S).c_str(),
                static_cast<unsigned long long>(S.Runs),
                static_cast<unsigned long long>(S.socTotal()),
                100.0 * S.socRate(),
                S.Backend == 1 ? "vm" : "interp", S.Threads,
                S.Incremental ? " incremental" : "",
                Sessions[I].Entry.BenchFiles.empty() ? "" : " +bench");
  }
  return 0;
}

/// Renders per-session (or, with \p FnName, per-function) trends through
/// the shared obs::LineTable: the "source text" is synthetic — line k
/// describes session k — so the ledger reads exactly like the heatmaps.
int cmdTrend(const std::string &Hist, const std::string &FnName) {
  std::vector<LoadedSession> Sessions;
  std::string Err;
  if (!loadSessions(Hist, Sessions, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  if (Sessions.empty()) {
    std::printf("trend: empty history\n");
    return 0;
  }

  std::string Synthetic;
  obs::LineTable Table(FnName.empty()
                           ? std::vector<std::string>{"runs", "soc",
                                                      "soc_bp", "runs_s",
                                                      "ovh_cyc"}
                           : std::vector<std::string>{"runs", "soc",
                                                      "soc_bp", "chg"});
  uint64_t PrevHash = 0;
  bool HavePrev = false;
  for (size_t I = 0; I != Sessions.size(); ++I) {
    const obs::SessionStore &S = Sessions[I].S;
    uint32_t Line = static_cast<uint32_t>(I + 1);
    Synthetic += Sessions[I].Entry.Id.substr(0, 8) + " " + S.ModuleName +
                 " " + displayLabel(S) + "\n";
    if (FnName.empty()) {
      Table.add(Line, 0, S.Runs);
      Table.add(Line, 1, S.socTotal());
      Table.add(Line, 2,
                static_cast<uint64_t>(S.socRate() * 10000.0 + 0.5));
      Table.add(Line, 3, static_cast<uint64_t>(S.RunsPerSec + 0.5));
      Table.add(Line, 4, S.overheadCycles());
      continue;
    }
    const obs::SessionFunction *Fn = nullptr;
    for (const obs::SessionFunction &F : S.Functions)
      if (F.Name == FnName)
        Fn = &F;
    if (!Fn)
      continue; // Function absent in this session's module.
    double Rate = Fn->Runs ? static_cast<double>(Fn->Soc) /
                                 static_cast<double>(Fn->Runs)
                           : 0.0;
    Table.add(Line, 0, Fn->Runs);
    Table.add(Line, 1, Fn->Soc);
    Table.add(Line, 2, static_cast<uint64_t>(Rate * 10000.0 + 0.5));
    Table.add(Line, 3,
              HavePrev && Fn->ContentHash != PrevHash ? 1 : 0);
    PrevHash = Fn->ContentHash;
    HavePrev = true;
  }

  if (FnName.empty())
    std::printf("trend: %zu sessions (soc_bp = SOC rate in basis "
                "points, ovh_cyc = protection overhead cycles)\n",
                Sessions.size());
  else
    std::printf("trend: @%s across %zu sessions (chg = content hash "
                "changed vs previous)\n",
                FnName.c_str(), Sessions.size());
  if (Table.empty()) {
    std::printf("  (no data)\n");
    return 0;
  }
  Table.print(Synthetic, true);
  return 0;
}

//===----------------------------------------------------------------------===//
// diff / regressions
//===----------------------------------------------------------------------===//

/// Per-function movement between two sessions, attributed by content
/// hash.
struct FnDelta {
  std::string Name;
  const obs::SessionFunction *Old = nullptr;
  const obs::SessionFunction *New = nullptr;
  bool Changed = false; ///< Content hash differs (or fn added/removed).
};

std::vector<FnDelta> functionDeltas(const obs::SessionStore &A,
                                    const obs::SessionStore &B) {
  std::vector<FnDelta> Deltas;
  for (const obs::SessionFunction &F : A.Functions) {
    FnDelta D;
    D.Name = F.Name;
    D.Old = &F;
    for (const obs::SessionFunction &G : B.Functions)
      if (G.Name == F.Name)
        D.New = &G;
    D.Changed = !D.New || D.New->ContentHash != F.ContentHash;
    Deltas.push_back(D);
  }
  for (const obs::SessionFunction &G : B.Functions) {
    bool Known = false;
    for (const FnDelta &D : Deltas)
      Known |= D.Name == G.Name;
    if (!Known)
      Deltas.push_back(FnDelta{G.Name, nullptr, &G, true});
  }
  return Deltas;
}

int cmdDiff(const std::string &Hist, const std::string &KeyA,
            const std::string &KeyB) {
  std::vector<LoadedSession> Sessions;
  std::string Err;
  if (!loadSessions(Hist, Sessions, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  int IA = resolveSession(Sessions, KeyA);
  int IB = resolveSession(Sessions, KeyB);
  if (IA < 0 || IB < 0)
    return 1;
  const obs::SessionStore &A = Sessions[IA].S;
  const obs::SessionStore &B = Sessions[IB].S;

  std::printf("ledger diff: %.8s (%s) -> %.8s (%s)\n",
              Sessions[IA].Entry.Id.c_str(), displayLabel(A).c_str(),
              Sessions[IB].Entry.Id.c_str(), displayLabel(B).c_str());
  std::printf("  module: %s%s, hash %016llx -> %016llx\n",
              A.ModuleName.c_str(),
              A.ModuleName == B.ModuleName ? "" : " (name changed)",
              static_cast<unsigned long long>(A.ModuleHash),
              static_cast<unsigned long long>(B.ModuleHash));
  std::printf("  runs: %llu -> %llu\n",
              static_cast<unsigned long long>(A.Runs),
              static_cast<unsigned long long>(B.Runs));
  std::printf("  soc: %llu -> %llu (rate %.2f%% -> %.2f%%)\n",
              static_cast<unsigned long long>(A.socTotal()),
              static_cast<unsigned long long>(B.socTotal()),
              100.0 * A.socRate(), 100.0 * B.socRate());
  std::printf("  overhead cycles: %llu -> %llu\n",
              static_cast<unsigned long long>(A.overheadCycles()),
              static_cast<unsigned long long>(B.overheadCycles()));

  std::vector<FnDelta> Deltas = functionDeltas(A, B);
  int64_t UnattributedSoc = 0;
  std::printf("per-function attribution:\n");
  for (const FnDelta &D : Deltas) {
    uint64_t OldSoc = D.Old ? D.Old->Soc : 0;
    uint64_t NewSoc = D.New ? D.New->Soc : 0;
    uint64_t OldRuns = D.Old ? D.Old->Runs : 0;
    uint64_t NewRuns = D.New ? D.New->Runs : 0;
    int64_t Move = static_cast<int64_t>(NewSoc) -
                   static_cast<int64_t>(OldSoc);
    const char *State = !D.Old ? "added"
                        : !D.New ? "removed"
                        : D.Changed ? "content-changed"
                                    : "unchanged";
    std::printf("  @%-12s %-15s soc %3llu -> %3llu (%+lld)  runs %3llu "
                "-> %3llu\n",
                D.Name.c_str(), State,
                static_cast<unsigned long long>(OldSoc),
                static_cast<unsigned long long>(NewSoc),
                static_cast<long long>(Move),
                static_cast<unsigned long long>(OldRuns),
                static_cast<unsigned long long>(NewRuns));
    if (!D.Changed && Move != 0)
      UnattributedSoc += Move < 0 ? -Move : Move;
  }
  if (UnattributedSoc)
    std::printf("warning: %lld SOC moved in hash-unchanged functions "
                "(seed, input, or sampling drift — not this edit)\n",
                static_cast<long long>(UnattributedSoc));
  else
    std::printf("attribution: all SOC movement is in content-changed "
                "functions\n");
  return 0;
}

int cmdRegressions(const std::string &Hist, double Threshold) {
  std::vector<LoadedSession> Sessions;
  std::string Err;
  if (!loadSessions(Hist, Sessions, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  if (Sessions.size() < 2) {
    std::printf("regressions: need at least 2 sessions (%zu in "
                "history); nothing to gate\n",
                Sessions.size());
    return 0;
  }
  const LoadedSession &Old = Sessions[Sessions.size() - 2];
  const LoadedSession &New = Sessions[Sessions.size() - 1];
  double OldPct = 100.0 * Old.S.socRate();
  double NewPct = 100.0 * New.S.socRate();
  if (NewPct <= OldPct + Threshold) {
    std::printf("regressions: none (%.8s -> %.8s, soc rate %.2f%% -> "
                "%.2f%%, threshold %.2f)\n",
                Old.Entry.Id.c_str(), New.Entry.Id.c_str(), OldPct,
                NewPct, Threshold);
    return 0;
  }
  std::printf("REGRESSION: soc rate %.2f%% -> %.2f%% (+%.2f points "
              "exceeds threshold %.2f) between %.8s (%s) and %.8s "
              "(%s)\n",
              OldPct, NewPct, NewPct - OldPct, Threshold,
              Old.Entry.Id.c_str(), displayLabel(Old.S).c_str(),
              New.Entry.Id.c_str(), displayLabel(New.S).c_str());
  // Name the edited functions, so the CI log already points at the
  // culprit commit's code.
  for (const FnDelta &D : functionDeltas(Old.S, New.S))
    if (D.Changed)
      std::printf("  content-changed: @%s (soc %llu -> %llu)\n",
                  D.Name.c_str(),
                  static_cast<unsigned long long>(D.Old ? D.Old->Soc : 0),
                  static_cast<unsigned long long>(D.New ? D.New->Soc
                                                        : 0));
  return 9;
}

//===----------------------------------------------------------------------===//
// html
//===----------------------------------------------------------------------===//

/// One inline-SVG sparkline (no external assets): \p Values scaled into
/// a fixed 240x48 box, newest point on the right.
std::string sparklineSvg(const char *DomId,
                         const std::vector<double> &Values) {
  constexpr double W = 240, H = 48, Pad = 4;
  double Lo = 0.0, Hi = 1e-9;
  for (double V : Values)
    Hi = std::max(Hi, V);
  std::string Points;
  for (size_t I = 0; I != Values.size(); ++I) {
    double X = Values.size() == 1
                   ? W / 2
                   : Pad + (W - 2 * Pad) * static_cast<double>(I) /
                             static_cast<double>(Values.size() - 1);
    double Y = H - Pad - (H - 2 * Pad) * (Values[I] - Lo) / (Hi - Lo);
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%s%.1f,%.1f", I ? " " : "", X, Y);
    Points += Buf;
  }
  std::string Svg = "<svg id=\"";
  Svg += DomId;
  Svg += "\" width=\"240\" height=\"48\" viewBox=\"0 0 240 48\" "
         "role=\"img\"><polyline fill=\"none\" stroke=\"#1f6feb\" "
         "stroke-width=\"2\" points=\"";
  Svg += Points;
  Svg += "\"/></svg>";
  return Svg;
}

void appendEscapedHtml(std::string &Out, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '&':
      Out += "&amp;";
      break;
    case '<':
      Out += "&lt;";
      break;
    case '>':
      Out += "&gt;";
      break;
    default:
      Out += C;
    }
  }
}

int cmdHtml(const std::string &Hist, const std::string &OutPath) {
  std::vector<LoadedSession> Sessions;
  std::string Err;
  if (!loadSessions(Hist, Sessions, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  std::vector<double> SocRates, Throughputs;
  for (const LoadedSession &L : Sessions) {
    SocRates.push_back(100.0 * L.S.socRate());
    Throughputs.push_back(L.S.RunsPerSec);
  }

  std::string H;
  H += "<!doctype html>\n<html lang=\"en\">\n<head>\n"
       "<meta charset=\"utf-8\">\n<title>IPAS campaign ledger</title>\n"
       "<style>\n"
       "body{font:14px/1.5 system-ui,sans-serif;margin:2rem;"
       "color:#1f2328}\n"
       "table{border-collapse:collapse;margin:1rem 0}\n"
       "th,td{border:1px solid #d0d7de;padding:.3rem .6rem;"
       "text-align:right}\n"
       "th:first-child,td:first-child,th.t,td.t{text-align:left}\n"
       "h1,h2{font-weight:600}\n"
       ".warn{color:#9a6700}\n"
       "</style>\n</head>\n<body>\n";
  H += "<h1>IPAS campaign ledger</h1>\n";
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "<p>%zu session(s) in history.</p>\n",
                Sessions.size());
  H += Buf;

  H += "<h2 id=\"trend\">Trends</h2>\n<p>SOC rate (%)</p>\n";
  H += sparklineSvg("soc-sparkline", SocRates);
  H += "\n<p>Campaign throughput (runs/sec)</p>\n";
  H += sparklineSvg("throughput-sparkline", Throughputs);

  H += "\n<h2 id=\"sessions\">Sessions</h2>\n"
       "<table id=\"session-table\">\n<tr><th>#</th><th class=\"t\">id"
       "</th><th class=\"t\">module</th><th class=\"t\">label</th>"
       "<th>runs</th><th>soc</th><th>rate %</th><th>runs/s</th>"
       "<th>overhead cyc</th><th>artifacts</th></tr>\n";
  for (size_t I = 0; I != Sessions.size(); ++I) {
    const obs::SessionStore &S = Sessions[I].S;
    std::snprintf(Buf, sizeof(Buf),
                  "<tr><td>%zu</td><td class=\"t\">%.8s</td>", I + 1,
                  Sessions[I].Entry.Id.c_str());
    H += Buf;
    H += "<td class=\"t\">";
    appendEscapedHtml(H, S.ModuleName);
    H += "</td><td class=\"t\">";
    appendEscapedHtml(H, displayLabel(S));
    H += "</td>";
    std::snprintf(Buf, sizeof(Buf),
                  "<td>%llu</td><td>%llu</td><td>%.2f</td><td>%.0f</td>"
                  "<td>%llu</td><td>%zu</td></tr>\n",
                  static_cast<unsigned long long>(S.Runs),
                  static_cast<unsigned long long>(S.socTotal()),
                  100.0 * S.socRate(), S.RunsPerSec,
                  static_cast<unsigned long long>(S.overheadCycles()),
                  S.Artifacts.size());
    H += Buf;
  }
  H += "</table>\n";

  H += "<h2 id=\"functions\">Per-function SOC (latest session)</h2>\n";
  if (Sessions.empty()) {
    H += "<p>(empty history)</p>\n";
  } else {
    const obs::SessionStore &S = Sessions.back().S;
    H += "<table id=\"function-table\">\n<tr><th class=\"t\">function"
         "</th><th>sites</th><th>runs</th><th>soc</th>"
         "<th>overhead cyc</th><th class=\"t\">content hash</th></tr>\n";
    for (const obs::SessionFunction &F : S.Functions) {
      H += "<tr><td class=\"t\">@";
      appendEscapedHtml(H, F.Name);
      H += "</td>";
      std::snprintf(Buf, sizeof(Buf),
                    "<td>%llu</td><td>%llu</td><td>%llu</td><td>%llu"
                    "</td><td class=\"t\">%016llx</td></tr>\n",
                    static_cast<unsigned long long>(F.Sites),
                    static_cast<unsigned long long>(F.Runs),
                    static_cast<unsigned long long>(F.Soc),
                    static_cast<unsigned long long>(F.OverheadCycles),
                    static_cast<unsigned long long>(F.ContentHash));
      H += Buf;
    }
    H += "</table>\n";
  }
  H += "</body>\n</html>\n";

  if (OutPath == "-") {
    std::fwrite(H.data(), 1, H.size(), stdout);
    return 0;
  }
  if (!obs::writeFileAtomic(OutPath, H, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::printf("html: %s (%zu sessions, %zu bytes, self-contained)\n",
              OutPath.c_str(), Sessions.size(), H.size());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string BenchFile, FnName;
  double Threshold = 0.0;
  ArgParser P("ipas-db: cross-run campaign ledger over .ipses session "
              "manifests.\n"
              "commands:\n"
              "  ingest <hist> <manifest.ipses>...  append sessions "
              "(idempotent, artifact-verified)\n"
              "  list <hist>                        one line per session\n"
              "  trend <hist>                       SOC rate / throughput "
              "across sessions\n"
              "  diff <hist> <A> <B>                attribute movement by "
              "content hash\n"
              "  regressions <hist>                 CI gate on the last "
              "two sessions (exit 9)\n"
              "  html <hist> <out.html|->           self-contained "
              "dashboard");
  P.addString("bench", &BenchFile,
              "ingest: attach this JSON bench file (BENCH_*.json or "
              "ipas-bench-diff --json output) to the ingested sessions");
  P.addString("function", &FnName,
              "trend: show one function's per-session trajectory");
  P.addDouble("threshold", &Threshold,
              "regressions: allowed SOC-rate growth in percentage "
              "points before the gate fires (default 0)");
  if (!P.parse(Argc, Argv))
    return 2;
  const std::vector<std::string> &Pos = P.positionals();
  if (Pos.size() < 2) {
    std::fprintf(stderr, "usage: ipas-db <command> <hist-dir> ...\n%s",
                 P.usage().c_str());
    return 2;
  }
  const std::string &Cmd = Pos[0];
  const std::string &Hist = Pos[1];
  if (Cmd == "ingest") {
    if (Pos.size() < 3) {
      std::fprintf(stderr,
                   "usage: ipas-db ingest <hist-dir> <manifest.ipses>...\n");
      return 2;
    }
    return cmdIngest(
        Hist, std::vector<std::string>(Pos.begin() + 2, Pos.end()),
        BenchFile);
  }
  if (Cmd == "list" && Pos.size() == 2)
    return cmdList(Hist);
  if (Cmd == "trend" && Pos.size() == 2)
    return cmdTrend(Hist, FnName);
  if (Cmd == "diff" && Pos.size() == 4)
    return cmdDiff(Hist, Pos[2], Pos[3]);
  if (Cmd == "regressions" && Pos.size() == 2)
    return cmdRegressions(Hist, Threshold);
  if (Cmd == "html" && Pos.size() == 3)
    return cmdHtml(Hist, Pos[2]);
  std::fprintf(stderr, "error: unknown command or wrong arguments: %s\n%s",
               Cmd.c_str(), P.usage().c_str());
  return 2;
}
