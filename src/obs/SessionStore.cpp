//===- obs/SessionStore.cpp ---------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// File layout: the shared store envelope (obs/BinCodec.h) with magic
// "IPASSES\0" and version 1.
//
// The payload is a flat sequence of fields; strings are u32 length +
// bytes, vectors are u64 count + elements. Doubles are stored as the
// IEEE-754 bit pattern in a u64, so round trips are bit-exact.
//
//===----------------------------------------------------------------------===//

#include "obs/SessionStore.h"

#include "obs/BinCodec.h"

#include <cstdio>

using namespace ipas;
using namespace ipas::obs;

namespace {

constexpr StoreEnvelope Envelope = {"IPASSES\0", SessionStoreVersion,
                                     "session manifest"};

void serializePayload(const SessionStore &S, Encoder &E) {
  E.str(S.Tool);
  E.str(S.ModuleName);
  E.str(S.EntryFunction);
  E.str(S.Label);
  E.str(S.SessionLabel);
  E.u64(S.Seed);
  E.u8(S.Backend);
  E.u32(S.Threads);
  E.u8(S.Pruning);
  E.u8(S.Incremental);
  E.u64(S.PropSampleEvery);
  E.u64(S.ModuleHash);
  E.f64(S.WallSeconds);
  E.f64(S.RunsPerSec);
  E.u64(S.Heartbeats);
  E.u64(S.Runs);
  E.u64(S.PrunedRuns);
  E.u64(S.VmRuns);
  E.u64(S.InterpRuns);
  E.u64(S.OutcomeTotals.size());
  for (uint64_t T : S.OutcomeTotals)
    E.u64(T);
  E.u64(S.FallbackReasons.size());
  for (const std::string &R : S.FallbackReasons)
    E.str(R);
  E.u64(S.FallbackCounts.size());
  for (uint64_t C : S.FallbackCounts)
    E.u64(C);
  E.u64(S.Functions.size());
  for (const SessionFunction &F : S.Functions) {
    E.str(F.Name);
    E.u64(F.ContentHash);
    E.u64(F.ReachableHash);
    E.u64(F.Sites);
    E.u64(F.Runs);
    E.u64(F.Soc);
    E.u64(F.OverheadCycles);
  }
  E.u64(S.Artifacts.size());
  for (const SessionArtifact &A : S.Artifacts) {
    E.u8(A.Kind);
    E.str(A.Path);
    E.u64(A.Size);
    E.u64(A.Checksum);
  }
}

void parsePayload(SessionStore &S, uint32_t Version, Decoder &D) {
  (void)Version; // Single version so far; kept for the v2 reader.
  S.Tool = D.str();
  S.ModuleName = D.str();
  S.EntryFunction = D.str();
  S.Label = D.str();
  S.SessionLabel = D.str();
  S.Seed = D.u64();
  S.Backend = D.u8();
  S.Threads = D.u32();
  S.Pruning = D.u8();
  S.Incremental = D.u8();
  S.PropSampleEvery = D.u64();
  S.ModuleHash = D.u64();
  S.WallSeconds = D.f64();
  S.RunsPerSec = D.f64();
  S.Heartbeats = D.u64();
  S.Runs = D.u64();
  S.PrunedRuns = D.u64();
  S.VmRuns = D.u64();
  S.InterpRuns = D.u64();
  S.OutcomeTotals.resize(D.count(8));
  for (uint64_t &T : S.OutcomeTotals)
    T = D.u64();
  S.FallbackReasons.resize(D.count(4));
  for (std::string &R : S.FallbackReasons)
    R = D.str();
  S.FallbackCounts.resize(D.count(8));
  for (uint64_t &C : S.FallbackCounts)
    C = D.u64();
  S.Functions.resize(D.count(4 + 6 * 8));
  for (SessionFunction &F : S.Functions) {
    F.Name = D.str();
    F.ContentHash = D.u64();
    F.ReachableHash = D.u64();
    F.Sites = D.u64();
    F.Runs = D.u64();
    F.Soc = D.u64();
    F.OverheadCycles = D.u64();
  }
  S.Artifacts.resize(D.count(1 + 4 + 8 + 8));
  for (SessionArtifact &A : S.Artifacts) {
    A.Kind = D.u8();
    A.Path = D.str();
    A.Size = D.u64();
    A.Checksum = D.u64();
  }
}

} // namespace

const char *ipas::obs::sessionArtifactKindName(uint8_t Kind) {
  switch (Kind) {
  case SessionArtifactRecord:
    return "record";
  case SessionArtifactPropagation:
    return "propagation";
  case SessionArtifactProfile:
    return "profile";
  case SessionArtifactSummary:
    return "summary";
  case SessionArtifactTrace:
    return "trace";
  case SessionArtifactBench:
    return "bench";
  default:
    return "other";
  }
}

uint64_t SessionStore::socTotal() const {
  // Outcome::SOC is raw code 4 (fault/Outcome.h); this layer cannot see
  // the enum, so the code is pinned here the way tools pin it.
  constexpr size_t SocCode = 4;
  return SocCode < OutcomeTotals.size() ? OutcomeTotals[SocCode] : 0;
}

double SessionStore::socRate() const {
  return Runs ? static_cast<double>(socTotal()) / static_cast<double>(Runs)
              : 0.0;
}

uint64_t SessionStore::overheadCycles() const {
  uint64_t Total = 0;
  for (const SessionFunction &F : Functions)
    Total += F.OverheadCycles;
  return Total;
}

void ipas::obs::serializeSessionStore(const SessionStore &S, std::string &Out) {
  encodeEnvelope(Envelope, Out, [&](Encoder &E) { serializePayload(S, E); });
}

bool ipas::obs::writeSessionStore(const SessionStore &S,
                                  const std::string &Path, std::string *Err) {
  std::string Bytes;
  serializeSessionStore(S, Bytes);
  return writeFileAtomic(Path, Bytes, Err);
}

bool ipas::obs::parseSessionStore(SessionStore &S, const std::string &Data,
                                  std::string *Err) {
  return decodeEnvelope(Envelope, Data, Err,
                        [&](uint32_t Version, Decoder &D) {
                          parsePayload(S, Version, D);
                        });
}

bool ipas::obs::readSessionStore(SessionStore &S, const std::string &Path,
                                 std::string *Err) {
  std::string Data;
  return readFile(Path, Data, Err) && parseSessionStore(S, Data, Err);
}

bool ipas::obs::checksumFile(const std::string &Path, uint64_t &Size,
                             uint64_t &Checksum, std::string *Err) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    if (Err)
      *Err = "cannot open '" + Path + "'";
    return false;
  }
  uint64_t H = FnvOffset;
  uint64_t Total = 0;
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0) {
    H = fnv1a(Buf, N, H);
    Total += N;
  }
  bool ReadOk = !std::ferror(F);
  std::fclose(F);
  if (!ReadOk) {
    if (Err)
      *Err = "read error on '" + Path + "'";
    return false;
  }
  Size = Total;
  Checksum = H;
  return true;
}

ArtifactState ipas::obs::verifySessionArtifact(const SessionArtifact &A,
                                               const std::string &BaseDir) {
  if (A.Checksum == 0)
    return ArtifactState::Unchecked;
  uint64_t Size = 0, Sum = 0;
  if (!checksumFile(A.Path, Size, Sum)) {
    if (BaseDir.empty() ||
        !checksumFile(BaseDir + "/" + A.Path, Size, Sum))
      return ArtifactState::Missing;
  }
  return (Size == A.Size && Sum == A.Checksum) ? ArtifactState::Ok
                                               : ArtifactState::Mismatch;
}
