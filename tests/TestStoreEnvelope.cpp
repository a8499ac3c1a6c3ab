//===- tests/TestStoreEnvelope.cpp - Shared store envelope tests ----------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// All five checksummed stores (.iprec, .ipprop, .ipprof, .ipsum, .ipses)
/// share one envelope: 8-byte magic, u32 version, u64 payload length,
/// payload, FNV-1a footer. These tests drive the five kinds through one
/// table:
///
///   - a byte-identity golden: a small hand-built store of each kind
///     must serialize to exactly the length and whole-image FNV-1a
///     pinned below, so any drift in the on-disk bytes (payload layout,
///     envelope, checksum basis) is caught across commits, not just
///     within one build's round trip;
///   - a hostile header whose payload length wraps `size_t` arithmetic
///     must be reported as truncated, never read out of bounds;
///   - every reader must reject the other four kinds' images as bad magic
///     naming its own kind;
///   - writes replace the target atomically (temp sibling + rename), a
///     failed rename leaves the target and the directory untouched, and
///     a pipe at the target is written through rather than replaced.
///
//===----------------------------------------------------------------------===//

#include "obs/BinCodec.h"
#include "obs/ProfileStore.h"
#include "obs/Propagation.h"
#include "obs/RecordStore.h"
#include "obs/SessionStore.h"
#include "obs/SummaryStore.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <dirent.h>
#include <fcntl.h>
#include <functional>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace ipas;
using namespace ipas::obs;

namespace {

//===----------------------------------------------------------------------===//
// Fixed sample stores (no RNG, no clock)
//===----------------------------------------------------------------------===//

RecordStore sampleRecord() {
  RecordStore S;
  S.ModuleName = "golden.mc";
  S.EntryFunction = "f";
  S.Label = "golden";
  S.Seed = 0x0123456789abcdefull;
  S.CleanSteps = 4096;
  S.CleanValueSteps = 2048;
  S.PrunedRuns = 3;
  S.PrunedSites = 1;
  S.SourceText = "double f(double x) {\n  return x * 2.0;\n}\n";
  S.Functions = {"f", "g"};
  InstrRecord I;
  I.Id = 7;
  I.Opcode = 12;
  I.DupRole = 1;
  I.Predicted = PredictProtect;
  I.Protected_ = 1;
  I.Line = 2;
  I.Col = 10;
  I.FunctionIndex = 1;
  I.DynExecCount = 99;
  I.Score = -0.75;
  S.Instructions = {I, InstrRecord()};
  S.NumFeatures = 2;
  S.Features = {1.5, -0.0, 3.25, 1e-300};
  InjectionRow R;
  R.InstructionId = 7;
  R.BitIndex = 52;
  R.TargetValueStep = 1000;
  R.Outcome = 4;
  R.LatencyUs = 12;
  S.Rows = {R, InjectionRow()};
  S.tallyOutcomes();
  FunctionMeta M;
  M.FunctionIndex = 1;
  M.ContentHash = 0x1111222233334444ull;
  M.ReachableHash = 0x5555666677778888ull;
  M.ProfileHash = 42;
  M.FirstInstructionId = 7;
  M.LocalValueSteps = 300;
  M.PlannedRuns = 2;
  M.ReusedRuns = 1;
  M.Invalidation = 3;
  S.FunctionMetas = {M};
  return S;
}

PropagationStore sampleProp() {
  PropagationStore S;
  S.ModuleName = "golden.mc";
  S.EntryFunction = "f";
  S.Label = "golden";
  S.Seed = 11;
  S.SampleEvery = 4;
  S.TotalRuns = 120;
  S.CleanSteps = 4096;
  S.CleanValueSteps = 2048;
  S.Functions = {"f"};
  PropInstr I;
  I.Id = 3;
  I.Opcode = 9;
  I.StaticBenign = 1;
  I.Predicted = PredictSkip;
  I.Line = 5;
  I.Col = 3;
  I.StaticSinkMask = PropReachCheck;
  S.Instructions = {I};
  PropRecord R;
  R.RunIndex = 8;
  R.InstructionId = 3;
  R.BitIndex = 63;
  R.TargetValueStep = 17;
  R.Outcome = 2;
  R.ControlDiverged = 1;
  R.DynReachMask = PropReachTrap;
  R.PropagationDepth = 4;
  R.CorruptedValues = 9;
  R.InjectionStep = 17;
  R.MaskedLogical = 1;
  R.MaskedOverwrite = 2;
  R.MaskedDead = 3;
  R.Edges = {{3, 4, PropEdgeDefUse, 2}};
  R.Masks = {{9, PropMaskLogical, 1}};
  S.Records = {R, PropRecord()};
  return S;
}

ProfileStore sampleProfile() {
  ProfileStore S;
  S.ModuleName = "golden.mc";
  S.EntryFunction = "f";
  S.Label = "golden";
  S.SourceText = "x\ny\n";
  S.Mode = ProfileContext;
  S.CleanSteps = 500;
  S.TotalCycles = 1234;
  S.HasOverhead = 1;
  S.BaselineTotalCycles = 1000;
  S.CostModelCycles = {1, 1, 3, 20};
  S.Functions = {"f", "g"};
  ProfInstr I;
  I.Id = 1;
  I.Opcode = 2;
  I.DupRole = 2;
  I.Line = 4;
  I.Col = 7;
  I.FunctionIndex = 1;
  I.ExecCount = 10;
  I.Cycles = 30;
  S.Instructions = {I};
  ProfContext C;
  C.Id = 0;
  C.FunctionIndex = 0;
  C.Steps = 500;
  C.Cycles = 1234;
  S.Contexts = {C};
  S.LineCosts = {{0, 1, 4, 10, 30}};
  ProfSiteOverhead O;
  O.SiteId = 1;
  O.Opcode = 2;
  O.Protected_ = 1;
  O.Line = 4;
  O.Col = 7;
  O.FunctionIndex = 1;
  O.BaseCycles = 30;
  O.ProtCycles = 30;
  O.ShadowCycles = 30;
  O.CheckCycles = 5;
  S.Overheads = {O};
  return S;
}

SummaryStore sampleSummary() {
  SummaryStore S;
  S.ModuleName = "golden.mc";
  S.EntryFunction = "f";
  SummaryFunc F;
  F.Name = "f";
  F.ContentHash = 0xaaaabbbbccccddddull;
  F.ReachableHash = 0x1234;
  F.Callees = {"g"};
  SummaryArg A;
  A.SinkMask = 5;
  A.FlowsToReturn = 1;
  A.MinSinkDistance = 2;
  F.Args = {A, SummaryArg()};
  SummaryFunc G;
  G.Name = "g";
  S.Functions = {F, G};
  return S;
}

SessionStore sampleSession() {
  SessionStore S;
  S.Tool = "ipas-cc";
  S.ModuleName = "golden.mc";
  S.EntryFunction = "f";
  S.Label = "golden";
  S.SessionLabel = "commit golden";
  S.Seed = 11;
  S.Backend = 1;
  S.Threads = 4;
  S.Pruning = 1;
  S.Incremental = 0;
  S.PropSampleEvery = 4;
  S.ModuleHash = 0xfedcba9876543210ull;
  S.WallSeconds = 0.5;
  S.RunsPerSec = 240.0;
  S.Heartbeats = 2;
  S.Runs = 120;
  S.PrunedRuns = 3;
  S.VmRuns = 100;
  S.InterpRuns = 20;
  S.OutcomeTotals = {1, 2, 90, 10, 17};
  S.FallbackReasons = {"vm.fallback.compile", "vm.fallback.other"};
  S.FallbackCounts = {0, 20};
  SessionFunction F;
  F.Name = "f";
  F.ContentHash = 1;
  F.ReachableHash = 2;
  F.Sites = 30;
  F.Runs = 120;
  F.Soc = 17;
  F.OverheadCycles = 640;
  S.Functions = {F};
  SessionArtifact A;
  A.Kind = SessionArtifactRecord;
  A.Path = "golden.iprec";
  A.Size = 321;
  A.Checksum = 0x0badc0de0badc0deull;
  S.Artifacts = {A};
  return S;
}

//===----------------------------------------------------------------------===//
// The kind table
//===----------------------------------------------------------------------===//

struct StoreKind {
  const char *Name;  ///< Kind name used in every diagnostic.
  const char *Magic; ///< The 8 magic bytes.
  size_t GoldenSize; ///< Serialized length of the sample.
  uint64_t GoldenHash; ///< FNV-1a (frozen basis) of the whole sample image.
  std::function<std::string()> Image;
  std::function<bool(const std::string &, std::string *)> Parse;
  std::function<bool(const std::string &, std::string *)> Write;
  std::function<bool(const std::string &, std::string *)> Read;
};

template <typename StoreT>
StoreKind
makeKind(const char *Name, const char *Magic, size_t Size, uint64_t Hash,
         StoreT (*Sample)(),
         void (*Serialize)(const StoreT &, std::string &),
         bool (*Parse)(StoreT &, const std::string &, std::string *),
         bool (*Write)(const StoreT &, const std::string &, std::string *),
         bool (*Read)(StoreT &, const std::string &, std::string *)) {
  StoreKind K;
  K.Name = Name;
  K.Magic = Magic;
  K.GoldenSize = Size;
  K.GoldenHash = Hash;
  K.Image = [=] {
    std::string Out;
    Serialize(Sample(), Out);
    return Out;
  };
  K.Parse = [=](const std::string &Data, std::string *Err) {
    StoreT S;
    return Parse(S, Data, Err);
  };
  K.Write = [=](const std::string &Path, std::string *Err) {
    return Write(Sample(), Path, Err);
  };
  K.Read = [=](const std::string &Path, std::string *Err) {
    StoreT S;
    return Read(S, Path, Err);
  };
  return K;
}

/// Golden constants captured from the stores as they are written today.
/// They must only change together with a deliberate format (version)
/// change.
const std::vector<StoreKind> &kinds() {
  static const std::vector<StoreKind> Table = {
      makeKind<RecordStore>("record store", "IPASREC\0", 450,
                            0x5ec08be5a49b905aull,
                            sampleRecord, serializeRecordStore,
                            parseRecordStore, writeRecordStore,
                            readRecordStore),
      makeKind<PropagationStore>("propagation store", "IPASPROP", 363,
                                 0x175574bfdd347286ull,
                                 sampleProp, serializePropagationStore,
                                 parsePropagationStore,
                                 writePropagationStore,
                                 readPropagationStore),
      makeKind<ProfileStore>("profile store", "IPASPROF", 304,
                             0xadd2f936a5492ee9ull,
                             sampleProfile, serializeProfileStore,
                             parseProfileStore, writeProfileStore,
                             readProfileStore),
      makeKind<SummaryStore>("summary store", "IPASSUM\0", 151,
                             0x3d62b37b708f7badull,
                             sampleSummary, serializeSummaryStore,
                             parseSummaryStore, writeSummaryStore,
                             readSummaryStore),
      makeKind<SessionStore>("session manifest", "IPASSES\0", 397,
                             0x5eef273f26990a5full,
                             sampleSession, serializeSessionStore,
                             parseSessionStore, writeSessionStore,
                             readSessionStore),
  };
  return Table;
}

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llxull",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Magic, version, then a payload length chosen so that
/// `HeaderSize + PayloadLen + 8` wraps to exactly the 20-byte image size.
std::string wrappingLengthImage(const char *Magic) {
  std::string Bad(Magic, 8);
  Bad += std::string("\x01\x00\x00\x00", 4);
  Bad += std::string("\xf8\xff\xff\xff\xff\xff\xff\xff", 8);
  return Bad;
}

std::string readAll(const std::string &Path) {
  std::string Out;
  if (FILE *F = std::fopen(Path.c_str(), "rb")) {
    char Buf[4096];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      Out.append(Buf, N);
    std::fclose(F);
  }
  return Out;
}

std::vector<std::string> listDir(const std::string &Dir) {
  std::vector<std::string> Names;
  if (DIR *D = opendir(Dir.c_str())) {
    while (dirent *E = readdir(D)) {
      std::string N = E->d_name;
      if (N != "." && N != "..")
        Names.push_back(N);
    }
    closedir(D);
  }
  return Names;
}

void removeTree(const std::string &Path) {
  for (const std::string &N : listDir(Path))
    removeTree(Path + "/" + N);
  if (rmdir(Path.c_str()) != 0)
    std::remove(Path.c_str());
}

/// A fresh empty directory under the gtest temp dir.
std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "ipas-envelope-" + Name + "-" +
                    std::to_string(getpid());
  removeTree(Dir);
  mkdir(Dir.c_str(), 0777);
  return Dir;
}

} // namespace

TEST(StoreEnvelope, ByteIdentityGolden) {
  // The checksum basis every store and every ledger history depends on.
  EXPECT_EQ(FnvOffset, 1469598103934665603ull);
  for (const StoreKind &K : kinds()) {
    std::string Bytes = K.Image();
    EXPECT_EQ(Bytes.size(), K.GoldenSize) << K.Name;
    EXPECT_EQ(fnv1a(Bytes.data(), Bytes.size()), K.GoldenHash)
        << K.Name << ": " << hex(fnv1a(Bytes.data(), Bytes.size()));
    EXPECT_EQ(Bytes.compare(0, 8, std::string(K.Magic, 8)), 0) << K.Name;
    std::string Err;
    EXPECT_TRUE(K.Parse(Bytes, &Err)) << K.Name << ": " << Err;
  }
}

TEST(StoreEnvelope, WrappingPayloadLengthIsTruncated) {
  for (const StoreKind &K : kinds()) {
    std::string Bad = wrappingLengthImage(K.Magic);
    ASSERT_EQ(Bad.size(), 20u);
    std::string Err;
    EXPECT_FALSE(K.Parse(Bad, &Err)) << K.Name;
    EXPECT_EQ(Err.rfind(std::string(K.Name) + " truncated", 0), 0u)
        << K.Name << ": " << Err;
  }
}

TEST(StoreEnvelope, ReadersRejectOtherKindsAsBadMagic) {
  for (const StoreKind &Reader : kinds())
    for (const StoreKind &Other : kinds()) {
      if (&Reader == &Other)
        continue;
      std::string Err;
      EXPECT_FALSE(Reader.Parse(Other.Image(), &Err))
          << Reader.Name << " accepted a " << Other.Name;
      EXPECT_EQ(Err, "not a " + std::string(Reader.Name) + " (bad magic)");
    }
}

TEST(StoreEnvelope, WriteReplacesExistingStoreCompletely) {
  std::string Dir = freshDir("replace");
  mode_t Mask = umask(0);
  umask(Mask);
  for (const StoreKind &K : kinds()) {
    std::string Path = Dir + "/" + K.Magic;
    std::remove(Path.c_str());
    std::string Err;
    ASSERT_TRUE(K.Write(Path, &Err)) << K.Name << ": " << Err;
    struct stat St;
    ASSERT_EQ(stat(Path.c_str(), &St), 0);
    EXPECT_EQ(St.st_mode & 0777, 0666 & ~Mask) << K.Name;

    // Overwrite a longer valid store of another kind: nothing of the old
    // image may survive.
    std::string Longer = kinds()[0].Image() + kinds()[4].Image();
    if (FILE *F = std::fopen(Path.c_str(), "wb")) {
      std::fwrite(Longer.data(), 1, Longer.size(), F);
      std::fclose(F);
    }
    ASSERT_TRUE(K.Write(Path, &Err)) << K.Name << ": " << Err;
    EXPECT_EQ(readAll(Path), K.Image()) << K.Name;
    EXPECT_TRUE(K.Read(Path, &Err)) << K.Name << ": " << Err;
  }
  // Only the targets remain: no temporary siblings.
  EXPECT_EQ(listDir(Dir).size(), kinds().size());
  removeTree(Dir);
}

TEST(StoreEnvelope, FailedRenameLeavesTargetAndNoTempSibling) {
  std::string Dir = freshDir("rename");
  std::string Target = Dir + "/target";
  ASSERT_EQ(mkdir(Target.c_str(), 0777), 0);
  if (FILE *F = std::fopen((Target + "/keep").c_str(), "wb")) {
    std::fputs("keep", F);
    std::fclose(F);
  }
  for (const StoreKind &K : kinds()) {
    std::string Err;
    EXPECT_FALSE(K.Write(Target, &Err)) << K.Name;
    EXPECT_NE(Err.find(Target), std::string::npos) << Err;
    EXPECT_EQ(listDir(Dir), std::vector<std::string>{"target"}) << K.Name;
    EXPECT_EQ(listDir(Target), std::vector<std::string>{"keep"}) << K.Name;
    EXPECT_EQ(readAll(Target + "/keep"), "keep") << K.Name;
  }
  removeTree(Dir);
}

TEST(StoreEnvelope, WritesThroughAPipeInsteadOfReplacingIt) {
  std::string Dir = freshDir("pipe");
  std::string Fifo = Dir + "/fifo";
  ASSERT_EQ(mkfifo(Fifo.c_str(), 0666), 0);
  for (const StoreKind &K : kinds()) {
    // A nonblocking reader lets the writer's open succeed, and each
    // sample fits the pipe buffer, so one thread suffices.
    int Rd = open(Fifo.c_str(), O_RDONLY | O_NONBLOCK);
    ASSERT_GE(Rd, 0);
    std::string Err;
    EXPECT_TRUE(K.Write(Fifo, &Err)) << K.Name << ": " << Err;
    std::string Got;
    char Buf[4096];
    ssize_t N;
    while ((N = read(Rd, Buf, sizeof(Buf))) > 0)
      Got.append(Buf, static_cast<size_t>(N));
    close(Rd);
    EXPECT_EQ(Got, K.Image()) << K.Name;
    struct stat St;
    ASSERT_EQ(stat(Fifo.c_str(), &St), 0);
    EXPECT_TRUE(S_ISFIFO(St.st_mode)) << K.Name;
  }
  removeTree(Dir);
}
