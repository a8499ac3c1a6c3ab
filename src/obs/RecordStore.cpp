//===- obs/RecordStore.cpp ----------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// File layout: the shared store envelope (obs/BinCodec.h) with magic
// "IPASREC\0" and version 2; v1 files parse too — they predate the
// FunctionMetas section.
//
// The payload is a flat sequence of fields; strings are u32 length +
// bytes, vectors are u64 count + elements. Doubles are stored as the
// IEEE-754 bit pattern in a u64, so round trips are bit-exact (including
// NaNs and signed zeros).
//
//===----------------------------------------------------------------------===//

#include "obs/RecordStore.h"

#include "obs/BinCodec.h"

using namespace ipas;
using namespace ipas::obs;

namespace {

constexpr StoreEnvelope Envelope = {"IPASREC\0", RecordStoreVersion,
                                     "record store"};

void serializePayload(const RecordStore &S, Encoder &E) {
  E.str(S.ModuleName);
  E.str(S.EntryFunction);
  E.str(S.Label);
  E.u64(S.Seed);
  E.u64(S.CleanSteps);
  E.u64(S.CleanValueSteps);
  E.u64(S.PrunedRuns);
  E.u64(S.PrunedSites);
  E.u64(S.OutcomeTotals.size());
  for (uint64_t T : S.OutcomeTotals)
    E.u64(T);
  E.str(S.SourceText);
  E.u64(S.Functions.size());
  for (const std::string &F : S.Functions)
    E.str(F);
  E.u64(S.Instructions.size());
  for (const InstrRecord &I : S.Instructions) {
    E.u32(I.Id);
    E.u8(I.Opcode);
    E.u8(I.DupRole);
    E.u8(I.Predicted);
    E.u8(I.Protected_);
    E.u32(I.Line);
    E.u32(I.Col);
    E.u32(I.FunctionIndex);
    E.u64(I.DynExecCount);
    E.f64(I.Score);
  }
  E.u32(S.NumFeatures);
  E.u64(S.Features.size());
  for (double F : S.Features)
    E.f64(F);
  E.u64(S.Rows.size());
  for (const InjectionRow &R : S.Rows) {
    E.u32(R.InstructionId);
    E.u32(R.BitIndex);
    E.u64(R.TargetValueStep);
    E.u8(R.Outcome);
    E.u32(R.LatencyUs);
  }
  // v2: incremental-campaign function table.
  E.u64(S.FunctionMetas.size());
  for (const FunctionMeta &F : S.FunctionMetas) {
    E.u32(F.FunctionIndex);
    E.u64(F.ContentHash);
    E.u64(F.ReachableHash);
    E.u64(F.ProfileHash);
    E.u64(F.FirstInstructionId);
    E.u64(F.LocalValueSteps);
    E.u64(F.PlannedRuns);
    E.u64(F.ReusedRuns);
    E.u8(F.Invalidation);
  }
}

void parsePayload(RecordStore &S, uint32_t Version, Decoder &D) {
  S.ModuleName = D.str();
  S.EntryFunction = D.str();
  S.Label = D.str();
  S.Seed = D.u64();
  S.CleanSteps = D.u64();
  S.CleanValueSteps = D.u64();
  S.PrunedRuns = D.u64();
  S.PrunedSites = D.u64();
  S.OutcomeTotals.resize(D.count(8));
  for (uint64_t &T : S.OutcomeTotals)
    T = D.u64();
  S.SourceText = D.str();
  S.Functions.resize(D.count(4));
  for (std::string &F : S.Functions)
    F = D.str();
  S.Instructions.resize(D.count(4 + 4 + 4 + 4 + 4 + 8 + 8));
  for (InstrRecord &I : S.Instructions) {
    I.Id = D.u32();
    I.Opcode = D.u8();
    I.DupRole = D.u8();
    I.Predicted = D.u8();
    I.Protected_ = D.u8();
    I.Line = D.u32();
    I.Col = D.u32();
    I.FunctionIndex = D.u32();
    I.DynExecCount = D.u64();
    I.Score = D.f64();
  }
  S.NumFeatures = D.u32();
  S.Features.resize(D.count(8));
  for (double &F : S.Features)
    F = D.f64();
  S.Rows.resize(D.count(4 + 4 + 8 + 1 + 4));
  for (InjectionRow &R : S.Rows) {
    R.InstructionId = D.u32();
    R.BitIndex = D.u32();
    R.TargetValueStep = D.u64();
    R.Outcome = D.u8();
    R.LatencyUs = D.u32();
  }
  S.FunctionMetas.clear();
  if (Version >= 2) {
    S.FunctionMetas.resize(D.count(4 + 7 * 8 + 1));
    for (FunctionMeta &F : S.FunctionMetas) {
      F.FunctionIndex = D.u32();
      F.ContentHash = D.u64();
      F.ReachableHash = D.u64();
      F.ProfileHash = D.u64();
      F.FirstInstructionId = D.u64();
      F.LocalValueSteps = D.u64();
      F.PlannedRuns = D.u64();
      F.ReusedRuns = D.u64();
      F.Invalidation = D.u8();
    }
  }
}

} // namespace

void RecordStore::tallyOutcomes() {
  OutcomeTotals.clear();
  for (const InjectionRow &R : Rows) {
    if (R.Outcome >= OutcomeTotals.size())
      OutcomeTotals.resize(R.Outcome + 1, 0);
    ++OutcomeTotals[R.Outcome];
  }
}

void ipas::obs::serializeRecordStore(const RecordStore &S, std::string &Out) {
  encodeEnvelope(Envelope, Out, [&](Encoder &E) { serializePayload(S, E); });
}

bool ipas::obs::writeRecordStore(const RecordStore &S, const std::string &Path,
                                 std::string *Err) {
  std::string Bytes;
  serializeRecordStore(S, Bytes);
  return writeFileAtomic(Path, Bytes, Err);
}

bool ipas::obs::parseRecordStore(RecordStore &S, const std::string &Data,
                                 std::string *Err) {
  return decodeEnvelope(Envelope, Data, Err,
                        [&](uint32_t Version, Decoder &D) {
                          parsePayload(S, Version, D);
                        });
}

bool ipas::obs::readRecordStore(RecordStore &S, const std::string &Path,
                                std::string *Err) {
  std::string Data;
  return readFile(Path, Data, Err) && parseRecordStore(S, Data, Err);
}
