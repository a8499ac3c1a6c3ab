//===- obs/SummaryStore.cpp -----------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// File layout: the shared store envelope (obs/BinCodec.h) with magic
// "IPASSUM\0" and version 1; the payload is below (serializePayload).
//
//===----------------------------------------------------------------------===//

#include "obs/SummaryStore.h"

#include "obs/BinCodec.h"

using namespace ipas;
using namespace ipas::obs;

namespace {

constexpr StoreEnvelope Envelope = {"IPASSUM\0", SummaryStoreVersion,
                                     "summary store"};

void serializePayload(const SummaryStore &S, Encoder &E) {
  E.str(S.ModuleName);
  E.str(S.EntryFunction);
  E.u64(S.Functions.size());
  for (const SummaryFunc &F : S.Functions) {
    E.str(F.Name);
    E.u64(F.ContentHash);
    E.u64(F.ReachableHash);
    E.u64(F.Callees.size());
    for (const std::string &C : F.Callees)
      E.str(C);
    E.u64(F.Args.size());
    for (const SummaryArg &A : F.Args) {
      E.u32(A.SinkMask);
      E.u8(A.FlowsToReturn);
      E.u32(A.MinSinkDistance);
    }
  }
}

void parsePayload(SummaryStore &S, Decoder &D) {
  S.ModuleName = D.str();
  S.EntryFunction = D.str();
  S.Functions.resize(D.count(4 + 8 + 8 + 8 + 8));
  for (SummaryFunc &F : S.Functions) {
    F.Name = D.str();
    F.ContentHash = D.u64();
    F.ReachableHash = D.u64();
    F.Callees.resize(D.count(4));
    for (std::string &C : F.Callees)
      C = D.str();
    F.Args.resize(D.count(4 + 1 + 4));
    for (SummaryArg &A : F.Args) {
      A.SinkMask = D.u32();
      A.FlowsToReturn = D.u8();
      A.MinSinkDistance = D.u32();
    }
  }
}

} // namespace

void ipas::obs::serializeSummaryStore(const SummaryStore &S, std::string &Out) {
  encodeEnvelope(Envelope, Out, [&](Encoder &E) { serializePayload(S, E); });
}

bool ipas::obs::writeSummaryStore(const SummaryStore &S,
                                  const std::string &Path, std::string *Err) {
  std::string Bytes;
  serializeSummaryStore(S, Bytes);
  return writeFileAtomic(Path, Bytes, Err);
}

bool ipas::obs::parseSummaryStore(SummaryStore &S, const std::string &Data,
                                  std::string *Err) {
  return decodeEnvelope(Envelope, Data, Err,
                        [&](uint32_t, Decoder &D) { parsePayload(S, D); });
}

bool ipas::obs::readSummaryStore(SummaryStore &S, const std::string &Path,
                                 std::string *Err) {
  std::string Data;
  return readFile(Path, Data, Err) && parseSummaryStore(S, Data, Err);
}
