//===- fault/FunctionHarness.cpp ----------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fault/FunctionHarness.h"

using namespace ipas;

namespace {

ProgramExecutor::Config entryConfig(std::string Entry,
                                    std::vector<RtValue> Args) {
  ProgramExecutor::Config Cfg;
  Cfg.Entry = std::move(Entry);
  Cfg.Args = std::move(Args);
  return Cfg;
}

} // namespace

FunctionHarness::FunctionHarness(std::string EntryName,
                                 std::vector<RtValue> Args)
    : Exec(entryConfig(std::move(EntryName), std::move(Args))) {}

ExecutionRecord FunctionHarness::verify(const ProgramExecutor::Run &R) {
  ExecutionRecord Rec = R.Rec;
  if (Rec.Status == RunStatus::Finished) {
    uint64_t Bits = R.ReturnValue.Bits;
    if (!HaveGolden) {
      GoldenBits = Bits;
      HaveGolden = true;
      Rec.OutputValid = true;
    } else {
      Rec.OutputValid = Bits == GoldenBits;
    }
  }
  return Rec;
}
