//===- fault/FunctionHarness.h - Campaign harness for one function --------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A ProgramHarness that drives a single function of a compiled module
/// with fixed arguments and verifies the return value bit-exactly
/// against the first clean run. This is what `ipas-cc --campaign` and
/// the record-store tests use: any MiniC function whose result is its
/// return value gets fault-injection campaigns (with value-step tracing,
/// so SocPropagation pruning works) without a bespoke harness.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_FAULT_FUNCTIONHARNESS_H
#define IPAS_FAULT_FUNCTIONHARNESS_H

#include "fault/ProgramExecutor.h"

#include <string>
#include <vector>

namespace ipas {

class FunctionHarness : public ProgramHarness {
public:
  /// Drives \p EntryName(Args...). The entry must return a value (the
  /// campaign's correctness oracle is the returned bit pattern).
  FunctionHarness(std::string EntryName, std::vector<RtValue> Args);

  ExecutionRecord run(const ModuleLayout &Layout, const FaultPlan *Plan,
                      uint64_t StepBudget, const Instruments &With) override {
    return verify(Exec.run(Layout, Plan, StepBudget, With));
  }

  /// See ProgramExecutor::setBackend.
  void setPreferredBackend(ExecBackend B) override { Exec.setBackend(B); }

  bool supportsInstruments() const override { return true; }

private:
  /// The return-bits check: the first finished run's bits become the
  /// golden reference (runCampaign's serial clean run), later runs must
  /// match them exactly.
  ExecutionRecord verify(const ProgramExecutor::Run &R);

  ProgramExecutor Exec;
  bool HaveGolden = false;
  uint64_t GoldenBits = 0;
};

} // namespace ipas

#endif // IPAS_FAULT_FUNCTIONHARNESS_H
