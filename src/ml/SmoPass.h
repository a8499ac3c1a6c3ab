//===- ml/SmoPass.h - SMO's gradient update and working-set selection -----===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inner loop of the SMO solver (ml/Svm.cpp): one pass over the
/// per-group arrays that applies an iteration's gradient step and picks
/// the next working set. Internal to ipas_ml; the tests call it directly.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_ML_SMOPASS_H
#define IPAS_ML_SMOPASS_H

#include <cstddef>

namespace ipas {

/// The per-group arrays the pass reads, each Size long. Size is a
/// multiple of Block; the groups past the real ones are in neither set.
struct SmoPassArrays {
  static constexpr size_t Block = 8;

  double *V;
  /// I_up membership: 0 for a group with a row in I_up, -inf otherwise;
  /// and the group's smallest row in I_up, +inf if none.
  const double *UpOff, *UpFirst;
  /// I_low membership: 0 or +inf; and the smallest row in I_low.
  const double *LowOff, *LowFirst;
  size_t Size;
};

/// Row indices of a working set; N (the row count) for an empty set.
struct SmoPair {
  size_t I, J;
};

/// Sets V[t] = V[t] - (DAi * Ki[t] + DAj * Kj[t]) for every t < A.Size
/// (no fused multiply-add), then returns the
/// next working set: I is the smallest UpFirst among the groups with
/// the largest V + UpOff, J the smallest LowFirst among those with the
/// smallest V + LowOff. A NaN key never wins, and a set with no row
/// gives N. Runs the AVX2 version on CPUs that have it, smoPassDefault
/// otherwise; both give the same bits.
SmoPair smoPass(const SmoPassArrays &A, const double *Ki, const double *Kj,
                double DAi, double DAj, size_t N);

/// smoPass on 16-byte vectors, which every x86-64 CPU runs.
SmoPair smoPassDefault(const SmoPassArrays &A, const double *Ki,
                       const double *Kj, double DAi, double DAj, size_t N);

} // namespace ipas

#endif // IPAS_ML_SMOPASS_H
