//===- ml/SmoPass.cpp -----------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// One branch-free pass of GCC vector-extension code, compiled twice from
/// one template: under target("avx2") on 32-byte vectors and for the
/// default target on 16-byte vectors (32-byte ones lowered without AVX2
/// run several times slower). Neither enables FMA, so no multiply-add can
/// be fused and the update rounds as the scalar expression does; never
/// widen the target to "fma" or "arch=haswell".
///
/// Selection keeps, per lane, the best (key, row) pair so far in a
/// lexicographic order: for I_up the larger key V + UpOff, then the
/// smaller row. The order is total over non-NaN keys and no two groups
/// share a row other than +inf (none), so the reduction is associative
/// and commutative and the lanes can be combined in any order; a NaN key
/// compares false both ways and never replaces a best.
///
//===----------------------------------------------------------------------===//

#include "ml/SmoPass.h"

#include <cstring>
#include <limits>

using namespace ipas;

namespace {

typedef double V2d __attribute__((vector_size(16)));
typedef double V4d __attribute__((vector_size(32)));

constexpr double Inf = std::numeric_limits<double>::infinity();

// Helpers write through a reference: one that returned a 32-byte vector
// would have a non-AVX ABI in the default target (always inlined, so no
// such call is ever made, but GCC warns).
template <typename Vec>
[[gnu::always_inline]] inline void load(Vec &R, const double *P) {
  std::memcpy(&R, P, sizeof R);
}

template <typename Vec>
[[gnu::always_inline]] inline void splat(Vec &R, double X) {
  for (size_t L = 0; L != sizeof(Vec) / sizeof(double); ++L)
    R[L] = X;
}

/// Merges the candidates (Key, Row) into the best (BestKey, BestRow) so
/// far, lane by lane: the larger key wins for I_up (the smaller for
/// I_low), then the smaller row. No blends (SSE2 has none): the new best
/// row is the smaller of the old one, made NaN or +inf when the key
/// improved (a NaN loses "<"), and the candidate's row, made +inf when
/// the candidate does not reach the new best key (row + 0 is the row).
template <bool Up, typename VD>
[[gnu::always_inline]] inline void merge(VD &BestKey, VD &BestRow,
                                         const VD &Key, const VD &Row) {
  using VI = decltype(Key < Key);
  VD InfV;
  splat(InfV, Inf);
  const VD NewKey = Up ? (Key > BestKey ? Key : BestKey)
                       : (Key < BestKey ? Key : BestKey);
  const VD Cand = Row + (VD)(~(Key == NewKey) & (VI)InfV);
  const VD Kept = (VD)((VI)BestRow | ((NewKey != BestKey) & (VI)InfV));
  BestRow = Kept < Cand ? Kept : Cand;
  BestKey = NewKey;
}

/// R[l] = V[l ^ Step].
template <size_t Step, typename VD>
[[gnu::always_inline]] inline void partner(VD &R, const VD &V) {
  if constexpr (sizeof(VD) == 32 && Step == 2)
    R = __builtin_shufflevector(V, V, 2, 3, 0, 1);
  else if constexpr (sizeof(VD) == 32)
    R = __builtin_shufflevector(V, V, 1, 0, 3, 2);
  else
    R = __builtin_shufflevector(V, V, 1, 0);
}

/// Merges every lane of the bests into every lane, Step apart and down.
template <size_t Step, typename VD>
[[gnu::always_inline]] inline void fold(VD &UpKey, VD &UpRow, VD &LowKey,
                                        VD &LowRow) {
  VD Key, Row;
  partner<Step>(Key, UpKey);
  partner<Step>(Row, UpRow);
  merge<true>(UpKey, UpRow, Key, Row);
  partner<Step>(Key, LowKey);
  partner<Step>(Row, LowRow);
  merge<false>(LowKey, LowRow, Key, Row);
  if constexpr (Step > 1)
    fold<Step / 2>(UpKey, UpRow, LowKey, LowRow);
}

/// The pass on vectors VD of doubles, with U independent best-so-far
/// accumulators per set.
template <typename VD, size_t U>
[[gnu::always_inline]] inline SmoPair pass(const SmoPassArrays &A,
                                           const double *Ki,
                                           const double *Kj, double DAi,
                                           double DAj, size_t N) {
  constexpr size_t L = sizeof(VD) / sizeof(double);
  static_assert(SmoPassArrays::Block % (L * U) == 0);
  VD Di, Dj, UpKey[U], UpRow[U], LowKey[U], LowRow[U];
  splat(Di, DAi);
  splat(Dj, DAj);
  for (size_t K = 0; K != U; ++K) {
    splat(UpKey[K], -Inf);
    splat(UpRow[K], Inf);
    splat(LowKey[K], Inf);
    splat(LowRow[K], Inf);
  }
  // Locals, so that the stores to V cannot be taken to change them.
  double *const V = A.V;
  const double *const UpOffs = A.UpOff, *const UpFirst = A.UpFirst;
  const double *const LowOffs = A.LowOff, *const LowFirst = A.LowFirst;
  const size_t Size = A.Size;
  for (size_t T = 0; T != Size; T += L * U)
#pragma GCC unroll 4
    for (size_t K = 0; K != U; ++K) {
      const size_t At = T + K * L;
      VD Vt, KiT, KjT, Off, First;
      load(Vt, V + At);
      load(KiT, Ki + At);
      load(KjT, Kj + At);
      Vt -= Di * KiT + Dj * KjT;
      std::memcpy(V + At, &Vt, sizeof Vt);
      load(Off, UpOffs + At);
      load(First, UpFirst + At);
      merge<true>(UpKey[K], UpRow[K], Vt + Off, First);
      load(Off, LowOffs + At);
      load(First, LowFirst + At);
      merge<false>(LowKey[K], LowRow[K], Vt + Off, First);
    }

  for (size_t K = 1; K != U; ++K) {
    merge<true>(UpKey[0], UpRow[0], UpKey[K], UpRow[K]);
    merge<false>(LowKey[0], LowRow[0], LowKey[K], LowRow[K]);
  }
  fold<L / 2>(UpKey[0], UpRow[0], LowKey[0], LowRow[0]);
  auto Row = [N](double At) {
    return At == Inf ? N : static_cast<size_t>(At);
  };
  return {Row(UpRow[0][0]), Row(LowRow[0][0])};
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2")]] SmoPair passAvx2(const SmoPassArrays &A,
                                         const double *Ki, const double *Kj,
                                         double DAi, double DAj, size_t N) {
  return pass<V4d, 2>(A, Ki, Kj, DAi, DAj, N);
}
#endif

} // namespace

SmoPair ipas::smoPass(const SmoPassArrays &A, const double *Ki,
                      const double *Kj, double DAi, double DAj, size_t N) {
#if defined(__x86_64__) || defined(__i386__)
  // Checked per call (a load and a bit test) rather than by GCC function
  // multiversioning: its ifunc resolver runs before ThreadSanitizer's
  // runtime is up, so -fsanitize=thread builds crash at load.
  if (__builtin_cpu_supports("avx2"))
    return passAvx2(A, Ki, Kj, DAi, DAj, N);
#endif
  return smoPassDefault(A, Ki, Kj, DAi, DAj, N);
}

SmoPair ipas::smoPassDefault(const SmoPassArrays &A, const double *Ki,
                             const double *Kj, double DAi, double DAj,
                             size_t N) {
  return pass<V2d, 2>(A, Ki, Kj, DAi, DAj, N);
}
