//===- support/Random.h - Deterministic random number generation ---------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seedable, splittable random number generator used throughout the fault
/// injection and machine learning components. Every stochastic component of
/// the system draws from an explicitly passed Rng so that campaigns are
/// reproducible from a single seed.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_SUPPORT_RANDOM_H
#define IPAS_SUPPORT_RANDOM_H

#include <cassert>
#include <cstdint>

namespace ipas {

/// Deterministic 64-bit generator (xoshiro256** core) with convenience
/// sampling helpers. Cheap to copy; copies evolve independently.
class Rng {
public:
  explicit Rng(uint64_t Seed = 0x9e3779b97f4a7c15ULL) { reseed(Seed); }

  /// Re-initializes the state from \p Seed via splitmix64 so that nearby
  /// seeds yield uncorrelated streams.
  void reseed(uint64_t Seed) {
    uint64_t X = Seed;
    for (auto &Word : State) {
      X += 0x9e3779b97f4a7c15ULL;
      uint64_t Z = X;
      Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
      Word = Z ^ (Z >> 31);
    }
  }

  /// Returns the next raw 64-bit word.
  uint64_t next() {
    uint64_t Result = rotl(State[1] * 5, 7) * 9;
    uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = rotl(State[3], 45);
    return Result;
  }

  /// Uniform integer in [0, Bound). \p Bound must be nonzero.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound != 0 && "nextBelow() bound must be positive");
    // Debiased multiply-shift (Lemire).
    while (true) {
      uint64_t X = next();
      __uint128_t M = static_cast<__uint128_t>(X) * Bound;
      uint64_t Low = static_cast<uint64_t>(M);
      if (Low >= Bound || Low >= (-Bound) % Bound)
        return static_cast<uint64_t>(M >> 64);
    }
  }

  /// Uniform integer in [Lo, Hi] inclusive.
  int64_t nextInRange(int64_t Lo, int64_t Hi) {
    assert(Lo <= Hi && "nextInRange() empty range");
    return Lo + static_cast<int64_t>(
                    nextBelow(static_cast<uint64_t>(Hi - Lo) + 1));
  }

  /// Uniform double in [0, 1).
  double nextDouble() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [Lo, Hi).
  double nextDoubleIn(double Lo, double Hi) {
    return Lo + (Hi - Lo) * nextDouble();
  }

  /// Bernoulli draw with probability \p P of returning true.
  bool nextBool(double P = 0.5) { return nextDouble() < P; }

  /// Derives an independent child generator; useful for giving each
  /// injection run its own stream while keeping the campaign reproducible.
  Rng split() { return Rng(next() ^ 0xd1b54a32d192ed03ULL); }

  /// Equal states draw equal streams.
  bool operator==(const Rng &) const = default;

  /// Fisher-Yates shuffles \p N elements through \p Swap(I, J) callbacks.
  template <typename SwapFn> void shuffle(size_t N, SwapFn Swap) {
    for (size_t I = N; I > 1; --I) {
      size_t J = nextBelow(I);
      if (J != I - 1)
        Swap(I - 1, J);
    }
  }

private:
  static uint64_t rotl(uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }

  uint64_t State[4];
};

} // namespace ipas

#endif // IPAS_SUPPORT_RANDOM_H
