//===- perfbench/driver/Spans.cpp ---------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

namespace perfbench {

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

std::array<double, 3> quartiles(std::vector<double> V) {
  if (V.empty())
    return {0.0, 0.0, 0.0};
  if (V.size() == 1)
    return {V[0], V[0], V[0]};
  std::sort(V.begin(), V.end());
  // statistics.quantiles(method='exclusive'): positions i * (n + 1) / 4,
  // clamped to [1, n - 1], interpolated in exact integer steps.
  const long Parts = 4;
  const long Len = static_cast<long>(V.size());
  const long M = Len + 1;
  std::array<double, 3> Q{};
  for (long I = 1; I < Parts; ++I) {
    long J = std::clamp(I * M / Parts, 1L, Len - 1);
    long Delta = I * M - J * Parts;
    Q[static_cast<size_t>(I - 1)] =
        (V[static_cast<size_t>(J - 1)] * static_cast<double>(Parts - Delta) +
         V[static_cast<size_t>(J)] * static_cast<double>(Delta)) /
        static_cast<double>(Parts);
  }
  return Q;
}

namespace {

/// 1-based nearest rank of percentile \p P among \p N samples.
size_t nearestRank(size_t N, double P) {
  // The epsilon keeps ranks such as 99% of 1000 at 990 although 0.99 has
  // no exact binary representation.
  double Exact = P / 100.0 * static_cast<double>(N);
  size_t Rank = static_cast<size_t>(std::ceil(Exact - 1e-9));
  return std::clamp<size_t>(Rank, 1, N);
}

} // namespace

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  size_t Rank = nearestRank(V.size(), P);
  std::nth_element(V.begin(), V.begin() + static_cast<long>(Rank - 1),
                   V.end());
  return V[Rank - 1];
}

size_t samplesBeyond(size_t N, double P) {
  return N ? N - nearestRank(N, P) : 0;
}

double supportedTailPercentile(size_t N) {
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (samplesBeyond(N, P) >= 10)
      return P;
  return 0.0;
}

const char *layerName(Layer L) {
  switch (L) {
  case Layer::Core:
    return "core";
  case Layer::Frontend:
    return "frontend";
  case Layer::Transform:
    return "transform";
  case Layer::Analysis:
    return "analysis";
  case Layer::Fault:
    return "fault";
  case Layer::Ml:
    return "ml";
  case Layer::Obs:
    return "obs";
  case Layer::Mpi:
    return "mpi";
  }
  return "?";
}

std::vector<double> selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<size_t>> Children(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Children[static_cast<size_t>(Spans[I].Parent)].push_back(I);

  std::vector<double> Self(Spans.size(), 0.0);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::vector<std::pair<double, double>> Cover;
    for (size_t C : Children[I]) {
      double Lo = std::max(Spans[C].Start, S.Start);
      double Hi = std::min(Spans[C].End, S.End);
      if (Hi > Lo)
        Cover.emplace_back(Lo, Hi);
    }
    std::sort(Cover.begin(), Cover.end());
    double Covered = 0.0, RunLo = 0.0, RunHi = 0.0;
    bool Open = false;
    for (const auto &[Lo, Hi] : Cover) {
      if (Open && Lo <= RunHi) {
        RunHi = std::max(RunHi, Hi);
        continue;
      }
      if (Open)
        Covered += RunHi - RunLo;
      RunLo = Lo;
      RunHi = Hi;
      Open = true;
    }
    if (Open)
      Covered += RunHi - RunLo;
    Self[I] = std::max(0.0, (S.End - S.Start) - Covered);
  }
  return Self;
}

std::array<double, NumLayers>
layerSelfTimes(const std::vector<Span> &Spans) {
  std::array<double, NumLayers> Out{};
  std::vector<double> Self = selfTimes(Spans);
  for (size_t I = 0; I != Spans.size(); ++I)
    Out[static_cast<size_t>(Spans[I].L)] += Self[I];
  return Out;
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Recorder &Recorder::get() {
  static Recorder R;
  return R;
}

void Recorder::beginRep(unsigned RepId) {
  Cur = RepTrace();
  Open.clear();
  GridDepth = 0;
  Rep = RepId;
  Owner = std::this_thread::get_id();
  Armed.store(true, std::memory_order_release);
  Span Root;
  Root.Name = "rep";
  Root.Start = nowSeconds();
  Root.Rep = RepId;
  Cur.Spans.push_back(Root);
  Open.push_back(0);
}

RepTrace Recorder::endRep() {
  Cur.Spans[0].End = nowSeconds();
  Armed.store(false, std::memory_order_release);
  Open.clear();
  return std::move(Cur);
}

int Recorder::open(const char *Name, Layer L, double Start) {
  int Parent = Open.back();
  const Span &Outer = Cur.Spans[static_cast<size_t>(Parent)];
  if (Outer.L == L)
    return std::strcmp(Outer.Name, Name) == 0 ? SameName : Collapsed;
  Span S;
  S.Name = Name;
  S.L = L;
  S.Start = Start;
  S.Parent = Parent;
  S.Rep = Rep;
  Cur.Spans.push_back(S);
  int Index = static_cast<int>(Cur.Spans.size() - 1);
  Open.push_back(Index);
  return Index;
}

void Recorder::close(int Index, double End) {
  if (Index < 0)
    return;
  Cur.Spans[static_cast<size_t>(Index)].End = End;
  Open.pop_back();
}

Scope::Scope(const char *Name, Layer L)
    : Name(Name), Active(Recorder::get().active()) {
  if (!Active)
    return;
  Start = nowSeconds();
  Index = Recorder::get().open(Name, L, Start);
}

Scope::~Scope() {
  if (!Active)
    return;
  double End = nowSeconds();
  Recorder &R = Recorder::get();
  Tally &T = R.tally(Name);
  ++T.Calls;
  if (Index != Recorder::SameName)
    T.Seconds += End - Start;
  R.close(Index, End);
}

} // namespace perfbench
