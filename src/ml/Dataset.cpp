//===- ml/Dataset.cpp ----------------------------------------------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ml/Dataset.h"

#include <cstring>

using namespace ipas;

int ipas::compareRowBytes(const std::vector<double> &A,
                          const std::vector<double> &B) {
  return A.empty() ? 0 : std::memcmp(A.data(), B.data(),
                                     A.size() * sizeof(double));
}

void FeatureScaler::fit(const std::vector<std::vector<double>> &X) {
  assert(!X.empty() && "cannot fit a scaler on an empty set");
  size_t D = X.front().size();
  Mins.assign(D, 0.0);
  Ranges.assign(D, 0.0);
  std::vector<double> Maxs(D, 0.0);
  for (size_t J = 0; J != D; ++J) {
    Mins[J] = Maxs[J] = X.front()[J];
  }
  for (const auto &Row : X)
    for (size_t J = 0; J != D; ++J) {
      if (Row[J] < Mins[J])
        Mins[J] = Row[J];
      if (Row[J] > Maxs[J])
        Maxs[J] = Row[J];
    }
  for (size_t J = 0; J != D; ++J)
    Ranges[J] = Maxs[J] - Mins[J];
}

std::vector<double>
FeatureScaler::transform(const std::vector<double> &V) const {
  assert(V.size() == Mins.size() && "dimension mismatch");
  std::vector<double> Out(V.size());
  for (size_t J = 0; J != V.size(); ++J)
    Out[J] = Ranges[J] > 0.0 ? (V[J] - Mins[J]) / Ranges[J] : 0.0;
  return Out;
}

Dataset FeatureScaler::transform(const Dataset &D) const {
  Dataset Out;
  Out.X.reserve(D.size());
  for (size_t I = 0; I != D.size(); ++I)
    Out.add(transform(D.X[I]), D.Y[I]);
  return Out;
}
