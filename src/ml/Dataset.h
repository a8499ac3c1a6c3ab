//===- ml/Dataset.h - Training data and feature scaling --------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef IPAS_ML_DATASET_H
#define IPAS_ML_DATASET_H

#include <cassert>
#include <cstddef>
#include <vector>

namespace ipas {

/// A dense binary-classification dataset. Labels are +1 (class 1, e.g.
/// SOC-generating) and -1 (class 2).
struct Dataset {
  std::vector<std::vector<double>> X;
  std::vector<int> Y;

  size_t size() const { return X.size(); }
  size_t dim() const { return X.empty() ? 0 : X.front().size(); }

  void add(std::vector<double> Features, int Label) {
    assert((Label == 1 || Label == -1) && "labels are +1/-1");
    assert((X.empty() || Features.size() == dim()) &&
           "inconsistent feature dimension");
    X.push_back(std::move(Features));
    Y.push_back(Label);
  }

  size_t countLabel(int Label) const {
    size_t N = 0;
    for (int L : Y)
      if (L == Label)
        ++N;
    return N;
  }
};

/// Orders feature rows of equal width by their bytes, so that a sort
/// puts bitwise-equal rows together and keeps 0.0 apart from -0.0.
/// Negative, zero or positive, as std::memcmp.
int compareRowBytes(const std::vector<double> &A,
                    const std::vector<double> &B);

/// Min-max scaling of each feature to [0, 1] (the standard LIBSVM
/// preprocessing). Constant features map to 0.
class FeatureScaler {
public:
  void fit(const std::vector<std::vector<double>> &X);
  std::vector<double> transform(const std::vector<double> &V) const;
  Dataset transform(const Dataset &D) const;
  size_t dim() const { return Mins.size(); }

private:
  std::vector<double> Mins;
  std::vector<double> Ranges; ///< max - min; 0 for constant features.
};

} // namespace ipas

#endif // IPAS_ML_DATASET_H
