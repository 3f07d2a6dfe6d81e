#ifndef SKYEX_ML_STATISTICS_H_
#define SKYEX_ML_STATISTICS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset_view.h"

namespace skyex::ml {

/// Pearson correlation of two equally sized vectors; 0 when either is
/// constant.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// Pearson correlation of a feature column against the binary class.
double FeatureClassCorrelation(const FeatureMatrix& matrix, size_t column,
                               const std::vector<uint8_t>& labels,
                               const std::vector<size_t>& rows);

/// Mutual information between two continuous variables, estimated with
/// equal-width binning (the discretize + mutinformation approach of the
/// R `infotheo` package the paper uses). Result in nats, ≥ 0. The bins
/// span the finite entries; NaN and -inf fall in the first bin, +inf in
/// the last.
double MutualInformation(const std::vector<double>& x,
                         const std::vector<double>& y, size_t bins = 0);

/// Normalized mutual information in [0, 1]:
/// MI(x, y) / sqrt(H(x) · H(y)); 0 when either entropy is 0.
double NormalizedMutualInformation(const std::vector<double>& x,
                                   const std::vector<double>& y,
                                   size_t bins = 0);

/// Pairwise normalized mutual information of feature columns over the
/// given rows. Returns a cols×cols symmetric matrix (diagonal 1). Each
/// cell is bit-identical to NormalizedMutualInformation of the two
/// gathered columns; every column is binned once and the pairs are
/// scored on the shared thread pool.
std::vector<std::vector<double>> PairwiseNormalizedMi(
    const FeatureMatrix& matrix, const std::vector<size_t>& rows,
    size_t bins = 0);

/// Pairwise redundancy score of feature columns over the given rows:
/// max(normalized MI, |Pearson|), the score SkyEx-T's feature
/// de-duplication thresholds (core::FeatureSelectionOptions). Returns a
/// cols×cols symmetric matrix (diagonal 1); each cell is bit-identical to
/// max(NormalizedMutualInformation, |PearsonCorrelation|) of the two
/// gathered columns, at any thread count.
std::vector<std::vector<double>> PairwiseRedundancy(
    const FeatureMatrix& matrix, const std::vector<size_t>& rows,
    size_t bins = 0);

/// Min/max over the finite entries of `values`; `ok` is false when no
/// finite entry exists (NaN/Inf are skipped, never propagated). Used by
/// the quality subsystem to size reference-profile histogram bounds.
struct ValueRange {
  double min = 0.0;
  double max = 0.0;
  bool ok = false;
};
ValueRange FiniteRange(std::span<const double> values);

}  // namespace skyex::ml

#endif  // SKYEX_ML_STATISTICS_H_
