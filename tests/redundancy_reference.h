#ifndef SKYEX_TESTS_REDUNDANCY_REFERENCE_H_
#define SKYEX_TESTS_REDUNDANCY_REFERENCE_H_

// Frozen reference of SkyEx-T's feature-redundancy step, as it was before
// the pairwise matrix was rebuilt around prepared columns
// (ml/statistics.cc).
//
// These are copies of the per-pair path: every pair re-gathers nothing
// but re-discretizes both columns into fresh std::vector<size_t>s, builds
// the joint histogram by adding 1/n doubles, and recomputes both means and
// variances for Pearson. Slow and obviously correct. The RedundancyEquiv
// and ParDeterminism tests pin the production matrices bit-identical to
// these ("bit-identical" is memcmp on the doubles, not a tolerance).
//
// Only finite data has defined behaviour here: Discretize takes the range
// with std::minmax_element and casts (x - lo) / width to size_t, so a NaN
// or infinite entry makes it order-dependent or undefined.
//
// Do not optimize anything in this namespace. It lives under tests/
// because nothing in the library may call it.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "ml/dataset_view.h"

namespace skyex::redundancy_reference {

inline std::vector<size_t> Discretize(const std::vector<double>& x,
                                      size_t bins) {
  std::vector<size_t> out(x.size(), 0);
  if (x.empty()) return out;
  const auto [min_it, max_it] = std::minmax_element(x.begin(), x.end());
  const double lo = *min_it;
  const double hi = *max_it;
  if (hi <= lo) return out;
  const double width = (hi - lo) / static_cast<double>(bins);
  for (size_t i = 0; i < x.size(); ++i) {
    size_t b = static_cast<size_t>((x[i] - lo) / width);
    out[i] = std::min(b, bins - 1);
  }
  return out;
}

inline size_t DefaultBins(size_t n) {
  return std::max<size_t>(2, static_cast<size_t>(std::cbrt(
                                 static_cast<double>(n))));
}

struct JointCounts {
  std::vector<double> px;
  std::vector<double> py;
  std::vector<double> pxy;  // bins_x * bins_y
  size_t bins = 0;
};

inline JointCounts CountJoint(const std::vector<size_t>& bx,
                              const std::vector<size_t>& by, size_t bins) {
  JointCounts c;
  c.bins = bins;
  c.px.assign(bins, 0.0);
  c.py.assign(bins, 0.0);
  c.pxy.assign(bins * bins, 0.0);
  const double inv_n = 1.0 / static_cast<double>(bx.size());
  for (size_t i = 0; i < bx.size(); ++i) {
    c.px[bx[i]] += inv_n;
    c.py[by[i]] += inv_n;
    c.pxy[bx[i] * bins + by[i]] += inv_n;
  }
  return c;
}

inline double Entropy(const std::vector<double>& p) {
  double h = 0.0;
  for (double v : p) {
    if (v > 0.0) h -= v * std::log(v);
  }
  return h;
}

inline double MiFromCounts(const JointCounts& c) {
  double mi = 0.0;
  for (size_t i = 0; i < c.bins; ++i) {
    for (size_t j = 0; j < c.bins; ++j) {
      const double joint = c.pxy[i * c.bins + j];
      if (joint <= 0.0) continue;
      const double denom = c.px[i] * c.py[j];
      if (denom > 0.0) mi += joint * std::log(joint / denom);
    }
  }
  return std::max(0.0, mi);
}

inline double NormalizedMutualInformation(const std::vector<double>& x,
                                          const std::vector<double>& y,
                                          size_t bins) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  if (bins == 0) bins = DefaultBins(n);
  const std::vector<size_t> bx = Discretize(x, bins);
  const std::vector<size_t> by = Discretize(y, bins);
  const JointCounts c = CountJoint(bx, by, bins);
  const double hx = Entropy(c.px);
  const double hy = Entropy(c.py);
  if (hx <= 0.0 || hy <= 0.0) return 0.0;
  return std::min(1.0, MiFromCounts(c) / std::sqrt(hx * hy));
}

inline double PearsonCorrelation(const std::vector<double>& x,
                                 const std::vector<double>& y) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mean_x += x[i];
    mean_y += y[i];
  }
  mean_x /= static_cast<double>(n);
  mean_y /= static_cast<double>(n);
  double cov = 0.0;
  double var_x = 0.0;
  double var_y = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    cov += dx * dy;
    var_x += dx * dx;
    var_y += dy * dy;
  }
  if (var_x <= 0.0 || var_y <= 0.0) return 0.0;
  return cov / std::sqrt(var_x * var_y);
}

inline std::vector<std::vector<double>> GatherColumns(
    const ml::FeatureMatrix& matrix, const std::vector<size_t>& rows) {
  std::vector<std::vector<double>> columns(matrix.cols);
  for (size_t c = 0; c < matrix.cols; ++c) {
    columns[c].reserve(rows.size());
    for (size_t r : rows) columns[c].push_back(matrix.At(r, c));
  }
  return columns;
}

inline std::vector<std::vector<double>> PairwiseNormalizedMi(
    const ml::FeatureMatrix& matrix, const std::vector<size_t>& rows,
    size_t bins) {
  const size_t cols = matrix.cols;
  std::vector<std::vector<double>> mi(cols, std::vector<double>(cols, 0.0));
  const std::vector<std::vector<double>> columns =
      GatherColumns(matrix, rows);
  for (size_t a = 0; a < cols; ++a) {
    mi[a][a] = 1.0;
    for (size_t b = a + 1; b < cols; ++b) {
      const double v =
          NormalizedMutualInformation(columns[a], columns[b], bins);
      mi[a][b] = v;
      mi[b][a] = v;
    }
  }
  return mi;
}

/// PairwiseNormalizedMi with |Pearson| blended in, as DeduplicateFeatures
/// built it.
inline std::vector<std::vector<double>> PairwiseRedundancy(
    const ml::FeatureMatrix& matrix, const std::vector<size_t>& rows,
    size_t bins) {
  const size_t cols = matrix.cols;
  std::vector<std::vector<double>> mi =
      redundancy_reference::PairwiseNormalizedMi(matrix, rows, bins);
  const std::vector<std::vector<double>> columns =
      GatherColumns(matrix, rows);
  for (size_t a = 0; a < cols; ++a) {
    for (size_t b = a + 1; b < cols; ++b) {
      const double rho = std::abs(PearsonCorrelation(columns[a], columns[b]));
      mi[a][b] = std::max(mi[a][b], rho);
      mi[b][a] = mi[a][b];
    }
  }
  return mi;
}

/// DeduplicateFeatures' greedy elimination over the frozen matrix.
inline std::vector<size_t> DeduplicateFeatures(
    const ml::FeatureMatrix& matrix, const std::vector<size_t>& rows,
    double threshold, size_t bins) {
  const size_t cols = matrix.cols;
  const std::vector<std::vector<double>> mi =
      redundancy_reference::PairwiseRedundancy(matrix, rows, bins);
  std::vector<bool> alive(cols, true);
  for (;;) {
    double best = threshold;
    int best_a = -1;
    int best_b = -1;
    for (size_t a = 0; a < cols; ++a) {
      if (!alive[a]) continue;
      for (size_t b = a + 1; b < cols; ++b) {
        if (!alive[b]) continue;
        if (mi[a][b] >= best) {
          best = mi[a][b];
          best_a = static_cast<int>(a);
          best_b = static_cast<int>(b);
        }
      }
    }
    if (best_a < 0) break;
    const auto mean_mi = [&](size_t f) {
      double total = 0.0;
      size_t count = 0;
      for (size_t other = 0; other < cols; ++other) {
        if (other == f || !alive[other]) continue;
        total += mi[f][other];
        ++count;
      }
      return count == 0 ? 0.0 : total / static_cast<double>(count);
    };
    const size_t drop = mean_mi(static_cast<size_t>(best_a)) >=
                                mean_mi(static_cast<size_t>(best_b))
                            ? static_cast<size_t>(best_a)
                            : static_cast<size_t>(best_b);
    alive[drop] = false;
  }
  std::vector<size_t> survivors;
  for (size_t c = 0; c < cols; ++c) {
    if (alive[c]) survivors.push_back(c);
  }
  return survivors;
}

}  // namespace skyex::redundancy_reference

#endif  // SKYEX_TESTS_REDUNDANCY_REFERENCE_H_
