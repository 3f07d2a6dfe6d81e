#include "ml/statistics.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "par/parallel_for.h"

namespace skyex::ml {

double PearsonCorrelation(const std::vector<double>& x,
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

double FeatureClassCorrelation(const FeatureMatrix& matrix, size_t column,
                               const std::vector<uint8_t>& labels,
                               const std::vector<size_t>& rows) {
  std::vector<double> x;
  std::vector<double> y;
  x.reserve(rows.size());
  y.reserve(rows.size());
  for (size_t r : rows) {
    x.push_back(matrix.At(r, column));
    y.push_back(static_cast<double>(labels[r]));
  }
  return PearsonCorrelation(x, y);
}

namespace {

// Equal-width discretization into `bins` buckets over the range of the
// finite entries; a constant finite range maps to bucket 0. NaN and -inf
// map to bucket 0 and +inf to the last bucket (the skyline's
// NaN-as-−inf rule), so non-finite entries never move the range or reach
// the float-to-integer cast.
template <typename Code>
void DiscretizeInto(std::span<const double> x, size_t bins, Code* out) {
  const ValueRange range = FiniteRange(x);
  const double lo = range.min;
  const double hi = range.max;
  const bool spread = range.ok && hi > lo;
  const double width = (hi - lo) / static_cast<double>(bins);
  const double top = static_cast<double>(bins);
  for (size_t i = 0; i < x.size(); ++i) {
    const double v = x[i];
    size_t b = 0;
    if (!std::isfinite(v)) {
      b = v > 0.0 ? bins - 1 : 0;
    } else if (spread) {
      // `q < top` also fails for the NaN an overflowing range produces.
      const double q = (v - lo) / width;
      b = q < top ? std::min(static_cast<size_t>(q), bins - 1) : bins - 1;
    }
    out[i] = static_cast<Code>(b);
  }
}

std::vector<size_t> Discretize(const std::vector<double>& x, size_t bins) {
  std::vector<size_t> out(x.size(), 0);
  DiscretizeInto(x, bins, out.data());
  return out;
}

size_t DefaultBins(size_t n) {
  // The infotheo default: cube root of the sample size.
  return std::max<size_t>(2, static_cast<size_t>(std::cbrt(
                                 static_cast<double>(n))));
}

struct JointCounts {
  std::vector<double> px;
  std::vector<double> py;
  std::vector<double> pxy;  // bins_x * bins_y
  size_t bins = 0;
};

JointCounts CountJoint(const std::vector<size_t>& bx,
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

double Entropy(std::span<const double> p) {
  double h = 0.0;
  for (double v : p) {
    if (v > 0.0) h -= v * std::log(v);
  }
  return h;
}

double MiFromCounts(const JointCounts& c) {
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

// ------------------------------------------------------------------------
// Prepared-column core of PairwiseNormalizedMi / PairwiseRedundancy.
//
// Each column is gathered, discretized, counted and centred once; a pair
// then costs one integer joint-count pass and one covariance pass. The
// result is bit-identical to the scalar NormalizedMutualInformation and
// PearsonCorrelation because every double is formed by the same
// operations in the same order:
//  - CountJoint builds each probability by adding 1/n once per row that
//    falls in its cell, so a cell holding k rows reads exactly
//    `ProbabilityTable()[k]` (1/n added k times starting from 0.0);
//  - entropies and the MI sum walk the bins in the scalar order;
//  - the mean, the centred values and Σdx² are those of
//    PearsonCorrelation's loops, and Σdx·dy runs in row order.

// ProbabilityTable(n)[k] = 1/n added k times to 0.0.
std::vector<double> ProbabilityTable(size_t n) {
  std::vector<double> table(n + 1, 0.0);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (size_t k = 1; k <= n; ++k) table[k] = table[k - 1] + inv_n;
  return table;
}

// Every column of the matrix over `rows`, prepared once: one 8-byte and
// one 1-byte (for ≤ 256 bins) copy of the rows. The per-column buffers are
// allocated by the calling thread before the parallel loop, so like the
// per-pair path's column copies they come from its heap's free chunks
// instead of fresh pages or the workers' arenas.
template <typename Code>
struct PreparedColumns {
  size_t n = 0;
  size_t bins = 0;
  std::vector<double> probability;               // ProbabilityTable(n)
  std::vector<std::vector<double>> values;       // x - mean, or x
  std::vector<std::vector<Code>> codes;          // bin of each row
  std::vector<double> p;            // marginal probability, cols × bins
  std::vector<double> entropy;      // per column
  std::vector<double> sum_squares;  // Σ (x - mean)² per column

  const double* P(size_t c) const { return p.data() + c * bins; }
};

template <typename Code>
PreparedColumns<Code> PrepareColumns(const FeatureMatrix& matrix,
                                     const std::vector<size_t>& rows,
                                     size_t bins, bool with_pearson) {
  const size_t cols = matrix.cols;
  const size_t n = rows.size();
  PreparedColumns<Code> prepared;
  prepared.n = n;
  prepared.bins = bins;
  prepared.probability = ProbabilityTable(n);
  prepared.values.resize(cols);
  prepared.codes.resize(cols);
  for (size_t c = 0; c < cols; ++c) {
    prepared.values[c].resize(n);
    prepared.codes[c].resize(n);
  }
  prepared.p.resize(cols * bins);
  prepared.entropy.resize(cols);
  prepared.sum_squares.resize(cols);
  par::ParallelFor(0, cols, {}, [&](size_t c) {
    std::vector<double>& x = prepared.values[c];
    for (size_t i = 0; i < n; ++i) x[i] = matrix.At(rows[i], c);

    Code* codes = prepared.codes[c].data();
    DiscretizeInto(x, bins, codes);
    std::vector<size_t> counts(bins, 0);
    for (size_t i = 0; i < n; ++i) ++counts[codes[i]];
    const std::span<double> p(prepared.p.data() + c * bins, bins);
    for (size_t b = 0; b < bins; ++b) p[b] = prepared.probability[counts[b]];
    prepared.entropy[c] = Entropy(p);

    if (with_pearson) {
      double mean = 0.0;
      for (const double v : x) mean += v;
      mean /= static_cast<double>(n);
      double sum_squares = 0.0;
      for (double& v : x) {
        v -= mean;
        sum_squares += v * v;
      }
      prepared.sum_squares[c] = sum_squares;
    }
  });
  return prepared;
}

// NormalizedMutualInformation of prepared columns a and b; `joint` is a
// bins×bins scratch table.
template <typename Code>
double PreparedNmi(const PreparedColumns<Code>& prepared, size_t a, size_t b,
                   std::vector<uint32_t>& joint) {
  const double hx = prepared.entropy[a];
  const double hy = prepared.entropy[b];
  if (hx <= 0.0 || hy <= 0.0) return 0.0;
  const size_t bins = prepared.bins;
  const Code* bx = prepared.codes[a].data();
  const Code* by = prepared.codes[b].data();
  std::fill(joint.begin(), joint.end(), 0u);
  for (size_t i = 0; i < prepared.n; ++i) ++joint[bx[i] * bins + by[i]];
  const double* px = prepared.P(a);
  const double* py = prepared.P(b);
  double mi = 0.0;
  for (size_t i = 0; i < bins; ++i) {
    for (size_t j = 0; j < bins; ++j) {
      const uint32_t count = joint[i * bins + j];
      if (count == 0) continue;
      const double pxy = prepared.probability[count];
      const double denom = px[i] * py[j];
      if (denom > 0.0) mi += pxy * std::log(pxy / denom);
    }
  }
  mi = std::max(0.0, mi);
  return std::min(1.0, mi / std::sqrt(hx * hy));
}

// PearsonCorrelation of prepared (centred) columns a and b.
template <typename Code>
double PreparedPearson(const PreparedColumns<Code>& prepared, size_t a,
                       size_t b) {
  const double var_x = prepared.sum_squares[a];
  const double var_y = prepared.sum_squares[b];
  if (var_x <= 0.0 || var_y <= 0.0) return 0.0;
  const std::vector<double>& dx = prepared.values[a];
  const std::vector<double>& dy = prepared.values[b];
  double cov = 0.0;
  for (size_t i = 0; i < prepared.n; ++i) cov += dx[i] * dy[i];
  return cov / std::sqrt(var_x * var_y);
}

// Fills the upper and lower triangles of `out` with the NMI of each column
// pair, or with max(NMI, |Pearson|) when `with_pearson`.
template <typename Code>
void ScorePairs(const FeatureMatrix& matrix, const std::vector<size_t>& rows,
                size_t bins, bool with_pearson,
                std::vector<std::vector<double>>& out) {
  const size_t cols = matrix.cols;
  const PreparedColumns<Code> prepared =
      PrepareColumns<Code>(matrix, rows, bins, with_pearson);
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(cols * (cols - 1) / 2);
  for (size_t a = 0; a < cols; ++a) {
    for (size_t b = a + 1; b < cols; ++b) pairs.emplace_back(a, b);
  }
  par::ForOptions options;
  options.grain = 16;
  par::ParallelForChunked(
      0, pairs.size(), options, [&](size_t begin, size_t end) {
        std::vector<uint32_t> joint(bins * bins);
        for (size_t k = begin; k < end; ++k) {
          const auto [a, b] = pairs[k];
          double v = PreparedNmi(prepared, a, b, joint);
          if (with_pearson) {
            v = std::max(v, std::abs(PreparedPearson(prepared, a, b)));
          }
          out[a][b] = v;
          out[b][a] = v;
        }
      });
}

std::vector<std::vector<double>> PairwiseScores(
    const FeatureMatrix& matrix, const std::vector<size_t>& rows,
    size_t bins, bool with_pearson) {
  const size_t cols = matrix.cols;
  std::vector<std::vector<double>> out(cols, std::vector<double>(cols, 0.0));
  for (size_t c = 0; c < cols; ++c) out[c][c] = 1.0;
  if (rows.size() < 2 || cols < 2) return out;
  if (bins == 0) bins = DefaultBins(rows.size());
  if (bins <= 256) {
    ScorePairs<uint8_t>(matrix, rows, bins, with_pearson, out);
  } else {
    ScorePairs<size_t>(matrix, rows, bins, with_pearson, out);
  }
  return out;
}

}  // namespace

double MutualInformation(const std::vector<double>& x,
                         const std::vector<double>& y, size_t bins) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  if (bins == 0) bins = DefaultBins(n);
  const std::vector<size_t> bx = Discretize(x, bins);
  const std::vector<size_t> by = Discretize(y, bins);
  return MiFromCounts(CountJoint(bx, by, bins));
}

double NormalizedMutualInformation(const std::vector<double>& x,
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

std::vector<std::vector<double>> PairwiseNormalizedMi(
    const FeatureMatrix& matrix, const std::vector<size_t>& rows,
    size_t bins) {
  return PairwiseScores(matrix, rows, bins, /*with_pearson=*/false);
}

std::vector<std::vector<double>> PairwiseRedundancy(
    const FeatureMatrix& matrix, const std::vector<size_t>& rows,
    size_t bins) {
  return PairwiseScores(matrix, rows, bins, /*with_pearson=*/true);
}

ValueRange FiniteRange(std::span<const double> values) {
  ValueRange range;
  for (double v : values) {
    if (!std::isfinite(v)) continue;
    if (!range.ok) {
      range.min = v;
      range.max = v;
      range.ok = true;
    } else {
      range.min = std::min(range.min, v);
      range.max = std::max(range.max, v);
    }
  }
  return range;
}

}  // namespace skyex::ml
