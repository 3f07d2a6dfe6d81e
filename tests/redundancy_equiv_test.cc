// Bit-identity pins of the prepared-column redundancy core
// (ml::PairwiseRedundancy / ml::PairwiseNormalizedMi) against the frozen
// per-pair path (tests/redundancy_reference.h).
//
// RedundancyEquiv: a generated North-DK LGM-X matrix and adversarial
// columns (constant, two-valued, duplicated, negated, tied, n = 2,
// n < bins, explicit bin counts, rows in non-ascending order) must
// memcmp-equal the frozen matrices; DeduplicateFeatures must keep the
// frozen survivors and SkyExT::Train the model they lead to.
//
// MutualInformation.NonFinite*: NaN and ±inf entries get defined bins.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/feature_selection.h"
#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "eval/sampling.h"
#include "ml/dataset_view.h"
#include "ml/statistics.h"
#include "redundancy_reference.h"

namespace skyex {
namespace {

using Matrix = std::vector<std::vector<double>>;

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// memcmp of every cell; reports the first few differences.
void ExpectBitIdentical(const Matrix& got, const Matrix& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  size_t mismatches = 0;
  for (size_t a = 0; a < got.size(); ++a) {
    ASSERT_EQ(got[a].size(), want[a].size()) << what;
    for (size_t b = 0; b < got[a].size(); ++b) {
      if (BitEqual(got[a][b], want[a][b])) continue;
      if (++mismatches <= 5) {
        ADD_FAILURE() << what << " [" << a << "][" << b << "] "
                      << got[a][b] << " vs frozen " << want[a][b];
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

// Both production matrices against the frozen path, plus every cell
// against the library's scalar NormalizedMutualInformation and
// PearsonCorrelation of the gathered columns.
void ExpectMatchesFrozen(const ml::FeatureMatrix& matrix,
                         const std::vector<size_t>& rows, size_t bins,
                         const std::string& what) {
  ExpectBitIdentical(ml::PairwiseRedundancy(matrix, rows, bins),
                     redundancy_reference::PairwiseRedundancy(matrix, rows,
                                                              bins),
                     what + " redundancy");
  const Matrix nmi = ml::PairwiseNormalizedMi(matrix, rows, bins);
  ExpectBitIdentical(
      nmi, redundancy_reference::PairwiseNormalizedMi(matrix, rows, bins),
      what + " nmi");

  const Matrix columns = redundancy_reference::GatherColumns(matrix, rows);
  for (size_t a = 0; a < matrix.cols; ++a) {
    for (size_t b = a + 1; b < matrix.cols; ++b) {
      EXPECT_TRUE(BitEqual(nmi[a][b], ml::NormalizedMutualInformation(
                                          columns[a], columns[b], bins)))
          << what << " scalar nmi [" << a << "][" << b << "]";
    }
  }
}

std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

// Columns that stress the binning, the entropy guards and Pearson's
// zero-variance guard.
ml::FeatureMatrix AdversarialMatrix(size_t rows) {
  const std::vector<std::string> names = {
      "constant", "two_valued", "uniform",  "duplicate", "square",
      "negated",  "mod7",       "signed0",  "ties",      "narrow"};
  ml::FeatureMatrix m = ml::FeatureMatrix::Zeros(rows, names);
  std::mt19937_64 rng(97);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (size_t r = 0; r < rows; ++r) {
    double* row = m.Row(r);
    const double u = unit(rng);
    row[0] = 0.5;
    row[1] = (r % 3 == 0) ? 1.0 : 0.0;
    row[2] = u;
    row[3] = u;
    row[4] = u * u;
    row[5] = -u;
    row[6] = static_cast<double>(r % 7);
    row[7] = (r % 2 == 0) ? 0.0 : -0.0;
    row[8] = std::round(u * 10.0) / 10.0;
    row[9] = 1.0 + 1e-12 * static_cast<double>(r % 5);
  }
  return m;
}

TEST(RedundancyEquiv, AdversarialColumnsMatchFrozenPath) {
  const ml::FeatureMatrix m = AdversarialMatrix(997);
  for (const size_t bins : {size_t{0}, size_t{2}, size_t{8}, size_t{64},
                            size_t{300}}) {
    ExpectMatchesFrozen(m, Iota(m.rows), bins,
                        "all rows, bins=" + std::to_string(bins));
  }
}

TEST(RedundancyEquiv, RowSubsetsInNonAscendingOrderMatchFrozenPath) {
  const ml::FeatureMatrix m = AdversarialMatrix(600);
  std::vector<size_t> reversed = Iota(m.rows);
  std::reverse(reversed.begin(), reversed.end());
  ExpectMatchesFrozen(m, reversed, 0, "reversed");

  // Shuffled, with repeats and gaps.
  std::vector<size_t> shuffled;
  for (size_t r = 0; r < m.rows; r += 3) shuffled.push_back(r);
  for (size_t r = 0; r < m.rows; r += 7) shuffled.push_back(r);
  std::mt19937_64 rng(5);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  for (const size_t bins : {size_t{0}, size_t{8}, size_t{64}}) {
    ExpectMatchesFrozen(m, shuffled, bins,
                        "shuffled, bins=" + std::to_string(bins));
  }
}

TEST(RedundancyEquiv, TinySamplesMatchFrozenPath) {
  const ml::FeatureMatrix m = AdversarialMatrix(40);
  // n = 0 and n = 1 score nothing; n = 2 is the smallest scored sample;
  // n = 5 leaves most of 8 or 64 bins empty.
  for (const std::vector<size_t>& rows :
       {std::vector<size_t>{}, std::vector<size_t>{7},
        std::vector<size_t>{3, 2}, std::vector<size_t>{9, 1, 4, 4, 30}}) {
    for (const size_t bins : {size_t{0}, size_t{8}, size_t{64}}) {
      ExpectMatchesFrozen(m, rows,
                          bins, "n=" + std::to_string(rows.size()) +
                                    ", bins=" + std::to_string(bins));
    }
  }
  // One column: only the diagonal.
  const ml::FeatureMatrix one = m.SelectColumns({2});
  ExpectMatchesFrozen(one, Iota(one.rows), 0, "one column");
}

// A 600-entity North-DK QuadFlex LGM-X matrix, shared by the tests below.
class RedundancyNorthDk : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::NorthDkOptions options;
    options.num_entities = 600;
    options.seed = 31;
    prepared_ = new core::PreparedData(core::PrepareNorthDk(options));
  }
  static void TearDownTestSuite() {
    delete prepared_;
    prepared_ = nullptr;
  }

  static core::PreparedData* prepared_;
};

core::PreparedData* RedundancyNorthDk::prepared_ = nullptr;

TEST_F(RedundancyNorthDk, LgmXMatrixMatchesFrozenPath) {
  const ml::FeatureMatrix& m = prepared_->features;
  ASSERT_GT(m.rows, 1000u);
  ASSERT_EQ(m.cols, 88u);
  const std::vector<size_t> rows = Iota(m.rows);
  ExpectMatchesFrozen(m, rows, 0, "northdk");
  ExpectMatchesFrozen(m, rows, 8, "northdk bins=8");

  // Every third row, back to front.
  std::vector<size_t> thinned;
  for (size_t r = m.rows; r-- > 0;) {
    if (r % 3 == 0) thinned.push_back(r);
  }
  ExpectMatchesFrozen(m, thinned, 64, "northdk thinned bins=64");
}

TEST_F(RedundancyNorthDk, DeduplicationKeepsFrozenSurvivors) {
  const ml::FeatureMatrix& m = prepared_->features;
  const std::vector<size_t> rows = Iota(m.rows);
  const core::FeatureSelectionOptions defaults;
  for (const double threshold : {defaults.mi_threshold, 0.6, 0.95}) {
    for (const size_t bins : {size_t{0}, size_t{8}}) {
      core::FeatureSelectionOptions options;
      options.mi_threshold = threshold;
      options.mi_bins = bins;
      const std::vector<size_t> survivors =
          core::DeduplicateFeatures(m, rows, options);
      EXPECT_EQ(survivors, redundancy_reference::DeduplicateFeatures(
                               m, rows, threshold, bins))
          << "threshold " << threshold << " bins " << bins;
      EXPECT_LT(survivors.size(), m.cols);
    }
  }
}

TEST_F(RedundancyNorthDk, TrainedModelMatchesFrozenSelection) {
  // Train with the production de-duplication, and again without any
  // de-duplication on just the columns the frozen path keeps. Column
  // order is preserved, so the two models must print and cut alike.
  const ml::FeatureMatrix& m = prepared_->features;
  const std::vector<uint8_t>& labels = prepared_->pairs.labels;
  const std::vector<size_t> all = Iota(m.rows);
  const core::SkyExTOptions options;
  for (const uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
    const eval::Split split = eval::RandomSplit(m.rows, 0.3, seed);
    const core::SkyExTModel model =
        core::SkyExT(options).Train(m, labels, split.train, &all);

    const std::vector<size_t> kept = redundancy_reference::DeduplicateFeatures(
        m, all, options.selection.mi_threshold, options.selection.mi_bins);
    const ml::FeatureMatrix selected = m.SelectColumns(kept);
    core::SkyExTOptions no_dedup = options;
    no_dedup.use_mi_dedup = false;
    const core::SkyExTModel frozen =
        core::SkyExT(no_dedup).Train(selected, labels, split.train, &all);

    EXPECT_EQ(model.Describe(m.names), frozen.Describe(selected.names))
        << "seed " << seed;
    EXPECT_TRUE(BitEqual(model.cutoff_ratio, frozen.cutoff_ratio))
        << model.cutoff_ratio << " vs " << frozen.cutoff_ratio;
  }
}

// ------------------------------------------------------------- non-finite

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(MutualInformation, NonFiniteEntriesHaveDefinedBins) {
  // NaN and -inf share the first bin with the finite minimum, +inf the
  // last bin with the finite maximum; the finite range ignores them. So
  // replacing them with those finite values changes nothing.
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> unit(-2.0, 5.0);
  std::vector<double> x(400);
  std::vector<double> y(400);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = unit(rng);
    y[i] = 0.5 * x[i] + 0.1 * unit(rng);
  }
  std::vector<double> with_non_finite = x;
  for (size_t i = 0; i < x.size(); i += 9) {
    with_non_finite[i] = i % 27 == 0 ? kNaN : i % 27 == 9 ? -kInf : kInf;
  }
  with_non_finite[1] = kNaN;  // a NaN near the front must not set the range
  const ml::ValueRange range = ml::FiniteRange(with_non_finite);
  ASSERT_TRUE(range.ok);
  std::vector<double> substituted = with_non_finite;
  for (double& v : substituted) {
    if (!std::isfinite(v)) v = v == kInf ? range.max : range.min;
  }
  for (const size_t bins : {size_t{0}, size_t{8}, size_t{64}}) {
    EXPECT_TRUE(BitEqual(ml::MutualInformation(with_non_finite, y, bins),
                         ml::MutualInformation(substituted, y, bins)));
    EXPECT_TRUE(BitEqual(
        ml::NormalizedMutualInformation(with_non_finite, y, bins),
        ml::NormalizedMutualInformation(substituted, y, bins)));
    EXPECT_TRUE(BitEqual(
        ml::NormalizedMutualInformation(y, with_non_finite, bins),
        ml::NormalizedMutualInformation(y, substituted, bins)));
  }

  // Binning no longer depends on the order of the entries.
  std::vector<size_t> order(x.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<double> shuffled_x;
  std::vector<double> shuffled_y;
  for (size_t i : order) {
    shuffled_x.push_back(with_non_finite[i]);
    shuffled_y.push_back(y[i]);
  }
  EXPECT_TRUE(BitEqual(
      ml::NormalizedMutualInformation(with_non_finite, y),
      ml::NormalizedMutualInformation(shuffled_x, shuffled_y)));
}

TEST(MutualInformation, NonFiniteOnlyAndConstantColumns) {
  // No finite entry: NaN/-inf in the first bin, +inf in the last.
  const std::vector<double> two = {0.0, 1.0, 0.0, 1.0, 0.0, 1.0};
  const double same = ml::NormalizedMutualInformation(two, two, 4);
  EXPECT_GT(same, 0.99);
  const std::vector<double> only = {kNaN, kInf, -kInf, kInf, kNaN, kInf};
  EXPECT_TRUE(BitEqual(ml::NormalizedMutualInformation(only, two, 4), same));
  // A constant finite column with +inf entries is two-valued.
  const std::vector<double> constant = {3.0, kInf, 3.0, kInf, -kInf, kInf};
  EXPECT_TRUE(
      BitEqual(ml::NormalizedMutualInformation(constant, two, 4), same));
  // All NaN is one bin, like any constant column.
  const std::vector<double> all_nan(6, kNaN);
  const std::vector<double> flat(6, 2.0);
  EXPECT_TRUE(BitEqual(ml::NormalizedMutualInformation(all_nan, two),
                       ml::NormalizedMutualInformation(flat, two)));
}

TEST(RedundancyEdge, NonFiniteColumnsScoreLikeTheScalars) {
  ml::FeatureMatrix m = AdversarialMatrix(300);
  for (size_t r = 0; r < m.rows; r += 11) {
    m.Row(r)[2] = r % 33 == 0 ? kNaN : r % 33 == 11 ? kInf : -kInf;
  }
  m.Row(5)[6] = kInf;
  const std::vector<size_t> rows = Iota(m.rows);
  const Matrix got = ml::PairwiseRedundancy(m, rows);
  const Matrix nmi = ml::PairwiseNormalizedMi(m, rows);
  const Matrix columns = redundancy_reference::GatherColumns(m, rows);
  for (size_t a = 0; a < m.cols; ++a) {
    for (size_t b = a + 1; b < m.cols; ++b) {
      const double scalar_nmi =
          ml::NormalizedMutualInformation(columns[a], columns[b]);
      EXPECT_TRUE(BitEqual(nmi[a][b], scalar_nmi)) << a << "," << b;
      const double want = std::max(
          scalar_nmi,
          std::abs(ml::PearsonCorrelation(columns[a], columns[b])));
      EXPECT_TRUE(BitEqual(got[a][b], want)) << a << "," << b;
      EXPECT_TRUE(std::isfinite(got[a][b])) << a << "," << b;
      EXPECT_TRUE(BitEqual(got[b][a], got[a][b]));
    }
  }
}

}  // namespace
}  // namespace skyex
