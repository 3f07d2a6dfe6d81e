// Bit-identity pins of the split-once LGM-Sim core against the frozen
// per-call path (tests/lgm_reference.h).
//
// LgmXEquiv: every feature cell of every blocked pair of a generated
// North-DK and Restaurants dataset, extracted in bulk over the thread pool,
// must memcmp-equal the frozen row — under both kernel implementations and
// at every SIMD level the host supports.
//
// LgmCore: the split core's edge cases (greedy ties, duplicate terms,
// all/no frequent terms, one-sided and empty lists, > 64-character tokens,
// scores exactly at the thresholds) against the same frozen path.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "data/northdk_generator.h"
#include "data/restaurants_generator.h"
#include "features/lgm_x.h"
#include "geo/quadflex.h"
#include "lgm/frequent_terms.h"
#include "lgm/lgm_sim.h"
#include "lgm/list_split.h"
#include "lgm_reference.h"
#include "text/normalize.h"
#include "text/similarity_registry.h"
#include "text/simd.h"
#include "text/tokenize.h"

namespace skyex {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Restores the process-wide kernel implementation and SIMD level.
class KernelStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    impl_ = text::ActiveKernelImpl();
    level_ = text::ActiveSimdLevel();
  }
  void TearDown() override {
    text::SetKernelImpl(impl_);
    text::SetSimdLevel(level_);
  }

  // Every (implementation, SIMD level) the host can run, levels ascending
  // from kScalar within each implementation.
  static std::vector<std::pair<text::KernelImpl, text::SimdLevel>>
  Configurations() {
    std::vector<std::pair<text::KernelImpl, text::SimdLevel>> out;
    for (text::KernelImpl impl :
         {text::KernelImpl::kOptimized, text::KernelImpl::kReference}) {
      for (int level = 0;
           level <= static_cast<int>(text::DetectedSimdLevel()); ++level) {
        out.emplace_back(impl, static_cast<text::SimdLevel>(level));
      }
    }
    return out;
  }

  static void Apply(const std::pair<text::KernelImpl, text::SimdLevel>& c) {
    text::SetKernelImpl(c.first);
    text::SetSimdLevel(c.second);
  }

  static std::string Describe(
      const std::pair<text::KernelImpl, text::SimdLevel>& c) {
    return std::string(c.first == text::KernelImpl::kReference
                           ? "reference"
                           : "optimized") +
           "/" + text::SimdLevelName(c.second);
  }

 private:
  text::KernelImpl impl_ = text::KernelImpl::kOptimized;
  text::SimdLevel level_ = text::SimdLevel::kScalar;
};

// ---------------------------------------------------------------- LgmXEquiv

class LgmXEquiv : public KernelStateTest {
 protected:
  // Bulk-extracts `pairs` and compares every cell with the frozen row.
  // The frozen rows are computed once per kernel implementation; the
  // kernels themselves are pinned identical across SIMD levels
  // (kernel_equiv_test), so every level's extraction must match them.
  void ExpectBitIdentical(const data::Dataset& dataset,
                          const std::vector<geo::CandidatePair>& pairs) {
    ASSERT_FALSE(pairs.empty());
    const features::LgmXExtractor extractor =
        features::LgmXExtractor::FromCorpus(dataset);
    std::vector<features::LgmXExtractor::EntityText> cache(dataset.size());
    for (size_t i = 0; i < dataset.size(); ++i) {
      cache[i] = features::LgmXExtractor::ComputeEntityText(dataset[i]);
    }
    const size_t width = extractor.feature_count();
    std::vector<double> frozen(pairs.size() * width);
    for (const auto& config : Configurations()) {
      Apply(config);
      if (config.second == text::SimdLevel::kScalar) {
        for (size_t r = 0; r < pairs.size(); ++r) {
          const auto [i, j] = pairs[r];
          lgm_reference::Row(extractor.name_sim(), extractor.addr_sim(),
                             extractor.options(), dataset[i], cache[i],
                             dataset[j], cache[j], &frozen[r * width],
                             width);
        }
      }
      const ml::FeatureMatrix matrix = extractor.Extract(dataset, pairs);
      size_t mismatches = 0;
      for (size_t r = 0; r < pairs.size(); ++r) {
        const double* row = matrix.Row(r);
        const double* want = &frozen[r * width];
        for (size_t c = 0; c < width; ++c) {
          if (BitEqual(row[c], want[c])) continue;
          if (++mismatches <= 5) {
            const auto [i, j] = pairs[r];
            ADD_FAILURE() << Describe(config) << " pair " << r << " ("
                          << dataset[i].name << " | " << dataset[j].name
                          << ") " << extractor.feature_names()[c] << ": "
                          << row[c] << " vs frozen " << want[c];
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << Describe(config);
    }
  }
};

TEST_F(LgmXEquiv, NorthDkQuadFlexPairsMatchFrozenPath) {
  data::NorthDkOptions options;
  options.num_entities = 600;
  options.seed = 31;
  const data::Dataset dataset = data::GenerateNorthDk(options);
  ExpectBitIdentical(dataset, geo::QuadFlexBlock(dataset.Points()));
}

TEST_F(LgmXEquiv, RestaurantsCartesianPairsMatchFrozenPath) {
  // Restaurants has no coordinates, so (as in the paper) its pairs are
  // the Cartesian product rather than QuadFlex blocks.
  data::RestaurantsOptions options;
  options.fodors_records = 50;
  options.zagat_records = 35;
  options.matched_pairs = 12;
  const data::Dataset dataset = data::GenerateRestaurants(options);
  ExpectBitIdentical(dataset, geo::CartesianBlock(dataset.size()));
}

// ------------------------------------------------------------------- LgmCore

class LgmCore : public KernelStateTest {
 protected:
  static lgm::FrequentTermDictionary Dict() {
    return lgm::FrequentTermDictionary::FromTerms(
        {"cafe", "restaurant", "pizzeria", "bar", "vej"});
  }

  // Every LgmSim entry point and the LGM-X row, new vs frozen, for every
  // basic measure under every configuration.
  static void ExpectSameAsFrozen(std::string_view a, std::string_view b,
                                 const lgm::LgmSimConfig& config = {}) {
    const lgm::LgmSim sim(Dict(), config);
    const std::string na = text::Normalize(a);
    const std::string nb = text::Normalize(b);
    for (const auto& c : Configurations()) {
      Apply(c);
      for (const text::NamedSimilarity& m : text::BasicSimilarities()) {
        SCOPED_TRACE(Describe(c) + " " + std::string(m.name) + " '" +
                     std::string(a) + "' vs '" + std::string(b) + "'");
        const double score = sim.ScoreNormalized(na, nb, m.fn);
        EXPECT_TRUE(BitEqual(
            score, lgm_reference::ScoreNormalized(sim, na, nb, m.fn)));
        const lgm::ListScores got =
            sim.IndividualScoresNormalized(na, nb, m.fn);
        const lgm::ListScores want =
            lgm_reference::IndividualScoresNormalized(sim, na, nb, m.fn);
        EXPECT_TRUE(BitEqual(got.base, want.base));
        EXPECT_TRUE(BitEqual(got.mismatch, want.mismatch));
        EXPECT_TRUE(BitEqual(got.frequent, want.frequent));
        {
          // The shared-scores ensemble equals the direct one.
          const lgm::PreparedPair pair(na, nb, sim.dictionary());
          const lgm::JoinedLists lists =
              sim.Split(pair, m.fn(na, nb), m.fn);
          EXPECT_TRUE(BitEqual(
              sim.WeightedScore(lists, lgm::LgmSim::ScoreLists(lists, m.fn)),
              score));
        }
        EXPECT_TRUE(BitEqual(sim.Score(a, b, m.fn),
                             lgm_reference::ScoreNormalized(sim, na, nb,
                                                            m.fn)));
      }
      ExpectSplitSameAsFrozen(na, nb, config.match_threshold);
      ExpectRowSameAsFrozen(sim, a, b);
    }
  }

  static void ExpectSplitSameAsFrozen(const std::string& na,
                                      const std::string& nb,
                                      double match_threshold) {
    for (const text::NamedSimilarity& m : text::BasicSimilarities()) {
      const lgm::TermLists got =
          lgm::SplitTermLists(na, nb, Dict(), m.fn, match_threshold);
      const lgm_reference::TermLists want = lgm_reference::SplitTermLists(
          na, nb, Dict(), m.fn, match_threshold);
      EXPECT_EQ(got.base_a, want.base_a) << m.name;
      EXPECT_EQ(got.base_b, want.base_b) << m.name;
      EXPECT_EQ(got.mismatch_a, want.mismatch_a) << m.name;
      EXPECT_EQ(got.mismatch_b, want.mismatch_b) << m.name;
      EXPECT_EQ(got.frequent_a, want.frequent_a) << m.name;
      EXPECT_EQ(got.frequent_b, want.frequent_b) << m.name;
    }
  }

  static void ExpectRowSameAsFrozen(const lgm::LgmSim& sim,
                                    std::string_view a, std::string_view b) {
    data::SpatialEntity ea;
    ea.name = std::string(a);
    ea.address_name = std::string(b);
    data::SpatialEntity eb;
    eb.name = std::string(b);
    eb.address_name = std::string(a);
    const features::LgmXExtractor extractor(sim, sim);
    std::vector<double> got(extractor.feature_count());
    std::vector<double> want(extractor.feature_count());
    extractor.ExtractRow(ea, eb, got.data());
    lgm_reference::Row(sim, sim, extractor.options(), ea,
                       features::LgmXExtractor::ComputeEntityText(ea), eb,
                       features::LgmXExtractor::ComputeEntityText(eb),
                       want.data(), want.size());
    for (size_t c = 0; c < got.size(); ++c) {
      EXPECT_TRUE(BitEqual(got[c], want[c]))
          << extractor.feature_names()[c] << ": " << got[c] << " vs "
          << want[c];
    }
  }
};

TEST_F(LgmCore, GreedyTiesResolveByPosition) {
  // "abcd" and "abce" are equally similar to "abcf" under every measure:
  // the tie goes to the earlier a-side term.
  const lgm::TermLists lists = lgm::SplitTermLists(
      "abcd abce", "abcf", Dict(), text::FindSimilarity("jaro_winkler"),
      0.5);
  EXPECT_EQ(lists.base_a, std::vector<std::string>{"abcd"});
  EXPECT_EQ(lists.mismatch_a, std::vector<std::string>{"abce"});
  ExpectSameAsFrozen("abcd abce", "abcf");
  ExpectSameAsFrozen("abcf", "abcd abce");
  ExpectSameAsFrozen("xy yx", "yx xy");
}

TEST_F(LgmCore, DuplicateTermsOnOneSide) {
  ExpectSameAsFrozen("park park vest", "park vest");
  ExpectSameAsFrozen("cafe cafe amelie", "cafe amelie amelie");
  ExpectSameAsFrozen("aa aa aa", "aa");
}

TEST_F(LgmCore, AllFrequentAndNoFrequentTerms) {
  ExpectSameAsFrozen("cafe restaurant", "bar cafe");
  ExpectSameAsFrozen("pizzeria", "restaurant pizzeria bar");
  ExpectSameAsFrozen("amelie vestergade", "ameli vestergaarde");
}

TEST_F(LgmCore, OneSidedListsAndEmptyStrings) {
  // Frequent list on one side only: the weight-redistribution branch.
  ExpectSameAsFrozen("cafe amelie", "amelie");
  ExpectSameAsFrozen("amelie", "amelie bar");
  // Mismatch list on one side only.
  ExpectSameAsFrozen("amelie nord", "amelie");
  // Both sides empty after normalization score exactly 1.
  const lgm::LgmSim sim(Dict());
  for (const text::NamedSimilarity& m : text::BasicSimilarities()) {
    EXPECT_EQ(sim.Score("", "", m.fn), 1.0) << m.name;
    EXPECT_EQ(sim.Score("!!!", " - ", m.fn), 1.0) << m.name;
  }
  ExpectSameAsFrozen("", "");
  ExpectSameAsFrozen("!!!", " - ");
  ExpectSameAsFrozen("", "amelie cafe");
}

TEST_F(LgmCore, TokensLongerThan64Characters) {
  // Jaro's bit-parallel path covers <= 64 characters; longer tokens take
  // the flag-vector fallback.
  const std::string long_a(70, 'a');
  std::string long_b = long_a;
  long_b[35] = 'b';
  const std::string very_long(130, 'z');
  ExpectSameAsFrozen(long_a + " cafe " + very_long, very_long + " " + long_b);
  ExpectSameAsFrozen(long_a, long_b + " bar");
}

TEST_F(LgmCore, ScoresExactlyAtTheThresholds) {
  // Two unmatched a-side terms, so the sort decision changes the
  // mismatch list.
  const std::string a = "vestergade nord amelie kro";
  const std::string b = "amelie vestergaard syd";
  for (const text::NamedSimilarity& m : text::SortableSimilarities()) {
    const double raw = m.fn(a, b);
    const double token = m.fn("vestergade", "vestergaard");
    for (double sort_threshold :
         {raw, std::nextafter(raw, 0.0), std::nextafter(raw, 2.0)}) {
      for (double match_threshold :
           {token, std::nextafter(token, 0.0), std::nextafter(token, 2.0)}) {
        lgm::LgmSimConfig config;
        config.sort_threshold = sort_threshold;
        config.match_threshold = match_threshold;
        const lgm::LgmSim sim(Dict(), config);
        EXPECT_TRUE(BitEqual(sim.ScoreNormalized(a, b, m.fn),
                             lgm_reference::ScoreNormalized(sim, a, b, m.fn)))
            << m.name;
        const lgm::ListScores got = sim.IndividualScoresNormalized(a, b, m.fn);
        const lgm::ListScores want =
            lgm_reference::IndividualScoresNormalized(sim, a, b, m.fn);
        EXPECT_TRUE(BitEqual(got.base, want.base)) << m.name;
        EXPECT_TRUE(BitEqual(got.mismatch, want.mismatch)) << m.name;
        EXPECT_TRUE(BitEqual(got.frequent, want.frequent)) << m.name;
      }
    }
  }
  // At exactly the match threshold the pair matches; just above, not.
  const text::SimilarityFn jw = text::FindSimilarity("jaro_winkler");
  const double token = jw("vestergade", "vestergaard");
  EXPECT_EQ(lgm::SplitTermLists(a, b, Dict(), jw, token).base_a.size(), 2u);
  EXPECT_EQ(lgm::SplitTermLists(a, b, Dict(), jw,
                                std::nextafter(token, 2.0))
                .base_a,
            std::vector<std::string>{"amelie"});
}

TEST_F(LgmCore, OnePreparedPairPerThread) {
  const lgm::FrequentTermDictionary dict = Dict();
  const lgm::PreparedPair pair("cafe amelie", "amelie", dict);
  EXPECT_THROW(lgm::PreparedPair("a", "b", dict), std::logic_error);
}

}  // namespace
}  // namespace skyex
