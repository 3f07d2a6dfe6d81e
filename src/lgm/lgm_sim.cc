#include "lgm/lgm_sim.h"

#include <algorithm>
#include <utility>

#include "text/normalize.h"
#include "text/tokenize.h"

namespace skyex::lgm {

namespace {

// The weighted ensemble behind both WeightedScore overloads; `score_of(l)`
// yields list pair l's score (0 base, 1 mismatch, 2 frequent) and is only
// asked for pairs with terms on both sides.
template <typename ScoreOf>
double Ensemble(const LgmSimConfig& config, const JoinedLists& lists,
                ScoreOf score_of) {
  const std::string_view sides[3][2] = {
      {lists.base_a, lists.base_b},
      {lists.mismatch_a, lists.mismatch_b},
      {lists.frequent_a, lists.frequent_b},
  };
  const double weights[3] = {config.base_weight, config.mismatch_weight,
                             config.frequent_weight};
  double active_weight = 0.0;
  double weighted_score = 0.0;
  for (int l = 0; l < 3; ++l) {
    const bool has_a = !sides[l][0].empty();
    const bool has_b = !sides[l][1].empty();
    if (!has_a && !has_b) continue;
    active_weight += weights[l];
    weighted_score += weights[l] * (has_a && has_b ? score_of(l) : 0.0);
  }
  if (active_weight <= 0.0) {
    // Both strings were empty after normalization.
    return 1.0;
  }
  return weighted_score / active_weight;
}

}  // namespace

LgmSim::LgmSim(FrequentTermDictionary dictionary, LgmSimConfig config)
    : dictionary_(std::move(dictionary)), config_(config) {}

JoinedLists LgmSim::Split(const PreparedPair& pair, double raw,
                          text::SimilarityFn base_fn) const {
  // The custom sorting decision: hard-to-align strings are term-sorted
  // before splitting, which stabilizes the greedy matching.
  const TermOrder order =
      raw < config_.sort_threshold ? TermOrder::kSorted : TermOrder::kAsIs;
  return pair.Split(order, base_fn, config_.match_threshold);
}

double LgmSim::WeightedScore(const JoinedLists& lists,
                             text::SimilarityFn base_fn) const {
  return Ensemble(config_, lists, [&](int l) {
    switch (l) {
      case 0:
        return base_fn(lists.base_a, lists.base_b);
      case 1:
        return base_fn(lists.mismatch_a, lists.mismatch_b);
      default:
        return base_fn(lists.frequent_a, lists.frequent_b);
    }
  });
}

double LgmSim::WeightedScore(const JoinedLists& lists,
                             const ListScores& scores) const {
  const double by_list[3] = {scores.base, scores.mismatch, scores.frequent};
  return Ensemble(config_, lists, [&](int l) { return by_list[l]; });
}

ListScores LgmSim::ScoreLists(const JoinedLists& lists,
                              text::SimilarityFn base_fn) {
  ListScores scores;
  scores.base = base_fn(lists.base_a, lists.base_b);
  scores.mismatch = base_fn(lists.mismatch_a, lists.mismatch_b);
  scores.frequent = base_fn(lists.frequent_a, lists.frequent_b);
  return scores;
}

ListScores LgmSim::IndividualScoresNormalized(
    std::string_view na, std::string_view nb,
    text::SimilarityFn base_fn) const {
  const PreparedPair pair(na, nb, dictionary_);
  return ScoreLists(Split(pair, base_fn(na, nb), base_fn), base_fn);
}

ListScores LgmSim::IndividualScores(std::string_view a, std::string_view b,
                                    text::SimilarityFn base_fn) const {
  return IndividualScoresNormalized(text::Normalize(a), text::Normalize(b),
                                    base_fn);
}

double LgmSim::ScoreNormalized(std::string_view na, std::string_view nb,
                               text::SimilarityFn base_fn) const {
  const PreparedPair pair(na, nb, dictionary_);
  return WeightedScore(Split(pair, base_fn(na, nb), base_fn), base_fn);
}

double LgmSim::Score(std::string_view a, std::string_view b,
                     text::SimilarityFn base_fn) const {
  return ScoreNormalized(text::Normalize(a), text::Normalize(b), base_fn);
}

double LgmSim::CustomSortedScore(std::string_view a, std::string_view b,
                                 text::SimilarityFn base_fn) const {
  const std::string na = text::Normalize(a);
  const std::string nb = text::Normalize(b);
  const double raw = base_fn(na, nb);
  if (raw >= config_.sort_threshold) return raw;
  return std::max(raw,
                  base_fn(text::SortTokens(na), text::SortTokens(nb)));
}

}  // namespace skyex::lgm
