#ifndef SKYEX_TESTS_LGM_REFERENCE_H_
#define SKYEX_TESTS_LGM_REFERENCE_H_

// Frozen reference of the LGM-Sim meta-similarity and the LGM-X row, as
// they were before LGM-Sim was rebuilt around one split core that runs on
// pre-split term views (lgm/list_split.h).
//
// These are copies of the per-call path: every call copies both strings,
// recomputes the full-string score for the sort decision, re-tokenizes
// into fresh std::strings and joins each list with JoinTokens. Slow and
// obviously correct. The LgmXEquiv and LgmCore tests pin the production
// path bit-identical to them ("bit-identical" is memcmp on the doubles,
// not a tolerance), under both kernel implementations.
//
// Like text/reference.h, do not optimize anything in this namespace. It
// lives under tests/ because nothing in the library may call it.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/spatial_entity.h"
#include "features/lgm_x.h"
#include "geo/distance.h"
#include "lgm/frequent_terms.h"
#include "lgm/lgm_sim.h"
#include "text/edit_distance.h"
#include "text/similarity_registry.h"
#include "text/tokenize.h"

namespace skyex::lgm_reference {

struct TermLists {
  std::vector<std::string> base_a;
  std::vector<std::string> base_b;
  std::vector<std::string> mismatch_a;
  std::vector<std::string> mismatch_b;
  std::vector<std::string> frequent_a;
  std::vector<std::string> frequent_b;
};

inline TermLists SplitTermLists(const std::string& a, const std::string& b,
                                const lgm::FrequentTermDictionary& dict,
                                text::SimilarityFn token_sim,
                                double match_threshold) {
  TermLists lists;
  std::vector<std::string> rest_a;
  std::vector<std::string> rest_b;
  for (std::string& t : text::Tokenize(a)) {
    (dict.Contains(t) ? lists.frequent_a : rest_a).push_back(std::move(t));
  }
  for (std::string& t : text::Tokenize(b)) {
    (dict.Contains(t) ? lists.frequent_b : rest_b).push_back(std::move(t));
  }

  // Greedy best-first matching of the significant tokens.
  struct Candidate {
    double sim;
    size_t i;
    size_t j;
  };
  std::vector<Candidate> candidates;
  for (size_t i = 0; i < rest_a.size(); ++i) {
    for (size_t j = 0; j < rest_b.size(); ++j) {
      const double sim = token_sim(rest_a[i], rest_b[j]);
      if (sim >= match_threshold) candidates.push_back({sim, i, j});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              if (x.sim != y.sim) return x.sim > y.sim;
              if (x.i != y.i) return x.i < y.i;
              return x.j < y.j;
            });
  std::vector<bool> used_a(rest_a.size(), false);
  std::vector<bool> used_b(rest_b.size(), false);
  for (const Candidate& c : candidates) {
    if (used_a[c.i] || used_b[c.j]) continue;
    used_a[c.i] = true;
    used_b[c.j] = true;
    lists.base_a.push_back(rest_a[c.i]);
    lists.base_b.push_back(rest_b[c.j]);
  }
  for (size_t i = 0; i < rest_a.size(); ++i) {
    if (!used_a[i]) lists.mismatch_a.push_back(std::move(rest_a[i]));
  }
  for (size_t j = 0; j < rest_b.size(); ++j) {
    if (!used_b[j]) lists.mismatch_b.push_back(std::move(rest_b[j]));
  }
  return lists;
}

inline TermLists SplitNormalized(const lgm::LgmSim& sim, std::string_view na,
                                 std::string_view nb,
                                 text::SimilarityFn base_fn) {
  std::string a(na);
  std::string b(nb);
  if (base_fn(a, b) < sim.config().sort_threshold) {
    a = text::SortTokens(a);
    b = text::SortTokens(b);
  }
  return lgm_reference::SplitTermLists(a, b, sim.dictionary(), base_fn,
                                       sim.config().match_threshold);
}

inline lgm::ListScores IndividualScoresNormalized(
    const lgm::LgmSim& sim, std::string_view na, std::string_view nb,
    text::SimilarityFn base_fn) {
  const TermLists lists = SplitNormalized(sim, na, nb, base_fn);
  lgm::ListScores scores;
  scores.base = base_fn(text::JoinTokens(lists.base_a),
                        text::JoinTokens(lists.base_b));
  scores.mismatch = base_fn(text::JoinTokens(lists.mismatch_a),
                            text::JoinTokens(lists.mismatch_b));
  scores.frequent = base_fn(text::JoinTokens(lists.frequent_a),
                            text::JoinTokens(lists.frequent_b));
  return scores;
}

inline double ScoreNormalized(const lgm::LgmSim& sim, std::string_view na,
                              std::string_view nb,
                              text::SimilarityFn base_fn) {
  const lgm::LgmSimConfig& config = sim.config();
  const TermLists lists = SplitNormalized(sim, na, nb, base_fn);
  struct ListEntry {
    double weight;
    double score;
    bool active;
  };
  const auto score_pair = [&](const std::vector<std::string>& la,
                              const std::vector<std::string>& lb,
                              double weight) -> ListEntry {
    if (la.empty() && lb.empty()) return {weight, 0.0, false};
    if (la.empty() || lb.empty()) return {weight, 0.0, true};
    return {weight, base_fn(text::JoinTokens(la), text::JoinTokens(lb)),
            true};
  };
  const ListEntry entries[3] = {
      score_pair(lists.base_a, lists.base_b, config.base_weight),
      score_pair(lists.mismatch_a, lists.mismatch_b, config.mismatch_weight),
      score_pair(lists.frequent_a, lists.frequent_b, config.frequent_weight),
  };
  double active_weight = 0.0;
  double weighted_score = 0.0;
  for (const ListEntry& e : entries) {
    if (!e.active) continue;
    active_weight += e.weight;
    weighted_score += e.weight * e.score;
  }
  if (active_weight <= 0.0) return 1.0;
  return weighted_score / active_weight;
}

// The pre-change LgmXExtractor::TextFeatures: out[0..42] of one attribute.
inline void TextFeatures(const lgm::LgmSim& sim, const std::string& a_norm,
                         const std::string& a_sorted,
                         const std::string& b_norm,
                         const std::string& b_sorted, double* out) {
  size_t k = 0;
  const auto& basic = text::BasicSimilarities();
  const text::SimilarityFn jw = text::FindSimilarity("jaro_winkler");
  std::vector<double> raw(basic.size());
  for (size_t m = 0; m < basic.size(); ++m) {
    raw[m] = basic[m].name == "jaro_winkler_sorted"
                 ? jw(a_sorted, b_sorted)
                 : basic[m].fn(a_norm, b_norm);
    out[k++] = raw[m];
  }
  const double sort_threshold = sim.config().sort_threshold;
  const auto& sortable = text::SortableSimilarities();
  for (const text::NamedSimilarity& m : sortable) {
    size_t basic_index = 0;
    while (basic[basic_index].name != m.name) ++basic_index;
    const double raw_score = raw[basic_index];
    out[k++] = raw_score >= sort_threshold
                   ? raw_score
                   : std::max(raw_score, m.fn(a_sorted, b_sorted));
  }
  for (const text::NamedSimilarity& m : sortable) {
    out[k++] = ScoreNormalized(sim, a_norm, b_norm, m.fn);
  }
  const lgm::ListScores scores = IndividualScoresNormalized(
      sim, a_norm, b_norm, text::DamerauLevenshteinSimilarity);
  out[k++] = scores.base;
  out[k++] = scores.mismatch;
  out[k++] = scores.frequent;
}

// The pre-change LgmXExtractor::RowFromCache (`out` holds 88 doubles).
inline void Row(const lgm::LgmSim& name_sim, const lgm::LgmSim& addr_sim,
                const features::LgmXOptions& options,
                const data::SpatialEntity& a,
                const features::LgmXExtractor::EntityText& ta,
                const data::SpatialEntity& b,
                const features::LgmXExtractor::EntityText& tb, double* out,
                size_t feature_count) {
  const size_t text_block = feature_count / 2 - 1;
  std::fill(out, out + feature_count, 0.0);
  if (!ta.name_norm.empty() && !tb.name_norm.empty()) {
    TextFeatures(name_sim, ta.name_norm, ta.name_sorted, tb.name_norm,
                 tb.name_sorted, out);
  }
  if (!ta.addr_norm.empty() && !tb.addr_norm.empty()) {
    TextFeatures(addr_sim, ta.addr_norm, ta.addr_sorted, tb.addr_norm,
                 tb.addr_sorted, out + text_block);
  }
  double* tail = out + 2 * text_block;
  if (a.address_number >= 0 && b.address_number >= 0) {
    const double delta = std::abs(a.address_number - b.address_number);
    tail[0] = 1.0 - std::min(delta, static_cast<double>(
                                        options.max_number_delta)) /
                        static_cast<double>(options.max_number_delta);
  }
  const double dist = geo::HaversineMeters(a.location, b.location);
  if (dist >= 0.0) {
    tail[1] = 1.0 - std::min(dist, options.max_distance_m) /
                        options.max_distance_m;
  }
}

}  // namespace skyex::lgm_reference

#endif  // SKYEX_TESTS_LGM_REFERENCE_H_
