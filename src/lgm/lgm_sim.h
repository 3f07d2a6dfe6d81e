#ifndef SKYEX_LGM_LGM_SIM_H_
#define SKYEX_LGM_LGM_SIM_H_

#include <string>
#include <string_view>

#include "lgm/frequent_terms.h"
#include "lgm/list_split.h"
#include "text/similarity_registry.h"

namespace skyex::lgm {

/// Parameters of the LGM-Sim meta-similarity. The defaults are the
/// weights learned on the Geonames toponym corpus in Giannopoulos et al.
/// (base-list dominant); the paper reuses them "as is" — a transfer-
/// learning setup — and so do we. `weight_search.h` can re-learn them.
struct LgmSimConfig {
  /// Weight of the base-list similarity.
  double base_weight = 0.7;
  /// Weight of the mismatch-list similarity.
  double mismatch_weight = 0.2;
  /// Weight of the frequent-list similarity.
  double frequent_weight = 0.1;
  /// Per-token similarity needed for two terms to "loosely match" into
  /// the base lists.
  double match_threshold = 0.55;
  /// The custom sorting step sorts both strings' terms alphanumerically
  /// when the raw baseline similarity falls below this value.
  double sort_threshold = 0.55;
};

/// The per-list scores LGM-Sim computes before weighting — exposed
/// because LGM-X uses them as the "individual similarity score" features.
struct ListScores {
  double base = 0.0;
  double mismatch = 0.0;
  double frequent = 0.0;
};

/// The LGM-Sim meta-similarity: a series of processing and matching steps
/// applied on top of any baseline similarity function.
///
/// Pipeline (Section 4.2.1 of the paper): normalize → optional
/// alphanumeric term sorting → split into base/mismatch/frequent term
/// lists → score each list pair with the baseline function → weighted
/// ensemble.
class LgmSim {
 public:
  LgmSim(FrequentTermDictionary dictionary, LgmSimConfig config = {});

  /// The meta-similarity score in [0, 1] on top of `base_fn`.
  /// Inputs need not be normalized; normalization is applied internally.
  double Score(std::string_view a, std::string_view b,
               text::SimilarityFn base_fn) const;

  /// The three individual list scores (computed with `base_fn`).
  ListScores IndividualScores(std::string_view a, std::string_view b,
                              text::SimilarityFn base_fn) const;

  /// The "custom sorting" decision applied to a similarity measure: when
  /// the raw score is below the sort threshold, the measure is re-run on
  /// term-sorted strings and the better score is kept.
  double CustomSortedScore(std::string_view a, std::string_view b,
                           text::SimilarityFn base_fn) const;

  /// Variants that skip normalization — the caller passes strings already
  /// run through text::Normalize (the feature extractor caches them per
  /// entity, which matters when scoring hundreds of thousands of pairs).
  double ScoreNormalized(std::string_view na, std::string_view nb,
                         text::SimilarityFn base_fn) const;
  ListScores IndividualScoresNormalized(std::string_view na,
                                        std::string_view nb,
                                        text::SimilarityFn base_fn) const;

  /// The split core every entry point above runs on, for callers that
  /// score one pair under many measures (LGM-X): the custom-sorting
  /// decision from `raw` — base_fn's score on the normalized strings,
  /// which such callers already hold — then `pair`'s term-list split under
  /// base_fn.
  JoinedLists Split(const PreparedPair& pair, double raw,
                    text::SimilarityFn base_fn) const;

  /// The weighted ensemble of a split, scoring each list pair with
  /// base_fn. A pair empty on both sides carries no information: it is
  /// excluded and its weight redistributed over the remaining lists (as in
  /// the reference LGM-Sim implementation). A pair with terms on exactly
  /// one side scores 0 — extra unmatched terms count against the match.
  /// Both strings empty after normalization score 1.
  double WeightedScore(const JoinedLists& lists,
                       text::SimilarityFn base_fn) const;
  /// The same ensemble from `scores` = ScoreLists(lists, base_fn), for a
  /// caller that needs the individual scores too.
  double WeightedScore(const JoinedLists& lists,
                       const ListScores& scores) const;
  /// base_fn on each of a split's three list pairs, empty lists included.
  static ListScores ScoreLists(const JoinedLists& lists,
                               text::SimilarityFn base_fn);

  const LgmSimConfig& config() const { return config_; }
  const FrequentTermDictionary& dictionary() const { return dictionary_; }

 private:
  FrequentTermDictionary dictionary_;
  LgmSimConfig config_;
};

}  // namespace skyex::lgm

#endif  // SKYEX_LGM_LGM_SIM_H_
