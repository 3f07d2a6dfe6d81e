#ifndef SKYEX_LGM_LIST_SPLIT_H_
#define SKYEX_LGM_LIST_SPLIT_H_

#include <string>
#include <string_view>
#include <vector>

#include "lgm/frequent_terms.h"
#include "text/scratch.h"
#include "text/similarity_registry.h"

namespace skyex::lgm {

/// The three pairs of term lists LGM-Sim splits two strings into:
/// base lists hold terms that (loosely) match across the strings,
/// mismatch lists hold the remaining significant terms, and frequent
/// lists hold corpus-frequent, low-significance terms.
struct TermLists {
  std::vector<std::string> base_a;
  std::vector<std::string> base_b;
  std::vector<std::string> mismatch_a;
  std::vector<std::string> mismatch_b;
  std::vector<std::string> frequent_a;
  std::vector<std::string> frequent_b;
};

/// The same six lists, each joined with single spaces — the form the list
/// scores run on (an empty list is the empty string). Views into the
/// calling thread's scratch arena, valid until its next split.
struct JoinedLists {
  std::string_view base_a;
  std::string_view base_b;
  std::string_view mismatch_a;
  std::string_view mismatch_b;
  std::string_view frequent_a;
  std::string_view frequent_b;
};

/// The term order a split runs on: the strings as normalized, or term-
/// sorted (LGM-Sim's custom sorting step).
enum class TermOrder : int {
  kAsIs = 0,
  kSorted = 1,
};

/// The one LGM-Sim term-list split. The constructor tokenizes both
/// normalized strings once, as views over them, and resolves each term's
/// frequent flag once; both term orders are kept (sorting the term views
/// gives exactly text::SortTokens' order). Split() then runs the greedy
/// best-first match for any similarity measure without re-tokenizing, so
/// one pair can be split under many measures for the cost of one
/// tokenization.
///
/// All state lives in the calling thread's scratch arena (the `lgm_*`
/// group of text::ScratchArena): at most one PreparedPair per thread at a
/// time (the constructor throws std::logic_error otherwise), and `na` /
/// `nb` must outlive it.
class PreparedPair {
 public:
  PreparedPair(std::string_view na, std::string_view nb,
               const FrequentTermDictionary& dict);
  ~PreparedPair();

  PreparedPair(const PreparedPair&) = delete;
  PreparedPair& operator=(const PreparedPair&) = delete;

  /// Frequent terms go to the frequent lists. Among the rest, term pairs
  /// are matched greedily best-similarity-first under `token_sim` (ties
  /// broken by a-position, then b-position); pairs at or above
  /// `match_threshold` populate the base lists in match order, unmatched
  /// terms the mismatch lists in string order.
  JoinedLists Split(TermOrder order, text::SimilarityFn token_sim,
                    double match_threshold) const;

 private:
  text::ScratchArena& arena_;
};

/// Splits the token lists of two normalized strings as they stand (no
/// sorting): PreparedPair::Split, re-tokenized into owned lists.
TermLists SplitTermLists(const std::string& a, const std::string& b,
                         const FrequentTermDictionary& dict,
                         text::SimilarityFn token_sim,
                         double match_threshold);

}  // namespace skyex::lgm

#endif  // SKYEX_LGM_LIST_SPLIT_H_
