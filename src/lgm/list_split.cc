#include "lgm/list_split.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "text/tokenize.h"

namespace skyex::lgm {

namespace {

// Appends `term` to a space-joined list (text::JoinTokens, incrementally).
void AppendTerm(std::string* list, std::string_view term) {
  if (!list->empty()) list->push_back(' ');
  list->append(term);
}

void JoinTerms(const std::vector<std::string_view>& terms, std::string* out) {
  out->clear();
  for (std::string_view term : terms) AppendTerm(out, term);
}

}  // namespace

PreparedPair::PreparedPair(std::string_view na, std::string_view nb,
                           const FrequentTermDictionary& dict)
    : arena_(text::ScratchArena::Get()) {
  if (arena_.lgm_pair_open) {
    throw std::logic_error("one lgm::PreparedPair per thread at a time");
  }
  constexpr int kAsIs = static_cast<int>(TermOrder::kAsIs);
  constexpr int kSorted = static_cast<int>(TermOrder::kSorted);
  const std::string_view sides[2] = {na, nb};
  std::vector<std::string_view>& terms = arena_.lgm_tokens;
  for (int side = 0; side < 2; ++side) {
    text::TokenizeViews(sides[side], &terms);
    std::vector<std::string_view>& rest = arena_.lgm_rest[kAsIs][side];
    rest.clear();
    // Significant terms go to `rest`; frequent ones are compacted in
    // place to the front of `terms`, keeping their string order.
    size_t frequent = 0;
    for (size_t t = 0; t < terms.size(); ++t) {
      const std::string_view term = terms[t];
      if (dict.Contains(term)) {
        terms[frequent++] = term;
      } else {
        rest.push_back(term);
      }
    }
    terms.resize(frequent);
    JoinTerms(terms, &arena_.lgm_frequent[kAsIs][side]);
    // The frequent flag depends on the term alone, so sorting each part
    // equals splitting text::SortTokens' string (views and std::strings
    // compare alike).
    std::sort(terms.begin(), terms.end());
    JoinTerms(terms, &arena_.lgm_frequent[kSorted][side]);
    std::vector<std::string_view>& sorted_rest =
        arena_.lgm_rest[kSorted][side];
    sorted_rest.assign(rest.begin(), rest.end());
    std::sort(sorted_rest.begin(), sorted_rest.end());
  }
  arena_.lgm_pair_open = true;
}

PreparedPair::~PreparedPair() { arena_.lgm_pair_open = false; }

JoinedLists PreparedPair::Split(TermOrder order,
                                text::SimilarityFn token_sim,
                                double match_threshold) const {
  const int o = static_cast<int>(order);
  const std::vector<std::string_view>& rest_a = arena_.lgm_rest[o][0];
  const std::vector<std::string_view>& rest_b = arena_.lgm_rest[o][1];

  // Greedy best-first matching of the significant terms.
  auto& candidates = arena_.lgm_candidates;
  candidates.clear();
  for (size_t i = 0; i < rest_a.size(); ++i) {
    for (size_t j = 0; j < rest_b.size(); ++j) {
      const double sim = token_sim(rest_a[i], rest_b[j]);
      if (sim >= match_threshold) {
        candidates.push_back(
            {sim, static_cast<uint32_t>(i), static_cast<uint32_t>(j)});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const text::ScratchArena::PairCandidate& x,
               const text::ScratchArena::PairCandidate& y) {
              if (x.sim != y.sim) return x.sim > y.sim;
              if (x.i != y.i) return x.i < y.i;
              return x.j < y.j;
            });
  std::vector<uint8_t>& used_a = arena_.lgm_used_a;
  std::vector<uint8_t>& used_b = arena_.lgm_used_b;
  used_a.assign(rest_a.size(), 0);
  used_b.assign(rest_b.size(), 0);
  std::string* base = arena_.lgm_base;
  std::string* mismatch = arena_.lgm_mismatch;
  base[0].clear();
  base[1].clear();
  for (const text::ScratchArena::PairCandidate& c : candidates) {
    if (used_a[c.i] || used_b[c.j]) continue;
    used_a[c.i] = 1;
    used_b[c.j] = 1;
    AppendTerm(&base[0], rest_a[c.i]);
    AppendTerm(&base[1], rest_b[c.j]);
  }
  mismatch[0].clear();
  mismatch[1].clear();
  for (size_t i = 0; i < rest_a.size(); ++i) {
    if (!used_a[i]) AppendTerm(&mismatch[0], rest_a[i]);
  }
  for (size_t j = 0; j < rest_b.size(); ++j) {
    if (!used_b[j]) AppendTerm(&mismatch[1], rest_b[j]);
  }
  return {base[0],     base[1],
          mismatch[0], mismatch[1],
          arena_.lgm_frequent[o][0], arena_.lgm_frequent[o][1]};
}

TermLists SplitTermLists(const std::string& a, const std::string& b,
                         const FrequentTermDictionary& dict,
                         text::SimilarityFn token_sim,
                         double match_threshold) {
  const PreparedPair pair(a, b, dict);
  const JoinedLists joined =
      pair.Split(TermOrder::kAsIs, token_sim, match_threshold);
  TermLists lists;
  lists.base_a = text::Tokenize(joined.base_a);
  lists.base_b = text::Tokenize(joined.base_b);
  lists.mismatch_a = text::Tokenize(joined.mismatch_a);
  lists.mismatch_b = text::Tokenize(joined.mismatch_b);
  lists.frequent_a = text::Tokenize(joined.frequent_a);
  lists.frequent_b = text::Tokenize(joined.frequent_b);
  return lists;
}

}  // namespace skyex::lgm
