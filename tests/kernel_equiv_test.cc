// Property tests pinning the optimized string-similarity kernels
// bit-identical to the frozen scalar reference implementations
// (text/reference.h), over random and adversarial corpora, at every SIMD
// dispatch level the host supports. "Bit-identical" is exact double
// equality — the optimized kernels are required to preserve the reference's
// arithmetic, not merely approximate it.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "text/edit_distance.h"
#include "text/jaro.h"
#include "text/normalize.h"
#include "text/reference.h"
#include "text/similarity_registry.h"
#include "text/simd.h"
#include "text/token_similarity.h"

namespace skyex {
namespace {

using text::SimdLevel;

struct KernelPair {
  const char* name;
  text::SimilarityFn optimized;
  text::SimilarityFn reference;
};

std::vector<KernelPair> KernelPairs() {
  return {
      {"levenshtein", text::LevenshteinSimilarity,
       text::reference::LevenshteinSimilarity},
      {"damerau_levenshtein", text::DamerauLevenshteinSimilarity,
       text::reference::DamerauLevenshteinSimilarity},
      {"jaro", text::JaroSimilarity, text::reference::JaroSimilarity},
      {"jaro_winkler",
       [](std::string_view a, std::string_view b) {
         return text::JaroWinklerSimilarity(a, b);
       },
       [](std::string_view a, std::string_view b) {
         return text::reference::JaroWinklerSimilarity(a, b);
       }},
      {"jaro_winkler_reversed", text::ReversedJaroWinklerSimilarity,
       text::reference::ReversedJaroWinklerSimilarity},
      {"jaro_winkler_sorted", text::SortedJaroWinklerSimilarity,
       text::reference::SortedJaroWinklerSimilarity},
      {"jaro_winkler_permuted",
       [](std::string_view a, std::string_view b) {
         return text::PermutedJaroWinklerSimilarity(a, b);
       },
       [](std::string_view a, std::string_view b) {
         return text::reference::PermutedJaroWinklerSimilarity(a, b);
       }},
      {"jaro_winkler_tuned", text::TunedJaroWinklerSimilarity,
       text::reference::TunedJaroWinklerSimilarity},
      {"cosine_bigrams",
       [](std::string_view a, std::string_view b) {
         return text::CosineNgramSimilarity(a, b, 2);
       },
       [](std::string_view a, std::string_view b) {
         return text::reference::CosineNgramSimilarity(a, b, 2);
       }},
      {"jaccard_bigrams",
       [](std::string_view a, std::string_view b) {
         return text::JaccardNgramSimilarity(a, b, 2);
       },
       [](std::string_view a, std::string_view b) {
         return text::reference::JaccardNgramSimilarity(a, b, 2);
       }},
      {"dice_bigrams", text::DiceBigramSimilarity,
       text::reference::DiceBigramSimilarity},
      {"skipgram", text::SkipgramSimilarity,
       text::reference::SkipgramSimilarity},
      {"monge_elkan", text::MongeElkanSimilarity,
       text::reference::MongeElkanSimilarity},
      {"soft_jaccard",
       [](std::string_view a, std::string_view b) {
         return text::SoftJaccardSimilarity(a, b);
       },
       [](std::string_view a, std::string_view b) {
         return text::reference::SoftJaccardSimilarity(a, b);
       }},
      {"davies", text::DaviesDeSallesSimilarity,
       text::reference::DaviesDeSallesSimilarity},
  };
}

// Adversarial fixed strings: empty, 1-char, whitespace shapes, repeated
// characters, token-count edges around the permuted-JW fallback, long
// strings, and UTF-8 (valid and damaged) run through the real normalizer.
std::vector<std::string> AdversarialCorpus() {
  std::vector<std::string> corpus = {
      "",
      "a",
      "z",
      " ",
      "  ",
      "ab",
      "ba",
      "aa",
      "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
      "abababababababababababababababab",
      "cafe noir",
      "noir cafe",
      "cafe  noir ",
      "the little cafe on the corner street",  // 7 tokens: sorted fallback
      "a b c d e f g h",                       // many 1-char tokens
      "vestergade 12",
      "vestergade 21",
      "h c andersens boulevard 18",
      std::string(300, 'q'),
      "x",
  };
  // Long mixed string exercising the SIMD tail handling at every width.
  std::string mixed;
  for (int i = 0; i < 257; ++i) {
    mixed.push_back(static_cast<char>('a' + (i * 7) % 26));
    if (i % 9 == 8) mixed.push_back(' ');
  }
  corpus.push_back(mixed);
  // UTF-8 through the production normalizer: Danish specials, accents, and
  // a deliberately truncated multi-byte sequence (the "repaired" case).
  corpus.push_back(text::Normalize("Caf\xC3\xA9 \xC3\x98sterbro"));
  corpus.push_back(text::Normalize("Skt. J\xC3\xB8rgens All\xC3\xA9 7"));
  corpus.push_back(text::Normalize("smag & behag caf\xC3"));  // truncated é
  corpus.push_back(text::Normalize("\xFF\xFE" "broken bytes\x80"));
  return corpus;
}

// Random corpus from a fixed seed: several alphabets, lengths 0..40.
std::vector<std::string> RandomCorpus() {
  std::mt19937_64 rng(0x5137c0de);
  const std::vector<std::string> alphabets = {
      "ab",
      "abcde ",
      "abcdefghijklmnopqrstuvwxyz 0123456789",
  };
  std::vector<std::string> corpus;
  for (const std::string& alphabet : alphabets) {
    for (int k = 0; k < 10; ++k) {
      const size_t len = rng() % 41;
      std::string s;
      for (size_t i = 0; i < len; ++i) {
        s.push_back(alphabet[rng() % alphabet.size()]);
      }
      corpus.push_back(std::move(s));
    }
  }
  // A few strings over arbitrary bytes (including high bytes) to stress the
  // packed-gram encoding; the kernels must treat them as opaque bytes.
  for (int k = 0; k < 5; ++k) {
    const size_t len = 1 + rng() % 24;
    std::string s;
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(1 + rng() % 255));
    }
    corpus.push_back(std::move(s));
  }
  return corpus;
}

std::vector<SimdLevel> LevelsToTest() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (text::DetectedSimdLevel() >= SimdLevel::kSse2) {
    levels.push_back(SimdLevel::kSse2);
  }
  if (text::DetectedSimdLevel() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

class KernelEquivTest : public ::testing::Test {
 protected:
  void TearDown() override { text::SetSimdLevel(text::DetectedSimdLevel()); }
};

TEST_F(KernelEquivTest, AllKernelsBitIdenticalAtEveryDispatchLevel) {
  std::vector<std::string> corpus = AdversarialCorpus();
  for (std::string& s : RandomCorpus()) corpus.push_back(std::move(s));
  const std::vector<KernelPair> kernels = KernelPairs();

  for (const SimdLevel level : LevelsToTest()) {
    text::SetSimdLevel(level);
    ASSERT_EQ(text::ActiveSimdLevel(), level);
    for (const std::string& a : corpus) {
      for (const std::string& b : corpus) {
        for (const KernelPair& k : kernels) {
          const double got = k.optimized(a, b);
          const double want = k.reference(a, b);
          ASSERT_EQ(got, want)
              << k.name << " diverged at level "
              << text::SimdLevelName(level) << "\n  a=\"" << a << "\"\n  b=\""
              << b << "\"";
        }
      }
    }
  }
}

TEST_F(KernelEquivTest, EditDistancesMatchReference) {
  std::vector<std::string> corpus = AdversarialCorpus();
  for (std::string& s : RandomCorpus()) corpus.push_back(std::move(s));
  for (const std::string& a : corpus) {
    for (const std::string& b : corpus) {
      ASSERT_EQ(text::LevenshteinDistance(a, b),
                text::reference::LevenshteinDistance(a, b));
      ASSERT_EQ(text::DamerauLevenshteinDistance(a, b),
                text::reference::DamerauLevenshteinDistance(a, b));
    }
  }
}

TEST_F(KernelEquivTest, RegistryImplsShareNamesAndOrder) {
  text::SetKernelImpl(text::KernelImpl::kOptimized);
  std::vector<std::string_view> optimized_names;
  for (const auto& m : text::BasicSimilarities()) {
    optimized_names.push_back(m.name);
  }
  text::SetKernelImpl(text::KernelImpl::kReference);
  std::vector<std::string_view> reference_names;
  for (const auto& m : text::BasicSimilarities()) {
    reference_names.push_back(m.name);
  }
  text::SetKernelImpl(text::KernelImpl::kOptimized);
  ASSERT_EQ(optimized_names, reference_names);
  ASSERT_EQ(optimized_names.size(), 14u);
  ASSERT_EQ(text::SortableSimilarities().size(), 13u);
}

TEST_F(KernelEquivTest, RegistryReferenceImplMatchesOptimized) {
  // Scores through the registry must agree bit-for-bit across impls too
  // (this is what makes the reference impl a fair bench baseline).
  const std::string a = "cafe vivaldi vestergade 2";
  const std::string b = "cafee vivaldi vestergade 2b";
  text::SetKernelImpl(text::KernelImpl::kOptimized);
  std::vector<double> opt_scores;
  for (const auto& m : text::BasicSimilarities()) {
    opt_scores.push_back(m.fn(a, b));
  }
  text::SetKernelImpl(text::KernelImpl::kReference);
  std::vector<double> ref_scores;
  for (const auto& m : text::BasicSimilarities()) {
    ref_scores.push_back(m.fn(a, b));
  }
  text::SetKernelImpl(text::KernelImpl::kOptimized);
  ASSERT_EQ(opt_scores, ref_scores);
}

TEST_F(KernelEquivTest, SimdLevelClampAndNames) {
  EXPECT_STREQ(text::SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(text::SimdLevelName(SimdLevel::kSse2), "sse2");
  EXPECT_STREQ(text::SimdLevelName(SimdLevel::kAvx2), "avx2");
  // Requesting more than the hardware supports clamps down.
  text::SetSimdLevel(SimdLevel::kAvx2);
  EXPECT_LE(static_cast<int>(text::ActiveSimdLevel()),
            static_cast<int>(text::DetectedSimdLevel()));
}

}  // namespace
}  // namespace skyex
