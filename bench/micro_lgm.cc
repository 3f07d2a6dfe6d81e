// Micro-benchmarks of the LGM-Sim meta-similarity.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

#include "data/northdk_generator.h"
#include "features/lgm_x.h"
#include "geo/quadflex.h"
#include "lgm/lgm_sim.h"
#include "text/edit_distance.h"
#include "text/jaro.h"

namespace {

const skyex::lgm::LgmSim& Sim() {
  static const auto& sim = *new skyex::lgm::LgmSim(
      skyex::lgm::FrequentTermDictionary::FromTerms(
          {"cafe", "restaurant", "pizzeria", "bar", "hotel"}));
  return sim;
}

double Jw(std::string_view a, std::string_view b) {
  return skyex::text::JaroWinklerSimilarity(a, b);
}

void BM_LgmSimDamerau(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Sim().Score("restaurant ambiance vest", "ambiançe bistro vester",
                    skyex::text::DamerauLevenshteinSimilarity));
  }
}
BENCHMARK(BM_LgmSimDamerau);

void BM_LgmSimJaroWinkler(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sim().Score("restaurant ambiance vest",
                                         "ambiançe bistro vester", Jw));
  }
}
BENCHMARK(BM_LgmSimJaroWinkler);

void BM_LgmIndividualScores(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sim().IndividualScores(
        "restaurant ambiance vest", "ambiançe bistro vester",
        skyex::text::DamerauLevenshteinSimilarity));
  }
}
BENCHMARK(BM_LgmIndividualScores);

void BM_LgmCustomSorted(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sim().CustomSortedScore(
        "vestergade amelie cafe", "cafe amelie vestergade",
        skyex::text::DamerauLevenshteinSimilarity));
  }
}
BENCHMARK(BM_LgmCustomSorted);

// One whole LGM-X row (88 features, both textual attributes through the
// LGM-Sim split core) from cached entity text, over a fixed sample of
// generated North-DK QuadFlex pairs — the per-pair cost that dominates
// batch extraction, measured outside the full pipeline.
void BM_LgmXRow(benchmark::State& state) {
  using skyex::features::LgmXExtractor;
  struct Fixture {
    skyex::data::Dataset dataset;
    std::vector<LgmXExtractor::EntityText> text;
    std::vector<skyex::geo::CandidatePair> pairs;
    LgmXExtractor extractor;
  };
  static const auto& fixture = *[] {
    skyex::data::NorthDkOptions options;
    options.num_entities = 2000;
    options.seed = 7;
    skyex::data::Dataset dataset = skyex::data::GenerateNorthDk(options);
    std::vector<LgmXExtractor::EntityText> text;
    for (const skyex::data::SpatialEntity& e : dataset.entities) {
      text.push_back(LgmXExtractor::ComputeEntityText(e));
    }
    const std::vector<skyex::geo::CandidatePair> all =
        skyex::geo::QuadFlexBlock(dataset.Points());
    // Every k-th pair, 1024 in all: spread over the whole map.
    std::vector<skyex::geo::CandidatePair> pairs;
    const size_t stride = std::max<size_t>(1, all.size() / 1024);
    for (size_t r = 0; r < all.size() && pairs.size() < 1024; r += stride) {
      pairs.push_back(all[r]);
    }
    LgmXExtractor extractor = LgmXExtractor::FromCorpus(dataset);
    return new Fixture{std::move(dataset), std::move(text), std::move(pairs),
                       std::move(extractor)};
  }();
  std::vector<double> row(fixture.extractor.feature_count());
  for (auto _ : state) {
    for (const auto& [i, j] : fixture.pairs) {
      fixture.extractor.RowFromCache(fixture.dataset[i], fixture.text[i],
                                     fixture.dataset[j], fixture.text[j],
                                     row.data());
      benchmark::DoNotOptimize(row.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fixture.pairs.size()));
}
BENCHMARK(BM_LgmXRow)->Unit(benchmark::kMillisecond);

}  // namespace
