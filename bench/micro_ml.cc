// Micro-benchmarks of the from-scratch ML substrate (fit + predict) and
// of SkyEx-T training itself, on a synthetic linkage-shaped problem.

#include <benchmark/benchmark.h>

#include <random>

#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "ml/decision_tree.h"
#include "ml/extra_trees.h"
#include "ml/gradient_boosting.h"
#include "ml/linear_svm.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"
#include "ml/statistics.h"

namespace {

struct Problem {
  skyex::ml::FeatureMatrix matrix;
  std::vector<uint8_t> labels;
  std::vector<size_t> rows;
};

const Problem& SharedProblem() {
  static const Problem& problem = *[] {
    auto* p = new Problem();
    const size_t n = 8000;
    const size_t d = 24;
    std::vector<std::string> names(d, "f");
    p->matrix = skyex::ml::FeatureMatrix::Zeros(n, names);
    p->labels.resize(n);
    p->rows.resize(n);
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::normal_distribution<double> noise(0.0, 0.15);
    for (size_t r = 0; r < n; ++r) {
      p->rows[r] = r;
      const bool positive = unit(rng) < 0.05;
      p->labels[r] = positive ? 1 : 0;
      for (size_t c = 0; c < d; ++c) {
        const double base = c < 6 ? (positive ? 0.8 : 0.3) : unit(rng);
        p->matrix.Row(r)[c] = std::clamp(base + noise(rng), 0.0, 1.0);
      }
    }
    return p;
  }();
  return problem;
}

template <typename ClassifierT>
void FitBenchmark(benchmark::State& state) {
  const Problem& p = SharedProblem();
  for (auto _ : state) {
    ClassifierT classifier;
    classifier.Fit(p.matrix, p.labels, p.rows);
    benchmark::DoNotOptimize(classifier.PredictScore(p.matrix.Row(0)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(p.rows.size()));
}

void BM_FitDecisionTree(benchmark::State& state) {
  FitBenchmark<skyex::ml::DecisionTree>(state);
}
BENCHMARK(BM_FitDecisionTree)->Unit(benchmark::kMillisecond);

void BM_FitRandomForest(benchmark::State& state) {
  FitBenchmark<skyex::ml::RandomForest>(state);
}
BENCHMARK(BM_FitRandomForest)->Unit(benchmark::kMillisecond);

void BM_FitExtraTrees(benchmark::State& state) {
  FitBenchmark<skyex::ml::ExtraTrees>(state);
}
BENCHMARK(BM_FitExtraTrees)->Unit(benchmark::kMillisecond);

void BM_FitGradientBoosting(benchmark::State& state) {
  FitBenchmark<skyex::ml::GradientBoosting>(state);
}
BENCHMARK(BM_FitGradientBoosting)->Unit(benchmark::kMillisecond);

void BM_FitLinearSvm(benchmark::State& state) {
  FitBenchmark<skyex::ml::LinearSvm>(state);
}
BENCHMARK(BM_FitLinearSvm)->Unit(benchmark::kMillisecond);

void BM_FitMlp(benchmark::State& state) {
  FitBenchmark<skyex::ml::Mlp>(state);
}
BENCHMARK(BM_FitMlp)->Unit(benchmark::kMillisecond);

void BM_SkyExTTrain(benchmark::State& state) {
  const Problem& p = SharedProblem();
  const size_t train_size = static_cast<size_t>(state.range(0));
  const std::vector<size_t> train(p.rows.begin(),
                                  p.rows.begin() +
                                      static_cast<ptrdiff_t>(train_size));
  for (auto _ : state) {
    const skyex::core::SkyExT skyex;
    benchmark::DoNotOptimize(skyex.Train(p.matrix, p.labels, train));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(train_size));
}
BENCHMARK(BM_SkyExTTrain)->Arg(500)->Arg(2000)->Arg(8000)->Unit(
    benchmark::kMillisecond);

void BM_SkyExTLabel(benchmark::State& state) {
  const Problem& p = SharedProblem();
  const skyex::core::SkyExT skyex;
  const std::vector<size_t> train(p.rows.begin(), p.rows.begin() + 1000);
  const auto model = skyex.Train(p.matrix, p.labels, train);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        skyex::core::SkyExT::Label(p.matrix, p.rows, model));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(p.rows.size()));
}
BENCHMARK(BM_SkyExTLabel)->Unit(benchmark::kMillisecond);

// The redundancy matrix of SkyEx-T's feature de-duplication: all 88 LGM-X
// columns of a generated North-DK QuadFlex matrix, on the rows Train
// scores them over (every pair, evenly thinned to max_mi_rows). Run with
// --threads=1 and --threads=$(nproc).
void BM_PairwiseRedundancy(benchmark::State& state) {
  struct Fixture {
    skyex::ml::FeatureMatrix matrix;
    std::vector<size_t> rows;
  };
  static const auto& fixture = *[] {
    skyex::data::NorthDkOptions options;
    options.num_entities = 4000;
    options.seed = 7;
    auto* f = new Fixture{skyex::core::PrepareNorthDk(options).features, {}};
    const size_t cap = skyex::core::FeatureSelectionOptions{}.max_mi_rows;
    const size_t n = f->matrix.rows;
    const double stride =
        n > cap ? static_cast<double>(n) / static_cast<double>(cap) : 1.0;
    for (size_t k = 0; k < std::min(n, cap); ++k) {
      f->rows.push_back(static_cast<size_t>(static_cast<double>(k) * stride));
    }
    return f;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        skyex::ml::PairwiseRedundancy(fixture.matrix, fixture.rows));
  }
  state.counters["rows"] = static_cast<double>(fixture.rows.size());
  state.counters["cols"] = static_cast<double>(fixture.matrix.cols);
}
BENCHMARK(BM_PairwiseRedundancy)->Unit(benchmark::kMillisecond);

}  // namespace
