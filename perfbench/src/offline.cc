// Offline workload `batch_northdk`: the whole SkyEx-T linkage of one
// generated dataset, extraction included.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

#include "core/feature_selection.h"
#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "data/ground_truth.h"
#include "data/northdk_generator.h"
#include "eval/metrics.h"
#include "eval/sampling.h"
#include "features/lgm_x.h"
#include "geo/quadflex.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "skyline/layers.h"
#include "text/similarity_registry.h"

namespace perfbench {
namespace {

using skyex::core::SkyExT;
using skyex::core::SkyExTModel;

// A small training fraction, as in the paper; large enough that one
// sample's model costs and scores about what the next one does.
constexpr double kTrainFraction = 0.1;
// Entities of the generated North-DK dataset: ~91-101k QuadFlex pairs.
constexpr size_t kEntities = 8000;
constexpr size_t kSmokeEntities = 600;
// F1 floor of SkyExT::Label against the phone/website rule. One model's
// F1 sits at 0.60-0.74; a pipeline that breaks linkage falls far below.
constexpr double kF1Floor = 0.45;
// A set-up takes ~0.1 s, so one timing follows the host's load; setup_s
// is the median of this many.
constexpr int kSetups = 7;
// link_f1 is the median over models trained on this many independent
// 10% samples: one sample's model scores anywhere in 0.60-0.74, the
// median of five stays within a few hundredths from seed to seed.
constexpr size_t kF1Models = 5;

uint64_t SplitSeed(uint64_t seed, size_t sample) {
  return seed * 1000 + sample;
}

skyex::data::Dataset Generate(size_t n, uint64_t seed) {
  skyex::data::NorthDkOptions options;
  options.num_entities = n;
  options.seed = seed;
  return skyex::data::GenerateNorthDk(options);
}

double LabelF1(const std::vector<uint8_t>& predicted,
               const std::vector<uint8_t>& truth) {
  return skyex::eval::Confusion(predicted, truth).F1();
}

uint64_t LabelDigest(const std::vector<uint8_t>& labels) {
  return Digest(labels.data(), labels.size(), labels.size());
}

// Registry-wide counters the per-layer metrics are deltas of.
struct Counters {
  uint64_t tasks = 0;
  uint64_t steals = 0;
  double task_us = 0.0;
  uint64_t dominance_tests = 0;

  static Counters Read() {
    auto& registry = skyex::obs::MetricsRegistry::Global();
    Counters c;
    c.tasks = registry.GetCounter("par/tasks_executed").Value();
    c.steals = registry.GetCounter("par/steals").Value();
    c.task_us = registry
                    .GetHistogram("par/task_latency_us",
                                  skyex::obs::LatencyBucketsUs())
                    .Sum();
    c.dominance_tests =
        registry.GetCounter("skyline/dominance_tests").Value();
    return c;
  }
};

// Everything one measured loop produced.
struct Passes {
  size_t pairs = 0;  // pairs processed per pass
  std::vector<double> seconds;
  std::vector<double> train_s;
  std::vector<uint64_t> digests;
  std::vector<double> f1;
  Counters before, after;
};

struct PassOutcome {
  size_t pairs = 0;
  double train_s = 0.0;
  uint64_t digest = 0;
  double f1 = 0.0;
};

// Runs pass(i) until the time budget is spent: at least two passes, and
// as many more as the first pass's duration says fit in `seconds`.
template <typename Fn>
Passes RunPasses(double seconds, bool traced, Fn&& pass) {
  auto& collector = skyex::obs::TraceCollector::Global();
  collector.SetEnabled(traced);
  Passes out;
  out.before = Counters::Read();
  size_t target = 2;
  for (size_t i = 0; i < target; ++i) {
    const Stopwatch watch;
    const PassOutcome outcome = pass(i);
    out.seconds.push_back(watch.Seconds());
    out.train_s.push_back(outcome.train_s);
    out.digests.push_back(outcome.digest);
    out.f1.push_back(outcome.f1);
    out.pairs = outcome.pairs;
    if (i == 0) {
      target = std::max<size_t>(
          2, static_cast<size_t>(seconds / out.seconds[0] + 0.5));
    }
    if (traced) collector.Reset();  // keep the span buffers bounded
  }
  out.after = Counters::Read();
  collector.SetEnabled(false);
  return out;
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

// Per-layer numbers of the parallel runtime and the skyline over the
// traced passes, plus the feature selection, full layering and oracle
// sweep of the trained model (timed once, outside the passes).
void ReportModelLayers(const skyex::ml::FeatureMatrix& matrix,
                       const std::vector<uint8_t>& labels,
                       const std::vector<size_t>& train_rows,
                       const SkyExTModel& model, const Passes& traced,
                       Report* report) {
  const std::vector<size_t> all = skyex::core::AllRows(matrix.rows);
  const skyex::core::SkyExTOptions defaults;
  // The rows Train de-duplicates on: all rows, thinned to max_mi_rows
  // with the same even stride.
  std::vector<size_t> mi_rows = all;
  const size_t cap = defaults.selection.max_mi_rows;
  if (cap > 0 && mi_rows.size() > cap) {
    const double stride = static_cast<double>(all.size()) / cap;
    mi_rows.resize(cap);
    for (size_t k = 0; k < cap; ++k) {
      mi_rows[k] = all[static_cast<size_t>(k * stride)];
    }
  }
  const Stopwatch select;
  const std::vector<size_t> kept =
      skyex::core::DeduplicateFeatures(matrix, mi_rows, defaults.selection);
  const auto ranked =
      skyex::core::RankByClassCorrelation(matrix, labels, train_rows, kept);
  report->Metric("ml.select_s", select.Seconds(), "s");
  if (ranked.empty()) report->Fail("feature selection kept no feature");
  {
    const Stopwatch watch;
    const auto layers =
        skyex::skyline::ComputeSkylineLayers(matrix, all, *model.preference);
    report->Metric("skyline.layering_s", watch.Seconds(), "s");
    report->Metric("skyline.layers", layers.max_layer, "count");
  }
  {
    const Stopwatch watch;
    skyex::core::SweepCutoffOverSkylines(matrix, all, labels,
                                         *model.preference);
    report->Metric("skyline.sweep_s", watch.Seconds(), "s");
  }
  const double passes = static_cast<double>(traced.seconds.size());
  const double tests =
      static_cast<double>(traced.after.dominance_tests -
                          traced.before.dominance_tests) /
      passes;
  report->Metric("skyline.dominance_tests", tests, "count");
  report->Metric("skyline.tests_per_pair",
                 tests / static_cast<double>(matrix.rows), "count");
  report->Metric("par.tasks",
                 static_cast<double>(traced.after.tasks - traced.before.tasks) /
                     passes,
                 "count");
  report->Metric(
      "par.steals",
      static_cast<double>(traced.after.steals - traced.before.steals) / passes,
      "count");
  const double threads =
      static_cast<double>(skyex::par::ThreadPool::Global().threads());
  report->Metric("par.busy_share",
                 (traced.after.task_us - traced.before.task_us) * 1e-6 /
                     (Sum(traced.seconds) * threads),
                 "share");
}

void ReportSpanMedian(const SpanRecorder& spans, const char* span,
                      const char* metric, Report* report) {
  report->Metric(metric, Median(spans.Durations(span)), "s");
}

// Pass i of one run must label exactly what pass i of the other did:
// tracing (or repeating a pass) must not change a single output.
void CheckDigests(const std::vector<uint64_t>& a,
                  const std::vector<uint64_t>& b, const std::string& what,
                  Report* report) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      report->Fail(what + ": label digests differ at pass " +
                   std::to_string(i));
      return;
    }
  }
}

void CheckF1(double f1, Report* report) {
  if (!(f1 >= kF1Floor)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "link_f1 %.4f below the floor %.2f", f1,
                  kF1Floor);
    report->Fail(buf);
  }
}

}  // namespace

// Every registry similarity measure over a sample of the workload's own
// (normalized) name pairs; nanoseconds per pair for the whole set.
double KernelNsPerPair(const skyex::data::Dataset& dataset,
                       const std::vector<skyex::geo::CandidatePair>& pairs) {
  using skyex::features::LgmXExtractor;
  const size_t sample = std::min<size_t>(2000, pairs.size());
  if (sample == 0) return 0.0;
  std::vector<std::pair<std::string, std::string>> names;
  names.reserve(sample);
  const size_t stride = pairs.size() / sample;
  for (size_t i = 0; i < sample; ++i) {
    const auto& [a, b] = pairs[i * stride];
    names.emplace_back(LgmXExtractor::ComputeEntityText(dataset[a]).name_norm,
                       LgmXExtractor::ComputeEntityText(dataset[b]).name_norm);
  }
  const auto& measures = skyex::text::BasicSimilarities();
  std::vector<double> per_pair_ns;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const Stopwatch watch;
    double acc = 0.0;
    for (const auto& [a, b] : names) {
      for (const auto& measure : measures) acc += measure.fn(a, b);
    }
    per_pair_ns.push_back(watch.Seconds() * 1e9 / sample);
    sink = sink + acc;
  }
  return Median(per_pair_ns);
}

void RunBatch(const Options& options, Report* report) {
  const size_t n = options.smoke ? kSmokeEntities : kEntities;
  SpanRecorder spans(options.trace);
  report->Info("N", std::to_string(n));

  // Set-up: data generation (plus a small warm-up pass that spins up the
  // shared thread pool), repeated; setup_s is the median.
  std::vector<double> setup_s;
  std::optional<skyex::data::Dataset> dataset;
  for (int i = 0; i < kSetups; ++i) {
    const Stopwatch watch;
    {
      SpanRecorder::Scope s(&spans, "data.generate");
      dataset.emplace(Generate(n, options.seed));
    }
    const auto warm = Generate(200, options.seed);
    const auto warm_pairs = skyex::geo::QuadFlexBlock(warm.Points());
    skyex::features::LgmXExtractor::FromCorpus(warm).Extract(warm, warm_pairs);
    setup_s.push_back(watch.Seconds());
  }
  const skyex::data::Dataset& ds = *dataset;

  std::vector<skyex::geo::CandidatePair> last_pairs;
  std::vector<uint8_t> last_labels;
  std::vector<size_t> last_train;
  std::optional<skyex::ml::FeatureMatrix> last_matrix;
  SkyExTModel last_model;
  // keep: this pass's outputs replace the kept ones (released first, so a
  // pass never holds two feature matrices).
  auto pass = [&](SpanRecorder* rec, bool keep) {
    if (keep) last_matrix.reset();
    SpanRecorder::Scope whole(rec, "batch.pass");
    std::vector<skyex::geo::CandidatePair> pairs;
    {
      SpanRecorder::Scope s(rec, "geo.block");
      pairs = skyex::geo::QuadFlexBlock(ds.Points());
    }
    std::vector<uint8_t> labels;
    {
      SpanRecorder::Scope s(rec, "data.label");
      labels = skyex::data::LabelPairs(ds, pairs);
    }
    std::optional<skyex::features::LgmXExtractor> extractor;
    {
      SpanRecorder::Scope s(rec, "lgm.corpus");
      extractor.emplace(skyex::features::LgmXExtractor::FromCorpus(ds));
    }
    skyex::ml::FeatureMatrix matrix;
    {
      SpanRecorder::Scope s(rec, "features.extract");
      matrix = extractor->Extract(ds, pairs);
    }
    const std::vector<size_t> all = skyex::core::AllRows(pairs.size());
    // Batch passes repeat the same work (a run holds only two or three),
    // so they all train on the first pass's sample.
    const auto split = skyex::eval::RandomSplit(
        pairs.size(), kTrainFraction, SplitSeed(options.seed, 0));
    PassOutcome outcome;
    outcome.pairs = pairs.size();
    SkyExTModel model;
    {
      SpanRecorder::Scope s(rec, "ml.train");
      const Stopwatch train;
      model = SkyExT().Train(matrix, labels, split.train, &all);
      outcome.train_s = train.Seconds();
    }
    std::vector<uint8_t> predicted;
    {
      SpanRecorder::Scope s(rec, "core.label");
      predicted = SkyExT::Label(matrix, all, model);
    }
    outcome.digest = LabelDigest(predicted);
    outcome.f1 = LabelF1(predicted, labels);
    if (keep) {
      last_pairs = std::move(pairs);
      last_labels = std::move(labels);
      last_train = split.train;
      last_matrix.emplace(std::move(matrix));
      last_model = std::move(model);
    }
    return outcome;
  };

  SpanRecorder untraced_spans(false);
  const Passes untraced = RunPasses(
      options.seconds, false,
      [&](size_t) { return pass(&untraced_spans, true); });
  // Same inputs, same sample: every pass must label as the first did.
  CheckDigests(untraced.digests,
               std::vector<uint64_t>(untraced.digests.size(),
                                     untraced.digests.front()),
               "batch_northdk, repeated passes", report);
  report->AddAttempts(untraced.seconds.size(), 0);

  // Fidelity, after the timed passes: models on further independent
  // samples of the last pass's features. Their Train times join the
  // passes' in train_s.
  std::vector<double> f1 = {untraced.f1.front()};
  std::vector<double> train_s = untraced.train_s;
  const std::vector<size_t> all = skyex::core::AllRows(last_pairs.size());
  for (size_t sample = 1; sample < kF1Models; ++sample) {
    const auto split = skyex::eval::RandomSplit(
        last_pairs.size(), kTrainFraction, SplitSeed(options.seed, sample));
    const Stopwatch train;
    const SkyExTModel model =
        SkyExT().Train(*last_matrix, last_labels, split.train, &all);
    train_s.push_back(train.Seconds());
    f1.push_back(
        LabelF1(SkyExT::Label(*last_matrix, all, model), last_labels));
  }
  CheckF1(Median(f1), report);

  if (!options.trace) {
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("ok_share", 1.0, "share");
    report->Metric("link_f1", Median(f1), "F1");
    report->Metric("train_s", Median(train_s), "s");
    report->Metric("throughput_per_s",
                   static_cast<double>(untraced.pairs) /
                       Median(untraced.seconds),
                   "1/s");
    report->Metric("p50_ms", Median(untraced.seconds) * 1e3, "ms");
    report->Metric("tail_ms", Max(untraced.seconds) * 1e3, "ms");
    return;
  }

  // Traced run: the same number of passes with spans and the library's
  // trace collector on. Digests must match the untraced passes.
  const Passes traced = RunPasses(options.seconds, true, [&](size_t i) {
    return pass(&spans, i == 0);
  });
  CheckDigests(untraced.digests, traced.digests,
               "batch_northdk, untraced vs traced", report);
  report->AddAttempts(traced.seconds.size(), 0);

  const size_t pairs = last_pairs.size();
  ReportSpanMedian(spans, "data.generate", "data.generate_s", report);
  ReportSpanMedian(spans, "geo.block", "geo.block_s", report);
  report->Metric("geo.candidate_pairs", static_cast<double>(pairs), "count");
  ReportSpanMedian(spans, "lgm.corpus", "lgm.corpus_s", report);
  const double extract_s = Median(spans.Durations("features.extract"));
  report->Metric("features.extract_s", extract_s, "s");
  report->Metric("features.ns_per_row",
                 extract_s * 1e9 / static_cast<double>(pairs), "ns");
  report->Metric("text.kernels_ns_per_pair", KernelNsPerPair(ds, last_pairs),
                 "ns");
  ReportSpanMedian(spans, "core.label", "core.label_s", report);
  ReportModelLayers(*last_matrix, last_labels, last_train, last_model, traced,
                    report);
  report->Metric("obs.trace_overhead_share",
                 Median(traced.seconds) / Median(untraced.seconds) - 1.0,
                 "share");
  spans.WriteChromeTrace(options.work_dir + "/spans.json");
}

}  // namespace perfbench
