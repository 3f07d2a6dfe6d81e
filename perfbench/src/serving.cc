// Serving workloads: a fresh `skyex_serve` process per rate step, fed by
// an open-loop generator with entities held out of the same generated
// North-DK dataset the server's corpus comes from.
//
//   serve_uniform  unsharded server; held-out entities spread uniformly.
//   serve_hotspot  --shards=4; most held-out entities come from one small,
//                  dense area, so one shard and its candidate blocks run hot.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "http_client.h"
#include "workloads.h"

#include "core/model_io.h"
#include "core/pipeline.h"
#include "core/skyex_t.h"
#include "data/csv.h"
#include "data/ground_truth.h"
#include "data/northdk_generator.h"
#include "features/lgm_x.h"
#include "geo/distance.h"
#include "geo/quadflex.h"
#include "obs/json.h"
#include "serve/json_writer.h"
#include "serve/service.h"

extern char** environ;

namespace perfbench {
namespace {

namespace json = skyex::obs::json;

struct ServeConfig {
  size_t corpus;          // N: entities the server boots with
  size_t stream;          // M: held-out entities sent as requests
  size_t shards;          // 0: unsharded server
  double hotspot_share;   // share of the stream drawn from the hotspot
  double nominal_rps;     // the rate whose latency is reported
  double p99_limit_ms;    // a step meets the limit when its p99 is below
};

// Nominal rates sit near a third of what each server sustains on a
// 4-CPU host, so the nominal step measures latency, not queueing.
ServeConfig ConfigFor(bool hotspot, bool smoke) {
  ServeConfig c;
  c.corpus = smoke ? 600 : 4000;
  // The hotspot stream is shorter so that its 2·hot nearest entities
  // stay within the largest city.
  c.stream = smoke ? 200 : (hotspot ? 1500 : 2500);
  c.shards = hotspot ? 4 : 0;
  c.hotspot_share = hotspot ? 0.8 : 0.0;
  c.nominal_rps = hotspot ? 300.0 : 200.0;
  c.p99_limit_ms = 50.0;
  return c;
}

// Options the server binary applies by default; the in-process replay
// of the traced run mirrors them.
skyex::core::IncrementalLinkerOptions ServeLinkerOptions() {
  skyex::core::IncrementalLinkerOptions options;
  options.radius_m = 200.0;
  options.calibration_percentile = 0.1;
  options.prefilter_threshold = 0.1;
  options.text_cache_capacity = 4096;
  return options;
}

constexpr size_t kTrainParts = 5;
constexpr int kRequestTimeoutMs = 20000;
// Latency and completion-rate windows per step.
constexpr size_t kWindows = 6;
// Rounds of (nominal step, saturation step) per run, each step on a fresh
// server; the end-to-end numbers are medians over all the windows of the
// kRounds steps of each kind with the least hypervisor steal. While the
// run's time budget lasts (kBudgetSeconds × --seconds), a run adds rounds
// (at most kMaxRounds) until it has kRounds steps of each kind that ran
// with less than kCleanSteal of the host's CPU time stolen. On the 4-CPU
// host this was built on, a step that lost 2.4% of the host to steal
// read a third slower, and steal came in episodes of a minute or two.
constexpr size_t kRounds = 3;
constexpr size_t kMaxRounds = 6;
constexpr double kCleanSteal = 0.01;
constexpr double kBudgetSeconds = 3.5;
// F1 floor of one step's links against the phone/website rule over the
// whole corpus (pairs beyond the candidate radius count as misses).
// Measured values sit at 0.64-0.74.
constexpr double kServeF1Floor = 0.3;

// ---------------------------------------------------------------------
// Inputs

struct ServeInputs {
  skyex::data::Dataset generated;     // corpus ∪ stream
  skyex::data::Dataset corpus;
  std::vector<size_t> corpus_index;   // corpus row -> generated index
  std::vector<size_t> stream_index;   // stream position -> generated index
  std::vector<std::string> bodies;    // request body per stream position
  std::unordered_map<uint64_t, size_t> by_id;  // entity id -> generated
  std::vector<int> stream_pos;        // generated -> stream position or -1
};

void Shuffle(std::vector<size_t>* v, std::mt19937_64* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    const size_t j = (*rng)() % i;
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

ServeInputs MakeInputs(const ServeConfig& config, uint64_t seed,
                       SpanRecorder* spans) {
  ServeInputs in;
  {
    SpanRecorder::Scope s(spans, "data.generate");
    skyex::data::NorthDkOptions options;
    options.num_entities = config.corpus + config.stream;
    options.seed = seed;
    in.generated = skyex::data::GenerateNorthDk(options);
  }
  const size_t total = in.generated.size();
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);

  std::vector<uint8_t> held(total, 0);
  size_t hot = static_cast<size_t>(config.hotspot_share *
                                   static_cast<double>(config.stream));
  if (hot > 0) {
    // Hotspot centre: the middle of the most populated ~1 km grid cell,
    // which lands in the largest city whatever the seed.
    const auto& e = in.generated.entities;
    std::map<std::pair<int, int>, size_t> cells;
    for (const auto& entity : e) {
      ++cells[{static_cast<int>(std::floor(entity.location.lat / 0.01)),
               static_cast<int>(std::floor(entity.location.lon / 0.016))}];
    }
    auto densest = cells.begin();
    for (auto it = cells.begin(); it != cells.end(); ++it) {
      if (it->second > densest->second) densest = it;
    }
    const skyex::geo::GeoPoint centre{(densest->first.first + 0.5) * 0.01,
                                      (densest->first.second + 0.5) * 0.016,
                                      true};
    std::vector<std::pair<double, size_t>> by_distance;
    for (size_t i = 0; i < total; ++i) {
      by_distance.push_back(
          {skyex::geo::HaversineMeters(centre, e[i].location), i});
    }
    std::sort(by_distance.begin(), by_distance.end());
    // Every second of the 2·hot nearest entities is held out, so the
    // corpus keeps the other half of the hotspot and its blocks are dense.
    for (size_t i = 0; i < hot; ++i) held[by_distance[2 * i + 1].second] = 1;
  }
  std::vector<size_t> rest;
  for (size_t i = 0; i < total; ++i) {
    if (!held[i]) rest.push_back(i);
  }
  Shuffle(&rest, &rng);
  for (size_t i = 0; i < config.stream - hot; ++i) held[rest[i]] = 1;

  in.stream_pos.assign(total, -1);
  for (size_t i = 0; i < total; ++i) {
    if (held[i]) {
      in.stream_index.push_back(i);
    } else {
      in.corpus_index.push_back(i);
      in.corpus.entities.push_back(in.generated[i]);
    }
    in.by_id[in.generated[i].id] = i;
  }
  Shuffle(&in.stream_index, &rng);
  for (size_t p = 0; p < in.stream_index.size(); ++p) {
    in.stream_pos[in.stream_index[p]] = static_cast<int>(p);
    skyex::serve::json::Writer writer;
    writer.BeginObject();
    writer.Key("entity");
    skyex::serve::WriteEntityJson(&writer, in.generated[in.stream_index[p]]);
    writer.EndObject();
    in.bodies.push_back(writer.str());
  }
  return in;
}

// train_s: SkyExT::Train on kTrainParts disjoint parts of the corpus's
// pairs, one part per TimeNext() call, round robin. One sub-second timing
// follows the host's load, so the serving run times every part up front
// and one more part before each step; the median then spans the whole
// run, and a burst of outside load reaches few of its timings.
class TrainTimer {
 public:
  TrainTimer(skyex::ml::FeatureMatrix matrix, std::vector<uint8_t> labels)
      : matrix_(std::move(matrix)), labels_(std::move(labels)) {}

  void TimeNext() {
    std::vector<size_t> rows;
    for (size_t r = next_ % kTrainParts; r < labels_.size(); r += kTrainParts) {
      rows.push_back(r);
    }
    ++next_;
    const Stopwatch watch;
    skyex::core::SkyExT().Train(matrix_, labels_, rows);
    seconds_.push_back(watch.Seconds());
  }

  double MedianSeconds() const { return Median(seconds_); }

 private:
  skyex::ml::FeatureMatrix matrix_;
  std::vector<uint8_t> labels_;
  size_t next_ = 0;
  std::vector<double> seconds_;
};

// Trains the served model on all of the corpus's blocked pairs. A server
// runs one model, and a model trained on a random half of the pairs moved
// the served link_f1 by up to 0.05 between halves of one corpus.
TrainTimer TrainModel(const ServeInputs& in, const std::string& model_path,
                      SpanRecorder* spans,
                      std::vector<skyex::geo::CandidatePair>* pairs_out,
                      Report* report) {
  std::vector<skyex::geo::CandidatePair>& pairs = *pairs_out;
  {
    SpanRecorder::Scope s(spans, "geo.block");
    pairs = skyex::geo::QuadFlexBlock(in.corpus.Points());
  }
  auto labels = skyex::data::LabelPairs(in.corpus, pairs);
  std::optional<skyex::features::LgmXExtractor> extractor;
  {
    SpanRecorder::Scope s(spans, "lgm.corpus");
    extractor.emplace(skyex::features::LgmXExtractor::FromCorpus(in.corpus));
  }
  skyex::ml::FeatureMatrix matrix;
  {
    SpanRecorder::Scope s(spans, "features.extract");
    matrix = extractor->Extract(in.corpus, pairs);
  }
  const auto model = skyex::core::SkyExT().Train(
      matrix, labels, skyex::core::AllRows(pairs.size()));
  if (!skyex::core::SaveModelToFile(model, model_path)) {
    report->Fail("cannot write " + model_path);
  }
  TrainTimer timer(std::move(matrix), std::move(labels));
  for (size_t part = 0; part < kTrainParts; ++part) timer.TimeNext();
  return timer;
}

// ---------------------------------------------------------------------
// Server process

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns the server and waits until it has bound its port. Returns
  /// the spawn → port-bound time, or a negative value on failure.
  double Start(const std::string& binary, std::vector<std::string> args,
               const std::string& port_file, const std::string& log_file) {
    std::remove(port_file.c_str());
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_file.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const Stopwatch watch;
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      return -1.0;
    }
    while (watch.Seconds() < 120.0) {
      std::ifstream in(port_file);
      unsigned port = 0;
      if (in >> port && port > 0) {
        port_ = static_cast<uint16_t>(port);
        return watch.Seconds();
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return -1.0;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return -1.0;
  }

  uint16_t port() const { return port_; }

  /// SIGTERM and wait for a clean drain. False when the server did not
  /// exit 0 within 30 s.
  bool Stop() {
    if (pid_ < 0) return false;
    ::kill(pid_, SIGTERM);
    const Stopwatch watch;
    int status = 0;
    while (watch.Seconds() < 30.0) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Kill();
    return false;
  }

 private:
  void Kill() {
    if (pid_ < 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

// ---------------------------------------------------------------------
// Server metrics

struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  // name -> per-bucket (upper bound, count); +inf bucket has bound inf.
  std::map<std::string, std::vector<std::pair<double, double>>> histograms;
  std::map<std::string, double> histogram_sums;

  double Counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
};

std::optional<MetricsSnapshot> FetchMetrics(uint16_t port) {
  const HttpResult r = HttpGet(port, "/metrics");
  if (r.status != 200) return std::nullopt;
  auto doc = json::Parse(r.body, nullptr);
  if (!doc.has_value() || !doc->is_object()) return std::nullopt;
  MetricsSnapshot m;
  if (const json::Value* c = doc->Find("counters")) {
    for (const auto& [k, v] : c->object_v) m.counters[k] = v.number_v;
  }
  if (const json::Value* g = doc->Find("gauges")) {
    for (const auto& [k, v] : g->object_v) m.gauges[k] = v.number_v;
  }
  if (const json::Value* h = doc->Find("histograms")) {
    for (const auto& [k, v] : h->object_v) {
      if (const json::Value* sum = v.Find("sum")) {
        m.histogram_sums[k] = sum->number_v;
      }
      const json::Value* buckets = v.Find("buckets");
      if (buckets == nullptr) continue;
      auto& out = m.histograms[k];
      for (const auto& b : buckets->array_v) {
        const json::Value* le = b.Find("le");
        const json::Value* count = b.Find("count");
        if (le == nullptr || count == nullptr) continue;
        out.push_back({le->is_number() ? le->number_v : INFINITY,
                       count->number_v});
      }
    }
  }
  return m;
}

// Quantile of the observations a histogram gained between two snapshots,
// interpolated inside the containing bucket.
double DeltaQuantile(const MetricsSnapshot& before, const MetricsSnapshot& after,
                     const std::string& name, double q) {
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return 0.0;
  const auto b = before.histograms.find(name);
  std::vector<double> delta(a->second.size(), 0.0);
  double total = 0.0;
  for (size_t i = 0; i < a->second.size(); ++i) {
    const double prev = (b != before.histograms.end() && i < b->second.size())
                            ? b->second[i].second
                            : 0.0;
    delta[i] = a->second[i].second - prev;
    total += delta[i];
  }
  if (total <= 0.0) return 0.0;
  const double target = q * total;
  double seen = 0.0;
  double lower = 0.0;
  for (size_t i = 0; i < delta.size(); ++i) {
    const double upper = a->second[i].first;
    if (seen + delta[i] >= target && delta[i] > 0.0) {
      if (!std::isfinite(upper)) return lower;
      return lower + (upper - lower) * (target - seen) / delta[i];
    }
    seen += delta[i];
    if (std::isfinite(upper)) lower = upper;
  }
  return lower;
}

double DeltaMean(const MetricsSnapshot& before, const MetricsSnapshot& after,
                 const std::string& name) {
  const auto sum = [](const MetricsSnapshot& m, const std::string& n) {
    const auto it = m.histogram_sums.find(n);
    return it == m.histogram_sums.end() ? 0.0 : it->second;
  };
  const auto count = [](const MetricsSnapshot& m, const std::string& n) {
    const auto it = m.histograms.find(n);
    double c = 0.0;
    if (it != m.histograms.end()) {
      for (const auto& [le, k] : it->second) c += k;
    }
    return c;
  };
  const double n = count(after, name) - count(before, name);
  return n > 0.0 ? (sum(after, name) - sum(before, name)) / n : 0.0;
}

std::optional<double> HealthRecords(uint16_t port) {
  const HttpResult r = HttpGet(port, "/healthz");
  if (r.status != 200) return std::nullopt;
  auto doc = json::Parse(r.body, nullptr);
  if (!doc.has_value()) return std::nullopt;
  const json::Value* records = doc->Find("records");
  if (records == nullptr || !records->is_number()) return std::nullopt;
  return records->number_v;
}

// ---------------------------------------------------------------------
// Open-loop generator

struct Sample {
  double due = 0.0;   // seconds since the step's start
  double send = 0.0;
  double done = 0.0;
  double lag = 0.0;   // generator lateness (excludes waiting for a free
                      // connection, which is the server's backlog)
  int status = 0;
  std::string body;
};

size_t ClientConnections() {
  return std::max<size_t>(
      1, std::min<size_t>(4, std::thread::hardware_concurrency()));
}

// Sends bodies[0..count) at `rate` per second from one process, over at
// most ClientConnections() keep-alive connections (one thread each).
// Request i is due at i / rate; a request whose connection is still busy
// waits, and that wait counts in its latency.
std::vector<Sample> RunOpenLoop(uint16_t port,
                                const std::vector<std::string>& bodies,
                                size_t count, double rate) {
  std::vector<Sample> samples(count);
  std::atomic<size_t> next{0};
  const double start = NowSeconds() + 0.02;
  auto worker = [&] {
    HttpConnection connection(port, kRequestTimeoutMs);
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= count) return;
      Sample& s = samples[i];
      s.due = static_cast<double>(i) / rate;
      const double take = NowSeconds() - start;
      if (take < s.due) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(s.due - take));
      }
      s.send = NowSeconds() - start;
      s.lag = s.send - std::max(s.due, take);
      HttpResult r = connection.Exchange("POST", "/v1/link", bodies[i]);
      s.done = NowSeconds() - start;
      s.status = r.status;
      s.body = std::move(r.body);
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < ClientConnections(); ++c) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  return samples;
}

// ---------------------------------------------------------------------
// One step: fresh server, stream, gates.

enum class StepKind { kLight, kNominal, kSaturation };

struct StepPlan {
  StepKind kind;
  double rate;
  size_t count;
  bool traced;
};

struct StepResult {
  double rate = 0.0;
  double setup_s = 0.0;
  size_t attempted = 0;
  size_t failed = 0;
  size_t accepted = 0;   // 200 and not degraded: persisted by the server
  size_t degraded = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double achieved_rps = 0.0;
  // Per window of the step: latency p50 and p90, completion rate.
  std::vector<double> window_p50_ms, window_p90_ms, window_rps;
  double lag_p99_ms = 0.0;
  double duration_s = 0.0;
  double steal_share = 0.0;  // host CPU stolen while the stream ran
  bool backlog_grows = false;
  bool passed = false;
  double f1 = 0.0;
  double peak_rss_mb = 0.0;
  std::optional<MetricsSnapshot> before, after;
};

struct LinkCheck {
  size_t bad = 0;       // links to ids the server could not have seen
  size_t degraded = 0;  // 200 responses marked degraded
  double f1 = 0.0;
};

// Validates every 200 body and scores the links against the rule. A
// stream entity is linkable only once the server persisted it: its own
// request answered 200, not degraded, and was sent before the linking
// request's response arrived.
LinkCheck CheckLinks(const ServeInputs& in, const std::vector<Sample>& samples,
                     Report* report) {
  LinkCheck check;
  const size_t count = samples.size();
  // Rule-positive pairs of each stream entity with the corpus and with the
  // stream entities before it (unordered, as generated-index pairs).
  std::unordered_map<std::string, std::vector<size_t>> by_phone, by_site;
  auto index_of = [&](size_t g) {
    const auto& e = in.generated[g];
    if (!e.phone.empty()) by_phone[e.phone].push_back(g);
    if (!e.website.empty()) by_site[e.website].push_back(g);
  };
  for (size_t g : in.corpus_index) index_of(g);
  std::unordered_set<uint64_t> positives;
  auto key = [](size_t a, size_t b) {
    return (static_cast<uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
  };
  for (size_t p = 0; p < count; ++p) {
    const size_t g = in.stream_index[p];
    const auto& e = in.generated[g];
    for (const auto* bucket :
         {e.phone.empty() ? nullptr : &by_phone[e.phone],
          e.website.empty() ? nullptr : &by_site[e.website]}) {
      if (bucket == nullptr) continue;
      for (size_t other : *bucket) {
        if (skyex::data::SamePhysicalEntityRule(e, in.generated[other])) {
          positives.insert(key(g, other));
        }
      }
    }
    index_of(g);
  }

  // Parse every 200 body first: whether a request persisted its entity
  // is known only from its own body.
  std::vector<std::vector<uint64_t>> linked(count);
  std::vector<uint8_t> persisted(count, 0);
  for (size_t p = 0; p < count; ++p) {
    if (samples[p].status != 200) continue;
    auto doc = json::Parse(samples[p].body, nullptr);
    const json::Value* links = doc.has_value() ? doc->Find("links") : nullptr;
    if (links == nullptr || !links->is_array()) {
      report->Fail("a 200 response body does not parse as a link result");
      ++check.bad;
      continue;
    }
    const json::Value* d = doc->Find("degraded");
    if (d != nullptr && d->bool_v) {
      ++check.degraded;
    } else {
      persisted[p] = 1;
    }
    for (const json::Value& link : links->array_v) {
      const json::Value* id = link.Find("id");
      // An id that is not a number can match no entity.
      linked[p].push_back(id != nullptr && id->is_number()
                              ? static_cast<uint64_t>(id->number_v)
                              : UINT64_MAX);
    }
  }

  std::unordered_set<uint64_t> predicted;
  for (size_t p = 0; p < count; ++p) {
    const size_t g = in.stream_index[p];
    for (const uint64_t id : linked[p]) {
      const auto it = in.by_id.find(id);
      bool known = it != in.by_id.end() && it->second != g;
      if (known) {
        const int q = in.stream_pos[it->second];
        if (q >= 0 && (static_cast<size_t>(q) >= count || !persisted[q] ||
                       samples[q].send >= samples[p].done)) {
          known = false;
        }
      }
      if (!known) {
        ++check.bad;
        continue;
      }
      predicted.insert(key(g, it->second));
    }
  }
  size_t tp = 0;
  for (uint64_t k : predicted) tp += positives.count(k);
  const double fp = static_cast<double>(predicted.size() - tp);
  const double fn = static_cast<double>(positives.size() - tp);
  const double t = static_cast<double>(tp);
  check.f1 = tp == 0 ? 0.0 : 2.0 * t / (2.0 * t + fp + fn);
  return check;
}

StepResult RunStep(const Options& options, const ServeConfig& config,
                   const ServeInputs& in, const std::string& model_path,
                   const std::string& corpus_path, const StepPlan& plan,
                   Report* report) {
  StepResult step;
  step.rate = plan.rate;
  const std::string dir = options.work_dir;
  // No more I/O workers than CPUs (the server's default is 8).
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::string> args = {
      "--model=" + model_path, "--dataset=" + corpus_path, "--port=0",
      "--port-file=" + dir + "/port.txt", "--workers=" + std::to_string(cpus)};
  if (config.shards > 0) {
    args.push_back("--shards=" + std::to_string(config.shards));
  }
  if (plan.traced) args.push_back("--trace-out=" + dir + "/server_trace.json");
  ServerProcess server;
  step.setup_s = server.Start(options.serve_bin, args, dir + "/port.txt",
                              dir + "/server.log");
  if (step.setup_s < 0.0) {
    report->Fail("server did not start (see " + dir + "/server.log)");
    return step;
  }
  const uint16_t port = server.port();

  // Stationarity gate, part 1: the server starts from the corpus alone.
  const auto records_before = HealthRecords(port);
  if (!records_before.has_value() ||
      *records_before != static_cast<double>(in.corpus.size())) {
    report->Fail("stationarity: /healthz records before the stream != N");
    return step;
  }
  step.before = FetchMetrics(port);

  const StealClock steal;
  const std::vector<Sample> samples =
      RunOpenLoop(port, in.bodies, plan.count, plan.rate);
  step.steal_share = steal.Share();

  std::vector<double> latency_ms, lag_ms;
  double last_done = 0.0;
  for (const Sample& s : samples) {
    const bool ok = s.status == 200;
    if (!ok) ++step.failed;
    // A failed request misses every limit: it counts as a full timeout.
    latency_ms.push_back(ok ? (s.done - s.due) * 1e3
                            : std::max((s.done - s.due) * 1e3,
                                       static_cast<double>(kRequestTimeoutMs)));
    lag_ms.push_back(s.lag * 1e3);
    last_done = std::max(last_done, s.done);
  }
  step.attempted = samples.size();
  step.duration_s = last_done;
  // p50, p90, p95 and the completion rate are medians over consecutive
  // windows of the step, so a burst of outside load during one window does
  // not move them.
  std::vector<double> p95s;
  double window_start = 0.0;
  for (size_t w = 0; w < kWindows; ++w) {
    const size_t lo = samples.size() * w / kWindows;
    const size_t hi = samples.size() * (w + 1) / kWindows;
    if (hi <= lo) continue;
    const std::vector<double> window(latency_ms.begin() + lo,
                                     latency_ms.begin() + hi);
    step.window_p50_ms.push_back(Quantile(window, 0.5));
    step.window_p90_ms.push_back(Quantile(window, 0.9));
    p95s.push_back(Quantile(window, 0.95));
    double window_end = window_start;
    size_t ok = 0;
    for (size_t i = lo; i < hi; ++i) {
      window_end = std::max(window_end, samples[i].done);
      ok += samples[i].status == 200;
    }
    step.window_rps.push_back(static_cast<double>(ok) /
                              (window_end - window_start));
    window_start = window_end;
  }
  step.p50_ms = Median(step.window_p50_ms);
  step.p90_ms = Median(step.window_p90_ms);
  step.p95_ms = Median(p95s);
  step.p99_ms = Quantile(latency_ms, 0.99);
  step.lag_p99_ms = Quantile(lag_ms, 0.99);
  step.achieved_rps = Median(step.window_rps);
  // A growing backlog shows as latency rising through the step: compare
  // the median of the last quarter of requests with the first quarter's.
  const size_t quarter = std::max<size_t>(1, latency_ms.size() / 4);
  const std::vector<double> first(latency_ms.begin(),
                                  latency_ms.begin() + quarter);
  const std::vector<double> last(latency_ms.end() - quarter,
                                 latency_ms.end());
  step.backlog_grows =
      Median(last) > 2.0 * Median(first) + config.p99_limit_ms / 5.0;
  step.passed = step.p99_ms <= config.p99_limit_ms && !step.backlog_grows;

  const LinkCheck check = CheckLinks(in, samples, report);
  step.f1 = check.f1;
  step.degraded = check.degraded;
  if (check.bad > 0) {
    report->Fail(std::to_string(check.bad) +
                 " links name an id that is neither a corpus id nor a "
                 "stream entity the server had persisted");
  }
  // The light step is too short for a steady F1; every other step's links
  // must clear the floor.
  if (plan.kind != StepKind::kLight && !(step.f1 >= kServeF1Floor)) {
    report->Fail("served link_f1 " + std::to_string(step.f1) +
                 " below the floor");
  }
  step.accepted = samples.size() - step.failed - step.degraded;

  // Stationarity gate, part 2: exactly the accepted entities were added.
  const auto records_after = HealthRecords(port);
  if (!records_after.has_value() ||
      *records_after !=
          static_cast<double>(in.corpus.size() + step.accepted)) {
    report->Fail("stationarity: /healthz records after the stream != N + "
                 "accepted");
  }
  step.after = FetchMetrics(port);
  if (step.after.has_value()) {
    step.peak_rss_mb =
        step.after->gauges["process/peak_rss_bytes"] / (1024.0 * 1024.0);
  }
  if (!server.Stop()) report->Fail("server did not drain and exit 0");
  return step;
}

// Every step runs on a fresh server. A run holds one light step (half
// the nominal rate), then rounds of a nominal step and a saturation step
// (an offered rate far above what the server sustains: its completion
// rate is the capacity). The step-by-step capacity (highest step meeting
// the p99 limit) flips between adjacent steps from seed to seed, so the
// saturation rate is what is reported.
struct Plan {
  StepPlan light, nominal, saturation;
};

Plan PlanSteps(const Options& options, const ServeConfig& config) {
  auto count = [&](double rate, double seconds) {
    return std::min<size_t>(
        config.stream, std::max<size_t>(1, static_cast<size_t>(rate * seconds)));
  };
  const double light = config.nominal_rps * 0.5;
  const double saturation = config.nominal_rps * 8.0;
  return {{StepKind::kLight, light, count(light, options.seconds * 0.1), false},
          {StepKind::kNominal, config.nominal_rps,
           count(config.nominal_rps, options.seconds * 0.2), false},
          {StepKind::kSaturation, saturation, config.stream, false}};
}

// The kRounds steps that ran with the least steal.
std::vector<const StepResult*> LeastStolen(
    const std::vector<StepResult>& steps) {
  std::vector<const StepResult*> out;
  for (const StepResult& s : steps) out.push_back(&s);
  std::stable_sort(out.begin(), out.end(),
                   [](const StepResult* a, const StepResult* b) {
                     return a->steal_share < b->steal_share;
                   });
  out.resize(std::min(out.size(), kRounds));
  return out;
}

// In-process replays of the nominal stream for the traced run: the core
// match (MatchScored, persisting) and the service batch path (LinkMany).
void ReplayInProcess(const ServeInputs& in, const std::string& model_path,
                     size_t count, Report* report) {
  auto boot = [&](double* seconds) {
    skyex::core::ModelIoError error;
    auto model = skyex::core::LoadModelFromFile(model_path, &error);
    std::string boot_error;
    const Stopwatch watch;
    auto service = model.has_value()
                       ? skyex::serve::BootstrapLinkService(
                             in.corpus, std::move(*model),
                             ServeLinkerOptions(), &boot_error)
                       : nullptr;
    *seconds = watch.Seconds();
    if (service == nullptr) report->Fail("in-process bootstrap failed");
    return service;
  };
  double bootstrap_s[2] = {0.0, 0.0};
  std::vector<double> match_us, link_many_us;
  if (auto service = boot(&bootstrap_s[0])) {
    for (size_t p = 0; p < count; ++p) {
      const auto& e = in.generated[in.stream_index[p]];
      const Stopwatch watch;
      service->MatchScored(e, /*persist=*/true);
      match_us.push_back(watch.Seconds() * 1e6);
    }
  }
  if (auto service = boot(&bootstrap_s[1])) {
    for (size_t p = 0; p < count; ++p) {
      const std::vector<skyex::data::SpatialEntity> one = {
          in.generated[in.stream_index[p]]};
      const Stopwatch watch;
      service->LinkMany(one);
      link_many_us.push_back(watch.Seconds() * 1e6);
    }
  }
  report->Metric("serve.bootstrap_s", Median({bootstrap_s[0], bootstrap_s[1]}),
                 "s");
  report->Metric("core.match_p50_us", Quantile(match_us, 0.5), "us");
  report->Metric("core.match_p99_us", Quantile(match_us, 0.99), "us");
  report->Metric("serve.link_many_us", Quantile(link_many_us, 0.5), "us");
}

void ReportServerLayers(const StepResult& step, Report* report) {
  if (!step.before.has_value() || !step.after.has_value()) {
    report->Fail("/metrics unavailable");
    return;
  }
  const MetricsSnapshot& b = *step.before;
  const MetricsSnapshot& a = *step.after;
  auto delta = [&](const char* name) { return a.Counter(name) - b.Counter(name); };
  const double requests = std::max(1.0, delta("serve/link_requests"));
  const double candidates = delta("core/incremental_candidates");
  const double dropped = delta("extract/prefilter_dropped");
  const double hits = delta("extract/lru_hits");
  const double misses = delta("extract/lru_misses");
  report->Metric("serve.server_p50_us",
                 DeltaQuantile(b, a, "serve/request_latency_us", 0.5), "us");
  report->Metric("serve.server_p99_us",
                 DeltaQuantile(b, a, "serve/request_latency_us", 0.99), "us");
  report->Metric("serve.queue_wait_p99_us",
                 DeltaQuantile(b, a, "serve/queue_wait_us", 0.99), "us");
  report->Metric("serve.batch_size_mean", DeltaMean(b, a, "serve/batch_size"),
                 "count");
  report->Metric("serve.rejected", delta("serve/rejected_429"), "count");
  report->Metric("serve.degraded", delta("serve/degraded_responses"), "count");
  report->Metric("serve.deadline_expired", delta("serve/deadline_expired"),
                 "count");
  report->Metric("core.candidates_per_req", candidates / requests, "count");
  report->Metric("features.prefilter_drop_share",
                 candidates > 0 ? dropped / candidates : 0.0, "share");
  report->Metric("features.text_cache_hit_share",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0, "share");
  report->Metric("features.pairs_scored_per_s",
                 (candidates - dropped) / step.duration_s, "1/s");
  report->Metric("shard.fanout", delta("shard/jobs_done") / requests, "count");
  report->Metric("shard.scatter_timeouts", delta("shard/scatter_timeouts"),
                 "count");
  report->Metric("shard.degraded_results", delta("shard/degraded_results"),
                 "count");
  const double threads = std::max(1.0, a.gauges.count("par/pool_threads")
                                           ? a.gauges.at("par/pool_threads")
                                           : 1.0);
  report->Metric("par.tasks", delta("par/tasks_executed"), "count");
  report->Metric("par.steals", delta("par/steals"), "count");
  const auto task_sum = [](const MetricsSnapshot& m) {
    const auto it = m.histogram_sums.find("par/task_latency_us");
    return it == m.histogram_sums.end() ? 0.0 : it->second;
  };
  report->Metric("par.busy_share",
                 (task_sum(a) - task_sum(b)) * 1e-6 /
                     (step.duration_s * threads),
                 "share");
  report->Metric("client.send_lag_p99_ms", step.lag_p99_ms, "ms");
}

}  // namespace

void RunServe(const Options& options, bool hotspot, Report* report) {
  const Stopwatch run_watch;
  const ServeConfig config = ConfigFor(hotspot, options.smoke);
  SpanRecorder spans(options.trace);
  report->Info("N", std::to_string(config.corpus));
  report->Info("M", std::to_string(config.stream));
  report->Info("shards", std::to_string(config.shards));
  report->Info("connections", std::to_string(ClientConnections()));

  const ServeInputs in = MakeInputs(config, options.seed, &spans);
  const std::string corpus_path = options.work_dir + "/corpus.csv";
  const std::string model_path = options.work_dir + "/model.txt";
  if (!skyex::data::WriteDatasetCsv(in.corpus, corpus_path)) {
    report->Fail("cannot write " + corpus_path);
    return;
  }
  std::vector<skyex::geo::CandidatePair> corpus_pairs;
  TrainTimer train =
      TrainModel(in, model_path, &spans, &corpus_pairs, report);
  if (!report->correct()) return;
  const Plan plan = PlanSteps(options, config);

  if (!options.trace) {
    std::vector<StepResult> steps, nominal, saturation;
    auto run = [&](const StepPlan& p) {
      train.TimeNext();
      StepResult step =
          RunStep(options, config, in, model_path, corpus_path, p, report);
      report->AddAttempts(step.attempted, step.failed);
      std::fprintf(stderr,
                   "perfbench: step %.0f req/s: n=%zu p50=%.2fms p95=%.2fms "
                   "p99=%.2fms achieved=%.1f/s failed=%zu backlog=%d "
                   "steal=%.4f %s\n",
                   p.rate, step.attempted, step.p50_ms, step.p95_ms,
                   step.p99_ms, step.achieved_rps, step.failed,
                   step.backlog_grows, step.steal_share,
                   step.passed ? "pass" : "FAIL");
      steps.push_back(step);
      if (p.kind == StepKind::kNominal) nominal.push_back(step);
      if (p.kind == StepKind::kSaturation) saturation.push_back(step);
    };
    auto clean = [](const std::vector<StepResult>& of_kind) {
      size_t n = 0;
      for (const StepResult& s : of_kind) n += s.steal_share < kCleanSteal;
      return n;
    };
    run(plan.light);
    double round_s = 0.0;
    for (size_t round = 0; round < kMaxRounds && report->correct(); ++round) {
      if (round >= kRounds &&
          ((clean(nominal) >= kRounds && clean(saturation) >= kRounds) ||
           run_watch.Seconds() + round_s > kBudgetSeconds * options.seconds)) {
        break;
      }
      const Stopwatch round_watch;
      run(plan.nominal);
      if (report->correct()) run(plan.saturation);
      round_s = round_watch.Seconds();
    }
    if (!report->correct()) return;

    std::vector<double> setups, rss, f1, p50s, p90s, rates;
    for (const StepResult* step : LeastStolen(nominal)) {
      rss.push_back(step->peak_rss_mb);
      p50s.insert(p50s.end(), step->window_p50_ms.begin(),
                  step->window_p50_ms.end());
      p90s.insert(p90s.end(), step->window_p90_ms.begin(),
                  step->window_p90_ms.end());
    }
    for (const StepResult* step : LeastStolen(saturation)) {
      // The saturation steps send the whole held-out stream.
      f1.push_back(step->f1);
      rates.insert(rates.end(), step->window_rps.begin(),
                   step->window_rps.end());
    }
    size_t attempted = 0, failed = 0;
    std::map<double, bool> rate_met;  // offered rate -> all its steps met
    std::string step_info;
    for (const StepResult& s : steps) {
      setups.push_back(s.setup_s);
      attempted += s.attempted;
      failed += s.failed;
      const auto it = rate_met.emplace(s.rate, true).first;
      it->second = it->second && s.passed;
      step_info += std::string(step_info.empty() ? "" : ",") +
                   "{\"offered\":" + JsonNumber(s.rate) +
                   ",\"achieved\":" + JsonNumber(s.achieved_rps) +
                   ",\"n\":" + std::to_string(s.attempted) +
                   ",\"p50_ms\":" + JsonNumber(s.p50_ms) +
                   ",\"p90_ms\":" + JsonNumber(s.p90_ms) +
                   ",\"p95_ms\":" + JsonNumber(s.p95_ms) +
                   ",\"p99_ms\":" + JsonNumber(s.p99_ms) +
                   ",\"steal_share\":" + JsonNumber(s.steal_share) +
                   ",\"meets_limit\":" + (s.passed ? "true" : "false") + "}";
    }
    double capacity_step = 0.0;
    for (const auto& [rate, met] : rate_met) {
      if (met) capacity_step = rate;
    }
    report->Info("steps", "[" + step_info + "]");
    report->Info("capacity_step_rps", JsonNumber(capacity_step));
    report->Metric("setup_s", Median(setups), "s");
    report->Metric("peak_rss_mb", Median(rss), "MB");
    report->Metric("ok_share",
                   1.0 - static_cast<double>(failed) /
                             static_cast<double>(std::max<size_t>(1, attempted)),
                   "share");
    report->Metric("link_f1", Median(f1), "F1");
    report->Metric("train_s", train.MedianSeconds(), "s");
    report->Metric("throughput_per_s", Median(rates), "1/s");
    report->Metric("p50_ms", Median(p50s), "ms");
    // p90, not p99: p99 has a dozen samples beyond it per nominal step
    // and moved by a third between runs of one seed; p95 by a sixth.
    report->Metric("tail_ms", Median(p90s), "ms");
    return;
  }

  // Traced run: one nominal step as long as the untraced run's nominal
  // steps together, untraced, then again with the server's trace collector
  // on; the second supplies the per-layer numbers.
  StepPlan nominal = plan.nominal;
  nominal.count = std::min(config.stream, nominal.count * kRounds);
  const StepResult plain =
      RunStep(options, config, in, model_path, corpus_path, nominal, report);
  StepPlan traced_plan = nominal;
  traced_plan.traced = true;
  const StepResult traced = RunStep(options, config, in, model_path,
                                    corpus_path, traced_plan, report);
  report->AddAttempts(plain.attempted + traced.attempted,
                      plain.failed + traced.failed);
  if (!report->correct()) return;
  ReportServerLayers(traced, report);
  ReplayInProcess(in, model_path, nominal.count, report);

  report->Metric("data.generate_s", Median(spans.Durations("data.generate")),
                 "s");
  report->Metric("geo.block_s", Median(spans.Durations("geo.block")), "s");
  report->Metric("geo.candidate_pairs",
                 static_cast<double>(corpus_pairs.size()), "count");
  report->Metric("lgm.corpus_s", Median(spans.Durations("lgm.corpus")), "s");
  // Extraction of the training pairs (the server's own bulk extraction is
  // inside serve.bootstrap_s).
  const double extract_s = Median(spans.Durations("features.extract"));
  report->Metric("features.extract_s", extract_s, "s");
  report->Metric("features.ns_per_row",
                 extract_s * 1e9 / static_cast<double>(corpus_pairs.size()),
                 "ns");
  report->Metric("text.kernels_ns_per_pair",
                 KernelNsPerPair(in.corpus, corpus_pairs), "ns");
  report->Metric("obs.trace_overhead_share",
                 traced.p50_ms / plain.p50_ms - 1.0, "share");
  spans.WriteChromeTrace(options.work_dir + "/spans.json");
}

}  // namespace perfbench
