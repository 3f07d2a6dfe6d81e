#include "shard/router.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "obs/flight.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quality/quality.h"

namespace skyex::shard {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Router::Router(std::unique_ptr<ShardMap> map,
               std::vector<std::unique_ptr<ShardNode>> nodes,
               std::string model_text, double radius_m,
               std::shared_ptr<std::atomic<size_t>> next_index,
               RouterOptions options)
    : map_(std::move(map)),
      nodes_(std::move(nodes)),
      model_text_(std::move(model_text)),
      radius_m_(radius_m),
      options_(options),
      next_index_(std::move(next_index)),
      seen_opens_(nodes_.size(), 0) {}

Router::~Router() { Stop(); }

void Router::Start() {
  if (started_) return;
  started_ = true;
  for (auto& node : nodes_) node->Start();
  if (options_.watchdog_ms > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

void Router::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_relaxed);
  if (watchdog_.joinable()) watchdog_.join();
  for (auto& node : nodes_) node->Stop();
  started_ = false;
}

serve::LinkOutcome Router::Link(
    const std::vector<data::SpatialEntity>& entities,
    serve::Deadline deadline, std::vector<serve::LinkResult>* results,
    serve::ShardPhases* phases) {
  results->clear();
  results->reserve(entities.size());
  const obs::TraceContext context = obs::CurrentContext();
  serve::LinkOutcome outcome = serve::LinkOutcome::kOk;
  const double route_start = obs::TraceNowUs();
  std::vector<std::vector<size_t>> targets_of(entities.size());
  for (size_t i = 0; i < entities.size(); ++i) {
    targets_of[i] =
        map_->ShardsIntersecting(entities[i].location, radius_m_);
  }
  phases->scatter_us += obs::TraceNowUs() - route_start;
  // Runs are sequential: run r is fully gathered (and persisted on its
  // owner) before run r+1 scatters. A run is one entity, or consecutive
  // entities whose only target is the same owner (every entity at one
  // shard) — one job each, linked in one pass after one batch window.
  for (size_t begin = 0; begin < entities.size();) {
    const std::vector<size_t>& targets = targets_of[begin];
    const size_t owner = map_->OwnerOf(entities[begin].location);
    size_t end = begin + 1;
    if (targets.size() == 1) {
      while (end < entities.size() && targets_of[end] == targets) ++end;
    }
    const size_t run = end - begin;

    // --- scatter ---
    const double scatter_start = obs::TraceNowUs();
    const bool expired = std::chrono::steady_clock::now() >= deadline;
    auto cancelled = std::make_shared<std::atomic<bool>>(false);
    std::vector<std::pair<size_t, std::future<ShardReply>>> pending;
    pending.reserve(targets.size());
    size_t refused_full = 0;
    size_t refused_open = 0;
    size_t lost = 0;
    for (size_t s : targets) {
      ShardNode& node = *nodes_[s];
      if (expired || node.wedged()) {
        ++lost;
        continue;
      }
      if (!node.breaker().Admit(NowMs())) {
        ++refused_open;
        phases->shed_shard = s;
        continue;
      }
      ShardJob job;
      job.entities.assign(entities.begin() + begin, entities.begin() + end);
      job.persist = s == owner;
      job.enqueue_us = obs::TraceNowUs();
      job.context = context;
      job.cancelled = cancelled;
      std::future<ShardReply> reply = job.reply.get_future();
      const serve::PushResult pushed = node.TryEnqueue(std::move(job));
      if (pushed != serve::PushResult::kOk) {
        // Backpressure says nothing about shard health.
        node.breaker().RecordNeutral(NowMs());
        ++(pushed == serve::PushResult::kFull ? refused_full : lost);
        continue;
      }
      pending.emplace_back(s, std::move(reply));
    }
    phases->scatter_us += obs::TraceNowUs() - scatter_start;
    phases->shards_touched += static_cast<uint32_t>(targets.size());
    if (pending.empty() && lost == 0 && results->empty()) {
      // Every target refused the first entity: shed the request, which
      // has linked nothing yet (a later refusal degrades instead, as
      // earlier entities are already persisted).
      phases->shards_failed += static_cast<uint32_t>(targets.size());
      return refused_open == 0 ? serve::LinkOutcome::kQueueFull
                               : serve::LinkOutcome::kBreakerOpen;
    }

    // --- shard_link ---
    const double link_start = obs::TraceNowUs();
    std::vector<std::vector<serve::ScoredLink>> gathered(run);
    std::vector<size_t> record_index(run, 0);
    bool owner_answered = false;
    bool timed_out_any = expired;
    for (auto& [s, reply_future] : pending) {
      ShardNode& node = *nodes_[s];
      if (deadline != serve::kNoDeadline &&
          reply_future.wait_until(deadline) != std::future_status::ready) {
        cancelled->store(true, std::memory_order_relaxed);
        node.breaker().RecordFailure(NowMs());
        SKYEX_COUNTER_INC("shard/scatter_timeouts");
        timed_out_any = true;
        ++lost;
        continue;
      }
      ShardReply reply = reply_future.get();
      if (!reply.ok) {
        node.breaker().RecordFailure(NowMs());
        ++lost;
        continue;
      }
      node.breaker().RecordSuccess(NowMs());
      phases->match += reply.stats;
      if (s == owner) {
        owner_answered = true;
        phases->queue_wait_us += reply.queue_wait_us;
        phases->batch_wait_us += reply.batch_wait_us;
      }
      for (size_t k = 0; k < run; ++k) {
        ShardMatch& match = reply.matches[k];
        if (s == owner) record_index[k] = match.record_index;
        std::move(match.links.begin(), match.links.end(),
                  std::back_inserter(gathered[k]));
      }
    }
    phases->shard_link_us += obs::TraceNowUs() - link_start;
    const size_t failed = lost + refused_full + refused_open;
    phases->shards_failed += static_cast<uint32_t>(failed);
    if (timed_out_any) phases->deadline_expired += static_cast<uint32_t>(run);

    // --- gather ---
    const double gather_start = obs::TraceNowUs();
    if (!owner_answered) {
      // Never persisted: report the index the next persist will take,
      // as no record holds it yet.
      std::fill(record_index.begin(), record_index.end(),
                next_index_->load(std::memory_order_relaxed));
    }
    for (size_t k = 0; k < run; ++k) {
      const data::SpatialEntity& entity = entities[begin + k];
      serve::LinkResult result;
      if (failed < targets.size()) {
        result = serve::RankAndMerge(std::move(gathered[k]), entity,
                                     record_index[k]);
      } else {
        // No target answered: nothing to merge beyond the entity itself.
        result.record_index = record_index[k];
        result.merged = entity;
      }
      result.degraded = failed > 0;
      if (result.degraded) {
        outcome = serve::LinkOutcome::kDegraded;
        if (refused_open == 0) phases->shed_shard = owner;
        SKYEX_COUNTER_INC("shard/degraded_results");
#if !defined(SKYEX_OBS_DISABLED)
        if (!owner_answered) {
          // The owner never scored (nor persisted) the entity: audit it
          // as a decision-less record.
          quality::Runtime& quality_runtime = quality::Runtime::Global();
          quality_runtime.ObserveEntity(entity);
          if (quality_runtime.ShouldCapture()) {
            quality_runtime.RecordDegraded(entity,
                                           static_cast<uint32_t>(owner));
          }
        }
#endif
      }
      SKYEX_COUNTER_INC("serve/link_requests");
      SKYEX_COUNTER_ADD("serve/linked_records", result.links.size());
      results->push_back(std::move(result));
    }
    phases->gather_us += obs::TraceNowUs() - gather_start;
    begin = end;
  }
  return outcome;
}

size_t Router::record_count() const {
  size_t total = 0;
  for (const auto& node : nodes_) total += node->record_count();
  return total;
}

size_t Router::queue_depth() const {
  size_t total = 0;
  for (const auto& node : nodes_) total += node->queue_depth();
  return total;
}

bool Router::wedged() const {
  for (const auto& node : nodes_) {
    if (!node->wedged()) return false;
  }
  return true;
}

uint64_t Router::breaker_opens() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) total += node->breaker().opens();
  return total;
}

void Router::PublishGauges() const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (const auto& node : nodes_) {
    const std::string prefix = "shard/" + std::to_string(node->id());
    registry.GetGauge(prefix + "/queue_depth")
        .Set(static_cast<double>(node->queue_depth()));
    registry.GetGauge(prefix + "/records")
        .Set(static_cast<double>(node->record_count()));
    registry.GetGauge(prefix + "/breaker_state")
        .Set(static_cast<double>(node->breaker().state(NowMs())));
    registry.GetGauge(prefix + "/wedged").Set(node->wedged() ? 1.0 : 0.0);
  }
}

void Router::WatchdogLoop() {
  const int64_t interval = std::max<int64_t>(10, options_.watchdog_ms / 4);
  while (!stopping_.load(std::memory_order_relaxed)) {
    for (int64_t slept = 0;
         slept < interval && !stopping_.load(std::memory_order_relaxed);
         slept += 10) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const int64_t now = NowMs();
    for (size_t s = 0; s < nodes_.size(); ++s) {
      ShardNode& node = *nodes_[s];
      const bool active = node.busy() || node.queue_depth() > 0;
      const int64_t age = now - node.heartbeat_ms();
      if (active && age > options_.watchdog_ms) {
        if (!node.wedged()) {
          node.set_wedged(true);
          watchdog_trips_.fetch_add(1, std::memory_order_relaxed);
          SKYEX_COUNTER_INC("shard/watchdog_trips");
          SKYEX_LOG_WARN("shard/watchdog", "shard wedged", {"shard", s},
                         {"heartbeat_age_ms", age},
                         {"queue_depth", node.queue_depth()});
          node.breaker().ForceOpen(now);
          const std::string detail = "shard=" + std::to_string(s) +
                                     " heartbeat_age_ms=" +
                                     std::to_string(age);
          obs::FlightRecorder::Global().RecordEvent("watchdog_trip", detail);
          obs::FlightRecorder::Global().RecordEvent("shard_wedged", detail);
          obs::FlightRecorder::Global().DumpToStderr("watchdog_trip");
        }
      } else if (node.wedged()) {
        node.set_wedged(false);
        SKYEX_LOG_INFO("shard/watchdog", "shard recovered", {"shard", s},
                       {"heartbeat_age_ms", age});
        obs::FlightRecorder::Global().RecordEvent(
            "shard_recovered", "shard=" + std::to_string(s));
      }
      // Surface per-shard breaker opens as flight events (no stderr
      // dump — a shard storm would flood it).
      const uint64_t opens = node.breaker().opens();
      if (opens > seen_opens_[s]) {
        seen_opens_[s] = opens;
        obs::FlightRecorder::Global().RecordEvent(
            "shard_breaker_open",
            "shard=" + std::to_string(s) + " opens=" + std::to_string(opens));
      }
    }
  }
}

std::unique_ptr<Router> BootstrapRouter(
    data::Dataset dataset, core::SkyExTModel model,
    const core::IncrementalLinkerOptions& linker_options, size_t num_shards,
    const RouterOptions& options, std::string* error) {
  const size_t initial_records = dataset.size();
  auto map = std::make_unique<ShardMap>(dataset.Points(), num_shards,
                                        options.map);
  const std::vector<std::vector<size_t>> partitions = map->Partitions();
  std::string model_text;
  std::vector<std::unique_ptr<serve::LinkService>> services =
      serve::BootstrapShardedLinkServices(std::move(dataset),
                                          std::move(model), linker_options,
                                          partitions, &model_text, error);
  if (services.empty()) return nullptr;
  auto next_index = std::make_shared<std::atomic<size_t>>(initial_records);
  std::vector<std::unique_ptr<ShardNode>> nodes;
  nodes.reserve(services.size());
  for (size_t s = 0; s < services.size(); ++s) {
    nodes.push_back(std::make_unique<ShardNode>(
        s, std::move(services[s]), partitions[s], next_index, options.node));
  }
  SKYEX_LOG_INFO("shard/bootstrap", "sharded backend ready",
                 {"shards", nodes.size()},
                 {"leaves", map->num_leaves()},
                 {"records", initial_records});
  return std::make_unique<Router>(std::move(map), std::move(nodes),
                                  std::move(model_text),
                                  linker_options.radius_m,
                                  std::move(next_index), options);
}

}  // namespace skyex::shard
