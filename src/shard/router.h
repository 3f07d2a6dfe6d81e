#ifndef SKYEX_SHARD_ROUTER_H_
#define SKYEX_SHARD_ROUTER_H_

// Scatter-gather router over geo-partitioned shard nodes — the
// serve::ShardBackend behind every `skyex_serve` (`--shards=N`, N >= 1;
// one shard covers the whole corpus).
//
// Per entity: scatter to every shard whose cells intersect the
// candidate radius (owner always included; coordinate-less entities
// fan out everywhere), wait for the shard replies under the request
// deadline, then gather — concatenate the global-indexed links, rank
// and merge them with serve::RankAndMerge. Each target either answers,
// refuses (its queue is full or its breaker is open), or is lost (the
// deadline passed, it is wedged, or it failed). A first entity every
// target refused ends the request before anything is persisted: 429
// when every refusal was a full queue, 503 otherwise. Any other loss
// or refusal degrades the result ("degraded":true, partial links; the
// bare entity when no target answered). Entities of one request are
// processed sequentially, so a batch's earlier entities are matchable
// by its later ones; consecutive entities whose only target is the
// same shard travel as one job (a whole batch, at one shard).
//
// The router runs the watchdog: a shard whose worker stops
// heartbeating while work is pending is marked wedged, its breaker is
// forced open (scatter stops paying the deadline for it), and
// `watchdog_trip` + `shard_wedged` flight-recorder events are logged.
// Recovery clears the mark.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "core/skyex_t.h"
#include "data/spatial_entity.h"
#include "serve/shard_api.h"
#include "shard/node.h"
#include "shard/shard_map.h"

namespace skyex::shard {

struct RouterOptions {
  ShardNodeOptions node;  // per-shard queue/batching/breaker knobs
  ShardMapOptions map;
  /// A shard busy (or with queued work) whose heartbeat is older than
  /// this is wedged; 0 disables the watchdog.
  int watchdog_ms = 0;
};

class Router : public serve::ShardBackend {
 public:
  /// `radius_m` must equal the shards' linker candidate radius — it
  /// bounds the scatter target set. `next_index` is the global index
  /// counter the nodes persist from (it starts at the bootstrap
  /// dataset's size).
  Router(std::unique_ptr<ShardMap> map,
         std::vector<std::unique_ptr<ShardNode>> nodes,
         std::string model_text, double radius_m,
         std::shared_ptr<std::atomic<size_t>> next_index,
         RouterOptions options);
  ~Router() override;

  void Start();
  void Stop();

  // serve::ShardBackend:
  serve::LinkOutcome Link(const std::vector<data::SpatialEntity>& entities,
                          serve::Deadline deadline,
                          std::vector<serve::LinkResult>* results,
                          serve::ShardPhases* phases) override;
  size_t record_count() const override;
  size_t queue_depth() const override;
  size_t num_shards() const override { return nodes_.size(); }
  const std::string& model_text() const override { return model_text_; }
  bool wedged() const override;
  void PublishGauges() const override;
  uint64_t breaker_opens() const override;
  uint64_t watchdog_trips() const override {
    return watchdog_trips_.load(std::memory_order_relaxed);
  }
  int RetryAfterSeconds(size_t shard) override {
    return nodes_[shard]->breaker().RetryAfterSeconds();
  }

  ShardNode& node(size_t s) { return *nodes_[s]; }
  const ShardMap& map() const { return *map_; }

 private:
  void WatchdogLoop();

  std::unique_ptr<ShardMap> map_;
  std::vector<std::unique_ptr<ShardNode>> nodes_;
  const std::string model_text_;
  const double radius_m_;
  const RouterOptions options_;
  const std::shared_ptr<std::atomic<size_t>> next_index_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> watchdog_trips_{0};
  std::vector<uint64_t> seen_opens_;  // watchdog thread only
  std::thread watchdog_;
  bool started_ = false;
};

/// Builds the full sharded backend: shard map over the dataset's
/// points, global calibration (serve::BootstrapShardedLinkServices),
/// one node per partition. The router is NOT started. nullptr +
/// `error` on failure.
std::unique_ptr<Router> BootstrapRouter(
    data::Dataset dataset, core::SkyExTModel model,
    const core::IncrementalLinkerOptions& linker_options, size_t num_shards,
    const RouterOptions& options, std::string* error);

}  // namespace skyex::shard

#endif  // SKYEX_SHARD_ROUTER_H_
