#ifndef SKYEX_SHARD_NODE_H_
#define SKYEX_SHARD_NODE_H_

// One shard of the serving deployment: a LinkService over its partition
// of the dataset, fronted by its own bounded admission queue, circuit
// breaker and dedicated micro-batching worker thread — the node thread
// is the service's only caller, satisfying the write contract of
// core/incremental.h. The router talks to a node only through
// TryEnqueue and the job's promise — a message-shaped seam, so moving
// a node out of process is a transport change, not an architecture
// change.
//
// Jobs carry LOCAL match work but reply in GLOBAL record indices: the
// node owns the local->global translation table (original dataset
// positions for bootstrapped records, appends numbered at persist time
// from a counter all nodes share), touched only by the node thread.

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "data/spatial_entity.h"
#include "obs/context.h"
#include "serve/breaker.h"
#include "serve/queue.h"
#include "serve/service.h"

namespace skyex::shard {

/// One entity's match on a shard. `links` carry global record indices
/// and entity snapshots; `record_index` is the entity's own global
/// index when the job persisted it.
struct ShardMatch {
  std::vector<serve::ScoredLink> links;
  size_t record_index = 0;
};

/// A shard's answer to one job. `ok` is false when the job was skipped
/// (cancelled by the deadline before the node finished it) or failed by
/// fault injection; `matches` then holds only the entities persisted
/// before the node stopped.
struct ShardReply {
  bool ok = false;
  std::vector<ShardMatch> matches;  // one per job entity when ok
  core::AddRecordStats stats;  // the matches' phase timings and counts
  double queue_wait_us = 0.0;  // enqueue -> batch popped
  double batch_wait_us = 0.0;  // batch popped -> this job starts
};

/// Consecutive entities of one request scattered to the same shard,
/// linked in order in one pass.
struct ShardJob {
  std::vector<data::SpatialEntity> entities;
  bool persist = false;     // true on the owner shard only
  double enqueue_us = 0.0;  // obs::TraceNowUs() at scatter
  obs::TraceContext context;  // the request's, installed while linking
  std::shared_ptr<std::atomic<bool>> cancelled;  // deadline expiry flag
  std::promise<ShardReply> reply;
};

struct ShardNodeOptions {
  size_t queue_capacity = 128;  // admission queue; full answers 429
  int batch_window_us = 1000;   // micro-batching linger
  size_t max_batch = 64;        // jobs drained per wakeup
  serve::CircuitBreakerOptions breaker;
};

class ShardNode {
 public:
  /// `global_of_local[i]` is the global index of the service's local
  /// record i (the bootstrap partition, original dataset positions).
  /// `next_index` is the deployment-wide counter a persist takes its
  /// global index from, shared by every node of the router.
  ShardNode(size_t id, std::unique_ptr<serve::LinkService> service,
            std::vector<size_t> global_of_local,
            std::shared_ptr<std::atomic<size_t>> next_index,
            ShardNodeOptions options);
  ~ShardNode();

  ShardNode(const ShardNode&) = delete;
  ShardNode& operator=(const ShardNode&) = delete;

  void Start();
  /// Closes the queue, drains queued jobs, joins the worker.
  void Stop();

  /// Non-blocking admission onto the shard queue.
  serve::PushResult TryEnqueue(ShardJob job);

  size_t id() const { return id_; }
  serve::CircuitBreaker& breaker() { return breaker_; }
  size_t queue_depth() const { return queue_.size(); }
  size_t record_count() const {
    return record_count_.load(std::memory_order_relaxed);
  }
  int64_t heartbeat_ms() const {
    return heartbeat_ms_.load(std::memory_order_relaxed);
  }
  bool busy() const { return busy_.load(std::memory_order_relaxed); }
  bool wedged() const { return wedged_.load(std::memory_order_relaxed); }
  void set_wedged(bool wedged) {
    wedged_.store(wedged, std::memory_order_relaxed);
  }

 private:
  void Loop();
  void Process(ShardJob& job, double pop_us);

  const size_t id_;
  std::unique_ptr<serve::LinkService> service_;
  std::vector<size_t> global_of_local_;  // node thread only
  const std::shared_ptr<std::atomic<size_t>> next_index_;
  const ShardNodeOptions options_;
  serve::BatchQueue<ShardJob> queue_;
  serve::CircuitBreaker breaker_;
  std::atomic<size_t> record_count_;
  std::atomic<int64_t> heartbeat_ms_;
  std::atomic<bool> busy_{false};
  std::atomic<bool> wedged_{false};
  // Per-shard fault point names ("shard.<id>.stall" / ".error"); the
  // generic "shard.stall" / "shard.error" points hit every shard.
  const std::string stall_point_;
  const std::string error_point_;
  std::thread thread_;
  bool started_ = false;
};

}  // namespace skyex::shard

#endif  // SKYEX_SHARD_NODE_H_
