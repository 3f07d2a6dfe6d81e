#ifndef SKYEX_SERVE_SHARD_API_H_
#define SKYEX_SERVE_SHARD_API_H_

// The narrow, message-shaped boundary between the HTTP server and its
// sharded linking backend: entities + a deadline go in, ranked
// LinkResults + a request outcome + per-request shard stats come out.
// The server knows nothing about shard count, placement, or transport;
// the concrete implementation (shard::Router, src/shard/) runs shards
// in-process today, and a multi-process deployment only needs another
// implementation of this interface — the contract already carries
// everything that must cross a process boundary (see docs/serving.md).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "data/spatial_entity.h"
#include "serve/service.h"

namespace skyex::serve {

/// Absolute steady-clock deadline of a link request.
using Deadline = std::chrono::steady_clock::time_point;
inline constexpr Deadline kNoDeadline = Deadline::max();

/// What happened to a request at its entities' target shards. The
/// server maps it to the HTTP answer (docs/robustness.md).
enum class LinkOutcome {
  kOk,           // every target answered
  kDegraded,     // a target was lost (deadline, wedge, error), or
                 // refused an entity after the first: partial links
  kQueueFull,    // the first entity's every target refused it, all
                 // with a full queue -> 429
  kBreakerOpen,  // the first entity's every target refused it,
                 // breakers open -> 503
};

/// Per-request scatter-gather timing and fan-out stats. Times sum over
/// the request's entities.
struct ShardPhases {
  double scatter_us = 0.0;     // routing + enqueueing onto shard queues
  double shard_link_us = 0.0;  // waiting for shard match results
  double gather_us = 0.0;      // merge + rank of the gathered links
  double queue_wait_us = 0.0;  // owner shard: enqueue -> batch popped
  double batch_wait_us = 0.0;  // owner shard: batch popped -> job starts
  core::AddRecordStats match;  // summed over the answering shards
  uint32_t shards_touched = 0;  // scatter targets across the request
  uint32_t shards_failed = 0;   // targets lost or refused
  uint32_t deadline_expired = 0;  // entities that lost a target to the
                                  // deadline
  size_t shed_shard = 0;  // whose breaker times a shed 503's Retry-After
};

/// A linking backend behind the scatter-gather seam.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Links each entity in order (an entity is matchable by the ones
  /// after it). `results` receives one result per entity; a result
  /// whose scatter lost a target carries degraded = true (partial
  /// links, merged = entity when no target answered). kQueueFull and
  /// kBreakerOpen mean the first entity was refused and nothing was
  /// linked or persisted, so a shed request is safe to retry; a later
  /// refused entity is a degraded result instead. A `deadline` already
  /// in the past loses every target to it. `phases` (required)
  /// accumulates the request's timings and stats.
  virtual LinkOutcome Link(const std::vector<data::SpatialEntity>& entities,
                           Deadline deadline,
                           std::vector<LinkResult>* results,
                           ShardPhases* phases) = 0;

  /// Total records across all shards (for /healthz).
  virtual size_t record_count() const = 0;

  /// Jobs waiting in the shard queues (for /healthz).
  virtual size_t queue_depth() const = 0;

  virtual size_t num_shards() const = 0;

  /// SaveModel text of the served model (all shards serve one model).
  virtual const std::string& model_text() const = 0;

  /// True when EVERY shard is wedged — with any shard healthy the
  /// router still answers (degraded where coverage is lost).
  virtual bool wedged() const = 0;

  /// Refreshes the per-shard gauges (shard/<id>/...) before a /metrics
  /// scrape.
  virtual void PublishGauges() const = 0;

  /// Cumulative breaker opens across all shards.
  virtual uint64_t breaker_opens() const = 0;

  /// Cumulative watchdog trips across all shards.
  virtual uint64_t watchdog_trips() const = 0;

  /// Jittered Retry-After for a 503 shed because of `shard`
  /// (ShardPhases::shed_shard).
  virtual int RetryAfterSeconds(size_t shard) = 0;
};

}  // namespace skyex::serve

#endif  // SKYEX_SERVE_SHARD_API_H_
