#include "shard/node.h"

#include <chrono>
#include <utility>

#include "fault/fault.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prof/prof.h"

namespace skyex::shard {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<double>& BatchSizeBuckets() {
  static const std::vector<double>* buckets = new std::vector<double>{
      1, 2, 4, 8, 16, 32, 64, 128, 256};
  return *buckets;
}

}  // namespace

ShardNode::ShardNode(size_t id, std::unique_ptr<serve::LinkService> service,
                     std::vector<size_t> global_of_local,
                     std::shared_ptr<std::atomic<size_t>> next_index,
                     ShardNodeOptions options)
    : id_(id),
      service_(std::move(service)),
      global_of_local_(std::move(global_of_local)),
      next_index_(std::move(next_index)),
      options_(options),
      queue_(options.queue_capacity),
      breaker_(options.breaker),
      record_count_(global_of_local_.size()),
      heartbeat_ms_(NowMs()),
      stall_point_("shard." + std::to_string(id) + ".stall"),
      error_point_("shard." + std::to_string(id) + ".error") {}

ShardNode::~ShardNode() { Stop(); }

void ShardNode::Start() {
  if (started_) return;
  started_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void ShardNode::Stop() {
  if (!started_) return;
  queue_.Close();
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

serve::PushResult ShardNode::TryEnqueue(ShardJob job) {
  return queue_.TryPush(std::move(job));
}

void ShardNode::Loop() {
  std::vector<ShardJob> batch;
  while (queue_.PopBatch(
      &batch, std::chrono::microseconds(options_.batch_window_us),
      options_.max_batch)) {
    const double pop_us = obs::TraceNowUs();
    SKYEX_PROF_PHASE(::skyex::prof::Phase::kShard);
    busy_.store(true, std::memory_order_relaxed);
    heartbeat_ms_.store(NowMs(), std::memory_order_relaxed);
    size_t entities = 0;
    for (const ShardJob& job : batch) entities += job.entities.size();
    SKYEX_HISTOGRAM_OBSERVE("serve/batch_size",
                            static_cast<double>(entities),
                            BatchSizeBuckets());
    // Injected wedge: the stall happens while busy with the heartbeat
    // frozen, exactly what a deadlocked linker looks like to the
    // router's watchdog.
    fault::FaultAction stall;
    if (SKYEX_FAULT_FIRE("linker.stall", &stall)) {
      SKYEX_LOG_WARN("shard/node", "injected stall", {"shard", id_},
                     {"ms", stall.ms});
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(stall.ms));
    }
    for (ShardJob& job : batch) Process(job, pop_us);
    heartbeat_ms_.store(NowMs(), std::memory_order_relaxed);
    busy_.store(false, std::memory_order_relaxed);
  }
}

void ShardNode::Process(ShardJob& job, double pop_us) {
  ShardReply reply;
  fault::FaultAction action;
  // Chaos hooks: a stall holds this shard's worker (the router's
  // deadline and breaker must cope), an error fails the job outright.
  if (SKYEX_FAULT_FIRE("shard.stall", &action) ||
      SKYEX_FAULT_FIRE(stall_point_.c_str(), &action)) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(action.ms * 1000.0)));
  }
  if (SKYEX_FAULT_FIRE("shard.error", nullptr) ||
      SKYEX_FAULT_FIRE(error_point_.c_str(), nullptr)) {
    SKYEX_COUNTER_INC("shard/job_errors");
    job.reply.set_value(std::move(reply));  // ok = false
    return;
  }
  // The router gave up on the job at its deadline: skip the rest of the
  // work AND the persists, so the abandoned entities take no index.
  const auto cancelled = [&job] {
    return job.cancelled != nullptr &&
           job.cancelled->load(std::memory_order_relaxed);
  };
  if (!cancelled()) {
    obs::ScopedTraceContext context_scope(job.context);
    reply.queue_wait_us = pop_us - job.enqueue_us;
    reply.batch_wait_us = obs::TraceNowUs() - pop_us;
    SKYEX_HISTOGRAM_OBSERVE_US("serve/queue_wait_us", reply.queue_wait_us);
    reply.matches.reserve(job.entities.size());
    for (const data::SpatialEntity& entity : job.entities) {
      if (cancelled()) break;
      heartbeat_ms_.store(NowMs(), std::memory_order_relaxed);
      core::AddRecordStats stats;
      ShardMatch match;
      match.links = service_->MatchScored(entity, job.persist, &stats);
      reply.stats += stats;
      if (job.persist) {
        match.record_index =
            next_index_->fetch_add(1, std::memory_order_relaxed);
        global_of_local_.push_back(match.record_index);
        record_count_.fetch_add(1, std::memory_order_relaxed);
      }
      // Report in global indices: the router and clients never see
      // local shard positions.
      for (serve::ScoredLink& link : match.links) {
        link.record = global_of_local_[link.record];
      }
      reply.matches.push_back(std::move(match));
    }
  }
  reply.ok = reply.matches.size() == job.entities.size();
  if (reply.ok) {
    SKYEX_COUNTER_INC("shard/jobs_done");
  } else {
    SKYEX_COUNTER_INC("shard/jobs_cancelled");
  }
  job.reply.set_value(std::move(reply));
}

}  // namespace skyex::shard
