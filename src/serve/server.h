#ifndef SKYEX_SERVE_SERVER_H_
#define SKYEX_SERVE_SERVER_H_

// Embedded HTTP/1.1 linkage server. Architecture:
//
//   listener ──> conn queue ──> I/O workers ──> router ──> per-shard queue
//    thread      (bounded)      (pool of N)     (scatter/   (bounded, 429)
//                                                gather)    ──> linker thread
//
// I/O workers parse requests and answer the cheap endpoints inline;
// /v1/link and /v1/link_batch go through the ShardBackend (shard::Router,
// src/shard/): each entity is scattered onto the admission queues of
// the shards it can match on, whose linker threads micro-batch and are
// the only writers of their IncrementalLinker, satisfying the
// serialization contract of core/incremental.h. One shard covers the
// whole corpus.
//
// Resilience (docs/robustness.md has the full semantics): the request
// deadline (`deadline_ms`) bounds the router's wait for shard replies;
// per-shard circuit breakers and the router's watchdog live behind the
// backend. The server maps the request's LinkOutcome to the answer:
//   - every target of an entity refused it with a full queue -> 429 +
//     Retry-After;
//   - every target refused it with its breaker open -> 503 + jittered
//     Retry-After;
//   - a target lost to the deadline, a wedge or an error -> 200 with
//     "degraded":true and the links of the shards that answered, or
//     503 + jittered Retry-After when `degraded_fallback` is off.

// Endpoints:
//   POST /v1/link        {"entity": {...}}    -> links + golden record
//   POST /v1/link_batch  {"entities": [...]}  -> {"results": [...]}
//   GET  /healthz                             -> liveness + record count
//   GET  /metrics                             -> obs metrics registry JSON
//        /metrics?format=prometheus           -> Prometheus text format
//                                               with request-id exemplars
//   GET  /model                               -> model_io text (text/plain)
//   GET  /debug/flight                        -> flight-recorder dump JSON
//   GET  /debug/trace?seconds=N               -> enables the trace
//        collector for N seconds (cap 10) and streams the window as
//        Chrome trace JSON; the linkers keep running throughout
//   GET  /debug/pprof/profile?seconds=N       -> collects CPU samples
//        for N seconds (cap 30) and returns them collapsed-stack
//        (flamegraph.pl format; &format=json for the JSON profile).
//        Requires a running profiler (`profile_hz` > 0, the skyex_serve
//        default) — 503 otherwise. Serving continues throughout. The
//        window sleeps on the connection's I/O worker: when closed-loop
//        clients hold every worker, the scrape connection is not picked
//        up until one frees, so leave a worker unoccupied while scraping
//        (e.g. drive N-1 load connections against N workers).
//   GET  /debug/pprof/heap                    -> per-zone heap
//        attribution JSON (prof/heap.h); "active":false when the
//        allocation hooks are compiled out
//   GET  /buildz                              -> build identification
//        JSON (git sha, build type, compiled-in options, SIMD level)
//   GET  /debug/quality                       -> linkage-quality state
//        JSON (audit-log counters, drift statistics); "compiled":false
//        under SKYEX_OBS=OFF
//
// Request-scoped tracing: every request gets a 64-bit request id —
// adopted from an incoming X-Request-Id header (hex ids parse exactly,
// anything else is hashed) or freshly generated — installed as the
// thread's obs::TraceContext for the request's lifetime, carried
// through the shard queues and linker threads (and into pool tasks via
// TaskGroup's context capture), echoed back as an X-Request-Id
// response header and a "request_id" member of link response bodies,
// and recorded as the request's flight-recorder timeline key and
// latency-histogram exemplar.
//
// Stop() drains gracefully: stop accepting, serve requests already in
// flight (idle keep-alive connections are closed), then join all
// threads. The backend keeps running until its owner stops it.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "serve/http.h"
#include "serve/net.h"
#include "serve/queue.h"
#include "serve/shard_api.h"

namespace skyex::serve {

/// HTTP-side knobs. Admission queues, micro-batching, breakers and the
/// watchdog are per shard: shard::RouterOptions.
struct ServerOptions {
  uint16_t port = 8080;         // 0 = pick an ephemeral port
  size_t workers = 8;           // I/O worker threads
  size_t conn_backlog = 256;    // accepted-connection queue capacity
  size_t max_batch_entities = 256;  // entities per /v1/link_batch request
  size_t max_body_bytes = 1 << 20;
  int read_timeout_ms = 5000;
  int write_timeout_ms = 5000;
  int retry_after_s = 1;        // Retry-After on 429
  int listen_backlog = 128;
  int deadline_ms = 0;          // per-request link deadline (0 = none)
  bool degraded_fallback = true;  // degrade instead of 503 when possible
  // Sampling-profiler rate for this server's process (Hz). 0 leaves the
  // profiler alone (unit-test / sanitizer default); the skyex_serve
  // binary defaults it to prof::CpuProfiler::kDefaultHz so profiles are
  // always collectable in production.
  int profile_hz = 0;
};

class Server {
 public:
  /// `backend` must outlive the server and be started by the caller.
  Server(ShardBackend* backend, ServerOptions options);

  ~Server();

  /// Binds and spawns the listener and worker threads. False + `error`
  /// when the port cannot be bound.
  bool Start(std::string* error);

  /// The bound port (after Start; useful with options.port = 0).
  uint16_t port() const { return port_; }

  /// Graceful drain; blocks until every thread is joined. Idempotent.
  void Stop();

  struct Stats {
    uint64_t connections = 0;
    uint64_t requests = 0;
    uint64_t responses_ok = 0;
    uint64_t responses_client_error = 0;  // 4xx except 429
    uint64_t rejected = 0;                // 429
    uint64_t shed = 0;                    // 503 (deliberate backpressure)
    uint64_t responses_server_error = 0;  // 5xx except 503
    uint64_t deadline_expired = 0;        // link requests past deadline
    uint64_t degraded = 0;                // degraded answers
    uint64_t breaker_rejected = 0;        // shed by open breakers
    uint64_t breaker_opens = 0;
    uint64_t watchdog_trips = 0;
  };
  Stats stats() const;

  /// True while the watchdog considers EVERY shard wedged.
  bool wedged() const { return backend_->wedged(); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

 private:
  void ListenerLoop();
  void WorkerLoop();
  void ServeConnection(UniqueFd fd);
  HttpResponse Dispatch(const HttpRequest& request,
                        obs::RequestTimeline* timeline);
  // Parses the entities, scatter-gathers them through the backend on
  // this I/O worker (the shard queues do the micro-batching), fills the
  // timeline, and maps the outcome to the answer.
  HttpResponse HandleLink(const HttpRequest& request, bool batch,
                          obs::RequestTimeline* timeline);
  HttpResponse HandleDebugTrace(const HttpRequest& request);
  HttpResponse HandleProfile(const HttpRequest& request);
  HttpResponse ShedResponse(const std::string& message, int retry_after_s);
  HttpResponse ErrorResponse(int status, const std::string& message) const;
  // Builds the link response body, timing serialization into the
  // request's timeline and echoing its id in the body.
  static HttpResponse LinkResponse(const std::vector<LinkResult>& results,
                                   bool batch,
                                   obs::RequestTimeline* timeline);

  ShardBackend* backend_;
  ServerOptions options_;
  UniqueFd listen_fd_;
  uint16_t port_ = 0;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};   // listener exits
  std::atomic<bool> draining_{false};   // workers abort idle reads
  std::atomic<bool> stopped_{false};

  BatchQueue<UniqueFd> conn_queue_;

  std::thread listener_;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> responses_ok_{0};
  std::atomic<uint64_t> responses_client_error_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> responses_server_error_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> breaker_rejected_{0};
};

}  // namespace skyex::serve

#endif  // SKYEX_SERVE_SERVER_H_
