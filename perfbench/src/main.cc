// perfbench — one run of one benchmark workload.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                    --work-dir=DIR [--serve-bin=PATH] [--smoke]
//
// Prints one line per metric and, as its last line, the result JSON:
// the end-to-end metrics with --trace=0, the per-layer metrics with
// --trace=1. Exits 1 (reporting no metrics) when a correctness or
// stationarity gate fails, 2 on a usage error.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "obs/log.h"
#include "workloads.h"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The names BENCHMARK.json lists, in its order.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"}, {"ok_share", "share"},
    {"link_f1", "F1"},         {"train_s", "s"},      {"throughput_per_s", "1/s"},
    {"p50_ms", "ms"},          {"tail_ms", "ms"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"data.generate_s", "s"},
    {"serve.bootstrap_s", "s"},
    {"geo.block_s", "s"},
    {"geo.candidate_pairs", "count"},
    {"lgm.corpus_s", "s"},
    {"features.extract_s", "s"},
    {"features.ns_per_row", "ns"},
    {"text.kernels_ns_per_pair", "ns"},
    {"ml.select_s", "s"},
    {"skyline.sweep_s", "s"},
    {"skyline.layering_s", "s"},
    {"skyline.layers", "count"},
    {"skyline.dominance_tests", "count"},
    {"skyline.tests_per_pair", "count"},
    {"core.label_s", "s"},
    {"par.tasks", "count"},
    {"par.steals", "count"},
    {"par.busy_share", "share"},
    {"serve.server_p50_us", "us"},
    {"serve.server_p99_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.rejected", "count"},
    {"serve.degraded", "count"},
    {"serve.deadline_expired", "count"},
    {"core.candidates_per_req", "count"},
    {"features.prefilter_drop_share", "share"},
    {"features.text_cache_hit_share", "share"},
    {"features.pairs_scored_per_s", "1/s"},
    {"core.match_p50_us", "us"},
    {"core.match_p99_us", "us"},
    {"serve.link_many_us", "us"},
    {"shard.fanout", "count"},
    {"shard.scatter_timeouts", "count"},
    {"shard.degraded_results", "count"},
    {"client.send_lag_p99_ms", "ms"},
    {"obs.trace_overhead_share", "share"},
};

const char* const kWorkloads[] = {"batch_northdk", "serve_uniform",
                                  "serve_hotspot"};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench "
               "--workload=NAME --seed=N --seconds=S --trace=0|1 "
               "--work-dir=DIR [--serve-bin=PATH] [--smoke]\n",
               why);
  return 2;
}

bool Value(const char* arg, const char* key, std::string* out) {
  const size_t n = std::strlen(key);
  if (std::strncmp(arg, key, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.serve_bin = PERFBENCH_SERVE_BIN;
  std::string seed, seconds, trace;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (Value(a, "--workload", &options.workload) || Value(a, "--seed", &seed) ||
        Value(a, "--seconds", &seconds) || Value(a, "--trace", &trace) ||
        Value(a, "--work-dir", &options.work_dir) ||
        Value(a, "--serve-bin", &options.serve_bin)) {
      continue;
    }
    if (std::strcmp(a, "--smoke") == 0) {
      options.smoke = true;
      continue;
    }
    return Usage((std::string("unknown argument ") + a).c_str());
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || options.workload == w;
  if (!known) return Usage("unknown --workload");
  char* end = nullptr;
  options.seed = std::strtoull(seed.c_str(), &end, 10);
  if (seed.empty() || *end != '\0') return Usage("bad --seed");
  options.seconds = std::strtod(seconds.c_str(), &end);
  if (seconds.empty() || *end != '\0' || !(options.seconds > 0.0)) {
    return Usage("bad --seconds");
  }
  if (trace != "0" && trace != "1") return Usage("--trace must be 0 or 1");
  options.trace = trace == "1";
  if (options.work_dir.empty()) return Usage("--work-dir is required");
  ::mkdir(options.work_dir.c_str(), 0755);

  skyex::obs::Logger::Global().SetLevel(skyex::obs::LogLevel::kWarn);
  perfbench::Report report;
  if (options.workload == "batch_northdk") {
    perfbench::RunBatch(options, &report);
  } else {
    perfbench::RunServe(options, options.workload == "serve_hotspot", &report);
  }

  // Every listed metric is reported. A per-layer metric whose layer this
  // workload does not run reads 0; an end-to-end metric is never missing.
  const auto& listed = options.trace ? kPerLayer : kEndToEnd;
  if (report.correct()) {
    for (const std::string& name : report.Names()) {
      bool found = false;
      for (const auto& spec : listed) found = found || name == spec.name;
      if (!found) report.Fail("unlisted metric reported: " + name);
    }
    for (const auto& spec : listed) {
      if (!report.Has(spec.name)) {
        if (options.trace) {
          report.Metric(spec.name, 0.0, spec.unit);
        } else {
          report.Fail(std::string("end-to-end metric missing: ") + spec.name);
        }
      }
    }
  }
  return report.Print(options);
}
