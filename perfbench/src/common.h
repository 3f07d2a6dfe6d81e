// Shared pieces of the benchmark binary: run options, the result report,
// timing and order statistics, the span recorder used by traced runs,
// and host metadata.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Small inputs and short phases: proves every workload prints every
  // metric, not a measurement.
  bool smoke = false;
  // Scratch directory inside the checkout (CSV, model, port files).
  std::string work_dir;
  std::string serve_bin;
};

double NowSeconds();

/// Wall-clock stopwatch on the steady clock.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

double Median(std::vector<double> values);
/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// FNV-1a over raw bytes: the label-vector digest the correctness gate
/// compares between passes.
uint64_t Digest(const void* data, size_t size, uint64_t seed = 0);

/// Peak resident set size of this process (VmHWM) in MiB.
double PeakRssMb();

/// Share of the host's CPU time that the hypervisor gave to other guests
/// (steal in /proc/stat) since construction. On a shared host it is the
/// visible part of other tenants' load.
class StealClock {
 public:
  StealClock();
  double Share() const;

 private:
  double steal_ = 0.0;
  double total_ = 0.0;
};

/// Spans recorded by the benchmark around its calls into each layer. Only
/// traced runs record; an untraced recorder ignores every scope. Spans
/// stay in memory and are written as Chrome trace JSON at the end.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    size_t index_ = 0;
  };

  bool enabled() const { return enabled_; }
  /// Durations (seconds) of every completed span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Writes {"traceEvents":[...]} to `path`. False when unwritable.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int parent;  // index into spans_, -1 at the root
  };
  bool enabled_;
  std::vector<Span> spans_;
  int open_ = -1;  // innermost open span
};

/// What one run reports. Gate failures make the run incorrect; the
/// benchmark then exits non-zero without reporting metrics.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& json_value);
  void Fail(const std::string& reason);
  void AddAttempts(uint64_t attempted, uint64_t failed);

  bool Has(const std::string& name) const;
  std::vector<std::string> Names() const;
  bool correct() const { return failures_.empty(); }
  /// Prints one human-readable line per metric, the host/info line, and
  /// then (last) the result JSON object. Returns the process exit code.
  int Print(const Options& options) const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Entry>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  StealClock steal_;  // since the run started
};

std::string JsonString(const std::string& text);
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
