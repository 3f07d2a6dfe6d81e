#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || values[hi] == values[lo]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t Digest(const void* data, size_t size, uint64_t seed) {
  uint64_t h = 1469598103934665603ULL ^ seed;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name)
    : recorder_(recorder->enabled_ ? recorder : nullptr) {
  if (recorder_ == nullptr) return;
  index_ = recorder_->spans_.size();
  recorder_->spans_.push_back({name, NowSeconds(), 0.0, recorder_->open_});
  recorder_->open_ = static_cast<int>(index_);
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  Span& span = recorder_->spans_[index_];
  span.end_s = NowSeconds();
  recorder_->open_ = span.parent;
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.end_s - span.start_s);
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":" << JsonString(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << JsonNumber((s.start_s - origin) * 1e6)
        << ",\"dur\":" << JsonNumber((s.end_s - s.start_s) * 1e6)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [existing, entry] : metrics_) {
    if (existing == name) {
      entry = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

bool Report::Has(const std::string& name) const {
  for (const auto& [existing, entry] : metrics_) {
    if (existing == name) return true;
  }
  return false;
}

std::vector<std::string> Report::Names() const {
  std::vector<std::string> out;
  for (const auto& [name, entry] : metrics_) out.push_back(name);
  return out;
}

namespace {

// Sums of the host-wide "cpu" line of /proc/stat: steal and all states.
void HostCpuTicks(double* steal, double* total) {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  *steal = 0.0;
  *total = 0.0;
  double ticks = 0.0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user and nice)
  for (int field = 0; field < 8 && stat >> ticks; ++field) {
    *total += ticks;
    if (field == 7) *steal = ticks;
  }
}

}  // namespace

StealClock::StealClock() { HostCpuTicks(&steal_, &total_); }

double StealClock::Share() const {
  double steal = 0.0, total = 0.0;
  HostCpuTicks(&steal, &total);
  return total > total_ ? (steal - steal_) / (total - total_) : 0.0;
}

void Report::Info(const std::string& key, const std::string& json_value) {
  info_.push_back({key, json_value});
}

void Report::Fail(const std::string& reason) {
  failures_.push_back(reason);
  std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", reason.c_str());
}

void Report::AddAttempts(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

double LoadAverage1() {
  std::ifstream loadavg("/proc/loadavg");
  double load = -1.0;
  loadavg >> load;
  return load;
}

}  // namespace

int Report::Print(const Options& options) const {
  for (const auto& [name, entry] : metrics_) {
    std::printf("perfbench: %-32s %16.6f %s\n", name.c_str(), entry.value,
                entry.unit.c_str());
  }
  std::ostringstream host;
  host << "{\"workload\":" << JsonString(options.workload)
       << ",\"seed\":" << options.seed << ",\"trace\":" << options.trace
       << ",\"smoke\":" << options.smoke
       << ",\"cpu_model\":" << JsonString(CpuModel())
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"load1\":" << JsonNumber(LoadAverage1());
  host << ",\"cpu_steal_share\":" << JsonNumber(steal_.Share());
  for (const auto& [key, value] : info_) {
    host << "," << JsonString(key) << ":" << value;
  }
  host << "}";
  std::printf("perfbench: run %s\n", host.str().c_str());

  std::ostringstream result;
  result << "{\"correct\": " << (correct() ? "true" : "false")
         << ", \"attempted\": " << std::max<uint64_t>(attempted_, 1)
         << ", \"failed\": " << failed_ << ", \"metrics\": {";
  if (correct()) {
    bool first = true;
    for (const auto& [name, entry] : metrics_) {
      result << (first ? "" : ", ") << JsonString(name)
             << ": {\"value\": " << JsonNumber(entry.value)
             << ", \"unit\": " << JsonString(entry.unit) << "}";
      first = false;
    }
  }
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench
