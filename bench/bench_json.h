// Machine-readable bench output, plus the wall-clock helpers the benches
// time their passes with.
//
// Each participating bench binary writes a `BENCH_<name>.json` file next to
// its working directory in addition to the human-readable tables, so the
// perf trajectory (wall time, throughput, key quality metrics) can be
// tracked across PRs by tooling instead of living in log scrollback.
//
// Schema:
//   {
//     "bench":   "<name>",
//     "config":  { "<key>": <string|number>, ... },
//     "results": [ { "name": "...", "wall_ms": <num>,
//                    "throughput": <num>, "throughput_unit": "..." }, ... ],
//     "metrics": { "<key>": <num>, ... }
//   }
#pragma once

#include <chrono>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace pmiot::bench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Precision-12 number, `null` for NaN and +/-inf.
inline std::string json_number(double v) {
  if (!(v == v) || v > 1.7e308 || v < -1.7e308) return "null";  // nan/inf
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

/// Collects config, timing results, and scalar metrics for one bench run
/// and serializes them to `BENCH_<name>.json`.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  BenchJson& config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, '"' + obs::json_escape(value) + '"');
    return *this;
  }
  BenchJson& config(const std::string& key, const char* value) {
    return config(key, std::string(value));
  }
  BenchJson& config(const std::string& key, double value) {
    config_.emplace_back(key, json_number(value));
    return *this;
  }
  BenchJson& config(const std::string& key, long long value) {
    config_.emplace_back(key, std::to_string(value));
    return *this;
  }
  BenchJson& config(const std::string& key, std::size_t value) {
    return config(key, static_cast<long long>(value));
  }
  BenchJson& config(const std::string& key, int value) {
    return config(key, static_cast<long long>(value));
  }

  /// One timed pipeline: wall-clock milliseconds plus a throughput in
  /// whatever unit the bench naturally measures (windows/s, samples/s, ...).
  BenchJson& result(const std::string& name, double wall_ms, double throughput,
                    const std::string& throughput_unit) {
    std::ostringstream os;
    os << "{\"name\": \"" << obs::json_escape(name) << "\", \"wall_ms\": "
       << json_number(wall_ms) << ", \"throughput\": "
       << json_number(throughput) << ", \"throughput_unit\": \""
       << obs::json_escape(throughput_unit) << "\"}";
    results_.push_back(os.str());
    return *this;
  }

  /// Scalar quality/derived metric (speedup factor, error rate, ...).
  BenchJson& metric(const std::string& key, double value) {
    metrics_.emplace_back(key, json_number(value));
    return *this;
  }

  /// Output location: `BENCH_<name>.json` under `obs::artifact_path`.
  std::string path() const {
    return obs::artifact_path("BENCH_" + name_ + ".json");
  }

  /// Writes the JSON file; reports (but does not fail on) IO errors, so a
  /// read-only working directory never breaks a bench run.
  bool write() const {
    std::ofstream os(path());
    if (!os) {
      std::cerr << "warning: could not write " << path() << '\n';
      return false;
    }
    os << "{\n  \"bench\": \"" << obs::json_escape(name_) << "\",\n";
    os << "  \"config\": {";
    write_pairs(os, config_);
    os << "},\n  \"results\": [";
    for (std::size_t i = 0; i < results_.size(); ++i) {
      os << (i ? ",\n    " : "\n    ") << results_[i];
    }
    os << (results_.empty() ? "" : "\n  ") << "],\n  \"metrics\": {";
    write_pairs(os, metrics_);
    os << "}\n}\n";
    return static_cast<bool>(os);
  }

 private:
  using Pairs = std::vector<std::pair<std::string, std::string>>;

  static void write_pairs(std::ostream& os, const Pairs& pairs) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      os << (i ? ", " : "") << '"' << obs::json_escape(pairs[i].first)
         << "\": " << pairs[i].second;
    }
  }

  std::string name_;
  Pairs config_;
  std::vector<std::string> results_;
  Pairs metrics_;
};

}  // namespace pmiot::bench
