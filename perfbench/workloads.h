// The four benchmark workloads. Each one owns its set-up (model training,
// input pre-generation, oracle), one timed operation that calls a public
// pmiot entry point, an untimed oracle check of that operation's output,
// and a traced rebuild of the same pipeline from the public stage
// functions (see README.md for why each workload exists).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace perfbench {

struct WorkloadParams {
  std::uint64_t seed = 0;
  /// Smaller inputs for the self-test; never used for measurements.
  bool tiny = false;
  /// Fleet/gateway model training seed (the shipped bench value is 3).
  std::uint64_t train_seed = 3;
  /// Directory for scratch files (campaign checkpoints).
  std::string scratch_dir = ".";
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Unit of the items an operation completes ("packets", "cells").
  virtual const char* item_unit() const = 0;

  /// Builds inputs, trains models and computes the oracle. Timed as
  /// set-up; throws when set-up itself fails.
  virtual void setup() = 0;

  /// Timed: one operation through the public entry point. Returns the
  /// items it completed; throws on failure. Keeps its output for `check`.
  virtual double run(std::size_t op) = 0;

  /// Untimed: "" when the last `run(op)` output equals the oracle, else a
  /// description of the first difference.
  virtual std::string check(std::size_t op) = 0;

  /// Traced: the same operation rebuilt from public stage functions with a
  /// span around each call. Returns the items it completed; throws on
  /// failure.
  virtual double run_traced(std::size_t op) = 0;

  /// "" when the last traced output equals the oracle, or when the rebuild
  /// is not comparable bitwise (campaign, arena).
  virtual std::string check_traced(std::size_t op) = 0;

  /// Workload-specific per-layer counts accumulated by the traced
  /// operations, normalised by the caller.
  const std::map<std::string, double>& traced_counts() const {
    return counts_;
  }

 protected:
  void count(const std::string& name, double delta) { counts_[name] += delta; }

 private:
  std::map<std::string, double> counts_;
};

/// "fleet", "gateway", "campaign" or "arena"; nullptr for anything else.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadParams& params);

}  // namespace perfbench
