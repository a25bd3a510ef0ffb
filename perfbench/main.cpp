// pmiot benchmark program: one closed-loop workload per invocation.
//
//   pmiot_perfbench --workload fleet|gateway|campaign|arena|arena-knn --seed N
//                   --seconds S --trace 0|1 [--tiny]
//                   [--scratch-dir DIR] [--commit SHA] [--train-seed N]
//
// Every run pins the pool to width 1, so the figures are per-core ones.
//
// --trace 0 sets up the workload several times (setup_s is their median),
// then calls its public entry point back to back until S CPU-seconds of
// operations have been timed, checking every output against the
// workload's oracle outside the timed region. Times are reported in
// reference seconds (see "host-speed calibration" below).
//
// --trace 1 makes an untraced pass through the public entry point, then
// runs the same operations through the traced rebuild of the pipeline, and
// reports per-layer self time, share and counts.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics. Earlier lines are for people: the run conditions, the
// workload-named figures, and the first failure.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "simd/simd.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 3;
/// Calibration runs before and after each set-up; their median is used.
constexpr int kSetupCalibrations = 5;
constexpr std::size_t kPoolWidth = 1;
/// Wall-clock time after process start at which measuring loops stop, so
/// a run ends well inside the three minutes it may take even when oracle
/// checks or a loaded host slow it down.
constexpr double kDeadlineS = 140.0;
const auto g_start = std::chrono::steady_clock::now();

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string scratch_dir = ".";
  std::string commit = "unknown";
  std::uint64_t train_seed = 3;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated percentile of an ascending vector; +inf entries
/// (failed operations) propagate.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || sorted[lo] == sorted[hi]) return sorted[lo];
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 0.5);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

/// Sets the kernel's resident-set high-water mark (VmHWM) back to the
/// current resident set, after handing freed heap pages back to the
/// kernel. Returns false where /proc/self/clear_refs cannot be written.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

/// VmHWM from /proc/self/status, in MiB.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// Failure bookkeeping for one pass: every operation is attempted once and
/// either completes, throws, or completes with output that differs from
/// the oracle. The last two both count as failed.
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t thrown = 0;
  std::uint64_t mismatched = 0;
  std::map<std::string, std::uint64_t> by_kind;
  std::string first_failure;

  std::uint64_t failed() const { return thrown + mismatched; }

  void exception(std::size_t op, const std::exception& e) {
    ++thrown;
    const char* kind = dynamic_cast<const pmiot::InternalError*>(&e)
                           ? "pmiot::InternalError"
                       : dynamic_cast<const pmiot::InvalidArgument*>(&e)
                           ? "pmiot::InvalidArgument"
                           : "std::exception";
    ++by_kind[kind];
    note(op, std::string(kind) + ": " + e.what());
  }

  void mismatch(std::size_t op, const std::string& what) {
    ++mismatched;
    ++by_kind["oracle mismatch"];
    note(op, "oracle mismatch: " + what);
  }

  void note(std::size_t op, const std::string& what) {
    if (first_failure.empty()) {
      first_failure = "op " + std::to_string(op) + ": " + what;
    }
  }

  void print(std::ostream& os) const {
    os << "operations: attempted " << attempted << ", failed " << failed()
       << " (thrown " << thrown << ", oracle mismatches " << mismatched
       << ")\n";
    for (const auto& [kind, n] : by_kind) {
      os << "  failures of kind " << kind << ": " << n << '\n';
    }
    if (!first_failure.empty()) os << "  first failure: " << first_failure << '\n';
  }
};

/// CPU time of the whole process (user + system, every thread), in
/// seconds. At pool width 1 an operation's CPU time is its service time on
/// one core. Unlike wall time it leaves out the spells in which a shared
/// host runs other tenants on this virtual CPU ("steal"), which moved
/// single-core wall-clock figures by +-10% from one run to the next.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- host-speed calibration -----------------------------------------------
//
// CPU time leaves out steal, but not the slow-down other tenants cause on
// the cores and caches this virtual CPU shares: the same fleet pass ran up
// to 1.7x slower from one second to the next within one run. So the loop
// runs a fixed calibration kernel, outside the timed region, after every
// 10 ms of operation CPU time, and scales the CPU time of the operations
// in between by the kernel's nominal time over its measured time (the mean
// of the two calibrations around them). The end-to-end times are these
// "reference seconds": the CPU time the work would take on a core running
// the kernel at its nominal speed.

/// CPU time of one calibration run on an idle core of the tuning host
/// (Xeon, AVX-512, 4 vCPUs); any fixed value would do, since parent and
/// change are compared on the same host.
constexpr double kCalibrationNominalS = 0.65e-3;
constexpr double kCalibrateEveryS = 0.01;

/// The calibration kernel, and its CPU time in seconds: random draws
/// through -log, a sort and a branchy scan over 8192 doubles, the kind of
/// work the capture generator and feature extractors do. The kernel is the
/// benchmark's own code, so a change to the library cannot move it.
double calibration_seconds() {
  static std::vector<double> v(8192);
  const double c0 = cpu_seconds();
  std::uint64_t x = 88172645463325252ull;
  for (auto& e : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = -std::log(static_cast<double>(x >> 11) * 0x1.0p-53 + 1e-300);
  }
  std::sort(v.begin(), v.end());
  double acc = 0.0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    acc += v[i] > 2.0 * v[i - 1] ? 1.0 : v[i] * 1e-6;
  }
  volatile double sink = acc;
  (void)sink;
  return cpu_seconds() - c0;
}

/// Median of `n` calibration runs, for the bracketing of one long stretch
/// of work (a set-up).
double calibration_median(int n) {
  std::vector<double> runs;
  for (int i = 0; i < n; ++i) runs.push_back(calibration_seconds());
  return median(runs);
}

/// Result of one closed-loop pass over operations 0, 1, 2, ...
struct Pass {
  std::vector<double> op_ms;  ///< CPU ms per attempted op; +inf if it failed
  double timed_s = 0.0;  ///< CPU seconds of every op, failed ones included
  double ref_s = 0.0;    ///< the same, in reference seconds
  double wall_s = 0.0;   ///< wall seconds of every op
  double items = 0.0;    ///< items completed by successful ops
  std::vector<double> calibrations;  ///< CPU seconds of each calibration
};

/// Runs operations until `seconds` of CPU time have been timed (or
/// `max_ops` have run). Each result is checked against the oracle after
/// its timer stops.
template <typename RunFn, typename CheckFn>
Pass closed_loop(double seconds, std::size_t max_ops, Accounting& acct,
                 RunFn run, CheckFn check) {
  Pass pass;
  pass.calibrations.push_back(calibration_seconds());
  double block_s = 0.0;  // operation CPU time since the last calibration
  const auto calibrate = [&] {
    const double before = pass.calibrations.back();
    pass.calibrations.push_back(calibration_seconds());
    const double speed = 0.5 * (before + pass.calibrations.back());
    pass.ref_s += block_s * kCalibrationNominalS / speed;
    block_s = 0.0;
  };
  for (std::size_t op = 0; op < max_ops; ++op) {
    if (pass.timed_s >= seconds || seconds_since(g_start) > kDeadlineS) {
      break;
    }
    ++acct.attempted;
    double items = 0.0;
    bool ok = true;
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    try {
      items = run(op);
    } catch (const std::exception& e) {
      ok = false;
      acct.exception(op, e);
    }
    const double dt = cpu_seconds() - c0;
    pass.wall_s += seconds_since(t0);
    pass.timed_s += dt;
    block_s += dt;
    if (ok) {
      const std::string diff = check(op);
      if (!diff.empty()) {
        ok = false;
        acct.mismatch(op, diff);
      }
    }
    if (ok) pass.items += items;
    pass.op_ms.push_back(ok ? dt * 1e3
                            : std::numeric_limits<double>::infinity());
    if (block_s >= kCalibrateEveryS) calibrate();
  }
  if (block_s > 0.0) calibrate();
  return pass;
}

/// Per-workload names for the end-to-end figures (the JSON line carries
/// the workload-neutral names BENCHMARK.json lists).
struct NamedFigures {
  const char* throughput;
  const char* latency;  ///< nullptr when per-op latency is not reported
};

NamedFigures named_figures(const std::string& workload) {
  if (workload == "fleet") return {"fleet_packets_per_s", nullptr};
  if (workload == "gateway") return {"gateway_packets_per_s", "gateway_home_ms"};
  if (workload == "campaign") return {"campaign_cells_per_s", nullptr};
  if (workload == "arena-knn") return {"arena_knn_cells_per_s", nullptr};
  return {"arena_cells_per_s", nullptr};
}

std::string conditions_json(const Args& args) {
  std::ostringstream os;
  os << "{\"conditions\": {\"workload\": " << json_string(args.workload)
     << ", \"seed\": " << args.seed
     << ", \"cpu_model\": " << json_string(cpu_model())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"pool_width\": " << kPoolWidth
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"simd_backend\": " << json_string(pmiot::simd::backend())
     << ", \"git_commit\": " << json_string(args.commit)
     << ", \"traced\": " << (args.trace ? "true" : "false")
     << ", \"tiny\": " << (args.tiny ? "true" : "false") << "}}";
  return os.str();
}

/// (name, (value, unit)) in print order.
using MetricList =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void print_result(bool correct, const Accounting& acct,
                  const MetricList& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << acct.attempted
            << ", \"failed\": " << acct.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value] = metrics[i];
    std::cout << (i ? ", " : "") << json_string(name) << ": {\"value\": "
              << json_number(value.first)
              << ", \"unit\": " << json_string(value.second) << "}";
  }
  std::cout << "}}" << std::endl;
}

// --- untraced run -------------------------------------------------------------

int run_untraced(const Args& args) {
  const perfbench::WorkloadParams params{args.seed, args.tiny, args.train_seed,
                                         args.scratch_dir};
  // Each set-up is bracketed by calibrations and scaled like the
  // operations; it is too long to be interleaved with them.
  std::vector<double> setup_s;
  std::unique_ptr<perfbench::Workload> workload;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    workload.reset();
    workload = perfbench::make_workload(args.workload, params);
    const double before = calibration_median(kSetupCalibrations);
    const double c0 = cpu_seconds();
    workload->setup();
    const double cpu = cpu_seconds() - c0;
    const double after = calibration_median(kSetupCalibrations);
    setup_s.push_back(cpu * kCalibrationNominalS / (0.5 * (before + after)));
  }

  // peak_rss_mb is the peak during the timed operations: the inputs held
  // from set-up plus what the operations allocate, not set-up's own peak.
  const bool rss_reset = reset_peak_rss();
  Accounting acct;
  const Pass pass = closed_loop(
      args.seconds, std::numeric_limits<std::size_t>::max(), acct,
      [&](std::size_t op) { return workload->run(op); },
      [&](std::size_t op) { return workload->check(op); });

  std::vector<double> sorted = pass.op_ms;
  std::sort(sorted.begin(), sorted.end());
  // Completed items over all timed reference seconds: a failed operation
  // adds time but no items.
  const double items_per_s = pass.items / pass.ref_s;
  const double p50 = percentile(sorted, 0.50);
  const double p90 = percentile(sorted, 0.90);
  const double p99 = percentile(sorted, 0.99);
  const double setup_median = median(setup_s);
  const double rss = peak_rss_mib();

  std::cout << conditions_json(args) << '\n';
  acct.print(std::cout);
  const auto named = named_figures(args.workload);
  const std::string unit = std::string(workload->item_unit()) + "/s";
  std::cout << named.throughput << " = " << json_number(items_per_s) << ' '
            << unit << " (" << pass.items << ' ' << workload->item_unit()
            << " in " << pass.ref_s << " reference s; unscaled "
            << pass.items / pass.timed_s << ' ' << unit << " over "
            << pass.timed_s << " CPU-s, wall clock "
            << pass.items / pass.wall_s << ' ' << unit << " over "
            << pass.wall_s << " s)\n"
            << "calibration: median " << median(pass.calibrations) * 1e3
            << " ms over " << pass.calibrations.size() << " runs (nominal "
            << kCalibrationNominalS * 1e3 << " ms)\n";
  // The gateway's p99 is always shown, with its sample count; elsewhere a
  // tail percentile only where at least ten samples lie beyond it.
  const std::string latency = named.latency ? named.latency : "op_ms";
  std::cout << latency << ".p50 = " << json_number(p50) << " ms ("
            << sorted.size() << " samples)\n";
  if (named.latency || sorted.size() >= 1000) {
    std::cout << latency << ".p99 = " << json_number(p99) << " ms\n";
  } else if (sorted.size() >= 100) {
    std::cout << latency << ".p90 = " << json_number(p90) << " ms\n";
  }
  std::cout << "setup_s = " << setup_median << " s (reference seconds, median of "
            << kSetupReps << ")\npeak_rss_mb = " << rss << " MiB ("
            << (rss_reset ? "timed operations only"
                          : "whole process: the peak could not be reset")
            << ")\n";

  const MetricList metrics = {
      {"setup_s", {setup_median, "s"}},
      {"peak_rss_mb", {rss, "MiB"}},
      {"items_per_s", {items_per_s, "items/s"}},
  };
  print_result(acct.mismatched == 0, acct, metrics);
  return EXIT_SUCCESS;
}

// --- traced run ---------------------------------------------------------------

/// Timed layers: one span name each (see README.md for the layer map).
const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = {
      "net.capture_gen",      "net.extract_rows",
      "net.policy_counts",    "net.replay",
      "ml.predict",           "ml.predict_all",
      "core.leakage.occupancy", "core.leakage.appliances",
      "core.leakage.forest",  "core.fit_models",
      "ml.fit",               "net.shaping.apply",
      "net.wan_view",         "net.windowed_features",
      "net.recovery_features", "synth.simulate_home",
      "core.baseline",        "core.utility",
      "defense.apply",        "campaign.checkpoint.append",
  };
  return names;
}

struct RegistryReading {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> timers;
};

RegistryReading read_registry() {
  pmiot::obs::SnapshotOptions opts;
  opts.include_nondeterministic = true;
  const auto snap = pmiot::obs::MetricsRegistry::instance().snapshot(opts);
  RegistryReading r;
  for (const auto& c : snap.counters) r.counters[c.name] = c.value;
  for (const auto& t : snap.timers) r.timers[t.name] = {t.count, t.total_ns};
  return r;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int run_traced(const Args& args) {
  const perfbench::WorkloadParams params{args.seed, args.tiny, args.train_seed,
                                         args.scratch_dir};
  auto workload = perfbench::make_workload(args.workload, params);
  workload->setup();

  // Untraced reference pass at the same width, recording off.
  pmiot::obs::set_enabled_for_testing(false);
  Accounting acct;
  const Pass plain = closed_loop(
      args.seconds / 2.0, std::numeric_limits<std::size_t>::max(), acct,
      [&](std::size_t op) { return workload->run(op); },
      [&](std::size_t op) { return workload->check(op); });
  const std::size_t ops = plain.op_ms.size();

  // Traced pass over the same operation indices; registry counts are read
  // as deltas around it only.
  pmiot::obs::set_enabled_for_testing(true);
  auto& tracer = Tracer::instance();
  tracer.clear();
  const RegistryReading before = read_registry();
  tracer.enable(true);
  const Pass traced = closed_loop(
      std::numeric_limits<double>::infinity(), ops, acct,
      [&](std::size_t op) {
        perfbench::Span root("op");
        return workload->run_traced(op);
      },
      [&](std::size_t op) { return workload->check_traced(op); });
  tracer.enable(false);
  const RegistryReading after = read_registry();

  const auto delta_counter = [&](const std::string& name) {
    const auto a = after.counters.find(name);
    const auto b = before.counters.find(name);
    return static_cast<double>((a == after.counters.end() ? 0 : a->second) -
                               (b == before.counters.end() ? 0 : b->second));
  };
  const auto delta_timer = [&](const std::string& name) {
    const auto a = after.timers.find(name);
    const auto b = before.timers.find(name);
    std::pair<std::uint64_t, std::uint64_t> x{0, 0}, y{0, 0};
    if (a != after.timers.end()) x = a->second;
    if (b != before.timers.end()) y = b->second;
    return std::pair<double, double>{static_cast<double>(x.first - y.first),
                                     static_cast<double>(x.second - y.second) /
                                         1e6};
  };

  const auto totals = tracer.totals();
  const std::size_t traced_ops = traced.op_ms.size();
  const double n = static_cast<double>(std::max<std::size_t>(traced_ops, 1));
  const double wall_ms = traced.wall_s * 1e3;
  const auto& counts = workload->traced_counts();
  const auto count_of = [&](const std::string& name) {
    const auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  };

  MetricList metrics;
  double covered_ms = 0.0;
  for (const auto& layer : layer_names()) {
    const auto it = totals.find(layer);
    double self_ms = it == totals.end() ? 0.0 : it->second.self_ms;
    covered_ms += self_ms;
    if (layer == "ml.fit" && it == totals.end()) {
      // No span: forest fits ran inside another layer's call (the
      // campaign's fit_models); the library's own timer gives their time,
      // nested in that layer rather than added to the coverage.
      self_ms = delta_timer("ml.forest.fit").second;
    }
    metrics.push_back({layer + ".ms", {self_ms / n, "ms"}});
    metrics.push_back({layer + ".share", {ratio(self_ms, wall_ms), "frac"}});
  }
  const auto fit_span = totals.find("ml.fit");
  const double fits = fit_span != totals.end()
                          ? static_cast<double>(fit_span->second.calls)
                          : delta_timer("ml.forest.fit").first;
  const double shaping_in = count_of("net.shaping.packets_in");
  const double packets = count_of("net.capture_gen.packets") +
                         count_of("gateway.packets") +
                         count_of("net.shaping.packets_out");
  metrics.insert(
      metrics.end(),
      {
          {"net.capture_gen.packets", {count_of("net.capture_gen.packets") / n, "count"}},
          {"net.extract_rows.windows", {count_of("net.extract_rows.windows") / n, "count"}},
          {"ml.predict.rows", {count_of("ml.predict.rows") / n, "count"}},
          {"ml.predict_all.rows", {count_of("ml.predict_all.rows") / n, "count"}},
          {"ml.fit.count", {fits / n, "count"}},
          {"net.shaping.added_packets_frac",
           {ratio(count_of("net.shaping.packets_out") - shaping_in, shaping_in), "frac"}},
          {"campaign.checkpoint.bytes", {count_of("campaign.checkpoint.bytes") / n, "bytes"}},
          {"campaign.models_fitted_per_cell",
           {ratio(count_of("campaign.models_fitted"), count_of("campaign.cells")), "ratio"}},
          {"arena.repeat_fit_frac",
           {ratio(count_of("arena.repeat_fits"), count_of("arena.fits")), "frac"}},
          {"ml.tree.boundary_scans_per_split",
           {ratio(delta_counter("ml.tree.boundary_scans"),
                  delta_counter("ml.tree.nodes_split")), "ratio"}},
          {"net.flow_table.inserts_per_packet",
           {ratio(delta_counter("net.flow_table.flow_inserts"), packets), "ratio"}},
          {"par.shards", {delta_counter("par.shards") / n, "count"}},
          {"par.batches", {delta_counter("par.batches") / n, "count"}},
          {"layer_coverage", {ratio(covered_ms, wall_ms), "frac"}},
          {"tracing_overhead", {ratio(traced.ref_s, plain.ref_s) - 1.0, "frac"}},
          {"trace.ops", {static_cast<double>(traced_ops), "count"}},
      });

  const std::string spans_path = args.scratch_dir + "/spans_" + args.workload +
                                 "_" + std::to_string(args.seed) + ".jsonl";
  const bool wrote = tracer.write_jsonl(spans_path);

  std::cout << conditions_json(args) << '\n';
  acct.print(std::cout);
  std::cout << "traced " << traced_ops << " op(s): " << traced.timed_s * 1e3
            << " CPU-ms traced vs " << plain.timed_s * 1e3
            << " CPU-ms untraced; traced wall " << wall_ms << " ms\n";
  for (const auto& [name, value] : metrics) {
    if (value.first != 0.0) {
      std::cout << "  " << name << " = " << value.first << ' ' << value.second
                << '\n';
    }
  }
  std::cout << (wrote ? "spans written to " : "could not write spans to ")
            << spans_path << '\n';
  print_result(acct.mismatched == 0, acct, metrics);
  return EXIT_SUCCESS;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (!(v = value())) return false;
    if (flag == "--workload") args.workload = v;
    else if (flag == "--seed") args.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atof(v);
    else if (flag == "--trace") args.trace = std::strcmp(v, "1") == 0;
    else if (flag == "--scratch-dir") args.scratch_dir = v;
    else if (flag == "--commit") args.commit = v;
    else if (flag == "--train-seed") args.train_seed = std::strtoull(v, nullptr, 10);
    else return false;
  }
  return !args.workload.empty() && args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args) ||
      !perfbench::make_workload(args.workload, {})) {
    std::cerr << "usage: pmiot_perfbench"
                 " --workload fleet|gateway|campaign|arena|arena-knn"
                 " --seed N --seconds S --trace 0|1 [--tiny]"
                 " [--scratch-dir DIR] [--commit SHA] [--train-seed N]\n";
    return 2;
  }
  pmiot::par::ThreadPool pool(kPoolWidth);
  pmiot::par::ScopedPoolOverride pinned(pool);
  try {
    return args.trace ? run_traced(args) : run_untraced(args);
  } catch (const std::exception& e) {
    // Set-up failed: there is no measurement to report.
    std::cerr << "set-up failed: " << e.what() << '\n';
    return EXIT_FAILURE;
  }
}
