// Population-scale campaign bench: the §III-E knob sweep run as a fleet
// measurement (src/campaign), self-checked before any timing claim.
//
// Self-check (deterministic output only — CI diffs it across
// PMIOT_THREADS ∈ {1, 4, 16}):
//   * sharded planner == serial oracle, bitwise;
//   * cache-enabled == cache-disabled, bitwise;
//   * pool widths 1 / 4 / default agree in-process (ScopedPoolOverride);
//   * an interrupted, checkpoint-truncated, resumed run finishes bitwise
//     identical to an uninterrupted one (frontier CSV byte-compared);
//   * a home trace archived through synth::trace_archive round-trips
//     bit-exactly and sweeps identically;
//   * the checkpoint bookkeeping path (cell decode + record append)
//     allocates nothing once warm.
//
// Timed mode then runs the reference grid cached vs cache-disabled and
// asserts the model/trace cache is worth >= 3x wall-clock, recording the
// ratio in BENCH_campaign.json.
//
// `--run` is the CI kill/resume harness: stream to --checkpoint, die (or
// get killed) mid-flight, rerun with --resume, and diff the --frontier
// artifact against an uninterrupted run.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_json.h"
#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "common/parallel.h"
#include "common/table.h"
#include "counting_alloc.h"
#include "obs/metrics.h"
#include "synth/trace_archive.h"

using namespace pmiot;

namespace {

/// Small grid the equalities are proven on (seconds, not minutes, even
/// cache-disabled). Three homes per archetype with two-home blocks forces
/// multi-block merges.
campaign::CampaignConfig self_check_config() {
  campaign::CampaignConfig config;
  config.intensities = {0.0, 0.5, 1.0};
  config.homes_per_archetype = 3;
  config.days = 2;
  config.block_homes = 2;
  return config;
}

/// Reference grid for the cache-amortization timing claim.
campaign::CampaignConfig reference_config(std::size_t homes) {
  campaign::CampaignConfig config;
  config.homes_per_archetype = homes;
  return config;
}

std::string frontier_text(const campaign::CampaignResult& result) {
  std::ostringstream os;
  campaign::write_frontier_csv(os, result.config,
                               campaign::build_frontier(result));
  return os.str();
}

int fail(const std::string& what) {
  std::cerr << "MISMATCH: " << what << '\n';
  return EXIT_FAILURE;
}

/// The deterministic self-check battery; prints one "self-check OK" line
/// per property.
int self_check() {
  const campaign::CampaignConfig config = self_check_config();
  const campaign::CampaignPlan plan(config);

  const auto base = campaign::run_campaign(config);
  if (base.cells_evaluated != plan.total_cells()) {
    return fail("sharded run left cells unevaluated");
  }

  // Sharded planner vs the serial per-cell oracle.
  const auto oracle = campaign::run_campaign_serial_oracle(config);
  if (const auto d = campaign::describe_divergence(base, oracle); !d.empty()) {
    return fail("sharded run diverges from serial oracle: " + d);
  }
  std::cout << "self-check OK: sharded planner == serial oracle ("
            << plan.total_cells() << " cells)\n";

  // Cache-enabled vs cache-disabled.
  campaign::RunOptions uncached_options;
  uncached_options.use_cache = false;
  const auto uncached = campaign::run_campaign(config, uncached_options);
  if (const auto d = campaign::describe_divergence(base, uncached);
      !d.empty()) {
    return fail("cached run diverges from cache-disabled run: " + d);
  }
  std::cout << "self-check OK: model/trace cache == cache-disabled\n";

  // Pool-width invariance inside one process.
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    par::ThreadPool pool(width);
    par::ScopedPoolOverride override_pool(pool);
    const auto run = campaign::run_campaign(config);
    if (const auto d = campaign::describe_divergence(base, run); !d.empty()) {
      return fail("pool width " + std::to_string(width) +
                  " diverges from default: " + d);
    }
  }
  std::cout << "self-check OK: pool widths 1/4/default agree\n";

  // Interrupt, corrupt the tail the way a kill would, resume.
  const std::string checkpoint_path = "campaign_selfcheck.pmiotcp";
  std::filesystem::remove(checkpoint_path);
  campaign::RunOptions interrupt_options;
  interrupt_options.checkpoint_path = checkpoint_path;
  interrupt_options.max_new_cells = plan.total_cells() / 3;
  const auto partial = campaign::run_campaign(config, interrupt_options);
  if (partial.cells_evaluated != plan.total_cells() / 3) {
    return fail("interrupted run ignored its cell budget");
  }
  {
    // A kill can land mid-fwrite: leave half a record at the tail.
    std::ofstream os(checkpoint_path,
                     std::ios::binary | std::ios::app);
    const char garbage[7] = {1, 2, 3, 4, 5, 6, 7};
    os.write(garbage, sizeof garbage);
  }
  campaign::RunOptions resume_options;
  resume_options.checkpoint_path = checkpoint_path;
  resume_options.resume = true;
  const auto resumed = campaign::run_campaign(config, resume_options);
  if (resumed.cells_resumed != plan.total_cells() / 3) {
    return fail("resume did not recover the interrupted cells");
  }
  if (const auto d = campaign::describe_divergence(base, resumed);
      !d.empty()) {
    return fail("resumed run diverges from uninterrupted run: " + d);
  }
  if (frontier_text(base) != frontier_text(resumed)) {
    return fail("resumed frontier CSV differs from uninterrupted run");
  }
  std::filesystem::remove(checkpoint_path);
  std::cout << "self-check OK: interrupted+truncated+resumed == "
               "uninterrupted (frontier CSV byte-identical, "
            << resumed.cells_resumed << " cells resumed)\n";

  // Archive round trip: save one campaign home, reload through the
  // zero-copy TraceView path, compare bit for bit.
  {
    const std::uint64_t archive_seed = config.base_seed;
    Rng sim_rng(archive_seed);
    const auto home = synth::simulate_home(
        campaign::archetype_home(config.archetypes[0], 0, 0,
                                 config.base_seed),
        CivilDate{2017, 6, 5}, config.days, sim_rng);
    const std::string dir = "campaign_selfcheck_home";
    synth::save_home_trace(dir, home);
    const auto loaded = synth::load_home_trace(dir);
    const bool equal =
        loaded.name == home.name &&
        loaded.aggregate == home.aggregate &&
        loaded.occupancy == home.occupancy &&
        loaded.appliance_names == home.appliance_names &&
        loaded.per_appliance == home.per_appliance;
    std::filesystem::remove_all(dir);
    if (!equal) return fail("archived home trace does not round-trip");
    std::cout << "self-check OK: trace archive round-trips bit-exactly ("
              << home.per_appliance.size() << " submeter columns)\n";
  }

  // Zero-allocation bookkeeping: once the writer and plan are warm, the
  // per-cell decode + record-append path must not touch the heap. (The
  // evaluator's own math allocates and is timed, not policed; the campaign
  // layer's contract is that *its* steady-state bookkeeping is free.)
  {
    const std::string probe_path = "campaign_selfcheck_probe.pmiotcp";
    const std::uint64_t hash = campaign::config_hash(config);
    std::vector<double> payload(plan.payload_doubles(), 0.25);
    std::uint64_t mixed = 0;
    {
      campaign::CheckpointWriter writer(probe_path, plan, hash,
                                        config.base_seed);
      const std::uint64_t probe_cells =
          std::min<std::uint64_t>(plan.total_cells(), 64);
      for (std::uint64_t cell = 0; cell < probe_cells; ++cell) {
        const auto ref = plan.decode(cell);
        mixed += ref.home + ref.defense;
        writer.append(cell, payload);
      }
      writer.flush();
      const std::uint64_t before = g_heap_allocations.load();
      for (std::uint64_t cell = 0; cell < probe_cells; ++cell) {
        const auto ref = plan.decode(cell);
        mixed += ref.home + ref.defense;
        writer.append(cell, payload);
      }
      writer.flush();
      const std::uint64_t steady = g_heap_allocations.load() - before;
      if (steady != 0) {
        return fail("steady-state checkpoint bookkeeping allocated " +
                    std::to_string(steady) + " time(s)");
      }
    }
    std::filesystem::remove(probe_path);
    if (mixed == 0) return fail("probe optimized away");  // keep `mixed` live
    std::cout << "self-check OK: warm checkpoint bookkeeping allocated 0 "
                 "times\n";
  }

  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  bool self_check_only = false;
  bool run_mode = false;
  bool resume = false;
  std::size_t homes = 8;
  std::string checkpoint_path;
  std::string frontier_path = "campaign_frontier.csv";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-check") == 0) {
      self_check_only = true;
    } else if (std::strcmp(argv[i], "--run") == 0) {
      run_mode = true;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--homes") == 0 && i + 1 < argc) {
      homes = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--checkpoint") == 0 && i + 1 < argc) {
      checkpoint_path = argv[++i];
    } else if (std::strcmp(argv[i], "--frontier") == 0 && i + 1 < argc) {
      frontier_path = argv[++i];
    } else {
      std::cerr << "usage: campaign [--self-check] [--run] [--resume] "
                   "[--homes N] [--checkpoint PATH] [--frontier PATH]\n";
      return EXIT_FAILURE;
    }
  }

  if (run_mode) {
    // CI kill/resume harness: no self-check chatter, no timing — just run
    // (possibly resuming) and emit the frontier artifact to diff.
    const campaign::CampaignConfig config = reference_config(homes);
    campaign::RunOptions options;
    options.checkpoint_path = checkpoint_path;
    options.resume = resume;
    const auto result = campaign::run_campaign(config, options);
    std::ofstream os(frontier_path);
    if (!os) {
      std::cerr << "cannot write frontier artifact: " << frontier_path
                << '\n';
      return EXIT_FAILURE;
    }
    os << frontier_text(result);
    std::cout << "campaign complete: "
              << result.cells_evaluated + result.cells_resumed
              << " cells, frontier written\n";
    return EXIT_SUCCESS;
  }

  std::cout
      << "==============================================================\n"
         "Population-scale privacy campaign (src/campaign)\n"
         "==============================================================\n\n";

  if (const int rc = self_check(); rc != EXIT_SUCCESS) return rc;

  // Snapshot goes to stderr + METRICS_*.json only, so stdout stays bitwise
  // identical with metrics on and off (CI diffs it at several PMIOT_THREADS
  // settings).
  obs::emit_if_enabled("campaign");
  if (self_check_only) return EXIT_SUCCESS;  // deterministic output only

  // Timed reference grid: the same cells with and without the planner's
  // model/trace cache.
  const campaign::CampaignConfig config = reference_config(homes);
  const campaign::CampaignPlan plan(config);

  const auto c0 = bench::Clock::now();
  const auto cached = campaign::run_campaign(config);
  const auto c1 = bench::Clock::now();
  campaign::RunOptions uncached_options;
  uncached_options.use_cache = false;
  const auto u0 = bench::Clock::now();
  const auto uncached = campaign::run_campaign(config, uncached_options);
  const auto u1 = bench::Clock::now();
  if (const auto d = campaign::describe_divergence(cached, uncached);
      !d.empty()) {
    std::cerr << "MISMATCH: reference grid cached vs uncached: " << d << '\n';
    return EXIT_FAILURE;
  }

  const double cached_ms = bench::ms_between(c0, c1);
  const double uncached_ms = bench::ms_between(u0, u1);
  const double speedup = uncached_ms / cached_ms;
  const double cells = static_cast<double>(plan.total_cells());

  Table table({"pass", "time (s)", "cells/s"});
  table.add_row()
      .cell("cached (trace+model reuse)")
      .cell(cached_ms / 1e3)
      .cell(cells / (cached_ms / 1e3), 0);
  table.add_row()
      .cell("cache-disabled (per-cell refit)")
      .cell(uncached_ms / 1e3)
      .cell(cells / (uncached_ms / 1e3), 0);
  table.print(std::cout, "Campaign reference grid (outputs verified equal)");
  std::cout << "\ncache amortization at " << par::thread_count()
            << " thread(s): " << format_double(speedup, 1) << "x\n";

  {
    std::ofstream os(frontier_path);
    if (os) {
      os << frontier_text(cached);
      std::cout << "wrote " << frontier_path << '\n';
    }
  }

  bench::BenchJson json("campaign");
  json.config("archetypes", static_cast<std::size_t>(config.archetypes.size()))
      .config("homes_per_archetype", config.homes_per_archetype)
      .config("defenses", static_cast<std::size_t>(config.defenses.size()))
      .config("attacks", static_cast<std::size_t>(config.attacks.size()))
      .config("intensities",
              static_cast<std::size_t>(config.intensities.size()))
      .config("days", config.days)
      .config("base_seed", static_cast<std::size_t>(config.base_seed))
      .config("threads", static_cast<std::size_t>(par::thread_count()));
  json.result("cached", cached_ms, cells / (cached_ms / 1e3), "cells/s")
      .result("uncached", uncached_ms, cells / (uncached_ms / 1e3),
              "cells/s");
  json.metric("cache_speedup", speedup)
      .metric("total_cells", cells)
      .metric("self_check_passed", 1.0);
  if (json.write()) std::cout << "wrote " << json.path() << '\n';

  // The acceptance bar the ISSUE sets for the planner's cache: if reusing
  // traces and fitted models is not worth >= 3x on the reference grid, the
  // campaign layer failed at its one perf job.
  if (speedup < 3.0) {
    std::cerr << "SUSPECT: cache speedup " << format_double(speedup, 2)
              << "x below the 3x bar\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
