#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/privacy.h"
#include "defense/obfuscation.h"
#include "fleet/fleet_gateway.h"
#include "ml/dataset.h"
#include "ml/knn.h"
#include "ml/random_forest.h"
#include "net/anomaly.h"
#include "net/arena.h"
#include "net/features.h"
#include "net/fingerprint.h"
#include "net/gateway.h"
#include "net/shaping.h"
#include "synth/home.h"
#include "trace.h"

namespace perfbench {

using namespace pmiot;

namespace {

// Input sizes. Per-home cost and capture size vary widely with the home's
// roster (a streaming camera or TV brings tens of thousands of packets), so
// the fleet pass covers enough homes to cost nearly the same from one seed
// to the next, and the gateway holds captures up to a fixed packet budget
// rather than a fixed home count, which keeps its memory steady as well.
constexpr std::size_t kFleetHomes = 400;
constexpr std::size_t kGatewayPackets = 6'000'000;
constexpr std::size_t kTinyHomes = 4;
constexpr std::size_t kTinyGatewayPackets = 20'000;

/// The fleet gateway's shared models, trained the way bench/fleet_gateway
/// trains them: on windows as long as the gateway's.
struct GatewayModels {
  ml::RandomForest classifier;
  net::AnomalyDetector detector;

  GatewayModels(const fleet::FleetOptions& options, std::uint64_t train_seed) {
    Rng rng(train_seed);
    net::FingerprintOptions fingerprint;
    fingerprint.window_s = options.gateway.window_s;
    const auto data = net::build_fingerprint_dataset(fingerprint, rng);
    classifier.fit(data);
    detector.fit(data);
  }
};

net::SmartGateway home_gateway(const GatewayModels& models,
                               const fleet::FleetOptions& options,
                               const fleet::HomeCapture& home) {
  net::SmartGateway gateway(models.classifier, models.detector,
                            options.gateway);
  for (const auto& device : home.devices) {
    gateway.register_device(device.profile.ip, device.profile.name);
  }
  return gateway;
}

/// One home's outcome wrapped as a one-home fleet report, so the library's
/// bitwise comparison can be reused per home.
fleet::FleetReport single_home(fleet::HomeOutcome outcome) {
  fleet::FleetReport report;
  report.homes.push_back(std::move(outcome));
  return report;
}

void add_totals(fleet::FleetReport& report) {
  for (const auto& home : report.homes) {
    report.packets += home.packets;
    report.lateral_packets_blocked += home.report.lateral_packets_blocked;
    report.quarantine_packets_dropped += home.report.quarantine_packets_dropped;
    for (const auto& verdict : home.report.verdicts) {
      if (verdict.final_zone == net::Zone::kQuarantined) {
        ++report.quarantined_devices;
      }
    }
  }
}

// --- fleet -------------------------------------------------------------------

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(const WorkloadParams& p) : params_(p) {
    options_.homes = p.tiny ? kTinyHomes : kFleetHomes;
    options_.base_seed = p.seed;
  }

  const char* item_unit() const override { return "packets"; }

  void setup() override {
    models_ = std::make_unique<GatewayModels>(options_, params_.train_seed);
    gateway_ = std::make_unique<fleet::FleetGateway>(
        models_->classifier, models_->detector, options_);
    oracle_ = gateway_->process_serial();
  }

  double run(std::size_t) override {
    last_ = gateway_->process_fleet();
    return static_cast<double>(last_.packets);
  }

  std::string check(std::size_t) override {
    return fleet::describe_divergence(last_, oracle_);
  }

  // process_fleet's three phases, serially, from the public stages.
  double run_traced(std::size_t) override {
    const std::size_t n = options_.homes;
    const double duration = options_.duration_s;
    rows_.resize(n);
    counts_.resize(n);
    fleet::FleetReport report;
    report.homes.resize(n);
    for (std::size_t h = 0; h < n; ++h) {
      {
        Span span("net.capture_gen");
        fleet::make_home_into(options_, h, capture_, arena_);
      }
      const auto gateway = home_gateway(*models_, options_, capture_);
      {
        Span span("net.extract_rows");
        rows_[h] = gateway.extract_rows(capture_.packets, duration);
      }
      {
        Span span("net.policy_counts");
        counts_[h] = gateway.policy_counts(capture_.packets, duration);
      }
      report.homes[h].devices = capture_.devices.size();
      report.homes[h].packets = capture_.packets.size();
      count("net.capture_gen.packets",
            static_cast<double>(capture_.packets.size()));
    }

    ml::Dataset all;
    for (const auto& home : rows_) {
      for (const auto& device : home) {
        for (const auto& row : device.rows) all.append(row.features, 0);
      }
    }
    std::vector<int> flat;
    if (all.size() > 0) {
      Span span("ml.predict_all");
      flat = models_->classifier.predict_all(all);
    }
    count("net.extract_rows.windows", static_cast<double>(all.size()));
    count("ml.predict_all.rows", static_cast<double>(all.size()));

    std::size_t next = 0;
    std::vector<std::vector<int>> predictions;
    for (std::size_t h = 0; h < n; ++h) {
      predictions.assign(rows_[h].size(), {});
      for (std::size_t d = 0; d < rows_[h].size(); ++d) {
        const auto rows = rows_[h][d].rows.size();
        const auto first = flat.begin() + static_cast<std::ptrdiff_t>(next);
        predictions[d].assign(first, first + static_cast<std::ptrdiff_t>(rows));
        next += rows;
      }
      net::SmartGateway gateway(models_->classifier, models_->detector,
                                options_.gateway);
      Span span("net.replay");
      report.homes[h].report =
          gateway.replay(rows_[h], predictions, counts_[h], duration);
    }
    report.windows_classified = all.size();
    add_totals(report);
    traced_ = std::move(report);
    return static_cast<double>(traced_.packets);
  }

  // The rebuild must equal process_fleet bitwise; process_fleet equals the
  // serial oracle, which the untimed run checks.
  std::string check_traced(std::size_t) override {
    auto d = fleet::describe_divergence(traced_, oracle_);
    if (d.empty() && !last_.homes.empty() &&
        traced_.windows_classified != last_.windows_classified) {
      d = "windows_classified differs from process_fleet";
    }
    return d;
  }

 private:
  WorkloadParams params_;
  fleet::FleetOptions options_;
  std::unique_ptr<GatewayModels> models_;
  std::unique_ptr<fleet::FleetGateway> gateway_;
  fleet::FleetReport oracle_, last_, traced_;
  fleet::HomeCapture capture_;
  fleet::HomeArena arena_;
  std::vector<std::vector<net::DeviceRows>> rows_;
  std::vector<std::vector<net::PolicyCounts>> counts_;
};

// --- gateway -----------------------------------------------------------------

class GatewayWorkload final : public Workload {
 public:
  explicit GatewayWorkload(const WorkloadParams& p) : params_(p) {
    options_.base_seed = p.seed;
  }

  const char* item_unit() const override { return "packets"; }

  void setup() override {
    models_ = std::make_unique<GatewayModels>(options_, params_.train_seed);
    // Captures go into one buffer reserved up front, so holding them
    // leaves no allocator holes whose size would vary with the seed.
    // Reserved but untouched pages are never resident.
    const std::size_t budget =
        params_.tiny ? kTinyGatewayPackets : kGatewayPackets;
    packets_.clear();
    packets_.reserve(2 * budget);
    homes_.clear();
    gateways_.clear();
    fleet::HomeCapture capture;
    fleet::HomeArena arena;
    while (packets_.size() < budget) {
      fleet::make_home_into(options_, homes_.size(), capture, arena);
      PMIOT_ASSERT(packets_.size() + capture.packets.size() <=
                       packets_.capacity(),
                   "gateway capture buffer too small");
      homes_.push_back({packets_.size(), capture.packets.size(),
                        capture.devices.size()});
      packets_.insert(packets_.end(), capture.packets.begin(),
                      capture.packets.end());
      gateways_.push_back(home_gateway(*models_, options_, capture));
    }
    options_.homes = homes_.size();
    const fleet::FleetGateway fleet_gateway(models_->classifier,
                                            models_->detector, options_);
    oracle_ = fleet_gateway.process_fleet();
  }

  double run(std::size_t op) override {
    const auto packets = capture(op);
    last_ = gateways_[op % homes_.size()].process(packets, options_.duration_s);
    return static_cast<double>(packets.size());
  }

  std::string check(std::size_t op) override { return compare(op, last_); }

  // SmartGateway::process's documented composition: stages 1 and 2, the
  // per-row Classifier::predict, then replay.
  double run_traced(std::size_t op) override {
    const auto packets = capture(op);
    const auto& gateway = gateways_[op % homes_.size()];
    const double duration = options_.duration_s;
    std::vector<net::DeviceRows> rows;
    std::vector<net::PolicyCounts> counts;
    {
      Span span("net.extract_rows");
      rows = gateway.extract_rows(packets, duration);
    }
    {
      Span span("net.policy_counts");
      counts = gateway.policy_counts(packets, duration);
    }
    std::vector<std::vector<int>> predictions(rows.size());
    std::size_t windows = 0;
    {
      Span span("ml.predict");
      for (std::size_t d = 0; d < rows.size(); ++d) {
        for (const auto& row : rows[d].rows) {
          predictions[d].push_back(models_->classifier.predict(row.features));
        }
        windows += rows[d].rows.size();
      }
    }
    {
      Span span("net.replay");
      traced_ = gateway.replay(rows, predictions, counts, duration);
    }
    count("net.extract_rows.windows", static_cast<double>(windows));
    count("ml.predict.rows", static_cast<double>(windows));
    count("gateway.packets", static_cast<double>(packets.size()));
    return static_cast<double>(packets.size());
  }

  std::string check_traced(std::size_t op) override {
    return compare(op, traced_);
  }

 private:
  /// Where one home's capture sits in the shared buffer.
  struct HeldHome {
    std::size_t offset = 0;
    std::size_t packets = 0;
    std::size_t devices = 0;
  };

  std::span<const net::Packet> capture(std::size_t op) const {
    const auto& home = homes_[op % homes_.size()];
    return std::span<const net::Packet>(packets_).subspan(home.offset,
                                                          home.packets);
  }

  std::string compare(std::size_t op, const net::GatewayReport& report) const {
    const std::size_t h = op % homes_.size();
    const auto& expected = oracle_.homes[h];
    fleet::HomeOutcome got;
    got.devices = homes_[h].devices;
    got.packets = homes_[h].packets;
    got.report = report;
    return fleet::describe_divergence(single_home(std::move(got)),
                                      single_home(expected));
  }

  WorkloadParams params_;
  fleet::FleetOptions options_;
  std::unique_ptr<GatewayModels> models_;
  std::vector<net::Packet> packets_;
  std::vector<HeldHome> homes_;
  std::vector<net::SmartGateway> gateways_;
  fleet::FleetReport oracle_;
  net::GatewayReport last_, traced_;
};

// --- campaign ----------------------------------------------------------------

// Seed-chain salts for the traced rebuild; the library's own chains are
// private, so the rebuild draws different (equally deterministic) inputs.
constexpr std::uint64_t kRebuildTraceSalt = 0x7e1;
constexpr std::uint64_t kRebuildBaselineSalt = 0x7e2;
constexpr std::uint64_t kRebuildPointSalt = 0x7e3;

class CampaignWorkload final : public Workload {
 public:
  explicit CampaignWorkload(const WorkloadParams& p) : params_(p) {
    config_.base_seed = p.seed;
    // Per-home cost varies with the household; 32 homes per archetype
    // keeps the grid's cost close from one seed to the next.
    config_.homes_per_archetype = p.tiny ? 1 : 32;
    if (p.tiny) config_.days = 1;
    options_.checkpoint_path =
        p.scratch_dir + "/campaign_" + std::to_string(p.seed) + ".pmiotcp";
    for (const auto& attack : config_.attacks) {
      leakage_spans_.push_back("core.leakage." + attack);
    }
  }

  const char* item_unit() const override { return "cells"; }

  void setup() override { oracle_ = campaign::run_campaign_serial_oracle(config_); }

  double run(std::size_t) override {
    last_ = campaign::run_campaign(config_, options_);
    return static_cast<double>(last_.cells_evaluated);
  }

  std::string check(std::size_t) override {
    return campaign::describe_divergence(last_, oracle_);
  }

  // run_campaign's cached plan (phase 1 per home, phase 2 per cell, a
  // checkpoint append per home), serially, from the public stages.
  double run_traced(std::size_t) override {
    const campaign::CampaignPlan plan(config_);
    const auto evaluator = campaign::make_evaluator(config_);
    std::vector<std::unique_ptr<core::Defense>> defenses;
    for (const auto& name : config_.defenses) {
      defenses.push_back(campaign::make_defense(name));
    }
    const std::size_t A = plan.archetypes(), H = plan.homes();
    const std::size_t D = plan.defenses(), I = plan.intensities();
    const std::size_t P = plan.payload_doubles();
    const auto& attacks = evaluator.attacks();
    const std::uint64_t base = config_.base_seed;

    std::vector<double> payload(D * I * P);
    std::uint64_t cells = 0;
    auto writer = std::make_unique<campaign::CheckpointWriter>(
        options_.checkpoint_path, plan, campaign::config_hash(config_), base);
    for (std::size_t a = 0; a < A; ++a) {
      for (std::size_t h = 0; h < H; ++h) {
        const std::uint64_t home_key = a * H + h;
        Rng sim_rng(par::shard_seed(par::shard_seed(base, kRebuildTraceSalt),
                                    home_key));
        synth::HomeTrace trace;
        {
          Span span("synth.simulate_home");
          trace = synth::simulate_home(
              campaign::archetype_home(config_.archetypes[a], a, h, base),
              CivilDate{2017, 6, 5}, config_.days, sim_rng);
        }
        std::vector<std::unique_ptr<core::AttackModel>> models;
        {
          Span span("core.fit_models");
          models = evaluator.fit_models(trace);
        }
        count("campaign.models_fitted", static_cast<double>(models.size()));
        std::vector<core::UtilityBaseline> baselines(D);
        for (std::size_t d = 0; d < D; ++d) {
          Rng rng(par::shard_seed(par::shard_seed(base, kRebuildBaselineSalt),
                                  home_key * D + d));
          Span span("core.baseline");
          baselines[d] = evaluator.baseline(*defenses[d], trace, rng);
        }
        for (std::size_t d = 0; d < D; ++d) {
          for (std::size_t i = 0; i < I; ++i) {
            double* out = payload.data() + (d * I + i) * P;
            Rng rng(par::shard_seed(par::shard_seed(base, kRebuildPointSalt),
                                    (home_key * D + d) * I + i));
            core::DefenseOutcome outcome;
            {
              Span span("defense.apply");
              outcome = defenses[d]->apply(trace, config_.intensities[i], rng);
            }
            {
              Span span("core.utility");
              out[0] = defense::billing_error(baselines[d].outcome.released,
                                              outcome.released);
              const auto hourly = outcome.released.resample(3600);
              out[1] = baselines[d].mean_level > 0.0
                           ? stats::rmse(baselines[d].hourly.values(),
                                         hourly.values()) /
                                 baselines[d].mean_level
                           : 0.0;
            }
            out[2] = outcome.extra_energy_kwh;
            for (std::size_t k = 0; k < attacks.size(); ++k) {
              Span span(leakage_spans_[k].c_str());
              out[3 + k] = attacks[k]->leakage_with(models[k].get(),
                                                    outcome.released, trace);
            }
            ++cells;
          }
        }
        Span span("campaign.checkpoint.append");
        for (std::size_t u = 0; u < D * I; ++u) {
          writer->append(plan.cell_id({a, h, u / I, u % I}),
                         std::span<const double>(payload.data() + u * P, P));
        }
        writer->flush();
      }
    }
    writer.reset();  // closes the file
    count("campaign.checkpoint.bytes",
          static_cast<double>(
              std::filesystem::file_size(options_.checkpoint_path)));
    count("campaign.cells", static_cast<double>(cells));
    return static_cast<double>(cells);
  }

  std::string check_traced(std::size_t) override { return ""; }

 private:
  WorkloadParams params_;
  campaign::CampaignConfig config_;
  campaign::RunOptions options_;
  campaign::CampaignResult oracle_, last_;
  std::vector<std::string> leakage_spans_;
};

// --- arena -------------------------------------------------------------------

constexpr std::uint64_t kRebuildTrainHomeSalt = 0x7f1;
constexpr std::uint64_t kRebuildTestHomeSalt = 0x7f2;
constexpr std::uint64_t kRebuildCellSalt = 0x7f3;
constexpr std::uint64_t kRebuildPretrainedSalt = 0x7f4;

// Operation i runs the grid at seed `seed + i % window`, so the inputs a
// run covers depend on its seed and not on how many operations fit into
// its time. The full panel's window is the twelve seeds the known-defect
// repro names (2018-2029 at the default seed); the kNN-only window is
// shorter because its oracles are computed in set-up, three times a run.
// The kNN-only workload also splits each grid into one operation per
// defense (that defense's row of intensities), so that the loop's
// host-speed calibration runs every few hundred milliseconds rather than
// once per 1.3 s grid.
constexpr std::size_t kArenaWindow = 12;
constexpr std::size_t kArenaKnnWindow = 4;
constexpr std::size_t kTinyArenaWindow = 2;

class ArenaWorkload final : public Workload {
 public:
  /// `knn_only` restricts the attack panel to "adaptive-knn", the one
  /// attack that fits no decision tree.
  ArenaWorkload(const WorkloadParams& p, bool knn_only)
      : params_(p),
        window_(p.tiny       ? kTinyArenaWindow
                : knn_only ? kArenaKnnWindow
                           : kArenaWindow),
        split_(knn_only) {
    if (knn_only) options_.attacks = {"adaptive-knn"};
    if (p.tiny) {
      options_.duration_s = 1200.0;
      options_.intensities = {0.0, 1.0};
    }
    if (options_.attacks.empty()) {
      panel_ = net::fingerprint_attacks();
    } else {
      for (const auto& name : options_.attacks) {
        panel_.push_back(net::make_fingerprint_attack(name));
      }
    }
  }

  const char* item_unit() const override { return "cells"; }

  // The oracle for every distinct operation. One at which the oracle
  // itself throws (the known tree defect) keeps no result, and an
  // operation that completes there counts as a mismatch.
  void setup() override {
    oracles_.assign(inputs(), std::nullopt);
    for (std::size_t k = 0; k < inputs(); ++k) {
      try {
        oracles_[k] = net::run_arena_serial(options_at(k));
      } catch (const std::exception&) {
      }
    }
  }

  double run(std::size_t op) override {
    last_ = net::run_arena(options_at(op));
    return static_cast<double>(last_.cells.size());
  }

  std::string check(std::size_t op) override {
    const auto& oracle = oracles_[op % inputs()];
    if (!oracle) return "run_arena_serial threw on this input";
    return net::describe_divergence(last_, *oracle);
  }

  // run_arena's prepare + per-cell scoring, serially, from the public calls.
  double run_traced(std::size_t op) override {
    const auto o = options_at(op);
    Rng train_rng(par::shard_seed(o.seed, kRebuildTrainHomeSalt));
    Rng test_rng(par::shard_seed(o.seed, kRebuildTestHomeSalt));
    net::HomeNetwork train_home, test_home;
    {
      Span span("net.capture_gen");
      train_home = net::simulate_home_network(o.train_instances_per_type,
                                              o.duration_s, train_rng);
      test_home = net::simulate_home_network(o.test_instances_per_type,
                                             o.duration_s, test_rng);
    }
    const auto raw_train = window_table(train_home.packets, train_home, o);

    const std::size_t cells = o.defenses.size() * o.intensities.size();
    for (std::size_t cell = 0; cell < cells; ++cell) {
      const auto defense =
          net::make_traffic_defense(o.defenses[cell / o.intensities.size()]);
      const double intensity = o.intensities[cell % o.intensities.size()];
      const auto cell_seed =
          par::shard_seed(par::shard_seed(o.seed, kRebuildCellSalt), cell);
      Rng shape_train_rng(par::shard_seed(cell_seed, 0));
      Rng shape_test_rng(par::shard_seed(cell_seed, 1));
      net::ShapedCapture shaped_train, shaped_test;
      {
        Span span("net.shaping.apply");
        shaped_train = defense->apply(train_home, o.duration_s, intensity,
                                      shape_train_rng);
        shaped_test = defense->apply(test_home, o.duration_s, intensity,
                                     shape_test_rng);
      }
      count("net.shaping.packets_in",
            static_cast<double>(train_home.packets.size() +
                                test_home.packets.size()));
      count("net.shaping.packets_out",
            static_cast<double>(shaped_train.packets.size() +
                                shaped_test.packets.size()));
      const auto train_table = window_table(shaped_train.packets, train_home, o);
      const auto test_table = window_table(shaped_test.packets, test_home, o);
      for (std::size_t a = 0; a < panel_.size(); ++a) {
        const auto seed = panel_[a].adaptive
                              ? par::shard_seed(cell_seed, 2 + a)
                              : par::shard_seed(o.seed, kRebuildPretrainedSalt);
        fit_and_query(panel_[a], panel_[a].adaptive ? train_table : raw_train,
                      test_table, seed);
      }
    }
    return static_cast<double>(cells);
  }

  std::string check_traced(std::size_t) override { return ""; }

 private:
  /// Per-window features of every roster device over a capture's WAN view.
  struct WindowTable {
    std::vector<std::vector<double>> base, ext;
    std::vector<bool> silent;
    std::vector<int> label;
  };

  /// Distinct operations: one per seed of the window, or per (seed,
  /// defense) when grids are split by defense.
  std::size_t inputs() const {
    return split_ ? window_ * options_.defenses.size() : window_;
  }

  /// Split: operation i runs defense i mod D at seed `seed + (i / D) mod
  /// window`.
  net::ArenaOptions options_at(std::size_t op) const {
    auto options = options_;
    if (!split_) {
      options.seed = params_.seed + op % window_;
      return options;
    }
    const std::size_t defenses = options_.defenses.size();
    options.seed = params_.seed + (op / defenses) % window_;
    options.defenses = {options_.defenses[op % defenses]};
    return options;
  }

  WindowTable window_table(const std::vector<net::Packet>& packets,
                           const net::HomeNetwork& home,
                           const net::ArenaOptions& o) {
    std::vector<net::Packet> wan;
    {
      Span span("net.wan_view");
      wan = net::wan_view(packets);
    }
    // A WAN packet has one LAN endpoint, so it lands in at most one bucket.
    const auto& roster = home.devices;
    std::unordered_map<std::uint32_t, std::size_t> index;
    for (std::size_t d = 0; d < roster.size(); ++d) index.emplace(roster[d].ip, d);
    std::vector<std::vector<net::Packet>> buckets(roster.size());
    for (const auto& p : wan) {
      auto it = index.find(p.src_ip);
      if (it == index.end()) it = index.find(p.dst_ip);
      if (it != index.end()) buckets[it->second].push_back(p);
    }
    WindowTable table;
    for (std::size_t d = 0; d < roster.size(); ++d) {
      std::vector<net::WindowRow> rows;
      {
        Span span("net.windowed_features");
        rows = net::windowed_features(buckets[d], roster[d].ip, o.duration_s,
                                      o.window_s, /*keep_idle_windows=*/true);
      }
      for (auto& row : rows) {
        const double t0 = static_cast<double>(row.window_index) * o.window_s;
        std::vector<double> recovery;
        {
          Span span("net.recovery_features");
          recovery = net::extract_recovery_features(buckets[d], roster[d].ip,
                                                    t0, t0 + o.window_s);
        }
        auto ext = row.features;
        ext.insert(ext.end(), recovery.begin(), recovery.end());
        table.silent.push_back(row.features[net::kFeaturePktRateUp] == 0.0 &&
                               row.features[net::kFeaturePktRateDown] == 0.0);
        table.base.push_back(std::move(row.features));
        table.ext.push_back(std::move(ext));
        table.label.push_back(static_cast<int>(roster[d].type));
      }
    }
    return table;
  }

  // The attack's fit and batched query, as run_arena makes them per cell;
  // the rebuild keeps no scores.
  void fit_and_query(const net::SupervisedFingerprintAttack& attack,
                     const WindowTable& train_table, const WindowTable& test,
                     std::uint64_t seed) {
    ml::Dataset train, query;
    for (std::size_t i = 0; i < train_table.label.size(); ++i) {
      if (train_table.silent[i]) continue;
      train.append(attack.recovery ? train_table.ext[i] : train_table.base[i],
                   train_table.label[i]);
    }
    for (std::size_t i = 0; i < test.label.size(); ++i) {
      if (test.silent[i]) continue;
      query.append(attack.recovery ? test.ext[i] : test.base[i],
                   test.label[i]);
    }
    if (train.size() < 2 || query.size() == 0) return;
    std::unique_ptr<ml::Classifier> model;
    if (attack.backend == net::SupervisedFingerprintAttack::Backend::kKnn) {
      ml::StandardScaler scaler;
      scaler.fit(train);
      scaler.transform_in_place(train);
      scaler.transform_in_place(query);
      model = std::make_unique<ml::KnnClassifier>(5);
    } else {
      model = std::make_unique<ml::RandomForest>(ml::ForestOptions{}, seed);
    }
    {
      Span span("ml.fit");
      model->fit(train);
    }
    count("arena.fits", 1.0);
    // A pre-trained attack refits the same model from the same raw
    // windows and seed in every cell.
    if (!attack.adaptive) count("arena.repeat_fits", 1.0);
    {
      Span span("ml.predict_all");
      model->predict_all(query);
    }
    count("ml.predict_all.rows", static_cast<double>(query.size()));
  }

  WorkloadParams params_;
  std::size_t window_;
  bool split_;  ///< one operation per defense rather than per grid
  net::ArenaOptions options_;
  std::vector<net::SupervisedFingerprintAttack> panel_;
  std::vector<std::optional<net::ArenaResult>> oracles_;
  net::ArenaResult last_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadParams& params) {
  if (name == "fleet") return std::make_unique<FleetWorkload>(params);
  if (name == "gateway") return std::make_unique<GatewayWorkload>(params);
  if (name == "campaign") return std::make_unique<CampaignWorkload>(params);
  if (name == "arena") return std::make_unique<ArenaWorkload>(params, false);
  if (name == "arena-knn") return std::make_unique<ArenaWorkload>(params, true);
  return nullptr;
}

}  // namespace perfbench
