// Population-scale privacy campaigns (ROADMAP item 5).
//
// The paper's §III-E methodology is a knob sweep producing one home's
// privacy-vs-utility frontier; the surveys it motivated (see PAPERS.md)
// frame evaluation at fleet granularity instead — thousands of
// heterogeneous homes. This module runs that cartesian:
//
//     {defense} x {intensity} x {attack} x {home archetype} x {home}
//
// over shard-seeded synthetic homes on `pmiot::par`, with the perf
// architecture that makes population scale affordable:
//
//  * Work-unit planner — cells sharing a home prefix are grouped so the
//    synthetic trace, the fitted attack models (forest/kNN fits dominate a
//    naive sweep), and the per-defense utility baselines are computed once
//    per home and reused across every (defense, intensity, attack) cell.
//  * Deterministic sharding — every cell's randomness derives from
//    `par::shard_seed` chains over (archetype, home, defense, intensity),
//    never from execution order, so cached, cache-disabled, sharded, and
//    serial-oracle runs are all bitwise identical at any PMIOT_THREADS.
//  * Checkpoint/resume — completed cells stream to an append-only binary
//    checkpoint (see checkpoint.h); a killed run resumes and finishes
//    bitwise identically to an uninterrupted one.
//
// `bench/campaign --self-check` proves the equalities; DESIGN.md documents
// the planner and the merge-determinism policy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/privacy.h"
#include "synth/home.h"

namespace pmiot::campaign {

// --- Configuration ----------------------------------------------------------

/// The campaign grid. Axis order is load-bearing: cell ids enumerate
/// archetype-major, then home, defense, intensity (attacks are payload
/// columns, not cells — every attack scores every released trace).
struct CampaignConfig {
  std::vector<std::string> archetypes{"commuter", "family", "wfh"};
  std::vector<std::string> defenses{"smoothing", "noise", "battery"};
  std::vector<std::string> attacks{"occupancy", "appliances", "forest"};
  std::vector<double> intensities{0.0, 0.25, 0.5, 0.75, 1.0};
  std::size_t homes_per_archetype = 16;
  int days = 3;                    ///< horizon per home (1-minute samples)
  std::uint64_t base_seed = 2017;  ///< root of every shard-seed chain
  std::size_t block_homes = 32;    ///< homes resident per planner block
};

/// Parses the campaign config in the shared `key = value` grammar
/// (common/kv_config.h: one pair per line, '#' comments, comma lists):
///
///     archetypes = commuter, family, wfh
///     defenses   = smoothing, noise, battery
///     attacks    = occupancy, appliances, forest
///     intensities = 0, 0.25, 0.5, 0.75, 1
///     homes = 64
///     days = 3
///     seed = 2017
///     block_homes = 32
///
/// Omitted keys keep their defaults. Throws InvalidArgument on an unknown
/// key, a malformed line or value, a signed integer (`seed = -1`), an
/// integer its field cannot hold (`homes` above 2^64-1, `days` above
/// INT_MAX), a non-finite number, a repeated list item (for intensities
/// compared as values: `0, 0.5, 0.5`), or a grid whose cell count or
/// `cells x payload_doubles` would overflow.
CampaignConfig parse_config(const std::string& text);

/// The canonical config serialization (stable key order, shortest
/// round-trip float formatting). parse_config(canonical_text(c)) == c.
std::string canonical_text(const CampaignConfig& config);

/// FNV-1a 64 over `canonical_text`. Stamped into checkpoint headers so a
/// resume against a different grid is rejected instead of merged.
std::uint64_t config_hash(const CampaignConfig& config);

// --- Registries -------------------------------------------------------------

/// Deterministic per-home config for one archetype member: the archetype
/// fixes the household shape (commuter couple / family / work-from-home)
/// and a `shard_seed(base_seed, archetype, home)` chain jitters habits and
/// appliance rosters per home. Known archetypes: "commuter", "family",
/// "wfh"; anything else throws InvalidArgument.
synth::HomeConfig archetype_home(const std::string& archetype,
                                 std::size_t archetype_index,
                                 std::size_t home_index,
                                 std::uint64_t base_seed);

/// Defense registry: "smoothing", "noise", "battery", "chpr".
std::unique_ptr<core::Defense> make_defense(const std::string& name);

/// Attack registry: "occupancy" (threshold NIOM), "appliances" (PowerPlay
/// NILM), "knn" / "forest" (supervised occupancy attackers whose per-home
/// fit is the cost the campaign cache amortizes).
std::unique_ptr<core::Attack> make_attack(const std::string& name);

/// Evaluator over `config.attacks`, in config order.
core::PrivacyEvaluator make_evaluator(const CampaignConfig& config);

// --- The plan ---------------------------------------------------------------

/// A cell's coordinates on the grid.
struct CellRef {
  std::size_t archetype = 0;
  std::size_t home = 0;
  std::size_t defense = 0;
  std::size_t intensity = 0;
};

/// Dense cell numbering over the grid (construction throws InvalidArgument
/// when the config is invalid or the cell count overflows):
///   cell_id = ((archetype * H + home) * D + defense) * I + intensity
/// Cells of one home are contiguous, so the planner's home-major blocks
/// checkpoint in monotonically increasing cell order.
class CampaignPlan {
 public:
  explicit CampaignPlan(const CampaignConfig& config);

  std::uint64_t total_cells() const noexcept { return total_cells_; }
  std::uint64_t cell_id(const CellRef& ref) const noexcept;
  CellRef decode(std::uint64_t cell_id) const noexcept;

  /// Doubles per cell: billing_error, analytics_error, extra_energy_kwh,
  /// then one leakage per attack in config order.
  std::size_t payload_doubles() const noexcept { return payload_doubles_; }

  std::size_t archetypes() const noexcept { return archetypes_; }
  std::size_t homes() const noexcept { return homes_; }
  std::size_t defenses() const noexcept { return defenses_; }
  std::size_t intensities() const noexcept { return intensities_; }

 private:
  std::size_t archetypes_, homes_, defenses_, intensities_;
  std::size_t payload_doubles_;
  std::uint64_t total_cells_;
};

// --- Running ----------------------------------------------------------------

struct RunOptions {
  /// Reuse per-home traces / fitted models / baselines across the home's
  /// cells. Disabling recomputes everything per cell — the anti-
  /// amortization reference the bench times the cache against. Results are
  /// bitwise identical either way.
  bool use_cache = true;
  /// Stream completed cells to this checkpoint file ("" = no checkpoint).
  std::string checkpoint_path;
  /// Load `checkpoint_path` first and skip its completed cells. A missing
  /// or empty file is a fresh start, not an error.
  bool resume = false;
  /// Stop (flush + return partial result) after this many newly evaluated
  /// cells; 0 = run to completion. Lets tests interrupt a run at an exact
  /// point without killing the process.
  std::uint64_t max_new_cells = 0;
};

/// One finished (or interrupted) campaign. `values` is the dense payload
/// matrix, `total_cells x payload_doubles`, indexed by cell id.
struct CampaignResult {
  CampaignConfig config;
  std::vector<double> values;
  std::vector<std::uint8_t> done;       ///< per cell: payload valid
  std::uint64_t cells_evaluated = 0;    ///< computed this run
  std::uint64_t cells_resumed = 0;      ///< loaded from the checkpoint
};

/// Runs the campaign on `pmiot::par` with the planner described above.
CampaignResult run_campaign(const CampaignConfig& config,
                            const RunOptions& options = {});

/// Serial oracle: plain nested loops, one cell at a time, no thread pool,
/// no planner, no checkpoint. The self-check bench asserts run_campaign()
/// matches this bitwise.
CampaignResult run_campaign_serial_oracle(const CampaignConfig& config);

/// Empty when the two results are identical (doubles compared bitwise);
/// otherwise a one-line description of the first divergence.
std::string describe_divergence(const CampaignResult& a,
                                const CampaignResult& b);

// --- The frontier artifact --------------------------------------------------

/// One per-archetype knob-curve point: payload means over the archetype's
/// homes (accumulated in home order, so the means are schedule-independent).
struct FrontierRow {
  std::size_t archetype = 0;
  std::size_t defense = 0;
  double intensity = 0.0;
  double billing_error = 0.0;
  double analytics_error = 0.0;
  double extra_energy_kwh = 0.0;
  std::vector<double> leakage;  ///< per attack, config order
};

/// Aggregates a complete result into frontier rows (archetype-major, then
/// defense, then intensity). Requires every cell done.
std::vector<FrontierRow> build_frontier(const CampaignResult& result);

/// Writes the frontier CSV artifact (round-trip float formatting, so equal
/// results produce byte-identical files).
void write_frontier_csv(std::ostream& os, const CampaignConfig& config,
                        const std::vector<FrontierRow>& rows);

}  // namespace pmiot::campaign
