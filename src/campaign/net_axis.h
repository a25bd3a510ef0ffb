// Network axis for the campaign layer: the traffic-reshaping arena grid
// (`net::ArenaOptions`, net/arena.h) read and written with the energy
// campaign's config discipline — the shared `key = value` grammar
// (common/kv_config.h), a canonical serialization, an FNV-stamped hash,
// and a byte-stable frontier CSV.
//
// The grid is not a field of `CampaignConfig`: that struct's canonical
// text is stamped into every existing checkpoint header, so growing it
// would orphan all prior checkpoints. `bench/net_defense_arena` is the
// consumer.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "net/arena.h"

namespace pmiot::campaign {

/// Parses an arena grid in the shared `key = value` grammar. Keys:
/// defenses, attacks, intensities, train_instances, test_instances,
/// duration_s, window_s, seed (-> `ArenaOptions::seed`); omitted keys keep
/// the `ArenaOptions` defaults. The result passes
/// `net::validate_arena_options`. Throws InvalidArgument on an unknown
/// key, a malformed line or value, a signed integer, an integer its field
/// cannot hold (instances above INT_MAX, a seed above 2^64-1), a
/// non-finite number (`duration_s = inf`), a repeated list item (for
/// intensities compared as values), or a grid the validation refuses
/// (`window_s = 1e-300`: more windows than `net::full_window_count`
/// allows).
net::ArenaOptions parse_net_config(const std::string& text);

/// Canonical serialization; parse_net_config(canonical_net_text(o)) == o.
std::string canonical_net_text(const net::ArenaOptions& options);

/// FNV-1a 64 over `canonical_net_text`, for artifact provenance stamps.
std::uint64_t net_config_hash(const net::ArenaOptions& options);

/// Writes the network frontier CSV: one row per (defense, intensity) cell
/// with the §III-E readout — utility columns (added bytes fraction, mean
/// added latency) and privacy columns (strongest naive / adaptive MCC,
/// then each panel attack's MCC in panel order). Round-trip float
/// formatting: equal results produce byte-identical files.
void write_net_frontier_csv(std::ostream& os,
                            const net::ArenaOptions& options,
                            const net::ArenaResult& result);

}  // namespace pmiot::campaign
