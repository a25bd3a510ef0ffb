// Single-pass streaming feature extraction for the smart gateway.
//
// `extract_window_features` rescans the whole capture once per window, an
// O(windows × packets) pattern that cannot keep up with line-rate traffic
// (the paper's §IV gateway fingerprints devices continuously). The
// accumulator ingests each packet exactly once, in timestamp order, keeps
// incremental per-window state (counts, byte sums, Welford mean/variance of
// packet sizes, distinct remote/port trackers, a per-window flow table,
// burst buckets),
// and emits a finished feature vector every time a window boundary passes.
//
// The output is bit-for-bit identical to calling `extract_window_features`
// on each window [k·w, (k+1)·w) of the same sorted capture: both paths
// apply the same arithmetic to the same packets in the same order (the
// equivalence is enforced by a randomized property test in net_test).
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "net/features.h"
#include "net/packet.h"

namespace pmiot::net {

/// Number of full windows in [0, duration_s]: window k is full when
/// (k + 1) * window_s <= duration_s, computed with the same products the
/// accumulator uses for window ends. Throws `InvalidArgument` for a
/// non-finite duration, a non-positive or non-finite window, or 2^52 or
/// more windows (past which window numbers are not exact in doubles).
std::size_t full_window_count(double duration_s, double window_s);

/// Streaming one-device feature extractor over consecutive windows of
/// `window_s` seconds, aligned at t = 0. Feed packets in non-decreasing
/// timestamp order via `add` (the whole capture is fine — other devices'
/// packets are ignored), then call `finish` once.
class WindowAccumulator {
 public:
  /// `keep_idle_windows`: emit an all-zero row for windows with no device
  /// traffic instead of skipping them. Either way `WindowRow::window_index`
  /// is the wall-clock window number, so rows never silently shift.
  /// `router_ip` mirrors `extract_window_features`: the gateway's own
  /// address, excluded from both the LAN-peer and remote tallies.
  WindowAccumulator(std::uint32_t device_ip, double window_s,
                    bool keep_idle_windows = false,
                    std::uint32_t router_ip = kDefaultRouterIp);

  /// Ingests one packet. Timestamps must be finite and non-decreasing;
  /// anything else (NaN, ±inf, a step backwards) throws `InvalidArgument`.
  /// Packets with a negative timestamp or not involving the device are
  /// ignored (after window bookkeeping). `add` closes the windows before
  /// the packet's one by one, so its cost grows with the gap a timestamp
  /// jumps: a caller that knows its duration (as `windowed_features` does)
  /// should not feed packets at or past the last full window, whose
  /// windows `finish` discards anyway.
  void add(const Packet& packet);

  /// Closes every window whose end lies within [0, duration_s] and returns
  /// the emitted rows in window order. Windows already opened past
  /// `duration_s` (trailing partial traffic) are discarded, mirroring
  /// `windowed_features`' full-window semantics. Terminal: call once.
  std::vector<WindowRow> finish(double duration_s);

 private:
  /// Per-window incremental state; reset on every window close.
  struct State {
    FlowTable flow_table;
    stats::Accumulator up_size, down_size;
    std::vector<double> up_times;
    double up_bytes = 0.0, down_bytes = 0.0;
    std::size_t udp = 0, total = 0, lan_pkts = 0, dns = 0;
    // Distinct peers/ports; only counts are read, so flat vectors with a
    // linear membership check (windows see a handful of each).
    std::vector<std::uint32_t> remotes;
    std::vector<std::uint16_t> ports;
    std::vector<std::size_t> buckets;

    explicit State(std::size_t num_buckets) : buckets(num_buckets, 0) {}
  };

  void close_window();

  std::uint32_t device_ip_;
  double window_s_;
  bool keep_idle_windows_;
  std::uint32_t router_ip_;
  std::size_t num_buckets_;
  std::size_t current_ = 0;   ///< index of the open window
  double window_end_;         ///< (current_ + 1) * window_s_
  double last_timestamp_ = 0.0;
  State state_;
  std::vector<WindowRow> rows_;
};

}  // namespace pmiot::net
