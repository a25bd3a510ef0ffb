// Single-pass streaming feature extraction for the smart gateway.
//
// A per-window rescan of the capture for each device is an
// O(devices × windows × packets) pattern that cannot keep up with line-rate
// traffic (the paper's §IV gateway fingerprints every device
// continuously). The accumulator reads a home's capture once, in timestamp
// order: each packet is checked once and routed, through a `DeviceSlots`
// lookup, to the per-device state of its source and destination. That
// state is incremental (counts, byte sums, Welford mean/variance of packet
// sizes, distinct remote/port trackers, a count-only flow index, burst
// buckets), is reset in place when a window closes, and yields a finished
// feature vector per device every time a window boundary passes.
//
// The output is bit-for-bit identical to the per-window rescan reference in
// the test-support library (tests/support/net_oracles.h), called for each
// device on each window [k·w, (k+1)·w) of the same sorted capture: both apply the same arithmetic to the same
// packets in the same order. Randomized property tests in net_test and
// net_shaping_test, `bench/streaming_features` and the
// `bench/net_defense_arena --self-check` enforce the equivalence.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/features.h"
#include "net/packet.h"

namespace pmiot::net {

/// Number of full windows in [0, duration_s]: window k is full when
/// (k + 1) * window_s <= duration_s, computed with the same products the
/// accumulator uses for window ends. Throws `InvalidArgument` for a
/// non-finite duration, a non-positive or non-finite window, or 2^52 or
/// more windows (past which window numbers are not exact in doubles).
std::size_t full_window_count(double duration_s, double window_s);

/// Streaming feature extractor for a roster of devices over consecutive
/// windows of `window_s` seconds, aligned at t = 0. Feed the home's packets
/// in non-decreasing timestamp order via `add` (packets involving no
/// roster device are checked and skipped), then call `finish` once.
class WindowAccumulator {
 public:
  /// `device_ips` is the roster; rows come back in its order, and an
  /// address listed twice throws `InvalidArgument`.
  /// `keep_idle_windows`: emit an all-zero row for windows with no device
  /// traffic instead of skipping them. Either way `WindowRow::window_index`
  /// is the wall-clock window number, so rows never silently shift.
  /// `router_ip` is the gateway's own address, excluded from both the
  /// LAN-peer and remote tallies.
  WindowAccumulator(std::span<const std::uint32_t> device_ips,
                    double window_s, bool keep_idle_windows = false,
                    std::uint32_t router_ip = kDefaultRouterIp);
  ~WindowAccumulator();

  /// Ingests one packet. Timestamps must be finite and non-decreasing;
  /// anything else (NaN, ±inf, a step backwards) throws `InvalidArgument`.
  /// The packet counts for its source device (upstream) and for its
  /// destination device (downstream); a packet a device sends to itself
  /// counts once, as upstream. `add` closes the windows before the packet's
  /// one by one, so its cost grows with the gap a timestamp jumps: a caller
  /// that knows its duration (as `windowed_features` does) should not feed
  /// packets at or past the last full window, whose windows `finish`
  /// discards anyway.
  void add(const Packet& packet);

  /// Closes every window whose end lies within [0, duration_s] and returns
  /// each device's rows in window order, one vector per roster entry.
  /// Windows already opened past `duration_s` (trailing partial traffic)
  /// are discarded, mirroring `windowed_features`' full-window semantics.
  /// Terminal: call once.
  std::vector<std::vector<WindowRow>> finish(double duration_s);

 private:
  /// One device's state for the open window (defined with the
  /// accumulator's code).
  struct Device;

  void close_window();
  void emit(Device& device);

  DeviceSlots slots_;
  std::vector<Device> devices_;
  double window_s_;
  bool keep_idle_windows_;
  std::uint32_t router_ip_;
  std::size_t num_buckets_;
  std::size_t current_ = 0;   ///< index of the open window
  double window_end_;         ///< (current_ + 1) * window_s_
  double last_timestamp_ = 0.0;
  std::vector<double> iats_;  ///< scratch for the IAT features
};

}  // namespace pmiot::net
