// Traffic features for device fingerprinting and anomaly detection.
//
// The paper's §IV calls for classifying devices "based on their typical
// traffic patterns ... frequency of transmission, the amount of data they
// transmit, and where those transmissions are directed". The feature vector
// captures exactly those three axes per device per observation window.
//
// One extraction path: `windowed_features` drives a `WindowAccumulator`
// (window_accumulator.h) through one pass over a home's capture for every
// window of every device. The readable per-window rescan it must match bit
// for bit lives in the test-support library (tests/support/net_oracles.h),
// next to the property tests and self-checks that compare the two.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/packet.h"

namespace pmiot::net {

/// Names of the features in every `WindowRow::features`, in order.
const std::vector<std::string>& feature_names();

/// Positions of the features that policy code reads by index (the gateway's
/// evidence gate sums the two packet rates). Each constant is validated
/// against `feature_names()` by `check_feature_layout`, so reordering the
/// feature vector cannot silently misroute the policy inputs.
inline constexpr std::size_t kFeaturePktRateUp = 0;    ///< "pkt_rate_up"
inline constexpr std::size_t kFeaturePktRateDown = 1;  ///< "pkt_rate_down"

/// Asserts that the kFeature* indices above still name the features they
/// claim to (throws InternalError on drift). Called at gateway startup.
void check_feature_layout();

/// The router identity the extractors assume when the caller does not pass
/// one (10.0.0.1, the default `GatewayOptions::router_ip`). Kept as a named
/// constant so the default-path output is pinned, not incidental.
inline constexpr std::uint32_t kDefaultRouterIp = (10u << 24) | 1u;

/// One window's feature vector, tagged with its wall-clock window number
/// (window k covers [k * window_s, (k+1) * window_s)), so downstream code
/// can align rows with time even when idle windows are omitted.
struct WindowRow {
  std::size_t window_index = 0;
  std::vector<double> features;
};

/// Splits a home's capture into consecutive `window_s`-second windows and
/// extracts one feature row per window for each device in `device_ips`, in
/// a single pass over the packets (which must be sorted by timestamp — see
/// `sort_by_time`). Returns one row vector per device, in roster order.
/// By default windows with no device traffic are omitted; their indices are
/// still consumed, so `window_index` always reflects wall-clock position.
/// With `keep_idle_windows` every window is returned (idle ones all-zero).
/// `router_ip` is the gateway's own address: traffic to/from it is neither
/// a LAN peer (`lan_fraction`) nor a remote (`distinct_remotes`). Deployments
/// with a non-default `GatewayOptions::router_ip` must thread it through, or
/// the router is miscounted as an ordinary LAN peer.
/// Throws `InvalidArgument` for a roster that lists an address twice, for
/// fewer than one full window, and for timestamps that are not finite or
/// not in order; packets at or past the last full window are checked but
/// not counted. An empty roster yields no rows and leaves the capture
/// unread.
std::vector<std::vector<WindowRow>> windowed_features(
    std::span<const Packet> packets, std::span<const std::uint32_t> device_ips,
    double duration_s, double window_s, bool keep_idle_windows = false,
    std::uint32_t router_ip = kDefaultRouterIp);

/// The one-device case of the roster form above.
std::vector<WindowRow> windowed_features(std::span<const Packet> packets,
                                         std::uint32_t device_ip,
                                         double duration_s, double window_s,
                                         bool keep_idle_windows = false,
                                         std::uint32_t router_ip =
                                             kDefaultRouterIp);

}  // namespace pmiot::net
