// Traffic features for device fingerprinting and anomaly detection.
//
// The paper's §IV calls for classifying devices "based on their typical
// traffic patterns ... frequency of transmission, the amount of data they
// transmit, and where those transmissions are directed". The feature vector
// captures exactly those three axes per device per observation window.
//
// Two extraction paths produce identical results:
//   * `extract_window_features` — the readable reference: rescans the
//     packet span for one device and one window.
//   * `WindowAccumulator` (window_accumulator.h) — the streaming path used
//     by `windowed_features` and the gateway: one pass over a home's
//     capture for every window of every device. Property tests keep the
//     two bit-for-bit equal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/packet.h"

namespace pmiot::net {

/// Names of the features emitted by `extract_window_features`, in order.
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

/// Computes the feature vector for one device (identified by its LAN IP)
/// over packets within [t0, t1). `packets` may contain other devices'
/// traffic; only packets to/from `device_ip` count. Returns a vector sized
/// feature_names().size() (all zeros if the device was silent).
/// `router_ip` is the gateway's own address: traffic to/from it is neither
/// a LAN peer (`lan_fraction`) nor a remote (`distinct_remotes`). Deployments
/// with a non-default `GatewayOptions::router_ip` must thread it through, or
/// the router is miscounted as an ordinary LAN peer.
std::vector<double> extract_window_features(std::span<const Packet> packets,
                                            std::uint32_t device_ip,
                                            double t0, double t1,
                                            std::uint32_t router_ip =
                                                kDefaultRouterIp);

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
