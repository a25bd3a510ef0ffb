// Reference flow table and per-window feature extractor for the streaming
// feature path (`net::windowed_features` / `net::WindowAccumulator`).
//
// `extract_window_features` rescans the packet span for one device and one
// window; called on every window [k·w, (k+1)·w) of a sorted capture it
// yields exactly the rows the streaming path emits, bit for bit. net_test,
// net_shaping_test, bench/streaming_features and the
// `bench/net_defense_arena --self-check` compare the two. `FlowTable` is the
// readable flow aggregation whose flow count the streaming path's
// count-only index reproduces. Neither records any `obs` metric, so an
// oracle pass leaves the `net.flow_table.*` counters alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/features.h"
#include "net/packet.h"

namespace pmiot::oracle {

/// Aggregated bidirectional flow statistics.
// pmiot: sensitive — flow records summarize who talked to whom and when.
struct Flow {
  net::FlowKey key;
  double first_ts = 0.0;
  double last_ts = 0.0;
  std::uint64_t packets_ab = 0;  ///< from ip_a to ip_b
  std::uint64_t packets_ba = 0;
  std::uint64_t bytes_ab = 0;
  std::uint64_t bytes_ba = 0;

  double duration_s() const noexcept { return last_ts - first_ts; }
  std::uint64_t packets() const noexcept { return packets_ab + packets_ba; }
  std::uint64_t bytes() const noexcept { return bytes_ab + bytes_ba; }
};

/// Aggregates packets into flows with an idle timeout: a packet arriving
/// more than `idle_timeout_s` after a flow's last packet starts a new flow.
class FlowTable {
 public:
  explicit FlowTable(double idle_timeout_s = net::kFlowIdleTimeoutS);

  /// Adds one packet (timestamps must be non-decreasing per flow key for
  /// the timeout logic to be meaningful; the generators guarantee global
  /// ordering).
  void add(const net::Packet& packet);

  /// All flows, including ones still active, in first-packet order —
  /// deterministic because it reflects packet arrival, never hash order.
  const std::vector<Flow>& flows() const noexcept { return flows_; }

  /// Flows retired by the idle timeout (each one restarted by a packet).
  std::size_t evictions() const noexcept { return evictions_; }

 private:
  double idle_timeout_s_;
  std::vector<Flow> flows_;
  std::size_t evictions_ = 0;
  // Index into `flows_` of the active flow per key.
  //
  // Determinism contract: this map is only ever probed point-wise
  // (find/erase/insert in FlowTable::add) and MUST NOT be iterated — all
  // user-visible output flows through `flows_`, whose insertion order is
  // the packet order. pmiot-lint's `unordered-iter` rule enforces this
  // mechanically.
  std::unordered_map<net::FlowKey, std::size_t, net::FlowKeyHash> active_;
};

/// Computes the feature vector for one device (identified by its LAN IP)
/// over packets within [t0, t1). `packets` may contain other devices'
/// traffic; only packets to/from `device_ip` count. Returns a vector sized
/// `net::feature_names().size()` (all zeros if the device was silent).
/// `router_ip` is the gateway's own address: traffic to/from it is neither
/// a LAN peer (`lan_fraction`) nor a remote (`distinct_remotes`).
std::vector<double> extract_window_features(
    std::span<const net::Packet> packets, std::uint32_t device_ip, double t0,
    double t1, std::uint32_t router_ip = net::kDefaultRouterIp);

}  // namespace pmiot::oracle
