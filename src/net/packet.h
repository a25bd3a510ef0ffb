// Packet and flow records for the simulated home IoT LAN (paper §IV).
//
// The substitution for libpcap on a physical network: device behaviour
// models emit `Packet` records, and `flow_key_of` names the bidirectional
// flow each belongs to, which the window features count the way a
// monitoring gateway would. Addresses are synthetic; 10.0.0.0/24 is the
// LAN, everything else is "the Internet".
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace pmiot::net {

enum class Protocol : std::uint8_t { kTcp, kUdp };

/// One observed packet. Timestamps are seconds from the capture start.
// pmiot: sensitive — packet metadata is the §II traffic-analysis substrate;
// timing/size sequences reveal device activity and thus occupancy.
struct Packet {
  double timestamp_s = 0.0;
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Protocol protocol = Protocol::kTcp;
  int size_bytes = 0;
};

/// Dotted-quad helpers for synthetic addresses.
std::uint32_t make_ip(int a, int b, int c, int d);
std::string ip_to_string(std::uint32_t ip);

/// True for addresses inside the home LAN (10.0.0.0/24 here).
inline constexpr bool is_lan(std::uint32_t ip) noexcept {
  return (ip >> 8) == (0x0a000000u >> 8);
}

/// O(1) map from a device address to its position in a roster, for the
/// per-packet routing of the gateway's one-pass stages. LAN addresses, where
/// the gateway registers every device, resolve through a direct table of
/// the /24's 256 hosts; off-LAN roster entries (which only direct callers of
/// the feature path use) are found by a scan of that normally empty rest.
class DeviceSlots {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Throws `InvalidArgument` when an address appears twice.
  explicit DeviceSlots(std::span<const std::uint32_t> ips);

  /// Roster position of `ip`, or kNone.
  std::uint32_t find(std::uint32_t ip) const noexcept {
    if (is_lan(ip)) return lan_[ip & 0xffu];
    for (const auto& [off_ip, slot] : off_lan_) {
      if (off_ip == ip) return slot;
    }
    return kNone;
  }

 private:
  std::array<std::uint32_t, 256> lan_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> off_lan_;
};

/// Canonical bidirectional flow identity (sorted endpoints).
struct FlowKey {
  std::uint32_t ip_a = 0, ip_b = 0;
  std::uint16_t port_a = 0, port_b = 0;
  Protocol protocol = Protocol::kTcp;

  bool operator==(const FlowKey&) const = default;
};

/// The packet's flow key, with (ip_a, port_a) the numerically smaller
/// endpoint so both directions land on the same key.
FlowKey flow_key_of(const Packet& packet) noexcept;

/// Hash over all key fields so a flow table can index active flows.
struct FlowKeyHash {
  std::size_t operator()(const FlowKey& key) const noexcept;
};

/// Flow idle timeout the window features count with: a packet arriving
/// more than this after its flow's last packet starts a new flow.
inline constexpr double kFlowIdleTimeoutS = 120.0;

/// Sorts packets by timestamp (generators emit per-device, merge for the
/// gateway view).
void sort_by_time(std::vector<Packet>& packets);

}  // namespace pmiot::net
