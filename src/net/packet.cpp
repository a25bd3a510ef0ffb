#include "net/packet.h"

#include <algorithm>
#include <cstdio>

#include "common/error.h"

namespace pmiot::net {

std::uint32_t make_ip(int a, int b, int c, int d) {
  PMIOT_CHECK(a >= 0 && a <= 255 && b >= 0 && b <= 255 && c >= 0 && c <= 255 &&
                  d >= 0 && d <= 255,
              "ip octet out of range");
  return (static_cast<std::uint32_t>(a) << 24) |
         (static_cast<std::uint32_t>(b) << 16) |
         (static_cast<std::uint32_t>(c) << 8) | static_cast<std::uint32_t>(d);
}

std::string ip_to_string(std::uint32_t ip) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", ip >> 24, (ip >> 16) & 0xff,
                (ip >> 8) & 0xff, ip & 0xff);
  return buf;
}

DeviceSlots::DeviceSlots(std::span<const std::uint32_t> ips) {
  PMIOT_CHECK(ips.size() < kNone, "too many devices");
  lan_.fill(kNone);
  for (std::size_t i = 0; i < ips.size(); ++i) {
    PMIOT_CHECK(find(ips[i]) == kNone, "duplicate device address");
    const auto slot = static_cast<std::uint32_t>(i);
    if (is_lan(ips[i])) {
      lan_[ips[i] & 0xffu] = slot;
    } else {
      off_lan_.emplace_back(ips[i], slot);
    }
  }
}

FlowKey flow_key_of(const Packet& packet) noexcept {
  if (packet.src_ip < packet.dst_ip ||
      (packet.src_ip == packet.dst_ip && packet.src_port <= packet.dst_port)) {
    return FlowKey{packet.src_ip, packet.dst_ip, packet.src_port,
                   packet.dst_port, packet.protocol};
  }
  return FlowKey{packet.dst_ip, packet.src_ip, packet.dst_port,
                 packet.src_port, packet.protocol};
}

std::size_t FlowKeyHash::operator()(const FlowKey& key) const noexcept {
  // SplitMix64 finalizer over the packed key fields; cheap and well mixed
  // for the handful of bytes a flow key holds.
  std::uint64_t z = (static_cast<std::uint64_t>(key.ip_a) << 32) | key.ip_b;
  z ^= (static_cast<std::uint64_t>(key.port_a) << 24) |
       (static_cast<std::uint64_t>(key.port_b) << 8) |
       static_cast<std::uint64_t>(key.protocol);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(z ^ (z >> 31));
}

void sort_by_time(std::vector<Packet>& packets) {
  std::stable_sort(packets.begin(), packets.end(),
                   [](const Packet& a, const Packet& b) {
                     return a.timestamp_s < b.timestamp_s;
                   });
}

}  // namespace pmiot::net
