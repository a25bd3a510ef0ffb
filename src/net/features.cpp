#include "net/features.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/stats.h"
#include "net/packet.h"
#include "net/window_accumulator.h"

namespace pmiot::net {

namespace {

// Distinct-value tracker: only the count is ever read, and a window sees a
// handful of peers/ports, so an unsorted vector beats a node-based set.
template <typename T>
void insert_unique(std::vector<T>& values, T value) {
  if (std::find(values.begin(), values.end(), value) == values.end()) {
    values.push_back(value);
  }
}

}  // namespace

const std::vector<std::string>& feature_names() {
  static const std::vector<std::string> names = {
      "pkt_rate_up",        // packets/s device -> elsewhere
      "pkt_rate_down",      // packets/s elsewhere -> device
      "byte_rate_up",       // bytes/s up
      "byte_rate_down",     // bytes/s down
      "mean_pkt_up",        // mean upstream packet size
      "std_pkt_up",         // stddev of upstream packet size
      "mean_pkt_down",      // mean downstream packet size
      "up_fraction",        // upstream bytes / total bytes
      "udp_fraction",       // udp packets / all packets
      "distinct_remotes",   // distinct non-LAN peers
      "distinct_ports",     // distinct destination ports (upstream)
      "lan_fraction",       // packets to/from other LAN hosts
      "iat_median",         // median upstream inter-arrival time
      "iat_cv",             // coefficient of variation of upstream IATs
      "burst_max_rate",     // max packets/s over any 10 s bucket (the last
                            // bucket is normalized by its actual width)
      "dns_rate",           // DNS queries per minute (upstream packets to
                            // port 53; one per query/response exchange)
      "flow_count",         // distinct flows (5-tuple, 120 s idle timeout)
  };
  return names;
}

void check_feature_layout() {
  const auto& names = feature_names();
  PMIOT_ASSERT(names.size() > kFeaturePktRateDown,
               "feature vector narrower than the policy indices");
  PMIOT_ASSERT(names[kFeaturePktRateUp] == "pkt_rate_up",
               "kFeaturePktRateUp no longer names pkt_rate_up");
  PMIOT_ASSERT(names[kFeaturePktRateDown] == "pkt_rate_down",
               "kFeaturePktRateDown no longer names pkt_rate_down");
}

std::vector<double> extract_window_features(std::span<const Packet> packets,
                                            std::uint32_t device_ip,
                                            double t0, double t1,
                                            std::uint32_t router_ip) {
  PMIOT_CHECK(t1 > t0, "empty window");
  const double window_s = t1 - t0;

  FlowTable flow_table;
  stats::Accumulator up_size, down_size;
  std::vector<double> up_times;
  double up_bytes = 0, down_bytes = 0;
  std::size_t udp = 0, total = 0, lan_pkts = 0, dns = 0;
  std::vector<std::uint32_t> remotes;
  std::vector<std::uint16_t> ports;
  const auto num_buckets = std::max<std::size_t>(
      static_cast<std::size_t>(std::ceil(window_s / 10.0)), 1);
  std::vector<std::size_t> buckets(num_buckets, 0);

  for (const auto& p : packets) {
    if (p.timestamp_s < t0 || p.timestamp_s >= t1) continue;
    const bool up = p.src_ip == device_ip;
    const bool down = p.dst_ip == device_ip;
    if (!up && !down) continue;
    ++total;
    flow_table.add(p);
    if (p.protocol == Protocol::kUdp) ++udp;
    const auto peer = up ? p.dst_ip : p.src_ip;
    if (is_lan(peer) && peer != router_ip) {
      ++lan_pkts;  // LAN peer other than the router
    } else if (!is_lan(peer)) {
      insert_unique(remotes, peer);
    }
    // One DNS exchange = one upstream query + its response; count queries
    // so the rate is exchanges, not packets.
    if (up && p.dst_port == 53) ++dns;
    const auto bucket = std::min(
        static_cast<std::size_t>((p.timestamp_s - t0) / 10.0),
        num_buckets - 1);
    ++buckets[bucket];
    if (up) {
      up_size.add(p.size_bytes);
      up_bytes += p.size_bytes;
      up_times.push_back(p.timestamp_s);
      insert_unique(ports, p.dst_port);
    } else {
      down_size.add(p.size_bytes);
      down_bytes += p.size_bytes;
    }
  }

  std::vector<double> f(feature_names().size(), 0.0);
  if (total == 0) return f;

  f[0] = static_cast<double>(up_size.count()) / window_s;
  f[1] = static_cast<double>(down_size.count()) / window_s;
  f[2] = up_bytes / window_s;
  f[3] = down_bytes / window_s;
  f[4] = up_size.count() == 0 ? 0.0 : up_size.mean();
  f[5] = up_size.count() == 0 ? 0.0 : up_size.stddev();
  f[6] = down_size.count() == 0 ? 0.0 : down_size.mean();
  f[7] = (up_bytes + down_bytes) > 0 ? up_bytes / (up_bytes + down_bytes) : 0;
  f[8] = static_cast<double>(udp) / static_cast<double>(total);
  f[9] = static_cast<double>(remotes.size());
  f[10] = static_cast<double>(ports.size());
  f[11] = static_cast<double>(lan_pkts) / static_cast<double>(total);

  if (up_times.size() >= 3) {
    std::sort(up_times.begin(), up_times.end());
    std::vector<double> iats;
    for (std::size_t i = 1; i < up_times.size(); ++i) {
      iats.push_back(up_times[i] - up_times[i - 1]);
    }
    f[12] = stats::median(iats);
    const double m = stats::mean(iats);
    f[13] = m > 0 ? stats::stddev(iats) / m : 0.0;
  }
  // Each bucket is normalized by its true width, so a truncated final
  // bucket (window not a multiple of 10 s) is not biased low.
  double burst = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const double width = std::min(10.0, window_s - 10.0 * static_cast<double>(b));
    burst = std::max(burst, static_cast<double>(buckets[b]) / width);
  }
  f[14] = burst;
  f[15] = static_cast<double>(dns) / (window_s / 60.0);
  f[16] = static_cast<double>(flow_table.flows().size());
  return f;
}

std::vector<std::vector<WindowRow>> windowed_features(
    std::span<const Packet> packets, std::span<const std::uint32_t> device_ips,
    double duration_s, double window_s, bool keep_idle_windows,
    std::uint32_t router_ip) {
  PMIOT_CHECK(window_s > 0.0 && duration_s >= window_s,
              "need at least one full window");
  if (device_ips.empty()) return {};
  WindowAccumulator accumulator(device_ips, window_s, keep_idle_windows,
                                router_ip);
  // Packets at or past the end of the last full window would only open
  // windows that `finish` discards, and a huge timestamp would make the
  // accumulator close every window up to it. They are validated like `add`
  // would (finite, in order) but not fed.
  const double horizon =
      static_cast<double>(full_window_count(duration_s, window_s)) * window_s;
  std::size_t i = 0;
  for (; i < packets.size() && packets[i].timestamp_s < horizon; ++i) {
    accumulator.add(packets[i]);
  }
  for (; i < packets.size(); ++i) {
    PMIOT_CHECK(std::isfinite(packets[i].timestamp_s),
                "packet timestamps must be finite");
    PMIOT_CHECK(i == 0 || packets[i].timestamp_s >= packets[i - 1].timestamp_s,
                "packets must arrive in timestamp order (use sort_by_time)");
  }
  return accumulator.finish(duration_s);
}

std::vector<WindowRow> windowed_features(std::span<const Packet> packets,
                                         std::uint32_t device_ip,
                                         double duration_s, double window_s,
                                         bool keep_idle_windows,
                                         std::uint32_t router_ip) {
  return std::move(windowed_features(packets, std::span(&device_ip, 1),
                                     duration_s, window_s, keep_idle_windows,
                                     router_ip)
                       .front());
}

}  // namespace pmiot::net
