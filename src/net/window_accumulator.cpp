#include "net/window_accumulator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/stats.h"

#include "common/error.h"
#include "obs/metrics.h"

namespace pmiot::net {

namespace {

obs::Counter& packets_ingested_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter(
      "net.window_accumulator.packets_ingested");
  return c;
}

obs::Counter& windows_emitted_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter(
      "net.window_accumulator.windows_emitted");
  return c;
}

obs::Counter& idle_windows_dropped_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter(
      "net.window_accumulator.idle_windows_dropped");
  return c;
}

// The flow index's restarts and evictions; perfbench reads
// `net.flow_table.flow_inserts` as flows begun per packet.
obs::Counter& flow_inserts_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("net.flow_table.flow_inserts");
  return c;
}

obs::Counter& flow_evictions_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter(
      "net.flow_table.flow_evictions");
  return c;
}

// Window counts stay below 2^52 so window numbers are exact in doubles.
constexpr double kMaxWindows = 4503599627370496.0;

// Open-addressing hash table over one window's keys. Entries are stamped
// with the window they were written in, so starting the next window is
// O(1) and the storage is reused for the whole capture. Keys are never
// erased within a window, so a probe ends at the first slot not written in
// the current one.
template <typename Key, typename Value, typename Hash>
class WindowKeyTable {
 public:
  struct Entry {
    Key key{};
    std::uint32_t window = 0;  ///< stamp of the write; 0 = never written
    [[no_unique_address]] Value value{};
  };

  /// The entry for `key` and whether it was inserted (value-initialized)
  /// now.
  std::pair<Entry*, bool> find_or_insert(const Key& key) {
    if (2 * (size_ + 1) > entries_.size()) grow();
    Entry& e = entries_[probe(key)];
    if (e.window == stamp_) return {&e, false};
    e = Entry{key, stamp_, Value{}};
    ++size_;
    return {&e, true};
  }

  /// Distinct keys this window.
  std::size_t size() const noexcept { return size_; }

  void next_window() noexcept {
    size_ = 0;
    if (++stamp_ == 0) {
      // After 2^32 - 1 windows the stamps would repeat; clear them instead.
      for (Entry& e : entries_) e.window = 0;
      stamp_ = 1;
    }
  }

 private:
  std::size_t probe(const Key& key) const noexcept {
    const std::size_t mask = entries_.size() - 1;
    std::size_t i = Hash{}(key) & mask;
    while (entries_[i].window == stamp_ && !(entries_[i].key == key)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void grow() {
    std::vector<Entry> old(std::max<std::size_t>(16, 2 * entries_.size()));
    old.swap(entries_);
    for (const Entry& e : old) {
      if (e.window == stamp_) entries_[probe(e.key)] = e;
    }
  }

  std::vector<Entry> entries_;
  std::uint32_t stamp_ = 1;
  std::size_t size_ = 0;
};

struct ValueHash {
  std::size_t operator()(std::uint32_t v) const noexcept {
    return static_cast<std::size_t>((v * 0x9e3779b97f4a7c15ULL) >> 32);
  }
};

struct NoValue {};
using DistinctValues = WindowKeyTable<std::uint32_t, NoValue, ValueHash>;

}  // namespace

std::size_t full_window_count(double duration_s, double window_s) {
  PMIOT_CHECK(window_s > 0.0 && std::isfinite(window_s),
              "window must be positive and finite");
  PMIOT_CHECK(std::isfinite(duration_s), "duration must be finite");
  const double estimate = std::floor(duration_s / window_s);
  PMIOT_CHECK(estimate < kMaxWindows, "too many windows in the duration");
  if (estimate < 0.0) return 0;
  // The quotient only seeds the count; it is settled with the same products
  // the accumulator uses for window ends, so window k is full exactly when
  // (k + 1) * window_s <= duration_s.
  auto k = static_cast<std::size_t>(estimate);
  while (static_cast<double>(k + 1) * window_s <= duration_s) ++k;
  while (k > 0 && static_cast<double>(k) * window_s > duration_s) --k;
  return k;
}

// --- per-device window state -------------------------------------------------

struct WindowAccumulator::Device {
  explicit Device(std::size_t num_buckets) : buckets(num_buckets, 0) {}

  void ingest(const Packet& p, bool up, std::size_t bucket,
              std::uint32_t router_ip);
  void add_flow(const Packet& p);
  void reset() noexcept;

  // Count-only flow table for the window (the features read only the
  // number of flows): the last timestamp of each active flow key.
  WindowKeyTable<FlowKey, double, FlowKeyHash> flow_last_ts;
  std::size_t flows = 0;  ///< flows begun this window, restarts included
  stats::Accumulator up_size, down_size;
  std::vector<double> up_times;
  double up_bytes = 0.0, down_bytes = 0.0;
  std::size_t udp = 0, total = 0, lan_pkts = 0, dns = 0;
  // Distinct remote peers and upstream destination ports; only the counts
  // are read.
  DistinctValues remotes, ports;
  std::vector<std::size_t> buckets;
  std::vector<WindowRow> rows;
};

// A packet more than the idle timeout after its flow's last one starts a
// new flow; each flow begun bumps `net.flow_table.flow_inserts`, each
// restart also `net.flow_table.flow_evictions`.
void WindowAccumulator::Device::add_flow(const Packet& p) {
  const auto [flow, inserted] = flow_last_ts.find_or_insert(flow_key_of(p));
  if (inserted) {
    flow->value = p.timestamp_s;
  } else if (p.timestamp_s - flow->value > kFlowIdleTimeoutS) {
    flow_evictions_counter().add();
    flow->value = p.timestamp_s;
  } else {
    flow->value = std::max(flow->value, p.timestamp_s);
    return;
  }
  ++flows;
  flow_inserts_counter().add();
}

void WindowAccumulator::Device::ingest(const Packet& p, bool up,
                                       std::size_t bucket,
                                       std::uint32_t router_ip) {
  packets_ingested_counter().add();
  // Mirrors the per-window rescan reference's packet ingestion exactly —
  // same operations in the same order, so finished windows match it
  // bit-for-bit.
  ++total;
  add_flow(p);
  if (p.protocol == Protocol::kUdp) ++udp;
  const auto peer = up ? p.dst_ip : p.src_ip;
  if (is_lan(peer) && peer != router_ip) {
    ++lan_pkts;  // LAN peer other than the router
  } else if (!is_lan(peer)) {
    remotes.find_or_insert(peer);
  }
  if (up && p.dst_port == 53) ++dns;
  ++buckets[bucket];
  if (up) {
    up_size.add(p.size_bytes);
    up_bytes += p.size_bytes;
    up_times.push_back(p.timestamp_s);
    ports.find_or_insert(p.dst_port);
  } else {
    down_size.add(p.size_bytes);
    down_bytes += p.size_bytes;
  }
}

void WindowAccumulator::Device::reset() noexcept {
  flow_last_ts.next_window();
  flows = 0;
  up_size = {};
  down_size = {};
  up_times.clear();
  up_bytes = down_bytes = 0.0;
  udp = total = lan_pkts = dns = 0;
  remotes.next_window();
  ports.next_window();
  std::fill(buckets.begin(), buckets.end(), 0);
}

// --- the accumulator ---------------------------------------------------------

WindowAccumulator::WindowAccumulator(std::span<const std::uint32_t> device_ips,
                                     double window_s, bool keep_idle_windows,
                                     std::uint32_t router_ip)
    : slots_(device_ips),
      window_s_(window_s),
      keep_idle_windows_(keep_idle_windows),
      router_ip_(router_ip),
      window_end_(window_s) {
  PMIOT_CHECK(window_s > 0.0 && std::isfinite(window_s),
              "window must be positive and finite");
  num_buckets_ = std::max<std::size_t>(
      static_cast<std::size_t>(std::ceil(window_s / 10.0)), 1);
  devices_.assign(device_ips.size(), Device(num_buckets_));
}

WindowAccumulator::~WindowAccumulator() = default;

void WindowAccumulator::add(const Packet& p) {
  PMIOT_CHECK(p.timestamp_s >= last_timestamp_,
              "packets must arrive in timestamp order (use sort_by_time)");
  if (p.timestamp_s >= window_end_) {
    // NaN and -inf already failed the order check (timestamps start at 0),
    // so only +inf is left to reject, and only past the open window.
    PMIOT_CHECK(std::isfinite(p.timestamp_s),
                "packet timestamps must be finite");
    while (p.timestamp_s >= window_end_) close_window();
  }
  last_timestamp_ = p.timestamp_s;

  const auto src = slots_.find(p.src_ip);
  const auto dst = slots_.find(p.dst_ip);
  if (src == DeviceSlots::kNone && dst == DeviceSlots::kNone) return;
  const double t0 = static_cast<double>(current_) * window_s_;
  const auto bucket = std::min(
      static_cast<std::size_t>((p.timestamp_s - t0) / 10.0), num_buckets_ - 1);
  if (src != DeviceSlots::kNone) {
    devices_[src].ingest(p, /*up=*/true, bucket, router_ip_);
  }
  if (dst != DeviceSlots::kNone && dst != src) {
    devices_[dst].ingest(p, /*up=*/false, bucket, router_ip_);
  }
}

void WindowAccumulator::emit(Device& d) {
  if (d.total == 0 && !keep_idle_windows_) {
    idle_windows_dropped_counter().add();
    return;
  }
  std::vector<double> f(feature_names().size(), 0.0);
  if (d.total > 0) {
    const double window_s = window_s_;
    f[0] = static_cast<double>(d.up_size.count()) / window_s;
    f[1] = static_cast<double>(d.down_size.count()) / window_s;
    f[2] = d.up_bytes / window_s;
    f[3] = d.down_bytes / window_s;
    f[4] = d.up_size.count() == 0 ? 0.0 : d.up_size.mean();
    f[5] = d.up_size.count() == 0 ? 0.0 : d.up_size.stddev();
    f[6] = d.down_size.count() == 0 ? 0.0 : d.down_size.mean();
    f[7] = (d.up_bytes + d.down_bytes) > 0
               ? d.up_bytes / (d.up_bytes + d.down_bytes)
               : 0;
    f[8] = static_cast<double>(d.udp) / static_cast<double>(d.total);
    f[9] = static_cast<double>(d.remotes.size());
    f[10] = static_cast<double>(d.ports.size());
    f[11] = static_cast<double>(d.lan_pkts) / static_cast<double>(d.total);
    // `add` enforces non-decreasing timestamps, so up_times is already in
    // the order the reference sorts it into (equal timestamps are
    // interchangeable).
    if (d.up_times.size() >= 3) {
      iats_.clear();
      for (std::size_t i = 1; i < d.up_times.size(); ++i) {
        iats_.push_back(d.up_times[i] - d.up_times[i - 1]);
      }
      f[12] = stats::median(iats_);
      const double m = stats::mean(iats_);
      f[13] = m > 0 ? stats::stddev(iats_) / m : 0.0;
    }
    double burst = 0.0;
    for (std::size_t b = 0; b < d.buckets.size(); ++b) {
      const double width =
          std::min(10.0, window_s - 10.0 * static_cast<double>(b));
      burst = std::max(burst, static_cast<double>(d.buckets[b]) / width);
    }
    f[14] = burst;
    f[15] = static_cast<double>(d.dns) / (window_s / 60.0);
    f[16] = static_cast<double>(d.flows);
    d.reset();
  }
  d.rows.push_back(WindowRow{current_, std::move(f)});
  windows_emitted_counter().add();
}

void WindowAccumulator::close_window() {
  for (auto& device : devices_) emit(device);
  ++current_;
  window_end_ = static_cast<double>(current_ + 1) * window_s_;
}

std::vector<std::vector<WindowRow>> WindowAccumulator::finish(
    double duration_s) {
  PMIOT_CHECK(duration_s >= window_s_, "need at least one full window");
  const std::size_t full_windows = full_window_count(duration_s, window_s_);
  while (current_ < full_windows) close_window();
  std::vector<std::vector<WindowRow>> out;
  out.reserve(devices_.size());
  for (auto& device : devices_) {
    // Drop windows opened by trailing packets past duration_s.
    auto& rows = device.rows;
    while (!rows.empty() && rows.back().window_index >= full_windows) {
      rows.pop_back();
    }
    out.push_back(std::move(rows));
  }
  return out;
}

}  // namespace pmiot::net
