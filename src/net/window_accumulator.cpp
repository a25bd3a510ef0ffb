#include "net/window_accumulator.h"

#include <algorithm>
#include <cmath>

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

// Window counts stay below 2^52 so window numbers are exact in doubles.
constexpr double kMaxWindows = 4503599627370496.0;

// Same distinct-value tracker as extract_window_features uses.
template <typename T>
void insert_unique(std::vector<T>& values, T value) {
  if (std::find(values.begin(), values.end(), value) == values.end()) {
    values.push_back(value);
  }
}

}  // namespace

WindowAccumulator::WindowAccumulator(std::uint32_t device_ip, double window_s,
                                     bool keep_idle_windows,
                                     std::uint32_t router_ip)
    : device_ip_(device_ip),
      window_s_(window_s),
      keep_idle_windows_(keep_idle_windows),
      router_ip_(router_ip),
      num_buckets_(std::max<std::size_t>(
          static_cast<std::size_t>(std::ceil(window_s / 10.0)), 1)),
      window_end_(window_s),
      state_(num_buckets_) {
  PMIOT_CHECK(window_s > 0.0, "window must be positive");
}

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
  if (p.timestamp_s < 0.0) return;

  const bool up = p.src_ip == device_ip_;
  const bool down = p.dst_ip == device_ip_;
  if (!up && !down) return;

  packets_ingested_counter().add();

  // Mirrors extract_window_features packet ingestion exactly — same
  // operations in the same order, so finished windows match bit-for-bit.
  ++state_.total;
  state_.flow_table.add(p);
  if (p.protocol == Protocol::kUdp) ++state_.udp;
  const auto peer = up ? p.dst_ip : p.src_ip;
  if (is_lan(peer) && peer != router_ip_) {
    ++state_.lan_pkts;  // LAN peer other than the router
  } else if (!is_lan(peer)) {
    insert_unique(state_.remotes, peer);
  }
  if (up && p.dst_port == 53) ++state_.dns;
  const double t0 = static_cast<double>(current_) * window_s_;
  const auto bucket = std::min(
      static_cast<std::size_t>((p.timestamp_s - t0) / 10.0), num_buckets_ - 1);
  ++state_.buckets[bucket];
  if (up) {
    state_.up_size.add(p.size_bytes);
    state_.up_bytes += p.size_bytes;
    state_.up_times.push_back(p.timestamp_s);
    insert_unique(state_.ports, p.dst_port);
  } else {
    state_.down_size.add(p.size_bytes);
    state_.down_bytes += p.size_bytes;
  }
}

void WindowAccumulator::close_window() {
  if (state_.total > 0 || keep_idle_windows_) {
    std::vector<double> f(feature_names().size(), 0.0);
    if (state_.total > 0) {
      const double window_s = window_s_;
      f[0] = static_cast<double>(state_.up_size.count()) / window_s;
      f[1] = static_cast<double>(state_.down_size.count()) / window_s;
      f[2] = state_.up_bytes / window_s;
      f[3] = state_.down_bytes / window_s;
      f[4] = state_.up_size.count() == 0 ? 0.0 : state_.up_size.mean();
      f[5] = state_.up_size.count() == 0 ? 0.0 : state_.up_size.stddev();
      f[6] = state_.down_size.count() == 0 ? 0.0 : state_.down_size.mean();
      f[7] = (state_.up_bytes + state_.down_bytes) > 0
                 ? state_.up_bytes / (state_.up_bytes + state_.down_bytes)
                 : 0;
      f[8] = static_cast<double>(state_.udp) /
             static_cast<double>(state_.total);
      f[9] = static_cast<double>(state_.remotes.size());
      f[10] = static_cast<double>(state_.ports.size());
      f[11] = static_cast<double>(state_.lan_pkts) /
              static_cast<double>(state_.total);
      if (state_.up_times.size() >= 3) {
        std::sort(state_.up_times.begin(), state_.up_times.end());
        std::vector<double> iats;
        for (std::size_t i = 1; i < state_.up_times.size(); ++i) {
          iats.push_back(state_.up_times[i] - state_.up_times[i - 1]);
        }
        f[12] = stats::median(iats);
        const double m = stats::mean(iats);
        f[13] = m > 0 ? stats::stddev(iats) / m : 0.0;
      }
      double burst = 0.0;
      for (std::size_t b = 0; b < state_.buckets.size(); ++b) {
        const double width =
            std::min(10.0, window_s - 10.0 * static_cast<double>(b));
        burst = std::max(burst,
                         static_cast<double>(state_.buckets[b]) / width);
      }
      f[14] = burst;
      f[15] = static_cast<double>(state_.dns) / (window_s / 60.0);
      f[16] = static_cast<double>(state_.flow_table.flows().size());
    }
    rows_.push_back(WindowRow{current_, std::move(f)});
    windows_emitted_counter().add();
  } else {
    idle_windows_dropped_counter().add();
  }
  ++current_;
  window_end_ = static_cast<double>(current_ + 1) * window_s_;
  state_ = State(num_buckets_);
}

std::vector<WindowRow> WindowAccumulator::finish(double duration_s) {
  PMIOT_CHECK(duration_s >= window_s_, "need at least one full window");
  const std::size_t full_windows = full_window_count(duration_s, window_s_);
  while (current_ < full_windows) close_window();
  // Drop windows opened by trailing packets past duration_s.
  while (!rows_.empty() && rows_.back().window_index >= full_windows) {
    rows_.pop_back();
  }
  return std::move(rows_);
}

}  // namespace pmiot::net
