#include "campaign/net_axis.h"

#include <cstdio>
#include <ostream>
#include <sstream>
#include <string_view>

#include "common/error.h"
#include "common/kv_config.h"

namespace pmiot::campaign {

namespace {

constexpr std::string_view kContext = "net arena config";

}  // namespace

net::ArenaOptions parse_net_config(const std::string& text) {
  net::ArenaOptions options;
  for (const auto& [key, value] : kv::parse_pairs(text, kContext)) {
    if (key == "defenses") {
      options.defenses = kv::split_list(value, kContext);
    } else if (key == "attacks") {
      options.attacks = kv::split_list(value, kContext);
    } else if (key == "intensities") {
      options.intensities = kv::parse_double_list(value, kContext);
    } else if (key == "train_instances") {
      options.train_instances_per_type = kv::parse_uint<int>(value, kContext);
    } else if (key == "test_instances") {
      options.test_instances_per_type = kv::parse_uint<int>(value, kContext);
    } else if (key == "duration_s") {
      options.duration_s = kv::parse_double(value, kContext);
    } else if (key == "window_s") {
      options.window_s = kv::parse_double(value, kContext);
    } else if (key == "seed") {
      options.seed = kv::parse_u64(value, kContext);
    } else {
      PMIOT_CHECK(false, "unknown net arena config key: " + key);
    }
  }
  net::validate_arena_options(options);
  return options;
}

std::string canonical_net_text(const net::ArenaOptions& options) {
  std::ostringstream os;
  os << "attacks = " << kv::join(options.attacks) << '\n';
  os << "defenses = " << kv::join(options.defenses) << '\n';
  os << "duration_s = " << kv::fmt_double(options.duration_s) << '\n';
  os << "intensities = " << kv::join(options.intensities) << '\n';
  os << "seed = " << options.seed << '\n';
  os << "test_instances = " << options.test_instances_per_type << '\n';
  os << "train_instances = " << options.train_instances_per_type << '\n';
  os << "window_s = " << kv::fmt_double(options.window_s) << '\n';
  return os.str();
}

std::uint64_t net_config_hash(const net::ArenaOptions& options) {
  return kv::fnv1a64(canonical_net_text(options));
}

void write_net_frontier_csv(std::ostream& os,
                            const net::ArenaOptions& options,
                            const net::ArenaResult& result) {
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(net_config_hash(options)));
  os << "# net arena config hash " << hash << '\n';
  os << "defense,intensity,added_bytes_fraction,mean_added_latency_s,"
        "naive_mcc,privacy_mcc";
  if (!result.cells.empty()) {
    for (const auto& score : result.cells.front().attacks) {
      os << ",mcc_" << score.attack;
    }
  }
  os << '\n';
  for (const auto& cell : result.cells) {
    os << cell.defense << ',' << kv::fmt_double(cell.intensity) << ','
       << kv::fmt_double(cell.added_bytes_fraction) << ','
       << kv::fmt_double(cell.mean_added_latency_s) << ','
       << kv::fmt_double(cell.naive_mcc) << ','
       << kv::fmt_double(cell.privacy_mcc);
    for (const auto& score : cell.attacks) {
      os << ',' << kv::fmt_double(score.mcc);
    }
    os << '\n';
  }
}

}  // namespace pmiot::campaign
