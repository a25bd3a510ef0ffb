#include "net/fingerprint.h"

#include <cstdint>
#include <vector>

#include "common/error.h"

namespace pmiot::net {

ml::Dataset build_fingerprint_dataset(const FingerprintOptions& options,
                                      Rng& rng) {
  PMIOT_CHECK(options.instances_per_type >= 1, "need instances");
  // Simulate a whole home (merged capture) rather than isolated devices:
  // in deployment the gateway sees hub polling and other cross-device
  // chatter inside every device's window, so training must too.
  const auto home =
      simulate_home_network(options.instances_per_type, options.duration_s,
                            rng);
  std::vector<std::uint32_t> ips;
  for (const auto& device : home.devices) ips.push_back(device.ip);
  auto rows = windowed_features(home.packets, ips, options.duration_s,
                                options.window_s);
  ml::Dataset data;
  for (std::size_t d = 0; d < home.devices.size(); ++d) {
    for (auto& row : rows[d]) {
      data.append(std::move(row.features),
                  static_cast<int>(home.devices[d].type));
    }
  }
  data.validate();
  return data;
}

}  // namespace pmiot::net
