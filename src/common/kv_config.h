// The `key = value` grammar shared by the energy campaign grid
// (campaign/campaign.h) and the network arena grid (campaign/net_axis.h),
// plus the canonical-text helpers their provenance hashes stand on. One
// pair per line, '#' comments anywhere on a line, keys and values trimmed,
// comma-separated lists. Errors are InvalidArgument naming the caller's
// `context` ("malformed number in campaign config: x"); key dispatch and
// grid validation stay with each config.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pmiot::kv {

/// Strips leading and trailing spaces, tabs and carriage returns.
std::string trim(std::string_view s);

/// Splits one `key = value` line at its first '=', trimming both sides; a
/// line without '=' throws.
std::pair<std::string, std::string> split_pair(std::string_view line,
                                               std::string_view context);

/// The (key, value) pairs of `text` in order.
std::vector<std::pair<std::string, std::string>> parse_pairs(
    const std::string& text, std::string_view context);

/// Comma-separated items, trimmed; empty or repeated items throw.
std::vector<std::string> split_list(const std::string& value,
                                    std::string_view context);

/// Comma-separated finite numbers; a repeated value throws ("0.5, 5e-1").
std::vector<double> parse_double_list(const std::string& value,
                                      std::string_view context);

/// A finite number in strtod syntax, consuming the whole string.
double parse_double(const std::string& value, std::string_view context);

/// A decimal integer in [0, max]: digits only, no sign.
std::uint64_t parse_u64(const std::string& value, std::string_view context,
                        std::uint64_t max = UINT64_MAX);

/// parse_u64 bounded by what the integer field type T can hold.
template <class T>
T parse_uint(const std::string& value, std::string_view context) {
  return static_cast<T>(parse_u64(value, context,
                                  std::numeric_limits<T>::max()));
}

/// Shortest decimal form that parses back to exactly `v`.
std::string fmt_double(double v);

/// Items joined with ", " (numbers through fmt_double).
std::string join(const std::vector<std::string>& items);
std::string join(const std::vector<double>& items);

/// FNV-1a 64 over the bytes of `text`.
std::uint64_t fnv1a64(std::string_view text);

}  // namespace pmiot::kv
