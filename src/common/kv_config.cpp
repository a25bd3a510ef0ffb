#include "common/kv_config.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.h"

namespace pmiot::kv {
namespace {

std::string error_text(std::string_view what, std::string_view context,
                       const std::string& detail) {
  return std::string(what) + " in " + std::string(context) + ": " + detail;
}

}  // namespace

std::string trim(std::string_view s) {
  const std::size_t lo = s.find_first_not_of(" \t\r");
  if (lo == std::string_view::npos) return "";
  const std::size_t hi = s.find_last_not_of(" \t\r");
  return std::string(s.substr(lo, hi - lo + 1));
}

std::pair<std::string, std::string> split_pair(std::string_view line,
                                               std::string_view context) {
  const std::size_t eq = line.find('=');
  PMIOT_CHECK(eq != std::string_view::npos,
              std::string(context) + " line is not 'key = value': " +
                  std::string(line));
  return {trim(line.substr(0, eq)), trim(line.substr(eq + 1))};
}

std::vector<std::pair<std::string, std::string>> parse_pairs(
    const std::string& text, std::string_view context) {
  std::vector<std::pair<std::string, std::string>> pairs;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    line = trim(std::string_view(line).substr(0, line.find('#')));
    if (!line.empty()) pairs.push_back(split_pair(line, context));
  }
  return pairs;
}

std::vector<std::string> split_list(const std::string& value,
                                    std::string_view context) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(value);
  while (std::getline(is, item, ',')) {
    item = trim(item);
    PMIOT_CHECK(!item.empty(), "empty list item in " + std::string(context));
    PMIOT_CHECK(std::find(out.begin(), out.end(), item) == out.end(),
                error_text("repeated list item", context, item));
    out.push_back(item);
  }
  return out;
}

std::vector<double> parse_double_list(const std::string& value,
                                      std::string_view context) {
  std::vector<double> out;
  for (const auto& item : split_list(value, context)) {
    const double v = parse_double(item, context);
    PMIOT_CHECK(std::find(out.begin(), out.end(), v) == out.end(),
                error_text("repeated list item", context, item));
    out.push_back(v);
  }
  return out;
}

double parse_double(const std::string& value, std::string_view context) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  PMIOT_CHECK(!value.empty() && end == value.c_str() + value.size(),
              error_text("malformed number", context, value));
  PMIOT_CHECK(std::isfinite(v), error_text("non-finite number", context, value));
  return v;
}

std::uint64_t parse_u64(const std::string& value, std::string_view context,
                        std::uint64_t max) {
  std::uint64_t v = 0;
  const char* last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), last, v);
  PMIOT_CHECK(ec != std::errc::invalid_argument && ptr == last,
              error_text("malformed integer", context, value));
  PMIOT_CHECK(ec == std::errc() && v <= max,
              error_text("integer out of range", context, value));
  return v;
}

std::string fmt_double(double v) {
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += items[i];
  }
  return out;
}

std::string join(const std::vector<double>& items) {
  std::vector<std::string> text;
  text.reserve(items.size());
  for (const double v : items) text.push_back(fmt_double(v));
  return join(text);
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace pmiot::kv
