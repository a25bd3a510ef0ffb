#include "trace.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::clear() noexcept {
  records_.clear();
  current_ = -1;
}

std::int32_t Tracer::open(const char* name) {
  if (!enabled_) return -1;
  SpanRecord record;
  record.name = name;
  record.parent = current_;
  record.start_ns = now_ns();
  records_.push_back(record);
  current_ = static_cast<std::int32_t>(records_.size() - 1);
  return current_;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  auto& record = records_[static_cast<std::size_t>(index)];
  record.end_ns = now_ns();
  current_ = record.parent;
}

std::map<std::string, LayerTotals> Tracer::totals() const {
  // Children are recorded after their parent and close before it, so one
  // pass can charge every child's duration to its parent.
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const auto& r : records_) {
    if (r.parent >= 0) {
      child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    const auto total = r.end_ns - r.start_ns;
    auto& t = out[r.name];
    t.self_ms += static_cast<double>(std::max<std::int64_t>(
                     total - child_ns[i], 0)) /
                 1e6;
    ++t.calls;
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  for (const auto& r : records_) {
    os << "{\"name\":\"" << r.name << "\",\"start_ns\":" << r.start_ns
       << ",\"end_ns\":" << r.end_ns << ",\"parent\":" << r.parent << "}\n";
  }
  return static_cast<bool>(os);
}

}  // namespace perfbench
