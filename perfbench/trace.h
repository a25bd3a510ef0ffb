// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only around public pmiot calls made from the
// benchmark's own files: name, start, end and the enclosing span. Nothing
// inside the library is instrumented. Recording is off until `enable()`, so
// the untraced passes pay one branch per span.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the record list, -1 for a root
};

/// Per-name totals derived from the records.
struct LayerTotals {
  double self_ms = 0.0;  ///< span time minus the time its child spans cover
  std::uint64_t calls = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) noexcept { enabled_ = on; }
  void clear() noexcept;

  /// Opens a span and returns its index (-1 when disabled).
  std::int32_t open(const char* name);
  void close(std::int32_t index);

  /// Self time and call count per span name over every record so far.
  std::map<std::string, LayerTotals> totals() const;

  /// Writes one JSON object per span (name, start_ns, end_ns, parent).
  /// Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

  static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  Tracer() = default;

  bool enabled_ = false;
  std::vector<SpanRecord> records_;
  std::int32_t current_ = -1;
};

/// RAII span; a no-op while the tracer is disabled. Only the benchmark's
/// own (single) calling thread opens spans.
class Span {
 public:
  explicit Span(const char* name) : index_(Tracer::instance().open(name)) {}
  ~Span() { Tracer::instance().close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_;
};

}  // namespace perfbench
