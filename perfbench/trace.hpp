// In-memory span recorder for the benchmark's traced replay. Spans are
// recorded around the benchmark's own calls into each SOFIA module (one
// span per public call), kept in memory, and written out at the end as
// Chrome Trace Event JSON — the format Perfetto and chrome://tracing open —
// plus a per-layer summary (count, total and self time per span name).
//
// A disabled Tracer records nothing and never reads the clock, so the same
// replay code serves as the untraced baseline the tracing overhead is
// measured against.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;  ///< "<layer>.<op>", e.g. "sim.cycle.run"
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  int parent = -1;           ///< index of the enclosing span; -1 at top level
  std::int64_t owner = -1;   ///< sweep job or campaign trial id; -1 outside one
  std::map<std::string, double> args;  ///< counts taken at the boundary

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Open a span nested in the innermost open one; returns its index, or
  /// -1 when disabled. An owner of -1 inherits the parent's.
  int open(std::string_view name, std::int64_t owner);
  /// Close the innermost open span (which must be `span`).
  void close(int span);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  SpanRecord& at(int span) { return spans_[static_cast<std::size_t>(span)]; }

  /// Chrome Trace Event JSON: one complete ("X") event per span, with the
  /// span id, parent id and owner in its args.
  std::string chrome_json() const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op on a disabled tracer.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name, std::int64_t owner = -1)
      : tracer_(tracer), index_(tracer.open(name, owner)) {}
  ~Span() { tracer_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(std::string_view key, double value) {
    if (index_ >= 0) tracer_.at(index_).args[std::string(key)] += value;
  }
  /// Rename before closing, for spans whose outcome picks the name
  /// (a cache load that turned out to be a hit or a miss).
  void rename(std::string_view name) {
    if (index_ >= 0) tracer_.at(index_).name = name;
  }

 private:
  Tracer& tracer_;
  int index_;
};

/// Aggregate of every span with one name.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;  ///< total minus the time covered by direct children
  std::map<std::string, double> args;  ///< summed
  std::vector<double> durations_ms;
};

std::map<std::string, SpanTotals> summarize(const std::vector<SpanRecord>& spans);

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 if empty.
double percentile(std::vector<double> samples, double p);

}  // namespace perfbench
