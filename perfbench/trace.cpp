#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/json.hpp"

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::open(std::string_view name, std::int64_t owner) {
  if (!enabled_) return -1;
  SpanRecord rec;
  rec.name = name;
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.owner = owner >= 0 || rec.parent < 0 ? owner : at(rec.parent).owner;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(rec));
  stack_.push_back(index);
  spans_.back().start_ns = now_ns();
  return index;
}

void Tracer::close(int span) {
  if (span < 0) return;
  const std::int64_t end = now_ns();
  if (stack_.empty() || stack_.back() != span)
    throw std::logic_error("trace: span closed out of order");
  at(span).end_ns = end;
  stack_.pop_back();
}

std::string Tracer::chrome_json() const {
  sofia::json::Writer w(-1);
  w.begin_object();
  w.member("displayTimeUnit", "ns");
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    w.begin_object();
    w.member("name", s.name);
    w.member("cat", s.name.substr(0, s.name.find('.')));
    w.member("ph", "X");
    w.member("ts", static_cast<double>(s.start_ns) / 1e3);
    w.member("dur", static_cast<double>(s.duration_ns()) / 1e3);
    w.member("pid", 1);
    w.member("tid", 1);
    w.key("args").begin_object();
    w.member("id", static_cast<std::int64_t>(i));
    w.member("parent", static_cast<std::int64_t>(s.parent));
    w.member("owner", s.owner);
    for (const auto& [key, value] : s.args) w.member(key, value);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

std::map<std::string, SpanTotals> summarize(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const SpanRecord& s : spans)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.duration_ns();
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    SpanTotals& t = out[s.name];
    const double ms = static_cast<double>(s.duration_ns()) / 1e6;
    ++t.count;
    t.total_ms += ms;
    t.self_ms += static_cast<double>(s.duration_ns() - child_ns[i]) / 1e6;
    t.durations_ms.push_back(ms);
    for (const auto& [key, value] : s.args) t.args[key] += value;
  }
  return out;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(samples.size(), static_cast<std::size_t>(rank)) - 1;
  return samples[index];
}

}  // namespace perfbench
