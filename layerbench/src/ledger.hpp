// The arithmetic of the layer ledger, kept apart from the benchmark's
// main program so ledger_test can check it: span self times, the tail
// percentile rule, and the median.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace layerbench {

/// One span of a job trace, in seconds from the trace epoch.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = top level
  std::string name;
  double start_s = 0.0;
  double duration_s = 0.0;
  std::map<std::string, std::string> attrs;

  std::string attr(const std::string& key) const {
    const auto it = attrs.find(key);
    return it == attrs.end() ? std::string() : it->second;
  }
};

/// The spans of a `GET /v1/jobs/{id}/trace` body (service::trace_to_json).
inline std::vector<Span> spans_from_json(const mpqls::Json& trace) {
  std::vector<Span> spans;
  if (!trace.contains("spans")) return spans;
  for (const auto& s : trace.at("spans").as_array()) {
    Span span;
    span.id = s.at("id").as_uint();
    span.parent = s.at("parent").as_uint();
    span.name = s.at("name").as_string();
    span.start_s = s.at("start_us").as_number() * 1e-6;
    span.duration_s = s.at("duration_us").as_number() * 1e-6;
    if (s.contains("attrs")) {
      for (const auto& [key, value] : s.at("attrs").as_object()) {
        span.attrs[key] = value.as_string();
      }
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

/// Self time of every span, in input order: its duration minus the part
/// of its own interval that its direct children cover. Overlapping
/// children (parallel panels) are merged first, so covered time is never
/// subtracted twice, and child time outside the parent is ignored.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_s, s.start_s + s.duration_s);
  }
  std::vector<double> self;
  self.reserve(spans.size());
  for (const auto& s : spans) {
    const double begin = s.start_s;
    const double end = s.start_s + s.duration_s;
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double run_begin = 0.0;
      double run_end = -1.0;
      const auto close_run = [&] {
        if (run_end > run_begin) covered += run_end - run_begin;
      };
      for (const auto& [b, e] : intervals) {
        const double cb = std::max(b, begin);
        const double ce = std::min(e, end);
        if (ce <= cb) continue;
        if (cb > run_end) {
          close_run();
          run_begin = cb;
          run_end = ce;
        } else {
          run_end = std::max(run_end, ce);
        }
      }
      close_run();
    }
    self.push_back(std::max(0.0, s.duration_s - covered));
  }
  return self;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// A tail latency with the percentile it sits at, the sample count and
/// how many samples lie beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< 0..100, rank-based: 100 * k / (N - 1)
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// The highest percentile that still has at least `beyond` samples above
/// it: the sample of rank N-1-beyond (0-based, ascending), i.e. the
/// (beyond+1)-th largest. With beyond+1 samples that is the minimum; with
/// fewer, no percentile qualifies and the rule degrades to the same
/// sample, the minimum, with every other sample beyond it. All zero for
/// no samples.
inline Tail tail_with_samples_beyond(std::vector<double> v, std::size_t beyond = 10) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  t.beyond = std::min(beyond, v.size() - 1);
  const std::size_t k = v.size() - 1 - t.beyond;
  t.value = v[k];
  t.samples = v.size();
  t.percentile =
      v.size() == 1 ? 0.0 : 100.0 * static_cast<double>(k) / static_cast<double>(v.size() - 1);
  return t;
}

}  // namespace layerbench
