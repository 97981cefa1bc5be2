// Unit checks of the ledger arithmetic: span self times (nested,
// overlapping and overhanging children; the trace JSON parse) and the
// "at least 10 samples beyond" tail-percentile rule.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "ledger.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void check_near(double got, double want, const std::string& what) {
  check(std::fabs(got - want) < 1e-12, what + ": got " + std::to_string(got) + ", want " +
                                           std::to_string(want));
}

layerbench::Span span(std::uint64_t id, std::uint64_t parent, double start, double duration) {
  layerbench::Span s;
  s.id = id;
  s.parent = parent;
  s.name = "s";
  s.name += std::to_string(id);
  s.start_s = start;
  s.duration_s = duration;
  return s;
}

void self_time_of_nested_spans() {
  // run [0,10] > prepare [1,3], panel [3,9] > replay [4,6], replay [6,8]
  const std::vector<layerbench::Span> spans = {span(1, 0, 0, 10), span(2, 1, 1, 2),
                                               span(3, 1, 3, 6), span(4, 3, 4, 2),
                                               span(5, 3, 6, 2)};
  const auto self = layerbench::self_times(spans);
  check_near(self[0], 2.0, "run self time");
  check_near(self[1], 2.0, "leaf prepare keeps its duration");
  check_near(self[2], 2.0, "panel minus its two replays");
  check_near(self[3] + self[4], 4.0, "leaf replays");
  double total = 0.0;
  for (double s : self) total += s;
  check_near(total, 10.0, "self times of a nested tree add up to the root");
}

void overlapping_children_are_merged() {
  // Two parallel panels [1,5] and [2,7] cover [1,7] once, not 9 s.
  const std::vector<layerbench::Span> spans = {span(1, 0, 0, 10), span(2, 1, 1, 4),
                                               span(3, 1, 2, 5)};
  check_near(layerbench::self_times(spans)[0], 4.0, "overlapping children merge");
}

void children_outside_the_parent_are_clipped() {
  // A child that starts before and ends after its parent covers it fully.
  const std::vector<layerbench::Span> spans = {span(1, 0, 2, 3), span(2, 1, 1, 10),
                                               span(3, 0, 20, 1), span(4, 3, 30, 5)};
  const auto self = layerbench::self_times(spans);
  check_near(self[0], 0.0, "overhanging child covers all of its parent");
  check_near(self[2], 1.0, "disjoint child covers nothing");
}

void spans_parse_from_trace_json() {
  const auto trace = mpqls::Json::parse(
      R"({"trace_id":"00","spans_dropped":0,"spans":[)"
      R"({"id":1,"parent":0,"name":"run","start_us":10.0,"duration_us":1000.0},)"
      R"({"id":2,"parent":1,"name":"prepare","start_us":20.0,"duration_us":500.0,)"
      R"("attrs":{"cache":"hit"}}]})");
  const auto spans = layerbench::spans_from_json(trace);
  check(spans.size() == 2, "two spans parsed");
  check(spans[1].parent == 1 && spans[1].name == "prepare", "parent link and name");
  check(spans[1].attr("cache") == "hit" && spans[0].attr("cache").empty(), "attrs");
  check_near(spans[0].duration_s, 1e-3, "microseconds become seconds");
  check_near(layerbench::self_times(spans)[0], 5e-4, "self time through the JSON path");
}

void tail_needs_ten_samples_beyond() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  auto t = layerbench::tail_with_samples_beyond(v);
  check(t.value == 90.0 && t.samples == 100 && t.beyond == 10, "100 samples: the 11th largest");
  check_near(t.percentile, 100.0 * 89.0 / 99.0, "100 samples: rank percentile");
  std::size_t above = 0;
  for (double x : v) above += x > t.value ? 1 : 0;
  check(above == 10, "exactly 10 samples lie beyond the tail");

  v.clear();
  for (int i = 11; i >= 1; --i) v.push_back(i);
  t = layerbench::tail_with_samples_beyond(v);
  check(t.value == 1.0 && t.percentile == 0.0 && t.beyond == 10,
        "11 samples: only the minimum has 10 beyond it");

  v.pop_back();  // 10 samples: no percentile has 10 beyond; the minimum, 9 beyond
  t = layerbench::tail_with_samples_beyond(v);
  check(t.value == 2.0 && t.percentile == 0.0 && t.beyond == 9 && t.samples == 10,
        "10 samples degrade to the minimum");

  t = layerbench::tail_with_samples_beyond({});
  check(t.samples == 0 && t.value == 0.0, "no samples");
}

void median_of_even_and_odd_counts() {
  check_near(layerbench::median({3, 1, 2}), 2.0, "odd median");
  check_near(layerbench::median({4, 1, 3, 2}), 2.5, "even median");
}

}  // namespace

int main() {
  self_time_of_nested_spans();
  overlapping_children_are_merged();
  children_outside_the_parent_are_clipped();
  spans_parse_from_trace_json();
  tail_needs_ten_samples_beyond();
  median_of_even_and_odd_counts();
  if (failures != 0) {
    std::fprintf(stderr, "%d ledger check(s) failed\n", failures);
    return 1;
  }
  std::printf("ledger checks passed\n");
  return 0;
}
