// Cluster scaling acceptance benchmark: the same repeated-matrix workload
// through one worker versus four, over real loopback HTTP via the
// coordinator.
//
// The workload is cache-bound — 8 distinct matrices cycled 8 times, with
// each worker's ContextCache capped at 4 contexts. One worker thrashes
// (cyclic access over 8 keys is LRU's worst case: every job pays the full
// QSVT prepare), while 4 affinity-sharded workers hold their 2-matrix
// shards resident and pay 8 preparations total. That is the paper's
// amortization argument turned into horizontal scaling: sharding
// multiplies the effective cache, so throughput scales even on one core.
//
// Acceptance (exit 1 on failure):
//   - >= 2.5x job throughput with 4 in-process workers vs 1
//   - affinity routing beats random routing's aggregate cache hit rate
//
// The ring scores workers by "127.0.0.1:<ephemeral port>", so where the 8
// matrices land changes from run to run. In about 4 * P(Bin(8, 1/4) >= 5)
// ~ 11% of runs one worker homes 5 keys against its 4-context cache: it
// misses all 40 of its jobs, the other 3 keys hit 21 of 64 (32.8%), and
// the hit-rate gate fails. The bench prints each worker's key count so a
// failing run names that cause.
//
// Emits BENCH_cluster_scaling.json (see bench_io.hpp).
//
//   build/bench/perf_cluster_scaling
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_io.hpp"
#include "cluster/test_cluster.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "net/http_client.hpp"

namespace {

using namespace mpqls;

constexpr std::size_t kDistinctMatrices = 8;
constexpr std::size_t kJobs = 64;
constexpr std::size_t kWorkerCacheCapacity = 4;

std::string job_body(std::size_t index) {
  // 8 distinct systems (different seeds => different matrices, so
  // distinct fingerprints), cycled so every matrix repeats 8 times.
  const std::size_t matrix = index % kDistinctMatrices;
  Json j = Json::object();
  j["id"] = "scale-" + std::to_string(index);
  Json m = Json::object();
  m["scenario"] = "random";
  m["n"] = 16;
  m["kappa"] = 10.0;
  m["seed"] = static_cast<std::uint64_t>(100 + matrix);
  j["matrix"] = std::move(m);
  Json rhs = Json::object();
  rhs["kind"] = "random";
  rhs["count"] = 2;
  rhs["seed"] = static_cast<std::uint64_t>(7);  // same rhs per matrix: results comparable
  j["rhs"] = std::move(rhs);
  Json opt = Json::object();
  opt["eps"] = 1e-8;
  Json qsvt = Json::object();
  qsvt["backend"] = "matrix";
  qsvt["eps_l"] = 1e-2;
  opt["qsvt"] = std::move(qsvt);
  j["options"] = std::move(opt);
  return j.dump();
}

struct RunResult {
  double seconds = 0.0;
  double jobs_per_second = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t affinity_hits = 0;
  std::uint64_t spillovers = 0;
  std::vector<std::size_t> keys_per_worker;  ///< distinct matrices homed per worker
  bool all_done = true;

  double hit_rate() const {
    const auto total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(total);
  }
};

RunResult run_workload(std::size_t workers, bool affinity) {
  cluster::TestClusterOptions options;
  options.workers = workers;
  options.worker.service.cache_capacity = kWorkerCacheCapacity;
  options.worker.service.solve_threads = 1;
  options.worker.service.job_threads = 1;
  options.worker.service.max_pending_jobs = kJobs + 8;  // keep 429 noise out of timing
  options.coordinator.affinity_routing = affinity;
  cluster::TestCluster cluster(options);

  net::HttpClient client("127.0.0.1", cluster.port());

  RunResult result;
  result.keys_per_worker.assign(workers, 0);
  for (std::size_t m = 0; m < kDistinctMatrices; ++m) {
    ++result.keys_per_worker[cluster.coordinator().affinity_home(job_body(m))];
  }

  Timer wall;
  std::vector<std::string> ids;
  ids.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    const auto response = client.post("/v1/jobs", job_body(i));
    if (response.status != 202) {
      std::fprintf(stderr, "submit %zu refused (%d): %s\n", i, response.status,
                   response.body.c_str());
      continue;
    }
    ids.push_back(Json::parse(response.body).at("job_id").as_string());
  }

  result.all_done = ids.size() == kJobs;
  for (const auto& id : ids) {
    for (;;) {
      const auto response = client.get("/v1/jobs/" + id);
      if (response.status != 200) {
        result.all_done = false;
        break;
      }
      const std::string state = Json::parse(response.body).at("state").as_string();
      if (state == "done") break;
      if (state == "failed" || state == "cancelled") {
        result.all_done = false;
        break;
      }
      // Poll gently: on a small machine a hot poll loop would steal CPU
      // from the very solves being timed.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  result.seconds = wall.seconds();
  result.jobs_per_second = static_cast<double>(kJobs) / result.seconds;

  for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
    const auto stats = cluster.worker(w).service().cache_stats();
    result.cache_hits += stats.hits;
    result.cache_misses += stats.misses;
  }
  const auto routing = cluster.coordinator().routing_stats();
  result.affinity_hits = routing.affinity_hits;
  result.spillovers = routing.spillovers;

  cluster.stop();
  return result;
}

}  // namespace

int main() {
  std::printf("cluster scaling: %zu jobs over %zu distinct matrices, per-worker cache %zu\n\n",
              kJobs, kDistinctMatrices, kWorkerCacheCapacity);

  const RunResult one = run_workload(1, /*affinity=*/true);
  const RunResult four = run_workload(4, /*affinity=*/true);
  const RunResult random4 = run_workload(4, /*affinity=*/false);

  TextTable table({"configuration", "wall (s)", "jobs/s", "cache hits", "misses", "hit rate",
                   "affinity", "spill"});
  const auto add = [&table](const char* name, const RunResult& r) {
    table.add_row({name, fmt_fix(r.seconds, 2), fmt_fix(r.jobs_per_second, 1),
                   std::to_string(r.cache_hits), std::to_string(r.cache_misses),
                   fmt_fix(r.hit_rate() * 100.0, 1) + "%", std::to_string(r.affinity_hits),
                   std::to_string(r.spillovers)});
  };
  add("1 worker, affinity", one);
  add("4 workers, affinity", four);
  add("4 workers, random", random4);
  table.print(std::cout);

  std::size_t max_keys = 0;
  std::printf("\nmatrices homed per worker (4 workers, affinity):");
  for (const std::size_t k : four.keys_per_worker) {
    std::printf(" %zu", k);
    max_keys = std::max(max_keys, k);
  }
  std::printf(" (cache capacity %zu)\n", kWorkerCacheCapacity);
  if (max_keys > kWorkerCacheCapacity) {
    std::printf("NOTE: a worker homes %zu matrices > its cache capacity %zu, so cyclic access "
                "misses every one of its jobs; ring placement follows the workers' ephemeral "
                "ports\n",
                max_keys, kWorkerCacheCapacity);
  }

  const double speedup = one.seconds / four.seconds;
  std::printf("\n4-worker speedup: %.2fx (acceptance: >= 2.5x)\n", speedup);
  std::printf("hit rate, affinity vs random: %.1f%% vs %.1f%% (acceptance: strictly higher)\n",
              four.hit_rate() * 100.0, random4.hit_rate() * 100.0);

  bool ok = one.all_done && four.all_done && random4.all_done;
  if (!ok) std::printf("FAIL: not every job completed\n");
  if (speedup < 2.5) {
    std::printf("FAIL: speedup %.2fx below 2.5x\n", speedup);
    ok = false;
  }
  if (four.hit_rate() <= random4.hit_rate()) {
    std::printf("FAIL: affinity hit rate did not beat random routing\n");
    ok = false;
  }

  bench::BenchReport report("cluster_scaling");
  report.metric("jobs", static_cast<double>(kJobs));
  report.metric("speedup_4workers", speedup);
  report.metric("jobs_per_second_1", one.jobs_per_second);
  report.metric("jobs_per_second_4", four.jobs_per_second);
  report.metric("hit_rate_affinity", four.hit_rate());
  report.metric("hit_rate_random", random4.hit_rate());
  report.metric("max_keys_per_worker", static_cast<double>(max_keys));
  report.pass(ok);
  report.write();
  return ok ? 0 : 1;
}
