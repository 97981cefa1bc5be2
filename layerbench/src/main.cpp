// The layer-ledger benchmark: drives the shipped job shapes through the
// real serving path — an in-process net::SolverDaemon over loopback in
// front of service::SolverService, or a W=4 shard group of services over
// LocalPeerGroup — checks every result, and prints the end-to-end
// metrics. The traced run (--trace 1) splits the same jobs into per-layer
// numbers, timed only from outside the program: public calls, the spans
// each job already records (GET /v1/jobs/{id}/trace), and a metering
// ExecBackend decorator (traced_backend.cpp).
//
//   layerbench --workload batch-warm --seed 1 --seconds 10 --trace 0
//
// Workloads (every one closed-loop, inputs generated from --seed only):
//   batch-warm   1 client, binary by-ref submits, n=64, 16 RHS, adaptive
//   single-json  2 clients, inline JSON, n=64, 1 RHS, adaptive, 4 matrices
//   cold-upload  2 clients, PUT a fresh n=64 matrix then submit by ref,
//                4 RHS, fixed double
//   dist-w4      1 client, W=4 shard group, n=64, 16 RHS, adaptive
// Matrices are random_with_cond at kappa=30, right-hand sides
// random_unit_vector; every job asks eps=1e-11 and eps_l=5e-2. The daemon
// and the services run the default ServiceOptions and thread settings.
// batch-warm has one client and n=64, not two clients and n=128: two
// concurrent 16-RHS jobs, each with an intra-op OpenMP team on the same
// cores, ran anywhere from 7 to 13 RHS/s on one seed from run to run, and
// one client at n=128 (about 1 GB of compiled matrices streamed per sweep)
// still moved 30% with other tenants' load on the host from one minute to
// the next. At n=64 it is also the single-node twin of dist-w4.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is nonzero when any job failed or failed a check.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "ledger.hpp"
#include "linalg/dd128.hpp"
#include "linalg/jacobi_svd.hpp"
#include "linalg/random_matrix.hpp"
#include "net/daemon.hpp"
#include "net/http_client.hpp"
#include "poly/inverse_poly.hpp"
#include "qsim/exec/dist/peer_channel.hpp"
#include "qsp/symmetric_qsp.hpp"
#include "qsvt/solve.hpp"
#include "service/json_io.hpp"
#include "service/limits.hpp"
#include "service/solver_service.hpp"
#include "traced_backend.hpp"
#include "wire/codec.hpp"

namespace layerbench {
namespace {

using mpqls::Json;
using mpqls::Timer;
using mpqls::Xoshiro256;
namespace linalg = mpqls::linalg;
namespace net = mpqls::net;
namespace qsvt = mpqls::qsvt;
namespace service = mpqls::service;
namespace wire = mpqls::wire;
using mpqls::solver::kTierDouble;
using mpqls::solver::kTierHalf;
using mpqls::solver::kTierSingle;
using Matrix = linalg::Matrix<double>;
using Vec = linalg::Vector<double>;

constexpr double kEps = 1e-11;
constexpr double kEpsL = 5e-2;
constexpr double kKappa = 30.0;
/// A run is this many segments, each a fresh set-up followed by a third of
/// the timed seconds; setup_s is the median set-up, the other metrics pool
/// the segments' jobs. Spreading the timed jobs over the whole run, and
/// over several daemons, averages out minute-scale noise from other
/// tenants of the host that one contiguous window would catch whole.
constexpr int kSegments = 3;
constexpr std::uint32_t kDistWorld = 4;

/// Client poll back-off: wait elapsed/32 between polls, within [1, 100] ms.
/// A poll costs the daemon's event loop a wake-up that competes with the
/// replay's OpenMP team for the same cores, so a fixed short interval slows
/// multi-second jobs; this sees a completion within ~3% of the job's age
/// and polls a 0.5 s job about 120 times.
void poll_wait(const Timer& since_submit) {
  const double wait = std::clamp(since_submit.seconds() / 32.0, 1e-3, 0.1);
  std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

enum class Submit { kBinaryRef, kJsonInline, kUploadThenRef, kDistGroup };

struct Workload {
  const char* name;
  std::size_t n;
  std::size_t rhs_per_job;
  qsvt::QpuPrecision precision;
  Submit submit;
  std::size_t clients;
  std::size_t matrices;  ///< warm matrix pool; 0 = a fresh matrix per job
};

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> w = {
      {"batch-warm", 64, 16, qsvt::QpuPrecision::kAdaptive, Submit::kBinaryRef, 1, 1},
      {"single-json", 64, 1, qsvt::QpuPrecision::kAdaptive, Submit::kJsonInline, 2, 4},
      {"cold-upload", 64, 4, qsvt::QpuPrecision::kDouble, Submit::kUploadThenRef, 2, 0},
      {"dist-w4", 64, 16, qsvt::QpuPrecision::kAdaptive, Submit::kDistGroup, 1, 1},
  };
  return w;
}

// ---------------------------------------------------------------------------
// Seeded inputs: --seed is the only entropy; each input has its own stream.
// ---------------------------------------------------------------------------

enum Stream : std::uint64_t { kPoolMatrix = 1, kJobRhs = 2, kJobMatrix = 3, kWarmRhs = 4 };

std::uint64_t stream_seed(std::uint64_t seed, Stream stream, std::uint64_t a, std::uint64_t b = 0) {
  using mpqls::mix64;
  return mix64(mix64(mix64(seed ^ 0x6C6179657262656Eull) ^ stream) ^ a) ^ mix64(b + 1);
}

std::shared_ptr<const Matrix> make_matrix(std::uint64_t stream, std::size_t n) {
  Xoshiro256 rng(stream);
  return std::make_shared<const Matrix>(linalg::random_with_cond(rng, n, kKappa));
}

std::vector<Vec> make_rhs(std::uint64_t stream, std::size_t n, std::size_t count) {
  Xoshiro256 rng(stream);
  std::vector<Vec> rhs;
  for (std::size_t k = 0; k < count; ++k) rhs.push_back(linalg::random_unit_vector(rng, n));
  return rhs;
}

mpqls::solver::QsvtIrOptions job_options(const Workload& w) {
  mpqls::solver::QsvtIrOptions o;
  o.eps = kEps;
  o.qsvt.eps_l = kEpsL;
  o.qsvt.precision = w.precision;
  return o;
}

/// One warm matrix: the generated bytes and, for by-ref workloads, the
/// store reference the upload returned.
struct Pooled {
  std::shared_ptr<const Matrix> A;
  std::uint64_t ref = 0;
};

struct JobInput {
  std::shared_ptr<const Matrix> A;
  std::uint64_t ref = 0;  ///< nonzero: submit by reference to a warm upload
  std::vector<Vec> rhs;
};

// ---------------------------------------------------------------------------
// Correctness: the scaled residual recomputed in dd128 from the returned x.
// ---------------------------------------------------------------------------

double dd128_scaled_residual(const Matrix& A, const Vec& b, const Vec& x) {
  using linalg::dd128;
  dd128 rr = 0.0;
  dd128 bb = 0.0;
  for (std::size_t i = 0; i < A.rows(); ++i) {
    dd128 r = b[i];
    for (std::size_t j = 0; j < A.cols(); ++j) r -= dd128(A(i, j)) * dd128(x[j]);
    rr += r * r;
    bb += dd128(b[i]) * dd128(b[i]);
  }
  return static_cast<double>(linalg::sqrt(rr) / linalg::sqrt(bb));
}

/// Empty when every RHS converged and its dd128 residual is <= eps.
std::string check_result(const service::SolveResult& result, const JobInput& in) {
  if (result.solves.size() != in.rhs.size()) return "wrong number of solves";
  for (std::size_t k = 0; k < in.rhs.size(); ++k) {
    const auto& rep = result.solves[k].report;
    if (!rep.converged) return "rhs " + std::to_string(k) + " did not converge";
    if (rep.x.size() != in.A->rows()) return "rhs " + std::to_string(k) + ": wrong x size";
    const double omega = dd128_scaled_residual(*in.A, in.rhs[k], rep.x);
    if (!(omega <= kEps)) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "rhs %zu: dd128 scaled residual %.3e > eps", k, omega);
      return buf;
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// One job, end to end, and what it left behind.
// ---------------------------------------------------------------------------

struct JobRecord {
  bool ok = false;
  std::string error;
  double latency_s = 0.0;   ///< first request byte sent -> result decoded
  std::size_t client = 0;
  double interval_s = 0.0;  ///< since this client's previous job finished
  std::size_t rhs = 0;
  std::uint64_t be_calls = 0;
  std::size_t polls = 0;
  std::size_t request_bytes = 0;
  std::size_t result_bytes = 0;
  std::size_t puts = 0;
  double put_s = 0.0;
  std::size_t put_bytes = 0;
  // Solver and service telemetry of the result (rank 0 for shard groups).
  std::uint64_t iterations = 0;
  std::array<std::uint64_t, 3> tier_solves{};
  std::uint64_t escalations = 0;
  double compile_s = 0.0;
  std::uint64_t panels = 0;
  std::uint64_t panel_lanes = 0;
  std::uint64_t exchange_rounds = 0;
  std::uint64_t bytes_moved = 0;
  // Harvested trace (traced runs only).
  std::vector<Span> spans;
  std::uint64_t dropped_spans = 0;
};

void absorb_result(JobRecord& rec, const service::SolveResult& result) {
  rec.rhs = result.solves.size();
  for (const auto& s : result.solves) {
    const auto& rep = s.report;
    rec.be_calls += rep.total_be_calls;
    rec.iterations += static_cast<std::uint64_t>(rep.iterations);
    for (int t = 0; t < 3; ++t) rec.tier_solves[t] += rep.tier_solves[t];
    rec.escalations += rep.precision_switches;
  }
  if (!result.solves.empty()) rec.compile_s = result.solves.front().report.program_compile_seconds;
  rec.panels = result.panels_executed;
  rec.panel_lanes = result.panel_lanes;
  rec.exchange_rounds = result.dist_exchange_rounds;
  rec.bytes_moved = result.dist_bytes_moved;
}

void absorb_trace(JobRecord& rec, const Json& trace) {
  rec.spans = spans_from_json(trace);
  rec.dropped_spans = trace.uint_or("spans_dropped", 0);
}

/// Shard-group transport for the dist workload: one LocalPeerGroup per
/// group id, created on first use and kept as long as the registry
/// (endpoints hold raw pointers into their group).
class GroupRegistry {
 public:
  std::shared_ptr<mpqls::qsim::exec::dist::PeerChannel> channel(const service::ShardSpec& s) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& group = groups_[s.group];
    if (!group) group = std::make_shared<mpqls::qsim::exec::dist::LocalPeerGroup>(s.world);
    return group->channel(s.rank);
  }

 private:
  std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<mpqls::qsim::exec::dist::LocalPeerGroup>> groups_;
};

/// What the jobs run against: a daemon on an ephemeral loopback port, or
/// a shard group of in-process services.
struct Target {
  std::unique_ptr<net::SolverDaemon> daemon;
  std::shared_ptr<GroupRegistry> groups;
  std::vector<std::unique_ptr<service::SolverService>> ranks;
  std::atomic<std::uint64_t> next_group{1};
  std::vector<Pooled> pool;
};

std::uint64_t ref_from_upload(const net::HttpClient::Response& r) {
  if (r.status != 200 && r.status != 201) {
    throw std::runtime_error("matrix upload refused (" + std::to_string(r.status) + ")");
  }
  return service::u64_from_hex(Json::parse(r.body).at("matrix_ref").as_string());
}

JobRecord run_http_job(net::HttpClient& client, const Workload& w, const JobInput& in,
                       bool harvest_trace) {
  JobRecord rec;
  service::SolveRequest req;
  req.id = w.name;
  req.options = job_options(w);
  req.rhs = in.rhs;
  std::string body;
  std::string matrix_frame;
  if (w.submit == Submit::kJsonInline) {
    req.A = *in.A;
    body = service::to_json(req).dump();
  } else if (w.submit == Submit::kBinaryRef) {
    req.matrix_ref = in.ref;
    body = wire::encode_request(req);
  } else {
    matrix_frame = wire::encode_matrix(*in.A);
  }

  Timer latency;
  if (w.submit == Submit::kUploadThenRef) {
    Timer put;
    req.matrix_ref = ref_from_upload(client.put("/v1/matrices", matrix_frame, wire::kContentType));
    rec.put_s = put.seconds();
    rec.put_bytes = matrix_frame.size();
    rec.puts = 1;
    rec.request_bytes += matrix_frame.size();
    body = wire::encode_request(req);
  }
  rec.request_bytes += body.size();
  const bool json = w.submit == Submit::kJsonInline;
  const auto submitted =
      client.post("/v1/jobs", std::move(body), json ? "application/json" : wire::kContentType);
  if (submitted.status != 202) {
    rec.error = "submit refused (" + std::to_string(submitted.status) + ")";
    return rec;
  }
  const std::string job_id = Json::parse(submitted.body).at("job_id").as_string();

  service::SolveResult result;
  for (;;) {
    ++rec.polls;
    if (json) {
      const auto r = client.get("/v1/jobs/" + job_id);
      if (r.status != 200) {
        rec.error = "poll failed (" + std::to_string(r.status) + ")";
        return rec;
      }
      const Json status = Json::parse(r.body);
      const std::string state = status.at("state").as_string();
      if (state == "done") {
        rec.result_bytes = r.body.size();
        result = service::result_from_json(status.at("result"));
        break;
      }
      if (state != "queued" && state != "running") {
        rec.error = "job " + state + ": " + status.string_or("error", "");
        return rec;
      }
    } else {
      const auto r = client.get("/v1/jobs/" + job_id + "/result", {{"Accept", wire::kContentType}});
      if (r.status == 200) {
        rec.result_bytes = r.body.size();
        result = wire::decode_result(r.body);
        break;
      }
      const std::string state =
          r.status == 409 ? Json::parse(r.body).string_or("state", "?") : "http";
      if (state != "queued" && state != "running") {
        rec.error = "job " + state + " (" + std::to_string(r.status) + ")";
        return rec;
      }
    }
    poll_wait(latency);
  }
  rec.latency_s = latency.seconds();

  absorb_result(rec, result);
  rec.error = check_result(result, in);
  rec.ok = rec.error.empty();
  if (harvest_trace) {
    const auto r = client.get("/v1/jobs/" + job_id + "/trace");
    if (r.status == 200) absorb_trace(rec, Json::parse(r.body));
  }
  return rec;
}

/// One shard-group job: the same request submitted to every rank from
/// its own thread; done when all ranks are terminal. Rank 0's result is
/// checked against the dd128 residual, every other rank's x must equal
/// rank 0's bit for bit.
JobRecord run_dist_job(Target& target, const Workload& w, const JobInput& in, bool harvest_trace) {
  JobRecord rec;
  service::SolveRequest base;
  base.id = w.name;
  base.options = job_options(w);
  base.rhs = in.rhs;
  base.shared_A = in.A;
  const std::uint64_t group = target.next_group.fetch_add(1);

  std::vector<std::optional<service::JobStatus>> finals(kDistWorld);
  std::vector<std::size_t> polls(kDistWorld, 0);
  Timer latency;
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < kDistWorld; ++r) {
    threads.emplace_back([&, r] {
      service::SolveRequest req = base;
      req.shard.group = group;
      req.shard.rank = r;
      req.shard.world = kDistWorld;
      req.shard.peers.assign(kDistWorld, "local");
      auto& svc = *target.ranks[r];
      const auto id = svc.submit_job(std::move(req));
      if (!id) return;
      for (;;) {
        ++polls[r];
        auto status = svc.job_status(*id);
        if (!status) return;
        if (status->state != service::JobState::kQueued &&
            status->state != service::JobState::kRunning) {
          finals[r] = std::move(status);
          return;
        }
        poll_wait(latency);
      }
    });
  }
  for (auto& t : threads) t.join();
  rec.latency_s = latency.seconds();
  for (std::size_t p : polls) rec.polls = std::max(rec.polls, p);

  for (std::uint32_t r = 0; r < kDistWorld; ++r) {
    if (!finals[r] || finals[r]->state != service::JobState::kDone || !finals[r]->result) {
      rec.error = "rank " + std::to_string(r) + " " +
                  (finals[r] ? std::string(service::to_string(finals[r]->state)) + ": " +
                                   finals[r]->error
                             : std::string("refused or lost"));
      return rec;
    }
  }
  const service::SolveResult& lead = *finals[0]->result;
  absorb_result(rec, lead);
  rec.error = check_result(lead, in);
  for (std::uint32_t r = 1; r < kDistWorld && rec.error.empty(); ++r) {
    const auto& other = finals[r]->result->solves;
    for (std::size_t k = 0; k < lead.solves.size() && rec.error.empty(); ++k) {
      const Vec& a = lead.solves[k].report.x;
      const Vec& b = other[k].report.x;
      if (a.size() != b.size() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
        rec.error = "rank " + std::to_string(r) + " x differs from rank 0 (rhs " +
                    std::to_string(k) + ")";
      }
    }
  }
  rec.ok = rec.error.empty();
  if (harvest_trace && finals[0]->trace) {
    absorb_trace(rec, service::trace_to_json(*finals[0]->trace));
  }
  return rec;
}

/// `http` is null for the shard group, which is driven in process.
JobRecord run_job(Target& target, net::HttpClient* http, const Workload& w, const JobInput& in,
                  bool harvest_trace) {
  try {
    if (w.submit == Submit::kDistGroup) return run_dist_job(target, w, in, harvest_trace);
    return run_http_job(*http, w, in, harvest_trace);
  } catch (const std::exception& e) {
    JobRecord rec;
    rec.error = e.what();
    return rec;
  }
}

std::unique_ptr<net::HttpClient> make_client(const Target& target) {
  if (!target.daemon) return nullptr;
  return std::make_unique<net::HttpClient>("127.0.0.1", target.daemon->port());
}

// ---------------------------------------------------------------------------
// Set-up: start the daemon (or the shard group), upload the warm matrices,
// run one warm-up job per warm matrix so every tier the jobs use is
// compiled. Input generation happens before the clock starts.
// ---------------------------------------------------------------------------

struct Setup {
  std::unique_ptr<Target> target;
  double seconds = 0.0;
  std::vector<JobRecord> warmups;
};

Setup set_up(const Workload& w, std::uint64_t seed) {
  std::vector<std::shared_ptr<const Matrix>> pool;
  for (std::size_t m = 0; m < w.matrices; ++m) {
    pool.push_back(make_matrix(stream_seed(seed, kPoolMatrix, m), w.n));
  }
  std::vector<JobInput> warm;
  const std::size_t warm_jobs = std::max<std::size_t>(w.matrices, 1);
  for (std::size_t m = 0; m < warm_jobs; ++m) {
    JobInput in;
    in.A = m < pool.size() ? pool[m] : make_matrix(stream_seed(seed, kJobMatrix, ~0ull, m), w.n);
    in.rhs = make_rhs(stream_seed(seed, kWarmRhs, m), w.n, w.rhs_per_job);
    warm.push_back(std::move(in));
  }

  Setup s;
  s.target = std::make_unique<Target>();
  Target& t = *s.target;
  Timer clock;
  if (w.submit == Submit::kDistGroup) {
    t.groups = std::make_shared<GroupRegistry>();
    for (std::uint32_t r = 0; r < kDistWorld; ++r) {
      service::ServiceOptions o;
      o.shard_channel = [groups = t.groups](const service::ShardSpec& spec) {
        return groups->channel(spec);
      };
      t.ranks.push_back(std::make_unique<service::SolverService>(std::move(o)));
    }
  } else {
    net::DaemonOptions o;
    o.port = 0;
    t.daemon = std::make_unique<net::SolverDaemon>(std::move(o));
    t.daemon->start();
  }
  const auto client = make_client(t);
  for (const auto& A : pool) {
    Pooled p{A, 0};
    if (w.submit == Submit::kBinaryRef) {
      p.ref = ref_from_upload(
          client->put("/v1/matrices", wire::encode_matrix(*A), wire::kContentType));
    }
    t.pool.push_back(std::move(p));
  }
  for (std::size_t m = 0; m < warm.size(); ++m) {
    if (m < t.pool.size()) warm[m].ref = t.pool[m].ref;
    s.warmups.push_back(run_job(t, client.get(), w, warm[m], false));
  }
  s.seconds = clock.seconds();
  return s;
}

// ---------------------------------------------------------------------------
// A timed phase: `clients` closed-loop clients for `seconds`. Segment s
// draws job inputs k + s * 2^32, so no two segments repeat a job.
// ---------------------------------------------------------------------------

using Phase = std::vector<JobRecord>;

Phase measure(Target& target, const Workload& w, std::uint64_t seed, double seconds,
              bool harvest_trace, std::uint64_t segment) {
  std::vector<std::vector<JobRecord>> per_client(w.clients);
  std::vector<std::thread> threads;
  Timer phase;
  for (std::size_t c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      const auto client = make_client(target);
      double last = 0.0;
      for (std::uint64_t k = segment << 32; phase.seconds() < seconds; ++k) {
        JobInput in;
        in.rhs = make_rhs(stream_seed(seed, kJobRhs, c, k), w.n, w.rhs_per_job);
        if (w.matrices == 0) {
          in.A = make_matrix(stream_seed(seed, kJobMatrix, c, k), w.n);
        } else {
          const Pooled& p = target.pool[(k * w.clients + c) % target.pool.size()];
          in.A = p.A;
          in.ref = p.ref;
        }
        JobRecord rec = run_job(target, client.get(), w, in, harvest_trace);
        const double now = phase.seconds();
        rec.client = c;
        rec.interval_s = now - last;
        last = now;
        per_client[c].push_back(std::move(rec));
      }
    });
  }
  for (auto& t : threads) t.join();
  Phase p;
  for (auto& jobs : per_client) {
    for (auto& j : jobs) p.push_back(std::move(j));
  }
  return p;
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Closed-loop throughput: per client, the verified RHS over the wall
/// time from each phase start to that client's last job in the phase;
/// summed over the clients.
double rhs_per_second(const Phase& p) {
  std::map<std::size_t, std::pair<double, double>> per_client;  // rhs, busy seconds
  for (const auto& j : p) {
    auto& [rhs, busy] = per_client[j.client];
    rhs += j.ok ? static_cast<double>(j.rhs) : 0.0;
    busy += j.interval_s;
  }
  double total = 0.0;
  for (const auto& [client, c] : per_client) total += c.second > 0.0 ? c.first / c.second : 0.0;
  return total;
}

std::vector<Metric> end_to_end(const Workload& w, const Phase& p, double setup_s) {
  std::vector<double> latencies;
  std::size_t ok = 0;
  std::size_t rhs = 0;
  std::uint64_t be_calls = 0;
  for (const auto& j : p) {
    if (!j.ok) continue;
    ++ok;
    latencies.push_back(j.latency_s);
    rhs += j.rhs;
    be_calls += j.be_calls;
  }
  const Tail tail = tail_with_samples_beyond(latencies);
  std::printf("%s: job_tail_s is p%.1f of %zu job latencies, %zu beyond it\n", w.name,
              tail.percentile, tail.samples, tail.beyond);
  const double attempted = static_cast<double>(std::max<std::size_t>(p.size(), 1));
  return {
      {"setup_s", setup_s, "s"},
      {"rhs_per_s", rhs_per_second(p), "1/s"},
      {"job_p50_s", median(latencies), "s"},
      {"job_tail_s", tail.value, "s"},
      {"ok_frac", static_cast<double>(ok) / attempted, "ratio"},
      {"be_calls_per_rhs", rhs ? static_cast<double>(be_calls) / static_cast<double>(rhs) : 0.0,
       "calls/rhs"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
}

/// Layer timings measured in isolation on the workload's first matrix:
/// the three prepare stages, and the replay of one job's right-hand sides
/// at default threads against one thread.
struct Isolated {
  double svd_s = 0.0;
  double poly_s = 0.0;
  double qsp_s = 0.0;
  double parallel_speedup = 0.0;
};

double median_seconds(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    Timer timer;
    fn();
    t.push_back(timer.seconds());
  }
  return median(t);
}

Isolated isolated_layers(const Workload& w, std::uint64_t seed) {
  const auto A = make_matrix(stream_seed(seed, kPoolMatrix, 0), w.n);
  const auto options = job_options(w).qsvt;
  Isolated out;
  out.svd_s = median_seconds(3, [&] { (void)linalg::jacobi_svd(*A); });
  const auto ctx = qsvt::prepare_qsvt_solver_shared(*A, options);
  out.poly_s = median_seconds(
      3, [&] { (void)mpqls::poly::inverse_poly_interpolated(ctx->kappa_effective, options.eps_l); });
  out.qsp_s = median_seconds(
      3, [&] { (void)mpqls::qsp::solve_symmetric_qsp(ctx->target, options.qsp_options); });

  // Adaptive jobs replay mostly on the half tier, fixed ones on double.
  const auto tier = w.precision == qsvt::QpuPrecision::kAdaptive ? qsvt::QpuPrecision::kHalf
                                                                  : qsvt::QpuPrecision::kDouble;
  const auto rhs = make_rhs(stream_seed(seed, kWarmRhs, 0), w.n, w.rhs_per_job);
  const auto replay = [&] { (void)qsvt::qsvt_solve_directions(*ctx, rhs, nullptr, tier); };
  replay();
  const double parallel = median_seconds(5, replay);
#ifdef _OPENMP
  const int threads = omp_get_max_threads();
  omp_set_num_threads(1);
  const double serial = median_seconds(5, replay);
  omp_set_num_threads(threads);
#else
  const double serial = parallel;
#endif
  out.parallel_speedup = parallel > 0.0 ? serial / parallel : 0.0;
  return out;
}

std::vector<Metric> per_layer(const Workload& w, const Phase& traced, const ExecCounters& exec,
                              double dist_local, double dist_exchange, double untraced_rhs_per_s,
                              const Isolated& iso) {
  std::vector<const JobRecord*> ok;
  for (const auto& j : traced) {
    if (j.ok) ok.push_back(&j);
  }
  const auto sum = [&ok](auto field) {
    double total = 0.0;
    for (const JobRecord* j : ok) total += static_cast<double>(field(*j));
    return total;
  };
  // Span time by key (the span name; replay spans also by tier, prepare
  // spans by cache outcome), span counts by key, and self time by name.
  std::map<std::string, double> span_s, span_n, self_s;
  for (const JobRecord* j : ok) {
    const auto self = self_times(j->spans);
    for (std::size_t i = 0; i < j->spans.size(); ++i) {
      const Span& s = j->spans[i];
      std::string key = s.name;
      if (s.name == "replay") key += "." + s.attr("tier");
      if (s.name == "prepare") key += "." + s.attr("cache");
      span_s[key] += s.duration_s;
      span_n[key] += 1.0;
      self_s[s.name] += self[i];
    }
  }
  const auto get = [](const std::map<std::string, double>& m, const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto span = [&](const std::string& key) { return get(span_s, key); };
  const auto per = [](double total, double count) { return count > 0.0 ? total / count : 0.0; };

  const double jobs = static_cast<double>(ok.size());
  const double rhs = sum([](const JobRecord& j) { return j.rhs; });
  const double latency = sum([](const JobRecord& j) { return j.latency_s; });
  double self_total = 0.0;
  for (const auto& [name, t] : self_s) self_total += t;
  const double apply_total = exec.apply_seconds[0] + exec.apply_seconds[1] + exec.apply_seconds[2];
  const double replay_total = span("replay.half") + span("replay.single") + span("replay.double");
  const double hits = get(span_n, "prepare.hit");
  const double misses = get(span_n, "prepare.miss");
  const double puts = sum([](const JobRecord& j) { return j.puts; });
  const double panels = sum([](const JobRecord& j) { return j.panels; });
  // ServiceOptions' default panel width, doubled for adaptive jobs.
  const double width = w.precision == qsvt::QpuPrecision::kAdaptive ? 16.0 : 8.0;

  std::printf("\n%s ledger: self time per job by span, share of job latency\n", w.name);
  for (const auto& [name, t] : self_s) {
    std::printf("  %-14s %10.6f s  %5.1f%%\n", name.c_str(), per(t, jobs), 100.0 * per(t, latency));
  }
  std::printf("  %-14s %10.6f s  %5.1f%%\n\n", "(unattributed)", per(latency - self_total, jobs),
              100.0 * per(latency - self_total, latency));

  return {
      {"exec.apply_s.half", per(exec.apply_seconds[kTierHalf], jobs), "s/job"},
      {"exec.apply_s.single", per(exec.apply_seconds[kTierSingle], jobs), "s/job"},
      {"exec.apply_s.double", per(exec.apply_seconds[kTierDouble], jobs), "s/job"},
      {"exec.ops.apply1q", per(static_cast<double>(exec.ops[0]), jobs), "ops/job"},
      {"exec.ops.dense", per(static_cast<double>(exec.ops[1]), jobs), "ops/job"},
      {"exec.ops.diagonal", per(static_cast<double>(exec.ops[2]), jobs), "ops/job"},
      {"exec.ops.phase", per(static_cast<double>(exec.ops[3]), jobs), "ops/job"},
      {"exec.bytes_computed", per(static_cast<double>(exec.bytes_computed), jobs), "B/job"},
      {"exec.lane_occupancy",
       per(sum([](const JobRecord& j) { return j.panel_lanes; }), panels * width), "ratio"},
      {"exec.parallel_speedup", iso.parallel_speedup, "x"},
      {"solver.replay_s.half", per(span("replay.half"), jobs), "s/job"},
      {"solver.replay_s.single", per(span("replay.single"), jobs), "s/job"},
      {"solver.replay_s.double", per(span("replay.double"), jobs), "s/job"},
      {"solver.classical_s",
       per(std::max(0.0, replay_total - apply_total - dist_local - dist_exchange), jobs), "s/job"},
      {"solver.dd128_s", per(span("dd128_verify"), jobs), "s/job"},
      {"solver.iterations_per_rhs", per(sum([](const JobRecord& j) { return j.iterations; }), rhs),
       "iter/rhs"},
      {"solver.tier_solves.half",
       per(sum([](const JobRecord& j) { return j.tier_solves[kTierHalf]; }), rhs), "solves/rhs"},
      {"solver.tier_solves.single",
       per(sum([](const JobRecord& j) { return j.tier_solves[kTierSingle]; }), rhs), "solves/rhs"},
      {"solver.tier_solves.double",
       per(sum([](const JobRecord& j) { return j.tier_solves[kTierDouble]; }), rhs), "solves/rhs"},
      {"solver.escalations_per_rhs",
       per(sum([](const JobRecord& j) { return j.escalations; }), rhs), "count/rhs"},
      {"qsvt.prepare_s.hit", per(span("prepare.hit"), hits), "s"},
      {"qsvt.prepare_s.miss", per(span("prepare.miss"), misses), "s"},
      {"linalg.svd_s", iso.svd_s, "s"},
      {"poly.inverse_s", iso.poly_s, "s"},
      {"qsp.phases_s", iso.qsp_s, "s"},
      {"exec.compile_s", per(sum([](const JobRecord& j) { return j.compile_s; }), jobs), "s"},
      {"store.put_s", per(sum([](const JobRecord& j) { return j.put_s; }), puts), "s"},
      {"store.put_bytes", per(sum([](const JobRecord& j) { return j.put_bytes; }), puts), "B"},
      {"service.cache_hit_ratio", per(hits, hits + misses), "ratio"},
      {"net.admission_s", per(span("admission"), jobs), "s/job"},
      {"service.queue_s", per(span("queue"), jobs), "s/job"},
      {"wire.decode_s", per(span("materialize"), jobs), "s/job"},
      {"service.render_s", per(span("render"), jobs), "s/job"},
      {"wire.request_bytes", per(sum([](const JobRecord& j) { return j.request_bytes; }), jobs),
       "B/job"},
      {"wire.result_bytes", per(sum([](const JobRecord& j) { return j.result_bytes; }), jobs),
       "B/job"},
      {"net.polls_per_job", per(sum([](const JobRecord& j) { return j.polls; }), jobs),
       "polls/job"},
      {"net.client_overhead_s", per(latency - span("queue") - span("run"), jobs), "s/job"},
      {"dist.local_s", per(dist_local, jobs), "s/job"},
      {"dist.exchange_s", per(dist_exchange, jobs), "s/job"},
      {"dist.exchange_rounds", per(sum([](const JobRecord& j) { return j.exchange_rounds; }), jobs),
       "rounds/job"},
      {"dist.bytes_moved", per(sum([](const JobRecord& j) { return j.bytes_moved; }), jobs),
       "B/job"},
      {"ledger.unattributed_frac", per(latency - self_total, latency), "ratio"},
      {"trace.dropped_spans", sum([](const JobRecord& j) { return j.dropped_spans; }), "count"},
      {"trace.overhead_ratio", per(rhs_per_second(traced), untraced_rhs_per_s), "ratio"},
  };
}

// ---------------------------------------------------------------------------
// Command line and the run.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        a.trace = value == "1";
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload || !(a.seconds > 0.0)) return std::nullopt;
  return a;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void count_jobs(const std::vector<JobRecord>& jobs, std::size_t& attempted, std::size_t& failed) {
  for (const auto& j : jobs) {
    ++attempted;
    if (!j.ok) {
      ++failed;
      std::fprintf(stderr, "job failed: %s\n", j.error.c_str());
    }
  }
}

int run(const Args& args, const Workload& w) {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;

  if (!args.trace) {
    std::vector<double> setups;
    Phase jobs;
    for (int segment = 0; segment < kSegments; ++segment) {
      {
        const Setup s = set_up(w, args.seed);
        setups.push_back(s.seconds);
        count_jobs(s.warmups, attempted, failed);
        Phase p = measure(*s.target, w, args.seed, args.seconds / kSegments, false, segment);
        count_jobs(p, attempted, failed);
        for (auto& j : p) jobs.push_back(std::move(j));
      }
#ifdef __GLIBC__
      // Hand the torn-down daemon's freed heap back to the OS, so that
      // peak_rss_mib is the largest single segment's footprint, not what
      // the allocator happened to retain across segments.
      malloc_trim(0);
#endif
    }
    metrics = end_to_end(w, jobs, median(setups));
  } else {
    // Untraced half first, with the program untouched; then the metering
    // backend goes in, a fresh set-up prepares every context through it,
    // and the traced half harvests each job's spans.
    double untraced_rhs_per_s = 0.0;
    {
      Setup s = set_up(w, args.seed);
      count_jobs(s.warmups, attempted, failed);
      const Phase p = measure(*s.target, w, args.seed, args.seconds / 2, false, 0);
      count_jobs(p, attempted, failed);
      untraced_rhs_per_s = rhs_per_second(p);
    }
    install_traced_backend();
    Setup s = set_up(w, args.seed);
    count_jobs(s.warmups, attempted, failed);
    // Rank 0's dist counters over the timed phase only.
    const auto dist_seconds = [&s] {
      return s.target->ranks.empty()
                 ? std::pair<double, double>{0.0, 0.0}
                 : std::pair<double, double>{s.target->ranks[0]->stats().dist.local_seconds,
                                             s.target->ranks[0]->stats().dist.exchange_seconds};
    };
    const auto dist_before = dist_seconds();
    reset_traced_backend_counters();
    const Phase p = measure(*s.target, w, args.seed, args.seconds / 2, true, 0);
    count_jobs(p, attempted, failed);
    const ExecCounters exec = traced_backend_counters();
    const auto dist_after = dist_seconds();
    const Isolated iso = isolated_layers(w, args.seed);
    metrics = per_layer(w, p, exec, dist_after.first - dist_before.first,
                        dist_after.second - dist_before.second, untraced_rhs_per_s, iso);
  }

  std::printf("%s (seed %llu, %.0f s, trace %d):\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  for (const auto& m : metrics) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace layerbench

int main(int argc, char** argv) {
  const auto args = layerbench::parse_args(argc, argv);
  const layerbench::Workload* workload = nullptr;
  if (args) {
    for (const auto& w : layerbench::all_workloads()) {
      if (args->workload == w.name) workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr,
                 "usage: layerbench --workload batch-warm|single-json|cold-upload|dist-w4 "
                 "[--seed N] [--seconds S] [--trace 0|1]\n");
    return 2;
  }
  try {
    return layerbench::run(*args, *workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layerbench: %s\n", e.what());
    return 1;
  }
}
