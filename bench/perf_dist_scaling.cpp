// Distributed statevector scaling: the W-shard exchange executor vs a
// one-lane panel replay of the same compiled program, and — the point of
// the exchange *planner* — the scheduled communication plan vs the
// classification-blind naive plan on an exchange-heavy circuit.
//
//   build/bench/perf_dist_scaling            # full run + acceptance
//   build/bench/perf_dist_scaling --smoke    # tiny rep, no acceptance
//
// Workload: the unfused QSVT gadget stream (H on the real-part qubit, d
// rounds of block-encoding + CPiX · Rz · CRz · CPiX phase gadget, closing
// H), with the signal and real-part qubits on the partition side. Unfused,
// every gadget references partition qubits, so a naive schedule pays an
// exchange round per gadget op while the planner's X-conjugation and
// diagonal-demotion passes leave only the two H rounds. Shards run as
// threads over a LocalPeerGroup — same exchange plan, same wire framing
// discipline, loopback memcpy transport — so the round counts and bytes
// are exactly what W real daemons would ship.
//
// Acceptance (exit 1 on failure):
//   - scheduled plan executes strictly fewer exchange rounds than the
//     naive plan at W = 4 (both gadget qubits partitioned) and never more
//     at W = 2 (where classification alone already localizes the gadget)
//   - every replay (panel, naive, scheduled, both world sizes) agrees on
//     the final state within 1e-10
//
// Emits BENCH_dist_scaling.json (see bench_io.hpp).
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_io.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "qsim/circuit.hpp"
#include "qsim/exec/compile.hpp"
#include "qsim/exec/dist/dist_executor.hpp"
#include "qsim/exec/dist/exchange_plan.hpp"
#include "qsim/exec/dist/peer_channel.hpp"
#include "qsim/exec/panel.hpp"
#include "qsim/exec/panel_executor.hpp"

namespace {

using namespace mpqls;
using namespace mpqls::qsim::exec;
using c64 = qsim::c64;

/// The QSVT gadget stream at width n: dense block-encoding stand-in on
/// {0,1,2}, signal = n-2 and realpart = n-1 so the gadget lives on the
/// partition qubits at W = 2 (realpart high) and W = 4 (both high).
qsim::Circuit gadget_stream(Xoshiro256& rng, std::uint32_t n, std::size_t d) {
  qsim::Circuit c(n);
  const std::uint32_t signal = n - 2;
  const std::uint32_t realpart = n - 1;

  linalg::Matrix<c64> be(8, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) be(i, j) = c64(rng.normal(), rng.normal());
  }
  for (std::size_t col = 0; col < 8; ++col) {  // Gram-Schmidt -> unitary stand-in
    for (std::size_t p = 0; p < col; ++p) {
      c64 overlap{};
      for (std::size_t r = 0; r < 8; ++r) overlap += std::conj(be(r, p)) * be(r, col);
      for (std::size_t r = 0; r < 8; ++r) be(r, col) -= overlap * be(r, p);
    }
    double nrm = 0.0;
    for (std::size_t r = 0; r < 8; ++r) nrm += std::norm(be(r, col));
    nrm = std::sqrt(nrm);
    for (std::size_t r = 0; r < 8; ++r) be(r, col) /= nrm;
  }

  c.h(realpart);
  for (std::size_t k = 0; k < d; ++k) {
    c.unitary({0, 1, 2}, be);
    const double phi = 0.3 + 0.1 * static_cast<double>(k);
    qsim::Gate cpix;
    cpix.kind = qsim::GateKind::kX;
    cpix.targets = {signal};
    cpix.neg_controls = {2};
    c.push(cpix);
    c.rz(signal, 2.0 * phi);
    c.crz(realpart, signal, -4.0 * phi);
    c.push(cpix);
  }
  c.h(realpart);
  c.global_phase(-M_PI / 2.0);
  return c;
}

std::vector<std::complex<double>> random_state(Xoshiro256& rng, std::uint32_t n) {
  std::vector<std::complex<double>> amps(std::size_t{1} << n);
  double nrm = 0.0;
  for (auto& a : amps) {
    a = {rng.normal(), rng.normal()};
    nrm += std::norm(a);
  }
  nrm = std::sqrt(nrm);
  for (auto& a : amps) a /= nrm;
  return amps;
}

struct DistRun {
  double seconds = 0.0;         ///< best-of-reps wall clock for one replay
  std::uint64_t rounds = 0;     ///< exchange rounds one rank executed
  std::uint64_t bytes = 0;      ///< bytes one rank shipped
  double exchange_seconds = 0;  ///< rank-0 time inside exchanges (best rep)
  double max_diff = 0.0;        ///< vs the panel reference state
};

/// Replay `plan` on W shard threads `reps` times from the same initial
/// state; keep the fastest replay and compare the final state to `want`.
DistRun run_dist(const dist::ExchangePlan& plan, std::uint32_t world_log2,
                 const std::vector<std::complex<double>>& init,
                 const std::vector<std::complex<double>>& want, int reps) {
  const std::uint32_t world = 1u << world_log2;
  const auto n = static_cast<std::uint32_t>(plan.local_qubits + world_log2);
  DistRun out;
  out.seconds = 1e300;
  out.exchange_seconds = 1e300;

  std::vector<dist::RankProgram<double>> programs;
  for (std::uint32_t r = 0; r < world; ++r) {
    programs.push_back(dist::specialize_rank<double>(plan, r));
  }

  // One-lane StatePanel shards over the local qubits; rank r holds global
  // amplitudes (r << local_qubits) | i.
  std::vector<StatePanel<double>> shards;
  for (std::uint32_t r = 0; r < world; ++r) shards.emplace_back(plan.local_qubits, 1);

  for (int rep = 0; rep < reps; ++rep) {
    for (std::uint32_t r = 0; r < world; ++r) {
      const std::uint64_t base = std::uint64_t{r} << plan.local_qubits;
      for (std::size_t i = 0; i < shards[r].dim(); ++i) shards[r].set_amp(i, 0, init[base + i]);
    }
    dist::LocalPeerGroup group(world);
    std::vector<dist::DistRunMetrics> metrics(world);
    std::vector<std::exception_ptr> errors(world);
    std::vector<std::thread> threads;
    Timer t;
    for (std::uint32_t r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        try {
          auto channel = group.channel(r);
          std::uint64_t seq = 0;
          dist::run_rank_program<double>(programs[r], shards[r], *channel, seq, &metrics[r]);
        } catch (...) {
          errors[r] = std::current_exception();
        }
      });
    }
    for (auto& th : threads) th.join();
    const double secs = t.seconds();
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    if (secs < out.seconds) {
      out.seconds = secs;
      out.exchange_seconds = metrics[0].exchange_seconds;
    }
    out.rounds = metrics[0].exchange_rounds;
    out.bytes = metrics[0].bytes_moved;
  }

  for (std::uint64_t g = 0; g < (std::uint64_t{1} << n); ++g) {
    const auto got = shards[g >> plan.local_qubits].amp(g & (shards[0].dim() - 1), 0);
    out.max_diff = std::fmax(out.max_diff, std::abs(got - want[g]));
  }
  return out;
}

int run(bool smoke) {
  const std::uint32_t n = smoke ? 6 : 16;
  const std::size_t d = smoke ? 2 : 10;
  const int reps = smoke ? 1 : 5;

  Xoshiro256 rng(31);
  const auto circuit = gadget_stream(rng, n, d);
  const auto ir = lower_and_fuse(circuit, {.fuse = false});
  const auto init = random_state(rng, n);

  // One-lane panel replay: the single-node reference both for the final
  // state and for the wall clock the shard threads are scaling against.
  std::vector<std::complex<double>> want(init.size());
  double panel_seconds = 1e300;
  {
    const auto program = specialize<double>(ir);
    for (int rep = 0; rep < reps; ++rep) {
      StatePanel<double> panel(n, 1);
      for (std::size_t i = 0; i < init.size(); ++i) panel.set_amp(i, 0, init[i]);
      Timer t;
      PanelExecutor<double>().run(program, panel);
      panel_seconds = std::fmin(panel_seconds, t.seconds());
      for (std::size_t i = 0; i < want.size(); ++i) want[i] = panel.amp(i, 0);
    }
  }

  std::printf("distributed statevector scaling: %u qubits (2^%u amps), %zu-gadget "
              "unfused QSVT stream, %zu fused ops\n\n",
              n, n, d, ir.ops.size());

  TextTable table({"configuration", "wall (ms)", "exch (ms)", "rounds", "MiB moved/rank",
                   "vs panel", "max |diff|"});
  table.add_row({"panel 1-lane", fmt_fix(panel_seconds * 1e3, 2), "-", "0", "0", "1.00x",
                 "0"});

  bench::BenchReport report("dist_scaling");
  report.label("mode", smoke ? "smoke" : "full");
  report.metric("qubits", static_cast<double>(n));
  report.metric("gadgets", static_cast<double>(d));
  report.metric("panel_ms", panel_seconds * 1e3);

  bool exact = true;
  bool schedule_wins = true;
  for (const std::uint32_t wl : {1u, 2u}) {
    const std::uint32_t world = 1u << wl;
    const auto naive_plan = dist::build_exchange_plan(ir, wl, {.schedule = false});
    const auto sched_plan = dist::build_exchange_plan(ir, wl);

    const auto naive = run_dist(naive_plan, wl, init, want, reps);
    const auto sched = run_dist(sched_plan, wl, init, want, reps);
    exact = exact && naive.max_diff < 1e-10 && sched.max_diff < 1e-10;
    // W=4 puts both gadget qubits on the partition side: the strict win
    // (X-conjugation cancels every CPiX round). At W=2 the gadget is
    // already local by classification, so the bar is "never worse".
    schedule_wins = schedule_wins &&
                    (world == 4 ? sched.rounds < naive.rounds : sched.rounds <= naive.rounds);

    const auto add = [&](const char* kind, const DistRun& r) {
      table.add_row({"W=" + std::to_string(world) + " " + kind, fmt_fix(r.seconds * 1e3, 2),
                     fmt_fix(r.exchange_seconds * 1e3, 2), std::to_string(r.rounds),
                     fmt_fix(static_cast<double>(r.bytes) / (1024.0 * 1024.0), 2),
                     fmt_fix(panel_seconds / r.seconds, 2) + "x", fmt_sci(r.max_diff)});
    };
    add("naive", naive);
    add("scheduled", sched);

    const std::string w = std::to_string(world);
    report.metric("naive_rounds_w" + w, static_cast<double>(naive.rounds));
    report.metric("scheduled_rounds_w" + w, static_cast<double>(sched.rounds));
    report.metric("plan_naive_rounds_w" + w,
                  static_cast<double>(sched_plan.stats.naive_rounds));
    report.metric("naive_ms_w" + w, naive.seconds * 1e3);
    report.metric("scheduled_ms_w" + w, sched.seconds * 1e3);
    report.metric("scheduled_bytes_per_rank_w" + w, static_cast<double>(sched.bytes));
    report.metric("eliminated_exchanges_w" + w,
                  static_cast<double>(sched_plan.stats.eliminated_exchanges));
  }
  table.print(std::cout);
  std::printf("\n");

  if (smoke) {
    std::printf("smoke mode: shards exercised, acceptance not evaluated (diff %s)\n",
                exact ? "ok" : "ABOVE TOLERANCE");
    report.write();
    return exact ? 0 : 1;
  }

  const bool pass = exact && schedule_wins;
  std::printf("acceptance: scheduled plan executes strictly fewer exchange rounds than "
              "naive at W=4 (and never more at W=2), all replays within 1e-10 of the "
              "panel -> %s\n",
              pass ? "PASS" : "FAIL");
  if (!schedule_wins) std::printf("FAIL: scheduling did not reduce exchange rounds\n");
  if (!exact) std::printf("FAIL: replay disagreement above tolerance\n");
  report.pass(pass);
  report.write();
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;
  return run(smoke);
}
