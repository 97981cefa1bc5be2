// Fusion-correctness tests for the execution engine: randomized circuits
// (controls, negative controls, adjoints, diagonal and dense multi-qubit
// payloads, global phases, swaps) compiled and replayed as a one-lane
// panel must agree with gate-by-gate interpretation within precision
// tolerance, in both float and double. Payload interning: a QSVT program stores each
// distinct matrix once per tier, and sharing changes no result.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "linalg/random_matrix.hpp"
#include "qsim/circuit.hpp"
#include "qsim/exec/compile.hpp"
#include "qsim/exec/dist/exchange_plan.hpp"
#include "qsim/exec/panel.hpp"
#include "qsim/exec/panel_executor.hpp"
#include "qsim/statevector.hpp"
#include "qsvt/solve.hpp"

namespace {

using namespace mpqls;
using c64 = qsim::c64;

// Random unitary: Gram-Schmidt on a complex Gaussian matrix.
linalg::Matrix<c64> random_unitary(Xoshiro256& rng, std::size_t dim) {
  linalg::Matrix<c64> m(dim, dim);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) m(i, j) = c64(rng.normal(), rng.normal());
  }
  for (std::size_t c = 0; c < dim; ++c) {
    for (std::size_t p = 0; p < c; ++p) {
      c64 overlap{};
      for (std::size_t r = 0; r < dim; ++r) overlap += std::conj(m(r, p)) * m(r, c);
      for (std::size_t r = 0; r < dim; ++r) m(r, c) -= overlap * m(r, p);
    }
    double nrm = 0.0;
    for (std::size_t r = 0; r < dim; ++r) nrm += std::norm(m(r, c));
    nrm = std::sqrt(nrm);
    for (std::size_t r = 0; r < dim; ++r) m(r, c) /= nrm;
  }
  return m;
}

// Pick `count` distinct qubits from [0, n), excluding `used` bits.
std::vector<std::uint32_t> pick_qubits(Xoshiro256& rng, std::uint32_t n, std::size_t count,
                                       std::uint64_t& used) {
  std::vector<std::uint32_t> out;
  while (out.size() < count) {
    const auto q = static_cast<std::uint32_t>(rng.uniform_index(n));
    if (used & (std::uint64_t{1} << q)) continue;
    used |= std::uint64_t{1} << q;
    out.push_back(q);
  }
  return out;
}

// A random gate soup hitting every lowering path: named 1q gates,
// rotations, phases, global phases, swaps, dense unitaries, diagonals —
// each with random adjoint flags and random positive/negative controls.
qsim::Circuit random_circuit(Xoshiro256& rng, std::uint32_t n, std::size_t gates) {
  qsim::Circuit c(n);
  const qsim::GateKind named[] = {qsim::GateKind::kX,  qsim::GateKind::kY, qsim::GateKind::kZ,
                                  qsim::GateKind::kH,  qsim::GateKind::kS, qsim::GateKind::kSdg,
                                  qsim::GateKind::kT,  qsim::GateKind::kTdg};
  const qsim::GateKind rot[] = {qsim::GateKind::kRx, qsim::GateKind::kRy, qsim::GateKind::kRz,
                                qsim::GateKind::kPhase};
  for (std::size_t i = 0; i < gates; ++i) {
    qsim::Gate g;
    g.adjoint = rng.uniform() < 0.3;
    std::uint64_t used = 0;
    const auto kind_pick = rng.uniform_index(6);
    switch (kind_pick) {
      case 0:
        g.kind = named[rng.uniform_index(8)];
        g.targets = pick_qubits(rng, n, 1, used);
        break;
      case 1:
        g.kind = rot[rng.uniform_index(4)];
        g.param = rng.uniform(-3.0, 3.0);
        g.targets = pick_qubits(rng, n, 1, used);
        break;
      case 2:
        g.kind = qsim::GateKind::kGlobalPhase;
        g.param = rng.uniform(-3.0, 3.0);
        break;
      case 3: {
        if (n < 2) continue;
        g.kind = qsim::GateKind::kSwap;
        g.targets = pick_qubits(rng, n, 2, used);
        break;
      }
      case 4: {
        const std::size_t k = 1 + rng.uniform_index(std::min<std::uint32_t>(3, n));
        g.kind = qsim::GateKind::kUnitary;
        g.targets = pick_qubits(rng, n, k, used);
        g.matrix = std::make_shared<const linalg::Matrix<c64>>(
            random_unitary(rng, std::size_t{1} << k));
        break;
      }
      default: {
        const std::size_t k = 1 + rng.uniform_index(std::min<std::uint32_t>(2, n));
        g.kind = qsim::GateKind::kDiagonal;
        g.targets = pick_qubits(rng, n, k, used);
        std::vector<c64> d(std::size_t{1} << k);
        for (auto& v : d) v = std::exp(c64(0, rng.uniform(-3.0, 3.0)));
        g.diagonal = std::make_shared<const std::vector<c64>>(std::move(d));
        break;
      }
    }
    // Random controls on whatever qubits remain. Global phases stay
    // uncontrolled here: the interpreter ignores controls on kGlobalPhase
    // (Circuit::controlled rewrites them to phase gates before they reach
    // it), so a raw controlled global phase has no interpreter reference.
    // The compiler's lowering of that shape is covered by
    // ControlledGlobalPhaseLowering below.
    const std::uint64_t free_qubits =
        g.kind == qsim::GateKind::kGlobalPhase
            ? 0
            : n - static_cast<std::uint32_t>(g.targets.size());
    const std::size_t n_ctrl = rng.uniform_index(std::min<std::uint64_t>(3, free_qubits + 1));
    for (std::size_t k = 0; k < n_ctrl; ++k) {
      const auto q = pick_qubits(rng, n, 1, used)[0];
      if (rng.uniform() < 0.5) {
        g.controls.push_back(q);
      } else {
        g.neg_controls.push_back(q);
      }
    }
    c.push(std::move(g));
  }
  return c;
}

// Replay a compiled program onto a register the way the compiled path
// runs every singleton: as a one-lane panel.
template <typename T>
void replay(const qsim::exec::Program<T>& program, qsim::Statevector<T>& sv) {
  qsim::exec::run_as_one_lane_panel(sv, [&](qsim::exec::StatePanel<T>& panel) {
    qsim::exec::PanelExecutor<T>().run(program, panel);
  });
}

// Spread amplitude over every basis state so controlled branches are all
// exercised, then compare compiled vs interpreted execution.
template <typename T>
double compiled_vs_interpreted(const qsim::Circuit& c, std::uint32_t width,
                               const qsim::exec::CompileOptions& options) {
  qsim::Statevector<T> interpreted(width);
  qsim::Circuit spread(width);
  for (std::uint32_t q = 0; q < width; ++q) spread.h(q).rz(q, 0.37 * (q + 1));
  interpreted.apply(spread);
  qsim::Statevector<T> compiled = interpreted;

  interpreted.apply(c);
  replay(qsim::exec::compile<T>(c, options), compiled);

  double worst = 0.0;
  for (std::size_t i = 0; i < interpreted.dim(); ++i) {
    worst = std::max(worst, std::abs(std::complex<double>(
                                compiled[i].real() - interpreted[i].real(),
                                compiled[i].imag() - interpreted[i].imag())));
  }
  return worst;
}

TEST(Exec, RandomizedFusionEquivalenceDouble) {
  Xoshiro256 rng(42);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.uniform_index(6));
    const auto c = random_circuit(rng, n, 40);
    EXPECT_LT(compiled_vs_interpreted<double>(c, n, {}), 1e-11)
        << "trial " << trial << " n=" << n;
  }
}

TEST(Exec, RandomizedFusionEquivalenceFloat) {
  Xoshiro256 rng(43);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.uniform_index(6));
    const auto c = random_circuit(rng, n, 40);
    EXPECT_LT(compiled_vs_interpreted<float>(c, n, {}), 1e-3)
        << "trial " << trial << " n=" << n;
  }
}

TEST(Exec, RandomizedEquivalenceWithoutFusion) {
  // fuse=false exercises the specialized kernels alone (one op per gate).
  Xoshiro256 rng(44);
  qsim::exec::CompileOptions options;
  options.fuse = false;
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.uniform_index(6));
    const auto c = random_circuit(rng, n, 30);
    EXPECT_LT(compiled_vs_interpreted<double>(c, n, options), 1e-11) << "trial " << trial;
  }
}

TEST(Exec, WiderFusionWindows) {
  Xoshiro256 rng(45);
  qsim::exec::CompileOptions options;
  options.max_fuse_qubits = 5;
  for (int trial = 0; trial < 20; ++trial) {
    const auto c = random_circuit(rng, 6, 40);
    EXPECT_LT(compiled_vs_interpreted<double>(c, 6, options), 1e-11) << "trial " << trial;
  }
}

TEST(Exec, ProgramNarrowerThanRegister) {
  Xoshiro256 rng(46);
  const auto c = random_circuit(rng, 3, 25);
  EXPECT_LT(compiled_vs_interpreted<double>(c, /*width=*/6, {}), 1e-11);
}

TEST(Exec, SingleQubitRunFusesToOneOp) {
  qsim::Circuit c(2);
  c.h(0).t(0).rz(0, 0.3).s(0).x(0);
  const auto ir = qsim::exec::lower_and_fuse(c);
  ASSERT_EQ(ir.ops.size(), 1u);
  EXPECT_EQ(ir.stats.source_gates, 5u);
  EXPECT_EQ(ir.stats.fused_gates, 4u);
  EXPECT_EQ(ir.stats.depth, 1u);
}

TEST(Exec, FusionRespectsWindowLimit) {
  Xoshiro256 rng(47);
  qsim::exec::CompileOptions options;
  options.max_fuse_qubits = 2;
  const auto c = random_circuit(rng, 6, 60);
  const auto ir = qsim::exec::lower_and_fuse(c, options);
  EXPECT_LE(ir.stats.max_fused_span, 2u);
  EXPECT_EQ(ir.stats.source_gates, c.size());
  EXPECT_EQ(ir.stats.ops, ir.ops.size());
}

TEST(Exec, CompileStampsTelemetry) {
  qsim::Circuit c(3);
  for (int i = 0; i < 10; ++i) c.h(0).cx(0, 1).rz(2, 0.1 * i);
  const auto program = qsim::exec::compile<double>(c);
  EXPECT_EQ(program.stats.source_gates, 30u);
  EXPECT_GT(program.stats.ops, 0u);
  EXPECT_LT(program.stats.ops, 30u);  // fusion must actually fuse here
  EXPECT_GE(program.stats.compile_seconds, 0.0);
  EXPECT_GT(program.stats.depth, 0u);
}

TEST(Exec, ControlledGlobalPhaseLowering) {
  // e^{i theta} on the subspace where q0=1, q2=0. The interpreter cannot
  // run this raw gate (it ignores controls on kGlobalPhase), so compare
  // the compiled execution against the explicit phase-gate equivalent.
  qsim::Gate g;
  g.kind = qsim::GateKind::kGlobalPhase;
  g.param = 0.7;
  g.controls = {0};
  g.neg_controls = {2};
  qsim::Circuit c(3);
  c.push(g);

  qsim::Gate ref;
  ref.kind = qsim::GateKind::kPhase;
  ref.param = 0.7;
  ref.targets = {0};
  ref.neg_controls = {2};
  qsim::Circuit c_ref(3);
  c_ref.push(ref);

  qsim::Circuit spread(3);
  for (std::uint32_t q = 0; q < 3; ++q) spread.h(q);
  qsim::Statevector<double> interpreted(3);
  interpreted.apply(spread);
  qsim::Statevector<double> compiled = interpreted;
  interpreted.apply(c_ref);
  replay(qsim::exec::compile<double>(c), compiled);
  for (std::size_t i = 0; i < interpreted.dim(); ++i) {
    EXPECT_NEAR(compiled[i].real(), interpreted[i].real(), 1e-14);
    EXPECT_NEAR(compiled[i].imag(), interpreted[i].imag(), 1e-14);
  }
}

TEST(Exec, PostCompileMeasurementMatchesInterpreter) {
  // End-to-end: compiled execution followed by the (OpenMP-reduced)
  // measurement queries agrees with the interpreter path.
  Xoshiro256 rng(48);
  const auto c = random_circuit(rng, 5, 30);
  qsim::Statevector<double> a(5), b(5);
  a.apply(c);
  replay(qsim::exec::compile<double>(c), b);
  EXPECT_NEAR(a.norm(), b.norm(), 1e-12);
  EXPECT_NEAR(a.probability(2, 1), b.probability(2, 1), 1e-12);
  EXPECT_NEAR(a.probability_all_zero({0, 3}), b.probability_all_zero({0, 3}), 1e-12);
  const auto pa = a.probabilities();
  const auto pb = b.probabilities();
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_NEAR(pa[i], pb[i], 1e-12);
}

// A gate-level QSVT context at n=16: the block encoding and its adjoint
// are 5-target dense ops, one per block-encoding call — hundreds of them.
const qsvt::QsvtSolverContext& qsvt_context() {
  static const qsvt::QsvtSolverContext ctx = [] {
    Xoshiro256 rng(49);
    qsvt::QsvtOptions opts;
    opts.backend = qsvt::Backend::kGateLevel;
    opts.eps_l = 5e-2;
    return qsvt::prepare_qsvt_solver(linalg::random_with_cond(rng, 16, 30.0), opts);
  }();
  return ctx;
}

// Distinct payload_re storage among the dense ops of `programs`; counts
// the dense ops into `dense`.
template <typename T>
std::size_t distinct_dense_payloads(const std::vector<const qsim::exec::Program<T>*>& programs,
                                    std::size_t& dense) {
  std::set<const void*> storage;
  dense = 0;
  for (const auto* program : programs) {
    for (const auto& op : program->ops) {
      if (op.kind != qsim::exec::OpKind::kDense) continue;
      ++dense;
      storage.insert(op.payload_re.data());
    }
  }
  return storage.size();
}

template <typename T>
void expect_context_payloads_interned() {
  std::size_t dense = 0;
  const auto& program = qsvt_context().programs->get<T>();
  EXPECT_LE(distinct_dense_payloads<T>({&program}, dense), 3u);
  EXPECT_GT(dense, 400u);
}

TEST(PayloadInterning, QsvtContextStoresEachDenseMatrixOncePerTier) {
  expect_context_payloads_interned<qsim::exec::f16>();
  expect_context_payloads_interned<float>();
  expect_context_payloads_interned<double>();
}

TEST(PayloadInterning, RankStepsShareOneTable) {
  namespace dist = qsim::exec::dist;
  const auto plan = dist::build_exchange_plan(qsvt_context().programs->ir(), 2);
  for (std::uint32_t rank = 0; rank < 4; ++rank) {
    const auto rp = dist::specialize_rank<float>(plan, rank);
    std::vector<const qsim::exec::Program<float>*> programs;
    for (const auto& step : rp.steps) {
      programs.push_back(&step.local);
      programs.push_back(&step.wide);
    }
    std::size_t dense = 0;
    EXPECT_LE(distinct_dense_payloads<float>(programs, dense), 3u) << "rank " << rank;
    EXPECT_GT(dense, 400u) << "rank " << rank;
  }
}

// Copy `program` with every payload in storage of its own.
template <typename T>
qsim::exec::Program<T> unshared_copy(const qsim::exec::Program<T>& program) {
  auto copy = program;
  for (auto& op : copy.ops) {
    using C = qsim::exec::exec_compute_t<T>;
    op.payload = qsim::exec::SharedArray<std::complex<C>>({op.payload.begin(), op.payload.end()});
    op.payload_re = qsim::exec::SharedArray<C>({op.payload_re.begin(), op.payload_re.end()});
    op.payload_im = qsim::exec::SharedArray<C>({op.payload_im.begin(), op.payload_im.end()});
  }
  return copy;
}

template <typename T>
void expect_interned_replay_matches_unshared(std::size_t lanes) {
  const auto& interned = qsvt_context().programs->get<T>();
  const auto unshared = unshared_copy(interned);
  std::size_t dense = 0;
  ASSERT_EQ(distinct_dense_payloads<T>({&unshared}, dense), dense);
  qsim::exec::StatePanel<T> a(interned.num_qubits, lanes), b(interned.num_qubits, lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t i = 0; i < a.dim(); ++i) {
      const std::complex<double> v(std::cos(0.1 * (i + 3 * l)), std::sin(0.07 * (i * l + 1)));
      a.set_amp(i, l, v / std::sqrt(static_cast<double>(a.dim())));
      b.set_amp(i, l, v / std::sqrt(static_cast<double>(a.dim())));
    }
  }
  qsim::exec::PanelExecutor<T>().run(interned, a);
  qsim::exec::PanelExecutor<T>().run(unshared, b);
  const std::size_t n = a.dim() * lanes;
  EXPECT_EQ(std::memcmp(a.re(), b.re(), n * sizeof(T)), 0) << lanes << " lanes";
  EXPECT_EQ(std::memcmp(a.im(), b.im(), n * sizeof(T)), 0) << lanes << " lanes";
}

TEST(PayloadInterning, InternedReplayIsBitwiseTheUnsharedReplay) {
  for (const std::size_t lanes : {1u, 8u}) {
    expect_interned_replay_matches_unshared<qsim::exec::f16>(lanes);
    expect_interned_replay_matches_unshared<float>(lanes);
    expect_interned_replay_matches_unshared<double>(lanes);
  }
}

}  // namespace
