// Panel execution vs the gate interpreter: replaying one compiled program
// over a StatePanel must reproduce, lane by lane, what
// Statevector<T>::apply(Circuit) does to the same initial states — for
// randomized circuits hitting every kernel (1q, dense, diagonal, global
// phase, controls and negative controls), in float and double, for one
// lane and for ragged lane counts that are not powers of two, and for the
// panel-wide reductions (norms, postselection) against their Statevector
// counterparts. The wide dense ops (4-7 targets, the block encoding's
// shape) are checked at every tier and a spread of widths against the
// interpreter, and lane by lane for width independence.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "qsim/circuit.hpp"
#include "qsim/exec/compile.hpp"
#include "qsim/exec/panel.hpp"
#include "qsim/exec/panel_executor.hpp"
#include "qsim/statevector.hpp"

namespace {

using namespace mpqls;
using c64 = qsim::c64;

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

// Gate soup hitting every compiled kernel, with random (negative)
// controls — the panel kernels share the executor's index enumeration,
// so control handling is what this must not get wrong.
qsim::Circuit random_circuit(Xoshiro256& rng, std::uint32_t n, std::size_t gates) {
  qsim::Circuit c(n);
  for (std::size_t i = 0; i < gates; ++i) {
    qsim::Gate g;
    g.adjoint = rng.uniform() < 0.3;
    std::uint64_t used = 0;
    switch (rng.uniform_index(5)) {
      case 0:
        g.kind = qsim::GateKind::kH;
        g.targets = pick_qubits(rng, n, 1, used);
        break;
      case 1:
        g.kind = qsim::GateKind::kRy;
        g.param = rng.uniform(-3.0, 3.0);
        g.targets = pick_qubits(rng, n, 1, used);
        break;
      case 2:
        g.kind = qsim::GateKind::kGlobalPhase;
        g.param = rng.uniform(-3.0, 3.0);
        break;
      case 3: {
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

// A random normalized complex state of 2^n amplitudes.
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

// Run `circuit` over `lanes` random states, once per lane through the
// gate interpreter at precision T and once compiled as a panel; return
// the worst per-lane per-amplitude deviation.
template <typename T>
double panel_vs_sequential(Xoshiro256& rng, const qsim::Circuit& circuit, std::uint32_t width,
                           std::size_t lanes) {
  const auto program = qsim::exec::compile<T>(circuit);

  std::vector<std::vector<std::complex<double>>> states;
  for (std::size_t l = 0; l < lanes; ++l) states.push_back(random_state(rng, width));

  qsim::exec::StatePanel<T> panel(width, lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t i = 0; i < states[l].size(); ++i) panel.set_amp(i, l, states[l][i]);
  }
  qsim::exec::PanelExecutor<T>().run(program, panel);

  double worst = 0.0;
  for (std::size_t l = 0; l < lanes; ++l) {
    auto sv = qsim::Statevector<T>::from_amplitudes(width, states[l]);
    sv.apply(circuit);
    for (std::size_t i = 0; i < sv.dim(); ++i) {
      const auto got = panel.amp(i, l);
      worst = std::max(worst, std::abs(got - std::complex<double>(sv[i].real(), sv[i].imag())));
    }
  }
  return worst;
}

TEST(PanelExec, MatchesSequentialExecutorDouble) {
  Xoshiro256 rng(71);
  for (int trial = 0; trial < 25; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.uniform_index(6));
    const auto c = random_circuit(rng, n, 35);
    const std::size_t lanes = 1 + rng.uniform_index(9);
    EXPECT_LT(panel_vs_sequential<double>(rng, c, n, lanes), 1e-11)
        << "trial " << trial << " n=" << n << " lanes=" << lanes;
  }
}

TEST(PanelExec, MatchesSequentialExecutorFloat) {
  Xoshiro256 rng(72);
  for (int trial = 0; trial < 25; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.uniform_index(6));
    const auto c = random_circuit(rng, n, 35);
    const std::size_t lanes = 1 + rng.uniform_index(9);
    EXPECT_LT(panel_vs_sequential<float>(rng, c, n, lanes), 1e-3)
        << "trial " << trial << " n=" << n << " lanes=" << lanes;
  }
}

TEST(PanelExec, RaggedLaneCounts) {
  // Lane counts that are not powers of two (the tail panel of a ragged
  // batch) must be exact too — the lane loop has no padding assumption.
  Xoshiro256 rng(73);
  const auto c = random_circuit(rng, 5, 40);
  for (const std::size_t lanes : {1u, 3u, 5u, 7u, 11u}) {
    EXPECT_LT(panel_vs_sequential<double>(rng, c, 5, lanes), 1e-11) << "lanes=" << lanes;
  }
}

// One wide dense gate (k targets, random unitary) with the given numbers
// of positive and negative controls on an n-qubit register.
qsim::Circuit wide_dense_circuit(Xoshiro256& rng, std::uint32_t n, std::size_t k,
                                 std::size_t pos, std::size_t neg) {
  qsim::Circuit c(n);
  qsim::Gate g;
  g.kind = qsim::GateKind::kUnitary;
  std::uint64_t used = 0;
  g.targets = pick_qubits(rng, n, k, used);
  g.controls = pick_qubits(rng, n, pos, used);
  g.neg_controls = pick_qubits(rng, n, neg, used);
  g.matrix =
      std::make_shared<const linalg::Matrix<c64>>(random_unitary(rng, std::size_t{1} << k));
  c.push(std::move(g));
  return c;
}

// Per-amplitude agreement with the double interpreter: each tier's
// panel-vs-interpreter tolerance, and for the f16 tier one binary16 unit
// roundoff (2^-11) of the unit-norm state.
template <typename T>
constexpr double tier_tolerance() {
  if constexpr (std::is_same_v<T, double>) {
    return 1e-11;
  } else if constexpr (std::is_same_v<T, float>) {
    return 1e-3;
  } else {
    return 0x1p-11;
  }
}

template <typename T>
qsim::exec::StatePanel<T> replay_panel(const qsim::exec::Program<T>& program, std::uint32_t n,
                                       const std::vector<std::vector<c64>>& states,
                                       std::size_t first, std::size_t lanes) {
  qsim::exec::StatePanel<T> panel(n, lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t i = 0; i < panel.dim(); ++i) panel.set_amp(i, l, states[first + l][i]);
  }
  qsim::exec::PanelExecutor<T>().run(program, panel);
  return panel;
}

// Every wide-op shape at every width: within tolerance of the double
// interpreter, and (width >= 2) every lane bitwise equal to the same
// state's lane in a 16-lane panel.
template <typename T>
void expect_wide_dense_ops(std::uint64_t seed) {
  const std::uint32_t n = 9;
  const std::size_t kWidths[] = {1, 2, 3, 4, 5, 8, 13, 16, 17};
  const std::size_t kControls[][2] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  Xoshiro256 rng(seed);
  std::vector<std::vector<c64>> states;
  for (std::size_t l = 0; l < 32; ++l) states.push_back(random_state(rng, n));
  for (std::size_t k = 4; k <= 7; ++k) {
    for (const auto& ctrl : kControls) {
      const auto circuit = wide_dense_circuit(rng, n, k, ctrl[0], ctrl[1]);
      const auto program = qsim::exec::compile<T>(circuit);
      ASSERT_EQ(program.ops.size(), 1u);
      ASSERT_EQ(program.ops[0].num_targets, k);
      std::vector<qsim::Statevector<double>> want;
      for (std::size_t l = 0; l < 17; ++l) {
        want.push_back(qsim::Statevector<double>::from_amplitudes(n, states[l]));
        want.back().apply(circuit);
      }
      const auto ref0 = replay_panel(program, n, states, 0, 16);
      const auto ref1 = replay_panel(program, n, states, 16, 16);
      for (const std::size_t width : kWidths) {
        const auto panel = replay_panel(program, n, states, 0, width);
        for (std::size_t l = 0; l < width; ++l) {
          const auto& ref = l < 16 ? ref0 : ref1;
          double worst = 0.0;
          bool same_as_16 = true;
          for (std::size_t i = 0; i < panel.dim(); ++i) {
            const auto got = panel.amp(i, l);
            worst = std::max(worst, std::abs(got - want[l][i]));
            same_as_16 = same_as_16 && got == ref.amp(i, l % 16);
          }
          EXPECT_LT(worst, tier_tolerance<T>())
              << "k=" << k << " pos=" << ctrl[0] << " neg=" << ctrl[1] << " width=" << width
              << " lane=" << l;
          if (width >= 2) {
            EXPECT_TRUE(same_as_16) << "k=" << k << " pos=" << ctrl[0] << " neg=" << ctrl[1]
                                    << " width=" << width << " lane=" << l;
          }
        }
      }
    }
  }
}

TEST(PanelExec, WideDenseOpsDouble) { expect_wide_dense_ops<double>(81); }
TEST(PanelExec, WideDenseOpsFloat) { expect_wide_dense_ops<float>(82); }
TEST(PanelExec, WideDenseOpsHalf) { expect_wide_dense_ops<qsim::exec::f16>(83); }

TEST(PanelExec, ProgramNarrowerThanPanelRegister) {
  Xoshiro256 rng(74);
  const auto c = random_circuit(rng, 3, 25);
  EXPECT_LT(panel_vs_sequential<double>(rng, c, /*width=*/6, /*lanes=*/4), 1e-11);
}

TEST(PanelExec, LoadLaneRealEmbedsTheVector) {
  qsim::exec::StatePanel<double> panel(3, 3);
  const std::vector<double> v = {0.5, -0.5, 0.5, -0.5};  // length 4 < dim 8
  panel.load_lane_real(1, v);
  for (std::size_t i = 0; i < panel.dim(); ++i) {
    const auto a = panel.amp(i, 1);
    EXPECT_EQ(a.real(), i < v.size() ? v[i] : 0.0);
    EXPECT_EQ(a.imag(), 0.0);
  }
  // Other lanes stay |0…0>.
  EXPECT_EQ(panel.amp(0, 0).real(), 1.0);
  EXPECT_EQ(panel.amp(0, 2).real(), 1.0);
}

TEST(PanelExec, ReductionsMatchStatevector) {
  Xoshiro256 rng(75);
  const std::uint32_t n = 5;
  const std::size_t lanes = 6;
  std::vector<std::vector<std::complex<double>>> states;
  for (std::size_t l = 0; l < lanes; ++l) states.push_back(random_state(rng, n));
  // Scale lanes differently so per-lane norms are distinguishable.
  for (std::size_t l = 0; l < lanes; ++l) {
    for (auto& a : states[l]) a *= 1.0 + 0.25 * static_cast<double>(l);
  }

  qsim::exec::StatePanel<double> panel(n, lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t i = 0; i < states[l].size(); ++i) panel.set_amp(i, l, states[l][i]);
  }

  const auto norms = panel.lane_norms();
  const std::vector<std::uint32_t> zeros = {1, 3};
  const auto p_zero = panel.probability_all_zero(zeros);
  for (std::size_t l = 0; l < lanes; ++l) {
    const auto sv = qsim::Statevector<double>::from_amplitudes(n, states[l]);
    EXPECT_NEAR(norms[l], sv.norm(), 1e-13) << "lane " << l;
    EXPECT_NEAR(p_zero[l], sv.probability_all_zero(zeros), 1e-13) << "lane " << l;
  }
}

TEST(PanelExec, PostselectMatchesScalarFlipPath) {
  // The noise-trajectory solve path (a Statevector) X-flips the "must be
  // one" qubit and then postselects everything to zero; the panel projects on zeros+ones
  // directly. Same projector: probabilities and surviving amplitudes
  // must agree.
  Xoshiro256 rng(76);
  const std::uint32_t n = 5;
  const std::size_t lanes = 4;
  const std::vector<std::uint32_t> zeros = {2, 4};
  const std::uint32_t one_qubit = 3;

  std::vector<std::vector<std::complex<double>>> states;
  for (std::size_t l = 0; l < lanes; ++l) states.push_back(random_state(rng, n));

  qsim::exec::StatePanel<double> panel(n, lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t i = 0; i < states[l].size(); ++i) panel.set_amp(i, l, states[l][i]);
  }
  const auto probs = panel.postselect(zeros, {one_qubit});

  const std::uint64_t one_bit = std::uint64_t{1} << one_qubit;
  for (std::size_t l = 0; l < lanes; ++l) {
    auto sv = qsim::Statevector<double>::from_amplitudes(n, states[l]);
    qsim::Circuit flip(n);
    flip.x(one_qubit);
    sv.apply(flip);
    auto all_zeros = zeros;
    all_zeros.push_back(one_qubit);
    const double p = sv.postselect_zero(all_zeros);
    EXPECT_NEAR(probs[l], p, 1e-13) << "lane " << l;
    for (std::size_t i = 0; i < sv.dim(); ++i) {
      if ((i & one_bit) != 0) continue;  // survivors live at one_bit = 0 post-flip
      const auto got = panel.amp(i | one_bit, l);
      const auto want = std::complex<double>(sv[i].real(), sv[i].imag());
      EXPECT_NEAR(std::abs(got - want), 0.0, 1e-12) << "lane " << l << " index " << i;
    }
  }
}

}  // namespace
