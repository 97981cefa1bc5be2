// Execution-backend tests: the registry contract (built-in, lookup,
// default name) and the substitution seam the solver replays through. A
// backend registered under the default name must receive every replay of
// every gate-level context prepared after it — each as a panel, a
// singleton as one lane — which is what lets a test fake or a metering
// decorator stand in for "reference" without touching the solver.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "linalg/random_matrix.hpp"
#include "qsim/circuit.hpp"
#include "qsim/exec/backend/backend.hpp"
#include "qsim/exec/compile.hpp"
#include "qsim/exec/panel_executor.hpp"
#include "qsvt/solve.hpp"

namespace {

using namespace mpqls;
namespace exec = qsim::exec;

TEST(BackendRegistry, ReferenceRegisteredAndDiscoverable) {
  const exec::ExecBackend* ref = exec::find_backend("reference");
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(ref->capabilities().name, "reference");

  EXPECT_EQ(exec::find_backend("no-such-backend"), nullptr);
  EXPECT_EQ(exec::default_backend().capabilities().name,
            std::string(exec::kDefaultBackendName));
}

TEST(BackendRegistry, HandlesAreIndependentAndWorkspaceReported) {
  const exec::ExecBackend& ref = exec::default_backend();
  auto h1 = ref.create_handle();
  auto h2 = ref.create_handle();
  ASSERT_NE(h1, nullptr);
  ASSERT_NE(h2, nullptr);
  EXPECT_NE(h1.get(), h2.get());
  EXPECT_GT(ref.workspace_bytes(20), 0u);
}

/// Forwards every panel replay to a real reference backend, counting the
/// replays and the lanes of the last one. Its Statevector entry points
/// count too, then keep the seam's default body (a one-lane panel
/// through this backend's apply_program_panel).
class CountingBackend final : public exec::ExecBackend {
 public:
  CountingBackend() : inner_(exec::make_reference_backend()) {}

  mutable std::atomic<int> scalar_calls{0};
  mutable std::atomic<int> panel_calls{0};
  mutable std::atomic<std::size_t> last_lanes{0};

  const exec::BackendCapabilities& capabilities() const override {
    return inner_->capabilities();
  }
  std::shared_ptr<exec::BackendHandle> create_handle() const override {
    return inner_->create_handle();
  }
  std::size_t workspace_bytes(std::uint32_t num_qubits) const override {
    return inner_->workspace_bytes(num_qubits);
  }
  void apply_program(exec::BackendHandle& h, const exec::Program<float>& p,
                     qsim::Statevector<float>& sv) const override {
    ++scalar_calls;
    ExecBackend::apply_program(h, p, sv);
  }
  void apply_program(exec::BackendHandle& h, const exec::Program<double>& p,
                     qsim::Statevector<double>& sv) const override {
    ++scalar_calls;
    ExecBackend::apply_program(h, p, sv);
  }
  void apply_program_panel(exec::BackendHandle& h, const exec::Program<exec::f16>& p,
                           exec::StatePanel<exec::f16>& panel) const override {
    count(panel.lanes());
    inner_->apply_program_panel(h, p, panel);
  }
  void apply_program_panel(exec::BackendHandle& h, const exec::Program<float>& p,
                           exec::StatePanel<float>& panel) const override {
    count(panel.lanes());
    inner_->apply_program_panel(h, p, panel);
  }
  void apply_program_panel(exec::BackendHandle& h, const exec::Program<double>& p,
                           exec::StatePanel<double>& panel) const override {
    count(panel.lanes());
    inner_->apply_program_panel(h, p, panel);
  }

 private:
  void count(std::size_t lanes) const {
    ++panel_calls;
    last_lanes = lanes;
  }

  std::shared_ptr<exec::ExecBackend> inner_;
};

TEST(BackendSeam, FakeRegisteredAsReferenceSeesEveryReplayAsAPanel) {
  Xoshiro256 rng(17);
  const auto A = linalg::random_with_cond(rng, 4, 5.0);
  std::vector<linalg::Vector<double>> batch;
  for (int i = 0; i < 3; ++i) batch.push_back(linalg::random_unit_vector(rng, 4));
  const linalg::Vector<double> single = linalg::random_unit_vector(rng, 4);
  qsvt::QsvtOptions opts;
  opts.backend = qsvt::Backend::kGateLevel;
  opts.precision = qsvt::QpuPrecision::kAdaptive;  // every tier specializes lazily
  opts.eps_l = 1e-3;
  const qsvt::QpuPrecision tiers[] = {qsvt::QpuPrecision::kHalf, qsvt::QpuPrecision::kSingle,
                                      qsvt::QpuPrecision::kDouble};

  // The real backend's answers, from a context prepared before the swap.
  const auto ref_ctx = qsvt::prepare_qsvt_solver(A, opts);
  const auto want_batch = qsvt::qsvt_solve_directions(ref_ctx, std::span(batch));
  std::vector<qsvt::QsvtSolveOutcome> want_single;
  for (const auto tier : tiers) {
    want_single.push_back(
        qsvt::qsvt_solve_directions(ref_ctx, std::span(&single, 1), nullptr, tier)[0]);
  }

  auto fake = std::make_shared<CountingBackend>();
  exec::backend_registry().register_backend(fake);
  const auto ctx = qsvt::prepare_qsvt_solver(A, opts);
  const auto got_batch = qsvt::qsvt_solve_directions(ctx, std::span(batch));
  EXPECT_EQ(fake->panel_calls.load(), 1) << "a multi-RHS batch replays one panel";
  EXPECT_EQ(fake->last_lanes.load(), batch.size());
  std::vector<qsvt::QsvtSolveOutcome> got_single;
  for (const auto tier : tiers) {
    const int before = fake->panel_calls.load();
    got_single.push_back(
        qsvt::qsvt_solve_directions(ctx, std::span(&single, 1), nullptr, tier)[0]);
    EXPECT_EQ(fake->panel_calls.load(), before + 1) << "tier " << static_cast<int>(tier);
    EXPECT_EQ(fake->last_lanes.load(), 1u) << "a singleton replays a one-lane panel";
  }
  exec::backend_registry().register_backend(exec::make_reference_backend());
  EXPECT_EQ(fake->scalar_calls.load(), 0) << "the solver never uses the Statevector entry";

  // The decorator forwards untouched, so results are bit-identical.
  ASSERT_EQ(got_batch.size(), want_batch.size());
  for (std::size_t i = 0; i < got_batch.size(); ++i) {
    EXPECT_EQ(got_batch[i].direction, want_batch[i].direction) << "lane " << i;
  }
  for (std::size_t t = 0; t < got_single.size(); ++t) {
    EXPECT_EQ(got_single[t].direction, want_single[t].direction) << "tier " << t;
  }

  // Restored: the default name resolves to a real reference backend again.
  EXPECT_NE(&exec::default_backend(), fake.get());
  EXPECT_EQ(exec::default_backend().capabilities().name, "reference");
}

TEST(BackendSeam, StatevectorEntryReplaysThroughAOneLanePanel) {
  // The seam's default Statevector body: copy into a one-lane panel,
  // replay through the backend's own panel entry, copy back — bitwise the
  // one-lane panel replay.
  qsim::Circuit c(3);
  c.h(0).cx(0, 1).ry(2, 0.4).cz(1, 2).rz(0, 1.1).swap(0, 2);
  const auto program = exec::compile<double>(c);
  CountingBackend fake;
  auto handle = fake.create_handle();
  qsim::Statevector<double> sv(3);
  fake.apply_program(*handle, program, sv);
  EXPECT_EQ(fake.scalar_calls.load(), 1);
  EXPECT_EQ(fake.panel_calls.load(), 1);
  EXPECT_EQ(fake.last_lanes.load(), 1u);

  exec::StatePanel<double> want(3, 1);
  exec::PanelExecutor<double>().run(program, want);
  for (std::size_t i = 0; i < sv.dim(); ++i) {
    EXPECT_EQ(sv[i].real(), want.re()[i]) << "amp " << i;
    EXPECT_EQ(sv[i].imag(), want.im()[i]) << "amp " << i;
  }
}

}  // namespace
