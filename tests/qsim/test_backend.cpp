// Execution-backend tests: the registry contract (built-in, lookup,
// default name) and the substitution seam the solver replays through. A
// backend registered under the default name must receive every replay of
// every gate-level context prepared after it — scalar and panel alike —
// which is what lets a test fake or a metering decorator stand in for
// "reference" without touching the solver.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "linalg/random_matrix.hpp"
#include "qsim/exec/backend/backend.hpp"
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

/// Forwards every call to a real reference backend and counts the scalar
/// and panel replays it saw.
class CountingBackend final : public exec::ExecBackend {
 public:
  CountingBackend() : inner_(exec::make_reference_backend()) {}

  mutable std::atomic<int> scalar_calls{0};
  mutable std::atomic<int> panel_calls{0};

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
    inner_->apply_program(h, p, sv);
  }
  void apply_program(exec::BackendHandle& h, const exec::Program<double>& p,
                     qsim::Statevector<double>& sv) const override {
    ++scalar_calls;
    inner_->apply_program(h, p, sv);
  }
  void apply_program_panel(exec::BackendHandle& h, const exec::Program<exec::f16>& p,
                           exec::StatePanel<exec::f16>& panel) const override {
    ++panel_calls;
    inner_->apply_program_panel(h, p, panel);
  }
  void apply_program_panel(exec::BackendHandle& h, const exec::Program<float>& p,
                           exec::StatePanel<float>& panel) const override {
    ++panel_calls;
    inner_->apply_program_panel(h, p, panel);
  }
  void apply_program_panel(exec::BackendHandle& h, const exec::Program<double>& p,
                           exec::StatePanel<double>& panel) const override {
    ++panel_calls;
    inner_->apply_program_panel(h, p, panel);
  }

 private:
  std::shared_ptr<exec::ExecBackend> inner_;
};

TEST(BackendSeam, FakeRegisteredAsReferenceSeesScalarAndPanelReplays) {
  Xoshiro256 rng(17);
  const auto A = linalg::random_with_cond(rng, 4, 5.0);
  std::vector<linalg::Vector<double>> batch;
  for (int i = 0; i < 3; ++i) batch.push_back(linalg::random_unit_vector(rng, 4));
  const linalg::Vector<double> single = linalg::random_unit_vector(rng, 4);
  qsvt::QsvtOptions opts;
  opts.backend = qsvt::Backend::kGateLevel;
  opts.eps_l = 1e-3;

  // The real backend's answers, from a context prepared before the swap.
  const auto ref_ctx = qsvt::prepare_qsvt_solver(A, opts);
  const auto want_batch = qsvt::qsvt_solve_directions(ref_ctx, std::span(batch));
  const auto want_single = qsvt::qsvt_solve_directions(ref_ctx, std::span(&single, 1));

  auto fake = std::make_shared<CountingBackend>();
  exec::backend_registry().register_backend(fake);
  const auto ctx = qsvt::prepare_qsvt_solver(A, opts);
  const auto got_batch = qsvt::qsvt_solve_directions(ctx, std::span(batch));
  const int panel_after_batch = fake->panel_calls.load();
  const int scalar_after_batch = fake->scalar_calls.load();
  const auto got_single = qsvt::qsvt_solve_directions(ctx, std::span(&single, 1));
  exec::backend_registry().register_backend(exec::make_reference_backend());

  EXPECT_EQ(panel_after_batch, 1) << "a multi-RHS batch replays one panel";
  EXPECT_EQ(scalar_after_batch, 0);
  EXPECT_EQ(fake->scalar_calls.load(), 1) << "a singleton replays the scalar register";
  EXPECT_EQ(fake->panel_calls.load(), 1);

  // The decorator forwards untouched, so results are bit-identical.
  ASSERT_EQ(got_batch.size(), want_batch.size());
  for (std::size_t i = 0; i < got_batch.size(); ++i) {
    EXPECT_EQ(got_batch[i].direction, want_batch[i].direction) << "lane " << i;
  }
  EXPECT_EQ(got_single[0].direction, want_single[0].direction);

  // Restored: the default name resolves to a real reference backend again.
  EXPECT_NE(&exec::default_backend(), fake.get());
  EXPECT_EQ(exec::default_backend().capabilities().name, "reference");
}

}  // namespace
