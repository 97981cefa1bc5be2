// Distributed shard-group solves through the full Algorithm 2 refinement
// loop: W ranks each run solve_qsvt_ir_batch against the shared context
// with a DistSolveSession wired in, exchanging amplitudes over a
// LocalPeerGroup. Every rank must produce the identical report (the
// lockstep contract the adaptive schedule relies on), and a shard group's
// batch must equal the single-node batch of the same lanes bit for bit at
// every tier: each shard is a StatePanel of the batch's width, replayed
// through the same kernels, postselected and read out through the same
// per-lane epilogue.
#include "solver/qsvt_ir.hpp"

#include <gtest/gtest.h>

#include <exception>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/random_matrix.hpp"
#include "qsim/exec/dist/peer_channel.hpp"
#include "qsvt/dist_solve.hpp"

namespace mpqls::solver {
namespace {

QsvtIrOptions base_options() {
  QsvtIrOptions o;
  o.eps = 1e-11;
  o.qsvt.eps_l = 1e-2;
  return o;
}

/// Run the batch on W ranks over a LocalPeerGroup; returns every rank's
/// reports (outer index = rank).
/// `sessions`, when given, receives every rank's session.
std::vector<std::vector<QsvtIrReport>> solve_distributed(
    const qsvt::QsvtSolverContext& ctx, const std::vector<linalg::Vector<double>>& bs,
    const QsvtIrOptions& options, std::uint32_t world_log2,
    std::vector<std::shared_ptr<qsvt::dist::DistSolveSession>>* sessions = nullptr) {
  const std::uint32_t world = 1u << world_log2;
  qsim::exec::dist::LocalPeerGroup group(world);
  std::vector<std::vector<QsvtIrReport>> per_rank(world);
  std::vector<std::exception_ptr> errors(world);
  if (sessions) sessions->assign(world, nullptr);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        QsvtIrOptions opts = options;
        opts.dist = std::make_shared<qsvt::dist::DistSolveSession>(
            qsvt::dist::DistConfig{r, world_log2, group.channel(r)});
        if (sessions) (*sessions)[r] = opts.dist;
        per_rank[r] = solve_qsvt_ir_batch(
            ctx, std::span<const linalg::Vector<double>>(bs), opts);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::uint32_t r = 0; r < world; ++r) {
    if (errors[r]) std::rethrow_exception(errors[r]);
  }
  return per_rank;
}

void expect_reports_identical(const QsvtIrReport& a, const QsvtIrReport& b, const char* what) {
  EXPECT_EQ(a.converged, b.converged) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.precision_switches, b.precision_switches) << what;
  EXPECT_EQ(a.tier_solves, b.tier_solves) << what;
  ASSERT_EQ(a.x.size(), b.x.size()) << what;
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    EXPECT_EQ(a.x[i], b.x[i]) << what << " component " << i;
  }
  ASSERT_EQ(a.scaled_residuals.size(), b.scaled_residuals.size()) << what;
  for (std::size_t i = 0; i < a.scaled_residuals.size(); ++i) {
    EXPECT_EQ(a.scaled_residuals[i], b.scaled_residuals[i]) << what << " residual " << i;
  }
}

TEST(DistSolve, DoubleTierShardsAgreeBitwiseAcrossWorldSizes) {
  Xoshiro256 rng(70);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  std::vector<linalg::Vector<double>> bs = {linalg::random_unit_vector(rng, 16)};
  const auto options = base_options();
  const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);

  const auto two = solve_distributed(ctx, bs, options, 1);
  const auto four = solve_distributed(ctx, bs, options, 2);

  // Lockstep: every rank of a group returns the identical report.
  for (std::uint32_t r = 1; r < two.size(); ++r) {
    expect_reports_identical(two[0][0], two[r][0], "W=2 rank vs rank");
  }
  for (std::uint32_t r = 1; r < four.size(); ++r) {
    expect_reports_identical(four[0][0], four[r][0], "W=4 rank vs rank");
  }
  // The postselected subspace fixes the partition qubits, so both world
  // sizes reduce to the same one-lane replay arithmetic: bit-identical
  // double-path results.
  expect_reports_identical(two[0][0], four[0][0], "W=2 vs W=4");

  EXPECT_TRUE(two[0][0].converged);
  EXPECT_LE(two[0][0].scaled_residuals.back(), options.eps);

  // And the single-node solver agrees within rounding (the dist path
  // reduces its postselection across ranks).
  const auto want = solve_qsvt_ir(ctx, bs[0], options);
  EXPECT_EQ(two[0][0].converged, want.converged);
  EXPECT_EQ(two[0][0].iterations, want.iterations);
  for (std::size_t i = 0; i < want.x.size(); ++i) {
    EXPECT_NEAR(two[0][0].x[i], want.x[i], 1e-9) << "component " << i;
  }
}

TEST(DistSolve, ShardGroupMatchesSingleNodeBatchBitwise) {
  Xoshiro256 rng(74);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  std::vector<linalg::Vector<double>> bs;
  for (int k = 0; k < 5; ++k) bs.push_back(linalg::random_unit_vector(rng, 16));

  // Fixed double, adaptive at its default policy (converges on single),
  // and adaptive with a mid-trajectory floor (climbs single -> double).
  for (const double single_floor : {-1.0, 1e-12, 1e-6}) {
    auto options = base_options();
    const auto precision =
        single_floor < 0.0 ? qsvt::QpuPrecision::kDouble : qsvt::QpuPrecision::kAdaptive;
    options.qsvt.precision = precision;
    if (single_floor > 0.0) options.escalation.single_floor = single_floor;
    // The default fused program: no exchange-plan rewrite fires.
    const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);
    BatchSolveStats single_stats;
    const auto want =
        solve_qsvt_ir_batch(ctx, std::span<const linalg::Vector<double>>(bs), options,
                            &single_stats);
    EXPECT_GT(single_stats.panels_executed, 0u);

    for (const std::uint32_t world_log2 : {1u, 2u}) {
      const auto per_rank = solve_distributed(ctx, bs, options, world_log2);
      for (std::uint32_t r = 0; r < per_rank.size(); ++r) {
        ASSERT_EQ(per_rank[r].size(), want.size());
        for (std::size_t l = 0; l < want.size(); ++l) {
          expect_reports_identical(per_rank[r][l], want[l],
                                   precision == qsvt::QpuPrecision::kDouble
                                       ? "double: dist vs single-node batch"
                                       : "adaptive: dist vs single-node batch");
        }
      }
    }
  }
}

TEST(DistSolve, AdaptiveRefinementRunsLockstepAcrossShards) {
  Xoshiro256 rng(71);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  std::vector<linalg::Vector<double>> bs;
  for (int k = 0; k < 2; ++k) bs.push_back(linalg::random_unit_vector(rng, 16));
  auto options = base_options();
  options.qsvt.precision = qsvt::QpuPrecision::kAdaptive;
  const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);

  const auto per_rank = solve_distributed(ctx, bs, options, 1);
  for (std::uint32_t r = 1; r < per_rank.size(); ++r) {
    for (std::size_t l = 0; l < bs.size(); ++l) {
      expect_reports_identical(per_rank[0][l], per_rank[r][l], "adaptive rank vs rank");
    }
  }
  for (std::size_t l = 0; l < bs.size(); ++l) {
    const auto& rep = per_rank[0][l];
    EXPECT_TRUE(rep.converged) << "lane " << l;
    EXPECT_LE(rep.scaled_residuals.back(), options.eps) << "lane " << l;
    // The schedule ran on the shards exactly like single-node: single
    // solves, never a half solve, and a dd128-verified answer.
    EXPECT_EQ(rep.tier_solves[kTierHalf], 0u) << "lane " << l;
    EXPECT_GT(rep.tier_solves[kTierSingle], 0u) << "lane " << l;
    EXPECT_TRUE(rep.dd128_verified) << "lane " << l;
  }

  // Single-node adaptive agrees on the solution within tier tolerance.
  for (std::size_t l = 0; l < bs.size(); ++l) {
    const auto want = solve_qsvt_ir(ctx, bs[l], options);
    ASSERT_EQ(per_rank[0][l].x.size(), want.x.size());
    for (std::size_t i = 0; i < want.x.size(); ++i) {
      EXPECT_NEAR(per_rank[0][l].x[i], want.x[i], 1e-9) << "lane " << l << " component " << i;
    }
  }
}

TEST(DistSolve, SessionStatsCountExchangesAndScheduleWin) {
  Xoshiro256 rng(72);
  const auto A = linalg::random_with_cond(rng, 8, 5.0);
  std::vector<linalg::Vector<double>> bs = {linalg::random_unit_vector(rng, 8)};
  const auto options = base_options();
  const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);

  qsim::exec::dist::LocalPeerGroup group(2);
  std::vector<std::shared_ptr<qsvt::dist::DistSolveSession>> sessions(2);
  std::vector<std::exception_ptr> errors(2);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    sessions[r] = std::make_shared<qsvt::dist::DistSolveSession>(
        qsvt::dist::DistConfig{r, 1, group.channel(r)});
    threads.emplace_back([&, r] {
      try {
        QsvtIrOptions opts = options;
        opts.dist = sessions[r];
        (void)solve_qsvt_ir_batch(ctx, std::span<const linalg::Vector<double>>(bs), opts);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (std::uint32_t r = 0; r < 2; ++r) {
    const auto& s = sessions[r]->stats();
    EXPECT_GT(s.solves, 0u) << "rank " << r;
    EXPECT_GT(s.exchange_rounds, 0u) << "rank " << r;
    EXPECT_GT(s.bytes_moved, 0u) << "rank " << r;
    // The scheduling pass must beat the classification-blind baseline on
    // the production QSVT program.
    EXPECT_LT(s.plan_scheduled_rounds, s.plan_naive_rounds) << "rank " << r;
  }
}

/// Rank programs live on the context: the first dist job on a (world,
/// rank) builds the plan and each tier it runs, later jobs replay them —
/// sequential and concurrent jobs alike — and produce the bits the first,
/// uncached job did.
TEST(DistSolve, RankProgramsAreBuiltOncePerContext) {
  Xoshiro256 rng(75);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  std::vector<linalg::Vector<double>> bs;
  for (int k = 0; k < 3; ++k) bs.push_back(linalg::random_unit_vector(rng, 16));
  auto options = base_options();
  options.qsvt.precision = qsvt::QpuPrecision::kAdaptive;
  options.escalation.single_floor = 1e-6;  // run both the single and double tiers
  const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);
  ASSERT_NE(ctx.rank_programs, nullptr);
  EXPECT_EQ(ctx.rank_programs->plans_built(), 0u);

  std::vector<std::shared_ptr<qsvt::dist::DistSolveSession>> sessions;
  const auto first = solve_distributed(ctx, bs, options, 1, &sessions);
  for (const auto& session : sessions) EXPECT_TRUE(session->built_rank_programs());
  ASSERT_GT(first[0][0].tier_solves[kTierDouble], 0u);
  // One plan per rank; single and double programs per rank; never f16.
  EXPECT_EQ(ctx.rank_programs->plans_built(), 2u);
  EXPECT_EQ(ctx.rank_programs->specializations(), 4u);

  const auto second = solve_distributed(ctx, bs, options, 1, &sessions);
  for (const auto& session : sessions) EXPECT_FALSE(session->built_rank_programs());
  EXPECT_EQ(ctx.rank_programs->plans_built(), 2u);
  EXPECT_EQ(ctx.rank_programs->specializations(), 4u);
  for (std::uint32_t r = 0; r < 2; ++r) {
    for (std::size_t l = 0; l < bs.size(); ++l) {
      expect_reports_identical(second[r][l], first[0][l], "cached vs first job");
    }
  }

  // Two groups at once share one rank's entry read-only; a new world
  // size is a new slice and builds its own.
  std::vector<std::vector<std::vector<QsvtIrReport>>> concurrent(2);
  std::vector<std::thread> groups;
  for (std::size_t g = 0; g < 2; ++g) {
    groups.emplace_back([&, g] { concurrent[g] = solve_distributed(ctx, bs, options, 1); });
  }
  for (auto& t : groups) t.join();
  EXPECT_EQ(ctx.rank_programs->plans_built(), 2u);
  EXPECT_EQ(ctx.rank_programs->specializations(), 4u);
  for (const auto& per_rank : concurrent) {
    ASSERT_EQ(per_rank.size(), 2u);
    for (std::size_t l = 0; l < bs.size(); ++l) {
      expect_reports_identical(per_rank[1][l], first[0][l], "concurrent vs first job");
    }
  }
  (void)solve_distributed(ctx, bs, options, 2);
  EXPECT_EQ(ctx.rank_programs->plans_built(), 6u);
}

/// A session outlives one batch: refinement iterations across batches keep
/// the sequence counter strictly increasing, so a follow-up solve against
/// the same context just works.
TEST(DistSolve, SessionServesSequentialBatches) {
  Xoshiro256 rng(73);
  const auto A = linalg::random_with_cond(rng, 8, 5.0);
  std::vector<linalg::Vector<double>> first = {linalg::random_unit_vector(rng, 8)};
  std::vector<linalg::Vector<double>> second = {linalg::random_unit_vector(rng, 8)};
  const auto options = base_options();
  const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);

  qsim::exec::dist::LocalPeerGroup group(2);
  std::vector<std::exception_ptr> errors(2);
  std::vector<linalg::Vector<double>> results(2);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      try {
        QsvtIrOptions opts = options;
        opts.dist = std::make_shared<qsvt::dist::DistSolveSession>(
            qsvt::dist::DistConfig{r, 1, group.channel(r)});
        (void)solve_qsvt_ir_batch(ctx, std::span<const linalg::Vector<double>>(first), opts);
        auto reps =
            solve_qsvt_ir_batch(ctx, std::span<const linalg::Vector<double>>(second), opts);
        results[r] = std::move(reps[0].x);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  ASSERT_EQ(results[0].size(), results[1].size());
  for (std::size_t i = 0; i < results[0].size(); ++i) {
    EXPECT_EQ(results[0][i], results[1][i]) << "component " << i;
  }
}

}  // namespace
}  // namespace mpqls::solver
