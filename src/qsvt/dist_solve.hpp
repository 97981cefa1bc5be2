// Distributed gate-level QSVT solves: one rank's view of a shard-group
// solve. Each of the W = 2^k workers holds a StatePanel shard of the QSVT
// register (k top qubits partition the amplitudes; one lane per RHS),
// replays the rank's slice of the context's compiled program
// (exchange_plan.hpp) once per chunk of RHS, and reduces postselection
// probabilities, direction amplitudes, and imaginary masses across the
// group with a deterministic allreduce. Every rank computes the full
// classical epilogue on the identical allreduced values, so every rank
// returns the identical QsvtSolveOutcomes — which is what lets the
// adaptive-precision refinement loop above run unchanged and stay in
// lockstep with zero extra synchronization: identical outcomes drive
// identical tier decisions.
//
// Bitwise parity with single-node replay: the postselected subspace fixes
// the register's top qubits (realpart=1, signal=0, BE ancillas=0), so for
// world sizes that partition only those qubits the surviving amplitudes —
// and the reduction partials — live on exactly one rank; the other ranks
// contribute exact zeros, and a chunk's outcomes equal the single-node
// panel solve of the same lanes bit for bit (see exchange_plan.hpp for
// the replay side).
//
// A session serves ONE job: it binds to the job's solver context on first
// use and takes this rank's exchange plan and per-tier rank programs from
// the context's RankProgramCache — the first dist job on a (world, rank)
// builds them, every later job on that context replays them as they are.
// The session itself holds only job state: a single strictly-increasing
// exchange sequence counter threaded through every replay and allreduce,
// and its stats. Calls must arrive in the same order on every rank (the
// refinement loop guarantees this); the session is not thread-safe.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "qsim/exec/dist/dist_executor.hpp"
#include "qsim/exec/dist/exchange_plan.hpp"
#include "qsim/exec/dist/peer_channel.hpp"
#include "qsvt/solve.hpp"

namespace mpqls::qsvt::dist {

/// Lanes per shard sweep. Every rank of a group must chunk a batch
/// identically, so this is a constant rather than a worker's panel width;
/// it also caps a rank's register at what an adaptive single-node panel
/// holds.
inline constexpr std::size_t kMaxDistLanes = 16;

struct DistConfig {
  std::uint32_t rank = 0;
  std::uint32_t world_log2 = 0;
  std::shared_ptr<qsim::exec::dist::PeerChannel> channel;
};

/// Cumulative per-session counters (the mpqls_dist_* series).
struct DistSolveStats {
  std::uint64_t solves = 0;
  std::uint64_t exchange_rounds = 0;
  std::uint64_t bytes_moved = 0;
  double exchange_seconds = 0.0;
  double local_seconds = 0.0;
  std::uint64_t plan_naive_rounds = 0;      ///< per sweep, before scheduling
  std::uint64_t plan_scheduled_rounds = 0;  ///< per sweep, as executed
};

class DistSolveSession {
 public:
  explicit DistSolveSession(DistConfig config);
  ~DistSolveSession();

  std::uint32_t rank() const { return config_.rank; }
  std::uint32_t world_log2() const { return config_.world_log2; }

  /// Drop-in for qsvt_solve_directions on the gate-level panel path: solve
  /// every right-hand side at the given concrete tier, one shard sweep
  /// (lockstep across ranks) per chunk of at most kMaxDistLanes lanes.
  /// Counts one panel per sweep in `stats`. Binds to `ctx` on first call;
  /// later calls must pass the same context.
  std::vector<QsvtSolveOutcome> solve_directions(
      const QsvtSolverContext& ctx, const std::vector<const linalg::Vector<double>*>& rhs,
      PanelExecStats* stats, QpuPrecision tier);

  const DistSolveStats& stats() const { return stats_; }

  /// True when this session built the exchange plan or a tier's rank
  /// program rather than finding it in the context's cache.
  bool built_rank_programs() const { return built_; }

 private:
  template <typename T>
  void sweep(const QsvtSolverContext& ctx, std::span<const linalg::Vector<double>* const> rhs,
             QpuPrecision tier, std::vector<QsvtSolveOutcome>& out);
  void bind(const QsvtSolverContext& ctx);

  DistConfig config_;
  const QsvtSolverContext* bound_ = nullptr;
  std::shared_ptr<const qsim::exec::dist::RankProgramSet> programs_;
  bool built_ = false;
  std::uint64_t seq_ = 0;
  DistSolveStats stats_;
};

}  // namespace mpqls::qsvt::dist
