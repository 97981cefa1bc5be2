// Compiles a FusedIr into a distributed replay plan for W = 2^k shards.
//
// Qubits split at m = n - k: qubits [0, m) are *local* (both halves of any
// such gate pair live in the same shard), qubits [m, n) are *partition*
// qubits (their bit value selects the owning rank). An op classifies as:
//
//  * local     — no partition-qubit targets. Partition-qubit *controls*
//                cost nothing: each rank evaluates them against its own
//                rank bits once at plan time (the op drops out entirely on
//                ranks where they fail). Diagonal ops are local even with
//                partition-qubit targets — each rank slices the payload
//                entries its rank bits select.
//  * exchange  — a non-diagonal op with h >= 1 partition-qubit targets.
//                The executor runs it on a widened 2^(m+h) register
//                assembled from the 2^h partner shards (h pairwise
//                butterfly rounds), with the partition targets remapped to
//                qubits m..m+h-1, through the same panel kernels local ops
//                use. Costs h exchange rounds and (2^h - 1) shard
//                volumes of traffic.
//
// The scheduling pass then shrinks the exchange count without perturbing
// per-amplitude *values*:
//
//  1. Exact-diagonal demotion: kApply1q/kDense ops with partition-qubit
//     targets whose off-diagonal entries are exact zeros (a structural
//     check — fusion keeps exact zeros exact) become kDiagonal, turning
//     would-be exchanges into payload slicing.
//  2. X-conjugation elimination: an exchange op that is an exact
//     (controlled) Pauli-X, separated from an identical closing X only by
//     diagonal-kind ops, is cancelled against it; each diagonal D in the
//     sandwich is rewritten to X·D·X — a diagonal over the union qubit
//     set whose entries are D's entries at the X-permuted index, so every
//     amplitude sees the identical multiplier sequence. This is the QSVT
//     phase-gadget shape (CPiX · Rz · CRz · CPiX) when compiled without
//     fusion: 2 exchange rounds per gadget collapse to 0, and the 2d+1
//     local runs between them collapse into one.
//
// Bitwise parity: replaying a plan reproduces a single-node panel replay
// of the same FusedIr at the same lane width *bit for bit* whenever no op changed
// kernel class, i.e. stats.demoted_diagonal == 0 and conjugated_ops == 0
// — local ops, payload-sliced diagonals, and widened exchange ops all run
// through the identical kernel instantiation on identical values. That
// covers the production path: default fusion compiles QSVT/HHL gadgets to
// kDiagonal windows up front, so neither rewrite fires. When a rewrite
// does fire (an unfused gate stream), the multiplier values are copied
// exactly but the multiply routes through the diagonal kernel instead of
// the 1q/dense kernel, whose FMA contraction may differ in the last ulp.
//
// `naive_rounds` counts the rounds a classification-blind schedule pays
// (one pairwise round per partition-qubit reference of every op, controls
// included); `scheduled_rounds` is what the plan actually executes. The
// pass asserts nothing itself — tests and bench/perf_dist_scaling compare
// the two.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "qsim/exec/compile.hpp"
#include "qsim/exec/program.hpp"

namespace mpqls::qsim::exec::dist {

class DistPlanError : public std::runtime_error {
 public:
  explicit DistPlanError(const std::string& what) : std::runtime_error("dist plan: " + what) {}
};

struct ScheduleStats {
  /// Pairwise exchange rounds of a classification-blind schedule: one per
  /// partition-qubit reference (target or control) of every op.
  std::uint64_t naive_rounds = 0;
  /// Rounds the scheduled plan executes (h per exchange op with h
  /// partition-qubit targets).
  std::uint64_t scheduled_rounds = 0;
  std::uint64_t demoted_diagonal = 0;      ///< ops rewritten by pass 1
  std::uint64_t eliminated_exchanges = 0;  ///< X ops cancelled by pass 2
  std::uint64_t conjugated_ops = 0;        ///< sandwich ops rewritten by pass 2
};

struct PlanOptions {
  /// Run the exchange-minimizing passes; false keeps the naive
  /// classification (the baseline the round counts are compared against —
  /// the ops still execute correctly, just with more exchanges).
  bool schedule = true;
};

/// One scheduled step, in full-register coordinates.
struct PlanOp {
  bool exchange = false;
  /// Exchange ops: the partition-qubit targets, ascending.
  std::vector<std::uint32_t> high_targets;
  FusedOp op;
};

struct ExchangePlan {
  std::uint32_t num_qubits = 0;
  std::uint32_t local_qubits = 0;
  std::uint32_t world_log2 = 0;
  std::vector<PlanOp> ops;
  ScheduleStats stats;
};

/// Classify + schedule `ir` for W = 2^world_log2 shards. world_log2 must
/// be >= 1 and < ir.num_qubits.
ExchangePlan build_exchange_plan(const FusedIr& ir, std::uint32_t world_log2,
                                 const PlanOptions& options = {});

/// The plan lowered to one rank, precision-agnostic: runs of local ops
/// (FusedIr over the m local qubits) separated by exchange descriptors
/// whose single op lives on the widened m+h register.
struct RankExchangeIr {
  /// False when the op's non-target partition-qubit controls fail for
  /// this rank's shard group — every rank of the 2^h partner group agrees
  /// (they share those bits), so the whole step is skipped: no traffic.
  bool fires = true;
  std::vector<std::uint32_t> high_targets;  ///< global qubit indices, ascending
  std::vector<std::uint32_t> peer_bits;     ///< rank-bit index per high target
  FusedIr wide;                             ///< single op over m+h qubits
};

struct RankStepIr {
  FusedIr local;  ///< over the m local qubits (possibly empty)
  std::optional<RankExchangeIr> exchange;
};

struct RankPlan {
  std::uint32_t num_qubits = 0;
  std::uint32_t local_qubits = 0;
  std::uint32_t world_log2 = 0;
  std::uint32_t rank = 0;
  std::vector<RankStepIr> steps;
};

RankPlan build_rank_plan(const ExchangePlan& plan, std::uint32_t rank);

/// RankPlan specialized to a statevector precision (exec::specialize, the
/// same pass single-node programs go through — op payloads round
/// identically). All steps of a rank intern their payloads in one table,
/// so a matrix the rank applies at many steps is stored once.
template <typename T>
struct RankStep {
  Program<T> local;
  bool has_exchange = false;
  bool fires = true;
  std::vector<std::uint32_t> peer_bits;
  Program<T> wide;
};

template <typename T>
struct RankProgram {
  std::uint32_t num_qubits = 0;
  std::uint32_t local_qubits = 0;
  std::uint32_t world_log2 = 0;
  std::uint32_t rank = 0;
  std::vector<RankStep<T>> steps;
};

template <typename T>
RankProgram<T> specialize_rank(const ExchangePlan& plan, std::uint32_t rank) {
  const RankPlan rp = build_rank_plan(plan, rank);
  RankProgram<T> out;
  out.num_qubits = rp.num_qubits;
  out.local_qubits = rp.local_qubits;
  out.world_log2 = rp.world_log2;
  out.rank = rp.rank;
  out.steps.reserve(rp.steps.size());
  PayloadTable<T> payloads;
  for (const auto& step : rp.steps) {
    RankStep<T> s;
    s.local = specialize<T>(step.local, payloads);
    if (step.exchange) {
      s.has_exchange = true;
      s.fires = step.exchange->fires;
      s.peer_bits = step.exchange->peer_bits;
      s.wide = specialize<T>(step.exchange->wide, payloads);
    }
    out.steps.push_back(std::move(s));
  }
  return out;
}

/// One rank's exchange plan and its per-tier rank programs: the plan is
/// built up front, each RankProgram<T> is specialized lazily on first
/// request (LazyTiers, as in ProgramSet) and then shared
/// read-only by every dist job that runs this (world, rank) slice.
class RankProgramSet {
 public:
  RankProgramSet(const FusedIr& ir, std::uint32_t world_log2, std::uint32_t rank)
      : plan_(build_exchange_plan(ir, world_log2)), rank_(rank) {}

  const ExchangePlan& plan() const { return plan_; }

  /// Lazily specialize (once) and return the tier-T rank program. `built`
  /// is set when this call did the specialization.
  template <typename T>
  const RankProgram<T>& get(bool* built = nullptr) const {
    return tiers_.template get<T>([this] { return specialize_rank<T>(plan_, rank_); }, built);
  }

  /// How many tiers have been specialized so far (test seam).
  std::uint64_t specializations() const { return tiers_.built(); }

 private:
  ExchangePlan plan_;
  std::uint32_t rank_;
  LazyTiers<RankProgram> tiers_;
};

/// The RankProgramSets of one compiled program, keyed by (world_log2,
/// rank). It lives on the solver context next to its ProgramSet, so a
/// warm dist job reuses the plan and rank programs an earlier job built,
/// and evicting the context releases them. Thread-safe.
class RankProgramCache {
 public:
  /// The set for (world_log2, rank) of `ir`, built on first request.
  /// `built` is set when this call built it.
  std::shared_ptr<const RankProgramSet> get(const FusedIr& ir, std::uint32_t world_log2,
                                            std::uint32_t rank, bool* built = nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& entry = sets_[{world_log2, rank}];
    if (!entry) {
      entry = std::make_shared<const RankProgramSet>(ir, world_log2, rank);
      if (built) *built = true;
    }
    return entry;
  }

  /// Exchange plans built so far, one per (world_log2, rank) (test seam).
  std::uint64_t plans_built() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sets_.size();
  }

  /// Rank programs specialized so far, summed over every set (test seam).
  std::uint64_t specializations() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto& [key, set] : sets_) total += set->specializations();
    return total;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::shared_ptr<const RankProgramSet>> sets_;
};

}  // namespace mpqls::qsim::exec::dist
