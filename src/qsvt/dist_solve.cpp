#include "qsvt/dist_solve.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "linalg/blas.hpp"
#include "qsim/exec/panel.hpp"

namespace mpqls::qsvt::dist {

namespace edist = qsim::exec::dist;

DistSolveSession::DistSolveSession(DistConfig config) : config_(std::move(config)) {
  expects(config_.world_log2 >= 1, "dist solve: need at least 2 shards");
  expects(config_.rank < (1u << config_.world_log2), "dist solve: rank out of range");
  expects(config_.channel != nullptr, "dist solve: no peer channel");
}

DistSolveSession::~DistSolveSession() = default;

void DistSolveSession::bind(const QsvtSolverContext& ctx) {
  if (bound_ != nullptr) {
    expects(bound_ == &ctx, "dist solve: session bound to a different context");
    return;
  }
  expects(ctx.options.backend == Backend::kGateLevel, "dist solve: gate-level contexts only");
  expects(ctx.programs != nullptr && ctx.rank_programs != nullptr,
          "dist solve: context has no compiled program");
  expects(ctx.options.noise.depolarizing_per_gate == 0.0 &&
              ctx.options.noise.damping_per_gate == 0.0,
          "dist solve: noise trajectories are single-node only");
  programs_ =
      ctx.rank_programs->get(ctx.programs->ir(), config_.world_log2, config_.rank, &built_);
  bound_ = &ctx;
}

namespace {

/// The global postselection qubits as one shard sees them: local qubits
/// keep their index, partition qubits are decided by the rank's own bits.
/// `owns` is false when a partition qubit's required value conflicts with
/// the rank — the shard then holds none of the surviving subspace.
struct ShardSelect {
  std::vector<std::uint32_t> zeros, ones;
  bool owns = true;
};

ShardSelect shard_select(const std::vector<std::uint32_t>& zeros,
                         const std::vector<std::uint32_t>& ones, std::uint32_t local_qubits,
                         std::uint32_t rank) {
  ShardSelect s;
  auto place = [&](std::uint32_t q, std::uint32_t want, std::vector<std::uint32_t>& local) {
    if (q < local_qubits) {
      local.push_back(q);
    } else if (((rank >> (q - local_qubits)) & 1u) != want) {
      s.owns = false;
    }
  };
  for (const auto q : zeros) place(q, 0u, s.zeros);
  for (const auto q : ones) place(q, 1u, s.ones);
  return s;
}

}  // namespace

template <typename T>
void DistSolveSession::sweep(const QsvtSolverContext& ctx,
                             std::span<const linalg::Vector<double>* const> rhs,
                             QpuPrecision tier, std::vector<QsvtSolveOutcome>& out) {
  const QsvtCircuit& qc = *ctx.circuit;
  const std::size_t N = ctx.A.rows();
  const std::size_t B = rhs.size();
  const edist::ExchangePlan& plan = programs_->plan();
  const std::uint32_t m = plan.local_qubits;
  const std::uint64_t base = std::uint64_t{config_.rank} << m;

  // Lane l holds this rank's slice of the normalized rhs l: global
  // amplitude base + i is rhs_unit[base + i], zero past N. Normalization
  // is classical and identical on every rank.
  qsim::exec::StatePanel<T> shard(m, B);
  const std::size_t lo = std::min<std::uint64_t>(base, N);
  const std::size_t hi = std::min<std::uint64_t>(base + shard.dim(), N);
  for (std::size_t lane = 0; lane < B; ++lane) {
    const linalg::Vector<double>& b = *rhs[lane];
    expects(b.size() == N, "dist solve: dimension mismatch");
    const double n = linalg::nrm2(b);
    expects(n > 0.0, "dist solve: zero right-hand side");
    std::vector<double> slice(b.begin() + lo, b.begin() + hi);
    for (auto& x : slice) x /= n;
    shard.load_lane_real(lane, slice);
  }

  edist::DistRunMetrics metrics;
  edist::run_rank_program<T>(programs_->get<T>(&built_), shard, *config_.channel, seq_, &metrics);

  // Postselect: BE ancillas and signal at |0>, real-part qubit at |1>.
  // The per-lane probability partials are allreduced so every rank scales
  // by the same global p (the surviving subspace typically lives on one
  // rank; the rest contribute exact zeros and have nothing to scale).
  const auto sel = shard_select(qc.zero_postselect(), {qc.realpart_qubit}, m, config_.rank);
  std::vector<double> p =
      sel.owns ? shard.probability_match(sel.zeros, sel.ones) : std::vector<double>(B, 0.0);
  edist::allreduce_sum(*config_.channel, config_.rank, config_.world_log2, seq_, p.data(), B);
  if (sel.owns) shard.postselect_scale(sel.zeros, sel.ones, p);

  // Direction + imaginary-mass partials, N + 1 words per lane, in one
  // allreduce: the owner of each surviving amplitude contributes its
  // value, everyone else exact zero.
  const std::uint64_t rp_bit = std::uint64_t{1} << qc.realpart_qubit;
  std::vector<double> reduce(B * (N + 1), 0.0);
  for (std::size_t i = 0; i < N; ++i) {
    const std::uint64_t g = static_cast<std::uint64_t>(i) | rp_bit;
    if ((g >> m) != config_.rank) continue;
    for (std::size_t lane = 0; lane < B; ++lane) {
      const auto a = shard.amp(static_cast<std::size_t>(g - base), lane);
      reduce[lane * (N + 1) + i] = a.real();
      reduce[lane * (N + 1) + N] += a.imag() * a.imag();
    }
  }
  edist::allreduce_sum(*config_.channel, config_.rank, config_.world_log2, seq_, reduce.data(),
                       reduce.size());

  for (std::size_t lane = 0; lane < B; ++lane) {
    const double* r = reduce.data() + lane * (N + 1);
    out.push_back(
        finish_gate_level_lane(ctx, tier, linalg::Vector<double>(r, r + N), r[N], p[lane]));
  }

  stats_.solves += B;
  stats_.exchange_rounds += metrics.exchange_rounds;
  stats_.bytes_moved += metrics.bytes_moved;
  stats_.exchange_seconds += metrics.exchange_seconds;
  stats_.local_seconds += metrics.local_seconds;
  stats_.plan_naive_rounds += plan.stats.naive_rounds;
  stats_.plan_scheduled_rounds += plan.stats.scheduled_rounds;
}

std::vector<QsvtSolveOutcome> DistSolveSession::solve_directions(
    const QsvtSolverContext& ctx, const std::vector<const linalg::Vector<double>*>& rhs,
    PanelExecStats* stats, QpuPrecision tier) {
  expects(!rhs.empty(), "dist solve: at least one right-hand side");
  expects(tier != QpuPrecision::kAdaptive, "dist solve: tier must be a concrete precision");
  bind(ctx);
  std::vector<QsvtSolveOutcome> out;
  out.reserve(rhs.size());
  for (std::size_t begin = 0; begin < rhs.size(); begin += kMaxDistLanes) {
    const std::span<const linalg::Vector<double>* const> chunk(
        rhs.data() + begin, std::min(kMaxDistLanes, rhs.size() - begin));
    switch (tier) {
      case QpuPrecision::kHalf:
        sweep<qsim::exec::f16>(ctx, chunk, tier, out);
        break;
      case QpuPrecision::kSingle:
        sweep<float>(ctx, chunk, tier, out);
        break;
      default:
        sweep<double>(ctx, chunk, tier, out);
        break;
    }
    if (stats) {
      stats->panels += 1;
      stats->lanes += chunk.size();
    }
  }
  return out;
}

}  // namespace mpqls::qsvt::dist
