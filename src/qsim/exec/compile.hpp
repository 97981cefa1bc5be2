// Circuit -> Program lowering. `lower_and_fuse` runs the precision-agnostic
// passes (gate -> matrix materialization, adjoint resolution, target
// sorting, single-qubit peephole fusion, <= k-qubit window fusion);
// `specialize<T>` rounds the fused matrices to the execution precision once
// and precomputes the kernel index tables. `compile<T>` is the one-call
// front door and stamps the compile time into the program stats.
#pragma once

#include <atomic>
#include <complex>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/timer.hpp"
#include "qsim/circuit.hpp"
#include "qsim/exec/program.hpp"

namespace mpqls::qsim::exec {

struct CompileOptions {
  /// Master switch for the fusion passes; off = one op per gate (the
  /// specialization and precomputed tables still apply).
  bool fuse = true;
  /// Fused dense windows cover at most this many qubits (targets and
  /// folded-in controls combined). 2^k scratch per thread, 4^k matrix.
  std::uint32_t max_fuse_qubits = 3;
};

/// Passes 1-2: lower gates to adjoint-resolved, target-sorted matrix ops
/// and fuse neighbours. Deterministic; no precision loss (all double).
FusedIr lower_and_fuse(const Circuit& circuit, const CompileOptions& options = {});

/// Interned op payloads of one precision tier. A QSVT program applies the
/// same block-encoding matrix hundreds of times; interning stores each
/// distinct payload once, and every op whose kind, target count and rounded
/// payload values (bit for bit) match an earlier op's shares its storage.
/// One table may serve several `specialize` calls (a rank's steps share
/// one).
template <typename T>
class PayloadTable {
 public:
  using C = exec_compute_t<T>;

  /// Point `op`'s payload views at the interned copy of `values`.
  void intern(CompiledOp<T>& op, std::vector<std::complex<C>> values) {
    const std::uint64_t key = digest(op, values);
    const auto [first, last] = entries_.equal_range(key);
    for (auto it = first; it != last; ++it) {
      const CompiledOp<T>& e = it->second;
      if (e.kind == op.kind && e.num_targets == op.num_targets &&
          e.payload.size() == values.size() &&
          std::memcmp(e.payload.data(), values.data(), values.size() * sizeof(values[0])) == 0) {
        op.payload = e.payload;
        op.payload_re = e.payload_re;
        op.payload_im = e.payload_im;
        return;
      }
    }
    if (op.kind == OpKind::kDense) {
      // The matrix split into real/imaginary planes for the SIMD kernels.
      std::vector<C> re, im;
      re.reserve(values.size());
      im.reserve(values.size());
      for (const auto& v : values) {
        re.push_back(v.real());
        im.push_back(v.imag());
      }
      op.payload_re = SharedArray<C>(std::move(re));
      op.payload_im = SharedArray<C>(std::move(im));
    }
    op.payload = SharedArray<std::complex<C>>(std::move(values));
    entries_.emplace(key, op);
  }

 private:
  /// Kind, target count and size, then every 64-bit word of a short
  /// payload or an even sample of 64 words of a long one — the full
  /// compare in `intern` settles a match either way.
  static std::uint64_t digest(const CompiledOp<T>& op, const std::vector<std::complex<C>>& values) {
    Fnv1a h;
    h.u64(static_cast<std::uint64_t>(op.kind)).u64(op.num_targets).u64(values.size());
    const std::size_t words = values.size() * sizeof(values[0]) / sizeof(std::uint64_t);
    const std::size_t stride = words > 64 ? words / 64 : 1;
    const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
    for (std::size_t w = 0; w < words; w += stride) {
      std::uint64_t word;
      std::memcpy(&word, bytes + w * sizeof word, sizeof word);
      h.u64(word);
    }
    return h.digest();
  }

  /// The first op that carried each payload, by digest.
  std::unordered_multimap<std::uint64_t, CompiledOp<T>> entries_;
};

/// Pass 3: round payloads to the *storage* precision T (then hold them in
/// the compute precision — identity for float/double, binary16-round-then-
/// widen-to-float for the f16 tier), intern them in `table` and precompute
/// per-op tables.
template <typename T>
Program<T> specialize(const FusedIr& ir, PayloadTable<T>& table) {
  using C = exec_compute_t<T>;
  // Model the QPU storing this value at precision T.
  const auto qround = [](double v) { return static_cast<C>(static_cast<T>(v)); };
  Program<T> program;
  program.num_qubits = ir.num_qubits;
  program.stats = ir.stats;
  program.ops.reserve(ir.ops.size());
  for (const auto& op : ir.ops) {
    CompiledOp<T> c;
    c.kind = op.kind;
    c.pos_mask = op.pos_mask;
    c.neg_mask = op.neg_mask;
    c.set_mask = op.pos_mask;
    // Bits the kernel loop must skip: control bits always; target bits for
    // the pairwise/blockwise kinds (a diagonal visits targets in place).
    std::uint64_t skip = op.pos_mask | op.neg_mask;
    if (op.kind == OpKind::kApply1q || op.kind == OpKind::kDense) {
      for (auto q : op.targets) skip |= std::uint64_t{1} << q;
    }
    for (std::uint32_t q = 0; q < 64 && (skip >> q) != 0; ++q) {
      if (skip & (std::uint64_t{1} << q)) c.insert_bits.push_back(std::uint64_t{1} << q);
    }
    c.free_shift = static_cast<std::uint32_t>(c.insert_bits.size());
    switch (op.kind) {
      case OpKind::kApply1q:
        c.target_bit = std::uint64_t{1} << op.targets[0];
        c.m00 = std::complex<C>(qround(op.payload[0].real()), qround(op.payload[0].imag()));
        c.m01 = std::complex<C>(qround(op.payload[1].real()), qround(op.payload[1].imag()));
        c.m10 = std::complex<C>(qround(op.payload[2].real()), qround(op.payload[2].imag()));
        c.m11 = std::complex<C>(qround(op.payload[3].real()), qround(op.payload[3].imag()));
        break;
      case OpKind::kGlobalPhase:
        c.phase = std::complex<C>(qround(op.payload[0].real()), qround(op.payload[0].imag()));
        break;
      case OpKind::kDense:
      case OpKind::kDiagonal: {
        c.num_targets = static_cast<std::uint32_t>(op.targets.size());
        for (auto q : op.targets) {
          const std::uint64_t bit = std::uint64_t{1} << q;
          c.target_bits.push_back(bit);
          c.target_mask |= bit;
        }
        std::vector<std::complex<C>> values;
        values.reserve(op.payload.size());
        for (const auto& v : op.payload) values.emplace_back(qround(v.real()), qround(v.imag()));
        table.intern(c, std::move(values));
        if (op.kind == OpKind::kDense) {
          // Gather offsets: sub-state s lives at base | offsets[s].
          const std::size_t sub_dim = std::size_t{1} << c.num_targets;
          c.offsets.resize(sub_dim);
          for (std::size_t s = 0; s < sub_dim; ++s) {
            std::uint64_t off = 0;
            for (std::uint32_t t = 0; t < c.num_targets; ++t) {
              if (s & (std::size_t{1} << t)) off |= c.target_bits[t];
            }
            c.offsets[s] = off;
          }
        }
        break;
      }
    }
    program.ops.push_back(std::move(c));
  }
  return program;
}

/// Pass 3 with a table of its own: payloads are shared within `ir` only.
template <typename T>
Program<T> specialize(const FusedIr& ir) {
  PayloadTable<T> table;
  return specialize<T>(ir, table);
}

/// Lower, fuse and specialize in one step.
template <typename T>
Program<T> compile(const Circuit& circuit, const CompileOptions& options = {}) {
  Timer timer;
  auto program = specialize<T>(lower_and_fuse(circuit, options));
  program.stats.compile_seconds = timer.seconds();
  return program;
}

/// One precision-templated artifact (Program<T>, RankProgram<T>) at each
/// execution tier — f16, float, double — each built at most once, on first
/// request (std::call_once per tier), then shared read-only. Thread-safe.
template <template <typename> class P>
class LazyTiers {
 public:
  /// The tier-T artifact, built by `make()` on first request. `built` is
  /// set when this call built it.
  template <typename T, typename Make>
  const P<T>& get(Make&& make, bool* built = nullptr) const {
    Tier<T>& tier = slot<T>();
    std::call_once(tier.once, [&] {
      tier.value = make();
      built_.fetch_add(1, std::memory_order_relaxed);
      if (built) *built = true;
    });
    return tier.value;
  }

  /// How many tiers have been built so far.
  std::uint64_t built() const { return built_.load(std::memory_order_relaxed); }

 private:
  template <typename T>
  struct Tier {
    std::once_flag once;
    P<T> value;
  };
  template <typename T>
  Tier<T>& slot() const {
    if constexpr (std::is_same_v<T, f16>) {
      return f16_;
    } else if constexpr (std::is_same_v<T, float>) {
      return f32_;
    } else {
      static_assert(std::is_same_v<T, double>, "unsupported program precision");
      return f64_;
    }
  }

  mutable Tier<f16> f16_;
  mutable Tier<float> f32_;
  mutable Tier<double> f64_;
  mutable std::atomic<std::uint64_t> built_{0};
};

/// All precision specializations of one `FusedIr`. The expensive passes
/// (lower + fuse) run exactly once, up front; each `Program<T>` is
/// specialized lazily on first request and cached for the lifetime of the
/// set, so the adaptive solver can hop between precision tiers without ever
/// recompiling. Thread-safe: `get<T>()` may race from many solve threads,
/// which is what lets a shared-const `QsvtSolverContext` hand out programs
/// on demand.
class ProgramSet {
 public:
  explicit ProgramSet(FusedIr ir) : ir_(std::move(ir)) {}

  const FusedIr& ir() const { return ir_; }

  /// Lazily specialize (once) and return the tier-T program.
  template <typename T>
  const Program<T>& get() const {
    return tiers_.template get<T>([this] {
      Timer timer;
      Program<T> program = specialize<T>(ir_);
      program.stats.compile_seconds = ir_.stats.compile_seconds + timer.seconds();
      return program;
    });
  }

  /// How many tiers have been specialized so far (test seam for the
  /// no-recompilation contract: repeated get<T>() must not move this).
  std::uint64_t specializations() const { return tiers_.built(); }

 private:
  FusedIr ir_;
  LazyTiers<Program> tiers_;
};

}  // namespace mpqls::qsim::exec
