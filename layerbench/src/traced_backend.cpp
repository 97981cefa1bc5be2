#include "traced_backend.hpp"

#include <chrono>
#include <memory>
#include <type_traits>

#include "qsim/exec/backend/backend.hpp"
#include "solver/qsvt_ir.hpp"

namespace layerbench {
namespace {

namespace exec = mpqls::qsim::exec;

struct AtomicCounters {
  std::array<std::atomic<std::uint64_t>, 3> apply_ns{};
  std::array<std::atomic<std::uint64_t>, kOpKinds> ops{};
  std::atomic<std::uint64_t> bytes_computed{0};
};

AtomicCounters& counters() {
  static AtomicCounters c;
  return c;
}

/// Amplitudes one op touches in one lane: the kernel loop runs
/// dim >> free_shift times, and each iteration visits 2 (1q), 2^k (dense
/// on k targets) or 1 (diagonal, global phase) amplitudes.
template <typename T>
std::uint64_t touched_amplitudes(const exec::CompiledOp<T>& op, std::uint32_t num_qubits) {
  const std::uint64_t iterations = (std::uint64_t{1} << num_qubits) >> op.free_shift;
  switch (op.kind) {
    case exec::OpKind::kApply1q: return 2 * iterations;
    case exec::OpKind::kDense: return iterations << op.num_targets;
    case exec::OpKind::kDiagonal:
    case exec::OpKind::kGlobalPhase: return iterations;
  }
  return 0;
}

/// Count one replay of `program` over `lanes` lanes of storage type T:
/// every touched amplitude's real and imaginary part read and written once
/// per lane, plus every op's matrix payload read once per replay.
template <typename T>
void count_program(const exec::Program<T>& program, std::size_t lanes) {
  auto& c = counters();
  std::array<std::uint64_t, kOpKinds> ops{};
  std::uint64_t amplitudes = 0;
  std::uint64_t payload_bytes = 0;
  for (const auto& op : program.ops) {
    ++ops[static_cast<int>(op.kind)];
    amplitudes += touched_amplitudes(op, program.num_qubits);
    payload_bytes += op.payload.size() * sizeof(op.payload[0]);
  }
  for (int k = 0; k < kOpKinds; ++k) c.ops[k].fetch_add(ops[k], std::memory_order_relaxed);
  const std::uint64_t state_bytes = amplitudes * lanes * 2 * sizeof(T) * 2;
  c.bytes_computed.fetch_add(state_bytes + payload_bytes, std::memory_order_relaxed);
}

template <typename T>
constexpr int tier_of() {
  if constexpr (std::is_same_v<T, double>) {
    return mpqls::solver::kTierDouble;
  } else if constexpr (std::is_same_v<T, float>) {
    return mpqls::solver::kTierSingle;
  } else {
    return mpqls::solver::kTierHalf;
  }
}

class TracedBackend final : public exec::ExecBackend {
 public:
  explicit TracedBackend(std::shared_ptr<exec::ExecBackend> inner) : inner_(std::move(inner)) {}

  const exec::BackendCapabilities& capabilities() const override {
    return inner_->capabilities();
  }
  std::shared_ptr<exec::BackendHandle> create_handle() const override {
    return inner_->create_handle();
  }
  std::size_t workspace_bytes(std::uint32_t num_qubits) const override {
    return inner_->workspace_bytes(num_qubits);
  }

  void apply_program(exec::BackendHandle& handle, const exec::Program<float>& program,
                     mpqls::qsim::Statevector<float>& sv) const override {
    timed(program, 1, [&] { inner_->apply_program(handle, program, sv); });
  }
  void apply_program(exec::BackendHandle& handle, const exec::Program<double>& program,
                     mpqls::qsim::Statevector<double>& sv) const override {
    timed(program, 1, [&] { inner_->apply_program(handle, program, sv); });
  }
  void apply_program_panel(exec::BackendHandle& handle, const exec::Program<exec::f16>& program,
                           exec::StatePanel<exec::f16>& panel) const override {
    timed(program, panel.lanes(), [&] { inner_->apply_program_panel(handle, program, panel); });
  }
  void apply_program_panel(exec::BackendHandle& handle, const exec::Program<float>& program,
                           exec::StatePanel<float>& panel) const override {
    timed(program, panel.lanes(), [&] { inner_->apply_program_panel(handle, program, panel); });
  }
  void apply_program_panel(exec::BackendHandle& handle, const exec::Program<double>& program,
                           exec::StatePanel<double>& panel) const override {
    timed(program, panel.lanes(), [&] { inner_->apply_program_panel(handle, program, panel); });
  }

 private:
  template <typename T, typename F>
  void timed(const exec::Program<T>& program, std::size_t lanes, F&& apply) const {
    const auto start = std::chrono::steady_clock::now();
    apply();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    auto& c = counters();
    c.apply_ns[tier_of<T>()].fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
    count_program(program, lanes);
  }

  std::shared_ptr<exec::ExecBackend> inner_;
};

}  // namespace

void install_traced_backend() {
  exec::backend_registry().register_backend(
      std::make_shared<TracedBackend>(exec::make_reference_backend()));
}

ExecCounters traced_backend_counters() {
  const auto& c = counters();
  ExecCounters out;
  for (int t = 0; t < 3; ++t) out.apply_seconds[t] = static_cast<double>(c.apply_ns[t].load()) * 1e-9;
  for (int k = 0; k < kOpKinds; ++k) out.ops[k] = c.ops[k].load();
  out.bytes_computed = c.bytes_computed.load();
  return out;
}

void reset_traced_backend_counters() {
  auto& c = counters();
  for (auto& ns : c.apply_ns) ns.store(0);
  for (auto& op : c.ops) op.store(0);
  c.bytes_computed.store(0);
}

}  // namespace layerbench
