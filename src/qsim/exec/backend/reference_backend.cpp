// The "reference" backend: PanelExecutor<T> dispatched through the
// ExecBackend seam. apply_program_panel IS PanelExecutor<T>::run, so
// results are bit-identical to direct executor calls for a fixed thread
// count; the Statevector entry points keep the seam's one-lane default.
#include "qsim/exec/backend/backend.hpp"
#include "qsim/exec/panel_executor.hpp"

namespace mpqls::qsim::exec {

namespace {

/// The executor is stateless, so the reference handle carries nothing;
/// it exists to satisfy the handle lifecycle of the interface.
class ReferenceHandle final : public BackendHandle {};

class ReferenceBackend final : public ExecBackend {
 public:
  const BackendCapabilities& capabilities() const override { return caps_; }

  std::shared_ptr<BackendHandle> create_handle() const override {
    return std::make_shared<ReferenceHandle>();
  }

  std::size_t workspace_bytes(std::uint32_t num_qubits) const override {
    // Per-thread dense scratch only: two split double planes of the widest
    // dense op, which is not bounded by the fusion window (the QSVT block
    // encoding is one op on 2^7 sub-amplitudes) — only by the register.
    return 2 * (std::size_t{1} << num_qubits) * sizeof(double);
  }

  void apply_program_panel(BackendHandle&, const Program<f16>& program,
                           StatePanel<f16>& panel) const override {
    PanelExecutor<f16>{}.run(program, panel);
  }
  void apply_program_panel(BackendHandle&, const Program<float>& program,
                           StatePanel<float>& panel) const override {
    PanelExecutor<float>{}.run(program, panel);
  }
  void apply_program_panel(BackendHandle&, const Program<double>& program,
                           StatePanel<double>& panel) const override {
    PanelExecutor<double>{}.run(program, panel);
  }

 private:
  BackendCapabilities caps_{"reference"};
};

}  // namespace

std::shared_ptr<ExecBackend> make_reference_backend() {
  return std::make_shared<ReferenceBackend>();
}

}  // namespace mpqls::qsim::exec
