// The execution-backend seam behind the compiled IR. The compiler
// pipeline (Circuit -> FusedIr -> Program<T>) is backend-agnostic; this
// interface makes the *last* stage — replaying a Program<T> against a
// register — a dispatchable seam shaped like the GPU statevector APIs
// (cuStateVec-style): create a handle, query workspace, apply a program.
// "reference" is the one backend that ships; the seam is where a test or
// a metering decorator substitutes its own (register it under the same
// name before preparing a context).
//
// Contract:
//  * `create_handle()` returns the backend's per-consumer state (plan
//    caches, workspace). One handle serves one solver context; `apply_*`
//    calls on it may race from many solve threads, so a backend's handle
//    must be internally synchronized. Destroying the handle (its last
//    shared_ptr) releases everything the backend allocated for it.
//  * `apply_program_panel` replays every op of the program, in order,
//    against every lane of the panel — semantically identical to
//    PanelExecutor<T> up to floating-point reassociation. It is the one
//    replay entry point the stack calls: a singleton solve arrives as a
//    one-lane panel. The program outlives the handle's use of it
//    (programs are cached inside a ProgramSet for the context's
//    lifetime), which lets backends key per-program plans by address.
//  * `apply_program` (Statevector register) is a convenience: its default
//    body replays through `apply_program_panel` on a one-lane panel.
//  * `capabilities()` names the backend; the registry keys on that name.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "qsim/exec/panel.hpp"
#include "qsim/exec/program.hpp"
#include "qsim/statevector.hpp"

namespace mpqls::qsim::exec {

/// The backend's static descriptor: its registry name.
struct BackendCapabilities {
  std::string name;
};

/// Opaque per-consumer backend state (plan caches, workspace). Backends
/// downcast to their concrete handle type inside apply_*.
class BackendHandle {
 public:
  virtual ~BackendHandle() = default;
};

class ExecBackend {
 public:
  virtual ~ExecBackend() = default;

  virtual const BackendCapabilities& capabilities() const = 0;

  /// Fresh per-consumer state. Never nullptr.
  virtual std::shared_ptr<BackendHandle> create_handle() const = 0;

  /// Upper bound on the auxiliary bytes one replay thread needs for an
  /// `num_qubits`-qubit register (scratch registers, gather buffers —
  /// excludes the statevector itself). Telemetry/planning only.
  virtual std::size_t workspace_bytes(std::uint32_t num_qubits) const = 0;

  // Statevector entry points. Nothing in the library calls them: every
  // replay goes through apply_program_panel. The default body copies the
  // register into a one-lane panel, replays it through this backend's
  // apply_program_panel, and copies the lane back; overrides (a
  // decorator's) must keep that meaning. (Virtuals cannot be templates;
  // there is no Statevector<f16>.)
  virtual void apply_program(BackendHandle& handle, const Program<float>& program,
                             Statevector<float>& sv) const;
  virtual void apply_program(BackendHandle& handle, const Program<double>& program,
                             Statevector<double>& sv) const;

  // Panel entry points, one per storage tier.
  virtual void apply_program_panel(BackendHandle& handle, const Program<f16>& program,
                                   StatePanel<f16>& panel) const = 0;
  virtual void apply_program_panel(BackendHandle& handle, const Program<float>& program,
                                   StatePanel<float>& panel) const = 0;
  virtual void apply_program_panel(BackendHandle& handle, const Program<double>& program,
                                   StatePanel<double>& panel) const = 0;
};

/// Process-wide backend registry. The built-in "reference" backend
/// self-registers on first access; a replacement may be registered under
/// its name (or another) at any time. Lookup is by capability name.
/// Thread-safe; registered backends live for the process lifetime (raw
/// pointers returned by find never dangle).
class BackendRegistry {
 public:
  /// Register a backend under its capability name. Re-registering a name
  /// replaces the entry (the old instance stays alive — handed-out
  /// pointers remain valid).
  void register_backend(std::shared_ptr<ExecBackend> backend);

  /// nullptr when no backend of that name exists.
  const ExecBackend* find(const std::string& name) const;

 private:
  friend BackendRegistry& backend_registry();
  BackendRegistry();

  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// The process-wide registry ("reference" installed on first call).
BackendRegistry& backend_registry();

/// Name of the backend the stack selects when nothing else is configured.
inline constexpr const char* kDefaultBackendName = "reference";

/// Registry lookup shorthand: nullptr when unknown.
const ExecBackend* find_backend(const std::string& name);

/// Whatever is registered under kDefaultBackendName right now: the
/// reference backend unless a test fake or decorator replaced it. Looked
/// up on every call, so a replacement applies to the next caller.
const ExecBackend& default_backend();

/// A fresh "reference" backend (what the registry installs at start-up;
/// register it again to undo a substitution).
std::shared_ptr<ExecBackend> make_reference_backend();

}  // namespace mpqls::qsim::exec
