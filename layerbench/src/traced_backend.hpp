// An ExecBackend decorator for the traced run: registered under the name
// "reference", it forwards every call to a private instance of the
// reference backend and meters the seam on the way — wall time of each
// apply_program* call per precision tier, ops applied per OpKind, and the
// bytes those ops touch, statevector and matrix payloads (computed from op
// geometry, not measured). The untraced run never installs it, so the program it
// measures is untouched.
#pragma once

#include <array>
#include <cstdint>

namespace layerbench {

/// Op classes, in qsim::exec::OpKind order.
inline constexpr int kOpKinds = 4;

struct ExecCounters {
  /// Per tier, indexed like solver::kTierHalf..kTierDouble.
  std::array<double, 3> apply_seconds{};
  std::array<std::uint64_t, kOpKinds> ops{};  ///< op applications per OpKind
  /// State bytes read and written over all lanes, plus op payloads.
  std::uint64_t bytes_computed = 0;
};

/// Replace the registry's "reference" entry with the metering decorator.
/// Contexts prepared afterwards replay through it; contexts prepared
/// before keep the backend they resolved.
void install_traced_backend();

/// Counters accumulated since the last reset (zero if not installed).
ExecCounters traced_backend_counters();
void reset_traced_backend_counters();

}  // namespace layerbench
