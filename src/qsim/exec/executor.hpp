// Replays a compiled Program<T> against a Statevector<T>. The kernels are
// the reason to compile: amplitude pairs are enumerated directly (no
// skipped-index branches on the uncontrolled hot path), gate matrices are
// already in the execution precision, and dense gather offsets come
// precomputed from the compiler. The executor is stateless — one program
// can be replayed from many threads onto distinct statevectors, which is
// how the solver service runs batched right-hand sides.
//
// The op bodies live in qsim/exec/kernels.hpp. This class IS the
// "reference" execution backend's scalar path (qsim/exec/backend/), kept
// as a concrete type for callers that don't need the backend seam.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "qsim/exec/kernels.hpp"
#include "qsim/exec/program.hpp"
#include "qsim/statevector.hpp"

namespace mpqls::qsim::exec {

template <typename T>
class Executor {
 public:
  using complex_type = std::complex<T>;

  /// Apply every op of `program` to `sv` in order. The program may be
  /// narrower than the register (mirrors Statevector::apply(Circuit)).
  /// Reentrant: scratch lives on this frame, so one Executor (and one
  /// Program) can serve concurrent solves on distinct statevectors.
  void run(const Program<T>& program, Statevector<T>& sv) const {
    expects((std::size_t{1} << program.num_qubits) <= sv.dim(),
            "exec: program wider than register");
    complex_type* amps = sv.data();
    const std::int64_t n = static_cast<std::int64_t>(sv.dim());
    std::vector<T> scratch;  // shared by the serial dense ops (re then im plane)
    for (const auto& op : program.ops) {
      kernels::apply_op(op, amps, n, scratch);
    }
  }
};

}  // namespace mpqls::qsim::exec
