// The op kernels behind PanelExecutor<T> and the dist rank executor: one
// kernel family over a compiled Program<T>, on split re/im planes with the
// lane index innermost (lane count a template parameter, 0 = runtime
// width). A singleton solve is a one-lane panel. One body per op kind,
// except the dense op, which has three by shape:
//  * <= 3 targets (the fused windows): fully unrolled sub-dimension;
//  * wider (the block encoding), two or more lanes, and every op at a
//    runtime width: register tiles of matrix rows x lanes;
//  * wider, one lane: a row dot product with an `omp simd` reduction.
// The first two sum each lane in the same order with the same expression,
// so a lane's result is bitwise independent of the panel width (>= 2).
// Each kernel enters an OpenMP region only above its kParallel* threshold
// and splits over amplitudes or blocks, never inside one amplitude's sum,
// so the threading never changes a result.
#pragma once

#include <algorithm>
#include <complex>
#include <cstdint>
#include <vector>

#include "qsim/exec/program.hpp"

namespace mpqls::qsim::exec::kernels {

/// Insert a zero at bit position `bit` (a single-bit mask) of a compacted
/// index: enumerates exactly the indices whose `bit` is 0.
inline std::uint64_t expand_at(std::uint64_t compact, std::uint64_t bit) {
  const std::uint64_t low = compact & (bit - 1);
  return ((compact ^ low) << 1) | low;
}

/// Map a compacted loop index to the amplitude index the op touches:
/// zeros inserted at every skipped bit (targets + controls, ascending),
/// then the positive-control bits set. Branch-free control handling.
template <typename T>
std::uint64_t expand_index(std::uint64_t compact, const CompiledOp<T>& op) {
  for (const auto bit : op.insert_bits) compact = expand_at(compact, bit);
  return compact | op.set_mask;
}

// Amplitudes load/store through the storage precision T but all kernel
// arithmetic happens in the compute precision exec_compute_t<T> (float for
// the f16 tier, T itself for float/double). The lane count is a template
// parameter (kLanes == 0 means runtime width): QSVT programs are dominated
// by heavily-controlled ops with short inner loops, and a compile-time
// lane count unrolls them into straight-line SIMD.
//
// Below-threshold work skips the OpenMP region entirely: entering a (even
// one-thread) parallel region per op costs more than a whole small-panel
// sweep, and the compiled hot path runs thousands of ops. The thresholds
// count lane-amplitudes, so a B-lane panel reaches them at 1/B of the
// register size.
inline constexpr std::int64_t kParallelPairWork = std::int64_t{1} << 13;
inline constexpr std::int64_t kParallelBlockWork = std::int64_t{1} << 11;
inline constexpr std::int64_t kParallelAmpWork = std::int64_t{1} << 14;

template <int kLanes, typename T>
void panel_apply_1q(const CompiledOp<T>& op, T* re, T* im, std::int64_t n,
                    std::int64_t lanes_rt) {
  using C = exec_compute_t<T>;
  const std::int64_t lanes = kLanes > 0 ? kLanes : lanes_rt;
  const std::uint64_t bit = op.target_bit;
  const std::int64_t pairs = n >> op.free_shift;
  // Below the lowest re-inserted bit, consecutive loop indices map to
  // consecutive amplitudes — and in the panel layout consecutive
  // amplitudes are contiguous blocks of `lanes` elements, so a chunk of C
  // pairs is one flat unit-stride run of C*lanes scalars per plane (C is
  // a power of two and always divides `pairs`: there are at least
  // log2(C) free bits below every inserted bit). One index expansion covers the whole run;
  // the batch dimension rides inside the same SIMD loop.
  const std::int64_t chunk =
      std::min<std::int64_t>(static_cast<std::int64_t>(op.insert_bits[0]), pairs);
  const std::int64_t flat = chunk * lanes;
  const C m00r = op.m00.real(), m00i = op.m00.imag();
  const C m01r = op.m01.real(), m01i = op.m01.imag();
  const C m10r = op.m10.real(), m10i = op.m10.imag();
  const C m11r = op.m11.real(), m11i = op.m11.imag();
  auto chunk_kernel = [&](std::int64_t ii) {
    const std::uint64_t i0 = expand_index(static_cast<std::uint64_t>(ii), op);
    const std::uint64_t i1 = i0 | bit;
    T* r0 = re + static_cast<std::int64_t>(i0) * lanes;
    T* q0 = im + static_cast<std::int64_t>(i0) * lanes;
    T* r1 = re + static_cast<std::int64_t>(i1) * lanes;
    T* q1 = im + static_cast<std::int64_t>(i1) * lanes;
#pragma omp simd
    for (std::int64_t j = 0; j < flat; ++j) {
      const C re0 = static_cast<C>(r0[j]), im0 = static_cast<C>(q0[j]);
      const C re1 = static_cast<C>(r1[j]), im1 = static_cast<C>(q1[j]);
      r0[j] = static_cast<T>(m00r * re0 - m00i * im0 + m01r * re1 - m01i * im1);
      q0[j] = static_cast<T>(m00r * im0 + m00i * re0 + m01r * im1 + m01i * re1);
      r1[j] = static_cast<T>(m10r * re0 - m10i * im0 + m11r * re1 - m11i * im1);
      q1[j] = static_cast<T>(m10r * im0 + m10i * re0 + m11r * im1 + m11i * re1);
    }
  };
  if (pairs * lanes >= kParallelPairWork) {
#pragma omp parallel for
    for (std::int64_t ii = 0; ii < pairs; ii += chunk) chunk_kernel(ii);
  } else {
    for (std::int64_t ii = 0; ii < pairs; ii += chunk) chunk_kernel(ii);
  }
}

/// Dense block kernel for compile-time lane count AND sub-dimension (the
/// fused windows, <= 3 targets): the r/s loops fully unroll and the row
/// accumulators are fixed-size locals (registers, not scratch memory — a
/// heap accumulator would alias the gathered sub-panel and force a
/// reload/spill per multiply).
template <int kLanes, int kSub, typename T>
void panel_dense_block(const CompiledOp<T>& op, T* __restrict__ re, T* __restrict__ im,
                       std::int64_t bb, exec_compute_t<T>* __restrict__ sre,
                       exec_compute_t<T>* __restrict__ sim) {
  using C = exec_compute_t<T>;
  const std::uint64_t* offsets = op.offsets.data();
  const C* __restrict__ mre = op.payload_re.data();
  const C* __restrict__ mim = op.payload_im.data();
  const std::uint64_t base = expand_index(static_cast<std::uint64_t>(bb), op);
  for (int s = 0; s < kSub; ++s) {
    const T* __restrict__ src_re = re + static_cast<std::int64_t>(base | offsets[s]) * kLanes;
    const T* __restrict__ src_im = im + static_cast<std::int64_t>(base | offsets[s]) * kLanes;
#pragma omp simd
    for (std::int64_t l = 0; l < kLanes; ++l) {
      sre[s * kLanes + l] = static_cast<C>(src_re[l]);
      sim[s * kLanes + l] = static_cast<C>(src_im[l]);
    }
  }
  for (int r = 0; r < kSub; ++r) {
    const C* __restrict__ rre = mre + r * kSub;
    const C* __restrict__ rim = mim + r * kSub;
    C acc_re[kLanes] = {};
    C acc_im[kLanes] = {};
    for (int s = 0; s < kSub; ++s) {
      const C mr = rre[s], mi = rim[s];
      const C* __restrict__ xr = sre + s * kLanes;
      const C* __restrict__ xi = sim + s * kLanes;
#pragma omp simd
      for (std::int64_t l = 0; l < kLanes; ++l) {
        acc_re[l] += mr * xr[l] - mi * xi[l];
        acc_im[l] += mr * xi[l] + mi * xr[l];
      }
    }
    T* __restrict__ dst_re = re + static_cast<std::int64_t>(base | offsets[r]) * kLanes;
    T* __restrict__ dst_im = im + static_cast<std::int64_t>(base | offsets[r]) * kLanes;
#pragma omp simd
    for (std::int64_t l = 0; l < kLanes; ++l) {
      dst_re[l] = static_cast<T>(acc_re[l]);
      dst_im[l] = static_cast<T>(acc_im[l]);
    }
  }
}

/// Gather the sub-panel at `base` into split compute-precision planes,
/// row s at `s * ld` (ld >= lanes); lanes [lanes, ld) of every row are
/// zeroed so a tile may read them.
template <typename T>
void panel_gather_sub(const CompiledOp<T>& op, const T* re, const T* im, std::uint64_t base,
                      std::int64_t lanes, std::int64_t ld, exec_compute_t<T>* __restrict__ sre,
                      exec_compute_t<T>* __restrict__ sim) {
  using C = exec_compute_t<T>;
  const std::size_t sub_dim = std::size_t{1} << op.num_targets;
  for (std::size_t s = 0; s < sub_dim; ++s) {
    const std::int64_t src = static_cast<std::int64_t>(base | op.offsets[s]) * lanes;
    C* row_re = sre + s * static_cast<std::size_t>(ld);
    C* row_im = sim + s * static_cast<std::size_t>(ld);
#pragma omp simd
    for (std::int64_t l = 0; l < lanes; ++l) {
      row_re[l] = static_cast<C>(re[src + l]);
      row_im[l] = static_cast<C>(im[src + l]);
    }
    for (std::int64_t l = lanes; l < ld; ++l) row_re[l] = row_im[l] = C{};
  }
}

/// Matrix rows one register tile keeps in flight: kTileRows x kW lanes of
/// real and imaginary float accumulators fill half the AVX2 register file
/// at 8 and 16 lanes, leaving the rest for the gathered lanes. Double uses
/// the same tile; halving its rows measured no faster.
template <int kW>
inline constexpr int kTileRows = kW >= 16 ? 2 : 4;

/// Lane chunk the runtime-width dense kernel computes in (the gather pads
/// the lane count to a multiple of it).
inline constexpr int kDenseChunk = 8;

/// Register-tiled dense block (wide ops at compile-time widths >= 2, every
/// op at a runtime width): each tile holds kRows matrix rows x kW lanes in
/// local accumulators, the s loop runs inside the tile and the lane loop
/// is innermost. Lanes are computed in chunks of kW from the gathered
/// sub-panel (row stride ld); each lane sums s in ascending order with the
/// same expression as `panel_dense_block`, so a lane's result does not
/// depend on the panel width or the tile shape.
template <int kW, int kRows, typename T>
void panel_dense_tiled(const CompiledOp<T>& op, T* __restrict__ re, T* __restrict__ im,
                       std::uint64_t base, std::int64_t lanes, std::int64_t ld,
                       const exec_compute_t<T>* __restrict__ sre,
                       const exec_compute_t<T>* __restrict__ sim) {
  using C = exec_compute_t<T>;
  const std::size_t sub_dim = std::size_t{1} << op.num_targets;
  const C* __restrict__ mre = op.payload_re.data();
  const C* __restrict__ mim = op.payload_im.data();
  for (std::int64_t l0 = 0; l0 < lanes; l0 += kW) {
    const std::int64_t width = std::min<std::int64_t>(kW, lanes - l0);
    for (std::size_t r0 = 0; r0 < sub_dim; r0 += kRows) {
      C acc_re[kRows][kW] = {};
      C acc_im[kRows][kW] = {};
      for (std::size_t s = 0; s < sub_dim; ++s) {
        const C* __restrict__ xr = sre + s * static_cast<std::size_t>(ld) + l0;
        const C* __restrict__ xi = sim + s * static_cast<std::size_t>(ld) + l0;
        for (int i = 0; i < kRows; ++i) {
          const C mr = mre[(r0 + i) * sub_dim + s], mi = mim[(r0 + i) * sub_dim + s];
#pragma omp simd
          for (int l = 0; l < kW; ++l) {
            acc_re[i][l] += mr * xr[l] - mi * xi[l];
            acc_im[i][l] += mr * xi[l] + mi * xr[l];
          }
        }
      }
      for (int i = 0; i < kRows; ++i) {
        const std::int64_t dst = static_cast<std::int64_t>(base | op.offsets[r0 + i]) * lanes + l0;
        for (std::int64_t l = 0; l < width; ++l) {
          re[dst + l] = static_cast<T>(acc_re[i][l]);
          im[dst + l] = static_cast<T>(acc_im[i][l]);
        }
      }
    }
  }
}

/// Wide dense block at one lane: a row dot product with an `omp simd`
/// reduction over s (the tile would idle all but one lane of its SIMD
/// width; the reduction vectorizes over s instead).
template <typename T>
void panel_dense_dot(const CompiledOp<T>& op, T* re, T* im, std::uint64_t base,
                     const exec_compute_t<T>* __restrict__ sre,
                     const exec_compute_t<T>* __restrict__ sim) {
  using C = exec_compute_t<T>;
  const std::size_t sub_dim = std::size_t{1} << op.num_targets;
  for (std::size_t r = 0; r < sub_dim; ++r) {
    const C* __restrict__ rre = op.payload_re.data() + r * sub_dim;
    const C* __restrict__ rim = op.payload_im.data() + r * sub_dim;
    C acc_re{}, acc_im{};
#pragma omp simd reduction(+ : acc_re, acc_im)
    for (std::size_t s = 0; s < sub_dim; ++s) {
      acc_re += rre[s] * sre[s] - rim[s] * sim[s];
      acc_im += rre[s] * sim[s] + rim[s] * sre[s];
    }
    const std::uint64_t dst = base | op.offsets[r];
    re[dst] = static_cast<T>(acc_re);
    im[dst] = static_cast<T>(acc_im);
  }
}

template <int kLanes, typename T>
void panel_apply_dense(const CompiledOp<T>& op, T* re, T* im, std::int64_t n,
                       std::int64_t lanes_rt, std::vector<exec_compute_t<T>>& run_scratch) {
  using C = exec_compute_t<T>;
  const std::int64_t lanes = kLanes > 0 ? kLanes : lanes_rt;
  const std::size_t sub_dim = std::size_t{1} << op.num_targets;
  const std::int64_t blocks = n >> op.free_shift;
  // Gathered sub-panel in split planes ([sub_dim][ld] re then im); a
  // runtime width pads its rows to whole kDenseChunk tiles.
  const std::int64_t ld =
      kLanes > 0 ? kLanes : (lanes + kDenseChunk - 1) / kDenseChunk * kDenseChunk;
  const std::size_t scratch_len = 2 * sub_dim * static_cast<std::size_t>(ld);
  auto block_kernel = [&](std::int64_t bb, C* sre) {
    C* sim = sre + sub_dim * static_cast<std::size_t>(ld);
    if constexpr (kLanes > 0) {
      switch (op.num_targets) {
        case 1: panel_dense_block<kLanes, 2>(op, re, im, bb, sre, sim); return;
        case 2: panel_dense_block<kLanes, 4>(op, re, im, bb, sre, sim); return;
        case 3: panel_dense_block<kLanes, 8>(op, re, im, bb, sre, sim); return;
        default: break;
      }
    }
    const std::uint64_t base = expand_index(static_cast<std::uint64_t>(bb), op);
    panel_gather_sub(op, re, im, base, lanes, ld, sre, sim);
    if constexpr (kLanes == 1) {
      panel_dense_dot(op, re, im, base, sre, sim);
    } else if constexpr (kLanes > 1) {
      panel_dense_tiled<kLanes, kTileRows<kLanes>>(op, re, im, base, lanes, ld, sre, sim);
    } else if (sub_dim < kTileRows<kDenseChunk>) {
      panel_dense_tiled<kDenseChunk, 2>(op, re, im, base, lanes, ld, sre, sim);
    } else {
      panel_dense_tiled<kDenseChunk, kTileRows<kDenseChunk>>(op, re, im, base, lanes, ld,
                                                                sre, sim);
    }
  };
  if (blocks * lanes >= kParallelBlockWork) {
#pragma omp parallel
    {
      std::vector<C> scratch(scratch_len);
#pragma omp for
      for (std::int64_t bb = 0; bb < blocks; ++bb) block_kernel(bb, scratch.data());
    }
  } else {
    if (run_scratch.size() < scratch_len) run_scratch.resize(scratch_len);
    for (std::int64_t bb = 0; bb < blocks; ++bb) block_kernel(bb, run_scratch.data());
  }
}

template <int kLanes, typename T>
void panel_apply_diagonal(const CompiledOp<T>& op, T* re, T* im, std::int64_t n,
                          std::int64_t lanes_rt) {
  using C = exec_compute_t<T>;
  const std::int64_t lanes = kLanes > 0 ? kLanes : lanes_rt;
  const std::uint32_t k = op.num_targets;
  const std::int64_t count = n >> op.free_shift;  // firing amplitudes only
  const std::uint64_t* target_bits = op.target_bits.data();
  const std::complex<C>* d = op.payload.data();
  auto amp_kernel = [&](std::int64_t ii) {
    const std::uint64_t i = expand_index(static_cast<std::uint64_t>(ii), op);
    std::uint64_t sub = 0;
    for (std::uint32_t t = 0; t < k; ++t) {
      if (i & target_bits[t]) sub |= std::uint64_t{1} << t;
    }
    const C dr = d[sub].real(), di = d[sub].imag();
    T* r = re + static_cast<std::int64_t>(i) * lanes;
    T* q = im + static_cast<std::int64_t>(i) * lanes;
#pragma omp simd
    for (std::int64_t l = 0; l < lanes; ++l) {
      const C ar = static_cast<C>(r[l]), ai = static_cast<C>(q[l]);
      r[l] = static_cast<T>(dr * ar - di * ai);
      q[l] = static_cast<T>(dr * ai + di * ar);
    }
  };
  if (count * lanes >= kParallelAmpWork) {
#pragma omp parallel for
    for (std::int64_t i = 0; i < count; ++i) amp_kernel(i);
  } else {
    for (std::int64_t i = 0; i < count; ++i) amp_kernel(i);
  }
}

template <typename T>
void panel_apply_phase(const CompiledOp<T>& op, T* re, T* im, std::int64_t n,
                       std::int64_t lanes) {
  using C = exec_compute_t<T>;
  const C pr = op.phase.real(), pi = op.phase.imag();
  const std::int64_t total = n * lanes;  // lanes are contiguous: one flat sweep
  if (total >= kParallelAmpWork) {
#pragma omp parallel for
    for (std::int64_t i = 0; i < total; ++i) {
      const C ar = static_cast<C>(re[i]), ai = static_cast<C>(im[i]);
      re[i] = static_cast<T>(pr * ar - pi * ai);
      im[i] = static_cast<T>(pr * ai + pi * ar);
    }
  } else {
#pragma omp simd
    for (std::int64_t i = 0; i < total; ++i) {
      const C ar = static_cast<C>(re[i]), ai = static_cast<C>(im[i]);
      re[i] = static_cast<T>(pr * ar - pi * ai);
      im[i] = static_cast<T>(pr * ai + pi * ar);
    }
  }
}

/// One op against a panel (the per-op body of PanelExecutor::run_impl).
template <int kLanes, typename T>
void panel_apply_op(const CompiledOp<T>& op, T* re, T* im, std::int64_t n, std::int64_t lanes,
                    std::vector<exec_compute_t<T>>& dense_scratch) {
  switch (op.kind) {
    case OpKind::kApply1q:
      panel_apply_1q<kLanes>(op, re, im, n, lanes);
      break;
    case OpKind::kDense:
      panel_apply_dense<kLanes>(op, re, im, n, lanes, dense_scratch);
      break;
    case OpKind::kDiagonal:
      panel_apply_diagonal<kLanes>(op, re, im, n, lanes);
      break;
    case OpKind::kGlobalPhase:
      panel_apply_phase(op, re, im, n, lanes);
      break;
  }
}

}  // namespace mpqls::qsim::exec::kernels
