// Replays a rank-specialized plan against one shard. A shard is a
// StatePanel<T> over the rank's m local qubits — one lane per RHS, the
// layout single-node replay uses — and every op runs through
// PanelExecutor<T>, so shards take the same kernel instantiation at every
// lane width (1/2/4/8/16 and the runtime width) that a single-node panel
// of that width takes. That is what makes distributed replay
// bitwise-comparable to single-node replay.
//
// The shard covers global amplitudes g = (rank << m) | i: the k highest
// qubits of the n-qubit register select the rank. The replay starts from
// whatever the caller loaded into the shard.
//
// An exchange step with h partition-qubit targets assembles the widened
// 2^(m+h)-amplitude panel from the 2^h partner shards with an h-round
// butterfly allgather (round j swaps every slot held so far with the
// partner across rank bit peer_bits[j]), applies the step's single wide
// op (partition targets remapped to qubits m..m+h-1, so the wide pairs
// are exactly the global pairs), and copies this rank's slot back out.
// Every partner computes the full wide update — 2^h-fold redundant flops,
// but h <= max_fuse_qubits keeps that small and it buys zero
// post-exchange synchronization.
//
// Slot s of the widened panel is the shard whose partition-target bits
// are s. Lanes are innermost, so a slot is one contiguous block of
// dim * lanes elements per plane. Exchange payload layout: per slot, its
// re block then its im block, in the sender's ascending slot order (the
// same on both sides, so no further negotiation).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "qsim/exec/dist/exchange_plan.hpp"
#include "qsim/exec/dist/peer_channel.hpp"
#include "qsim/exec/panel.hpp"
#include "qsim/exec/panel_executor.hpp"

namespace mpqls::qsim::exec::dist {

/// Cumulative counters for one or more replays (the mpqls_dist_* series).
struct DistRunMetrics {
  std::uint64_t exchange_rounds = 0;  ///< pairwise exchanges performed
  std::uint64_t bytes_moved = 0;      ///< bytes sent (the peer sends as many back)
  double exchange_seconds = 0.0;      ///< packing + transport + wide-op apply
  double local_seconds = 0.0;         ///< local-run kernel time
};

template <typename T>
void run_rank_program(const RankProgram<T>& rp, StatePanel<T>& shard, PeerChannel& channel,
                      std::uint64_t& seq, DistRunMetrics* metrics = nullptr) {
  expects(shard.num_qubits() == rp.local_qubits, "dist exec: plan/shard shape mismatch");
  PanelExecutor<T> executor;
  // One slot's worth of one plane: every lane of every local amplitude.
  const std::size_t block = shard.dim() * shard.lanes();
  std::vector<T> sendbuf, recvbuf;

  for (const auto& step : rp.steps) {
    {
      Timer timer;
      executor.run(step.local, shard);
      if (metrics) metrics->local_seconds += timer.seconds();
    }
    if (!step.has_exchange) continue;
    if (!step.fires) {
      // Every rank must advance the sequence counter identically even when
      // its shard group skips the step, or a later exchange that crosses
      // groups pairs mismatched sequence numbers and deadlocks.
      seq += step.peer_bits.size();
      continue;
    }

    Timer timer;
    const std::uint32_t h = static_cast<std::uint32_t>(step.peer_bits.size());
    StatePanel<T> wide(rp.local_qubits + h, shard.lanes());
    auto copy_slot = [&](const T* re, const T* im, std::uint32_t slot) {
      std::memcpy(wide.re() + slot * block, re, block * sizeof(T));
      std::memcpy(wide.im() + slot * block, im, block * sizeof(T));
    };

    // My slot: the partition-target bits of this rank.
    std::uint32_t myslot = 0;
    for (std::uint32_t j = 0; j < h; ++j) {
      if ((rp.rank >> step.peer_bits[j]) & 1u) myslot |= 1u << j;
    }
    copy_slot(shard.re(), shard.im(), myslot);

    // Butterfly allgather of the partner shards.
    std::vector<std::uint32_t> held{myslot};
    for (std::uint32_t j = 0; j < h; ++j) {
      const std::uint32_t peer = rp.rank ^ (1u << step.peer_bits[j]);
      const std::size_t batch = held.size();
      sendbuf.resize(batch * block * 2);
      for (std::size_t i = 0; i < batch; ++i) {
        std::memcpy(sendbuf.data() + i * block * 2, wide.re() + held[i] * block,
                    block * sizeof(T));
        std::memcpy(sendbuf.data() + i * block * 2 + block, wide.im() + held[i] * block,
                    block * sizeof(T));
      }
      recvbuf.resize(batch * block * 2);
      const std::size_t bytes = batch * block * 2 * sizeof(T);
      channel.exchange(peer, seq++, sendbuf.data(), recvbuf.data(), bytes);
      // The peer's held set is mine mirrored across bit j, sent in its
      // ascending order; mirroring preserves the relative order of a set
      // whose members all share the same bit-j value.
      std::vector<std::uint32_t> theirs(batch);
      for (std::size_t i = 0; i < batch; ++i) theirs[i] = held[i] ^ (1u << j);
      std::sort(theirs.begin(), theirs.end());
      for (std::size_t i = 0; i < batch; ++i) {
        const T* re = recvbuf.data() + i * block * 2;
        copy_slot(re, re + block, theirs[i]);
      }
      held.insert(held.end(), theirs.begin(), theirs.end());
      std::sort(held.begin(), held.end());
      if (metrics) {
        ++metrics->exchange_rounds;
        metrics->bytes_moved += bytes;
      }
    }

    executor.run(step.wide, wide);
    std::memcpy(shard.re(), wide.re() + myslot * block, block * sizeof(T));
    std::memcpy(shard.im(), wide.im() + myslot * block, block * sizeof(T));
    if (metrics) metrics->exchange_seconds += timer.seconds();
  }
}

}  // namespace mpqls::qsim::exec::dist
