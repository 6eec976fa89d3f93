#pragma once
// Communication cost model: converts the network simulator's message/byte
// counters into estimated wall-clock time under a simple latency + bandwidth
// link model. The paper's motivation (the central-server bottleneck, sparse
// vs dense graphs) is about exactly this quantity; the simulator runs
// in-process, so time must be modeled rather than measured.

#include <cstddef>

namespace pdsl::sim {

struct CommCostModel {
  double latency_s = 1e-3;        ///< fixed per-message cost (propagation + handshake)
  double bandwidth_bps = 1e9;     ///< link throughput in bits/second
  std::size_t parallel_links = 1; ///< links that can transfer simultaneously

  /// Time to deliver `messages` totaling `bytes`, spread over the parallel
  /// links (per-link serialization, perfectly balanced).
  [[nodiscard]] double transfer_time(std::size_t messages, std::size_t bytes) const;

  /// Convenience: time per round given per-round traffic.
  [[nodiscard]] double round_time(std::size_t messages_per_round,
                                  std::size_t bytes_per_round) const {
    return transfer_time(messages_per_round, bytes_per_round);
  }
};

/// Wide-area preset: 100 Mbps, 20 ms.
CommCostModel wan_network(std::size_t parallel_links);

}  // namespace pdsl::sim
