#include "sim/comm_cost.hpp"

#include <stdexcept>

namespace pdsl::sim {

double CommCostModel::transfer_time(std::size_t messages, std::size_t bytes) const {
  if (latency_s < 0.0 || bandwidth_bps <= 0.0 || parallel_links == 0) {
    throw std::invalid_argument("CommCostModel: bad parameters");
  }
  const double per_link_messages =
      static_cast<double>(messages) / static_cast<double>(parallel_links);
  const double per_link_bits =
      static_cast<double>(bytes) * 8.0 / static_cast<double>(parallel_links);
  return per_link_messages * latency_s + per_link_bits / bandwidth_bps;
}

CommCostModel wan_network(std::size_t parallel_links) {
  return CommCostModel{2e-2, 1e8, parallel_links};
}

}  // namespace pdsl::sim
