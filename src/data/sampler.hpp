#pragma once
// Mini-batch sampling over an agent's local index set. The paper samples
// ξ_{i,t} uniformly from D_i each round (with replacement).

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"

namespace pdsl::data {

class BatchSampler {
 public:
  /// `indices`: the sample indices this agent owns within `ds`.
  BatchSampler(const Dataset& ds, std::vector<std::size_t> indices, std::size_t batch_size,
               Rng rng);

  /// Uniform with-replacement draw of one mini-batch (the paper's sampling).
  [[nodiscard]] std::pair<Tensor, std::vector<int>> sample();

  /// Stateless variant: draw with an externally supplied stream instead of
  /// advancing the member RNG (S-SCALE round-keyed draws — a worker evicted
  /// and re-materialized draws exactly the batches it would have resident).
  [[nodiscard]] std::pair<Tensor, std::vector<int>> sample_with(Rng& rng) const;

  [[nodiscard]] std::size_t local_size() const { return indices_.size(); }
  [[nodiscard]] std::size_t batch_size() const { return batch_; }

  /// The member draw stream, exposed for S-RECOV checkpoint/resume: stateful
  /// (non-fleet) runs advance rng_ once per sample(), so resuming a run
  /// bit-identically requires saving and restoring its cursor.
  [[nodiscard]] Rng& rng() { return rng_; }

 private:
  const Dataset* ds_;
  std::vector<std::size_t> indices_;
  std::size_t batch_;
  Rng rng_;
};

}  // namespace pdsl::data
