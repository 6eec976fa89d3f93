#pragma once
// Multi-seed replication: run the same experiment config across seeds and
// aggregate (mean, stddev, min, max) of the summary metrics. Benches use it
// for error bars; single-seed runs jitter noticeably at reduced scale.

#include <vector>

#include "core/experiment.hpp"

namespace pdsl::core {

struct Aggregate {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;

  static Aggregate of(const std::vector<double>& xs);
};

struct ReplicatedResult {
  Aggregate final_loss;
  Aggregate final_accuracy;
  std::vector<ExperimentResult> runs;  ///< one per seed, in seed order
};

/// Run `cfg` once per seed (cfg.seed is overwritten per run). Throws
/// std::invalid_argument, naming the key, if `cfg` sets a per-run file
/// (ledger_out, checkpoint_path, resume_from). trace_out accumulates every
/// run into one trace, as documented.
ReplicatedResult run_replicated(ExperimentConfig cfg, const std::vector<std::uint64_t>& seeds);

}  // namespace pdsl::core
