#pragma once
// Shared harness for the per-figure/per-table bench binaries. Each binary
// declares which paper artifact it regenerates (dataset, topology, epsilon
// grid, agent counts); the harness sweeps the five algorithms of Sec. VI-B,
// prints the same series/rows the paper reports, and writes CSVs.
//
// Scales:
//  - "quick" (default): reduced sizes so the whole suite runs on one core in
//    minutes. Shapes (who wins, how curves order) are preserved.
//  - "paper": the paper's M in {10,15,20}, full round counts, CNN models and
//    paper image sizes. Hours of CPU; run selectively.

#include <map>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "core/experiment.hpp"

namespace pdsl::bench {

struct SweepSpec {
  std::string id;       ///< e.g. "fig1"
  std::string title;    ///< human-readable description of the paper artifact
  std::string dataset;  ///< mnist_like | cifar_like
  std::string topology; ///< full | bipartite | ring
  std::vector<double> epsilons;      ///< paper's privacy budgets for this dataset
  double gamma = 0.0;                ///< 0 = the scale's default (ScaleParams)
  double alpha = 0.0;                ///< 0 = dataset default
};

struct ScaleParams {
  std::vector<std::int64_t> agents;
  std::size_t rounds = 0;
  std::size_t train_samples = 0;
  std::size_t test_samples = 0;
  std::size_t validation_samples = 0;
  std::size_t image = 0;
  std::size_t batch = 0;
  std::string model;
  std::size_t shapley_permutations = 0;
  std::size_t validation_batch = 0;
  std::size_t test_subsample = 0;
  std::size_t eval_every = 0;
  std::size_t print_every = 0;
  double noise_scale = 1.0;  ///< see ExperimentConfig::noise_scale
  /// Learning rate unless --gamma overrides it: the paper's (Sec. VI-A)
  /// 1e-2 for CIFAR and 1e-3 for MNIST at "paper", where its CNNs run; 0.05
  /// for the reduced-scale MLPs of "quick" and "medium".
  double gamma = 0.05;
};

/// Resolve "quick"/"paper" into concrete sizes for a dataset.
ScaleParams scale_params(const std::string& scale, const std::string& dataset);

/// Base config for one cell of a sweep.
core::ExperimentConfig make_config(const SweepSpec& spec, const ScaleParams& sp,
                                   std::size_t agents, double epsilon, std::uint64_t seed);

/// Loss-curve sweep (the paper's Figs. 1-6): for each (M, eps), run all five
/// algorithms and print average loss vs round side by side. Returns exit code.
int run_figure_bench(int argc, const char* const* argv, const SweepSpec& spec);

/// Accuracy-table sweep (the paper's Tables I-II): the given topologies x
/// (M, eps) grid, final test accuracy per algorithm.
int run_table_bench(int argc, const char* const* argv, SweepSpec spec,
                    const std::vector<std::string>& topologies);

/// Pretty label used in printed headers ("PDSL", "DP-CGA", ...).
std::string display_name(const std::string& algo_key);

/// S-FAULT config of a run as JSON, for bench result files: the full
/// FaultPlan (with the legacy drop_prob alias folded in) so a bench number
/// can never be quoted without the fault regime it was measured under.
json::Value fault_config_json(const core::ExperimentConfig& cfg);

// ---------------------------------------------------------------------------
// S-BENCH360 canonical benchmark envelope (schema v1)
// ---------------------------------------------------------------------------
// Every bench binary writes one of these as BENCH_<id>.json so
// tools/run_benchmarks.py can aggregate, diff and report uniformly. The
// envelope carries full provenance (git rev, compiler, build type,
// PDSL_NATIVE, host core count), the run's config and fault/adversary regime,
// named metric series with median/min/max over the recorded samples, and a
// free-form `runs` array with the bench's detailed rows. A binary records one sample
// per metric per process; the python driver re-runs the binary N times and
// merges the sample arrays, so `repeats` > 1 only ever appears in
// driver-merged files.

/// Build provenance: {"compiler", "compiler_version", "build_type",
/// "pdsl_native"} from compile definitions stamped in bench/CMakeLists.txt.
json::Value build_info_json();

/// Host identity: {"hardware_concurrency"}. Speedup-style metrics are bounded
/// by the core count, so numbers from a 1-core CI box aren't mistaken for
/// engine regressions.
json::Value host_info_json();

// S-SCALE memory accounting: first-class envelope metrics so scaling benches
// can assert "memory grows with the active set, not the fleet".

/// Peak resident set size of this process so far, in bytes (getrusage
/// ru_maxrss). Monotone: once the fleet's high-water mark is reached it never
/// decreases, so per-config deltas must be measured smallest-config-first.
std::size_t peak_rss_bytes();

/// Bytes currently allocated from the heap (glibc mallinfo2). 0 on libcs
/// without the API; unlike peak RSS this goes *down* when state is freed, so
/// before/after deltas isolate one run's steady-state footprint.
std::size_t current_heap_bytes();

/// {"peak_rss_bytes", "heap_bytes"} snapshot for the envelope's "memory"
/// block (an optional schema-v1 addition: absent in older BENCH_*.json).
json::Value memory_info_json();

/// Git revision the binary was built from (stamped at configure time;
/// the PDSL_GIT_REV environment variable overrides, which the A/B driver
/// uses when it rebuilds an older rev in a worktree).
std::string bench_git_rev();

class BenchEnvelope {
 public:
  /// `kind`: figure | table | ablation | scaling | micro | attack | calibration.
  BenchEnvelope(std::string bench_id, std::string kind);

  /// The resolved knob values the bench actually ran with.
  void set_config(json::Object cfg);
  void set_faults(json::Value faults);
  void set_adversary(json::Value adversary);
  /// Pass/fail gate values for benches that double as contracts.
  void set_acceptance(json::Object acceptance);

  /// Append one observation to the named series; median/min/max are computed
  /// over all samples at to_json() time. Units are free-form but stable
  /// ("ms", "s", "loss", "accuracy", "x", "epsilon", "bytes").
  void add_metric_sample(const std::string& name, const std::string& unit, double value);
  /// Append one detailed result row (bench-specific fields).
  void add_run(json::Object run);

  [[nodiscard]] json::Value to_json() const;
  /// dump(2) + trailing newline to `path`; prints a "wrote <path>" line.
  /// Returns false (after an error line on stderr) when the file can't be
  /// opened.
  bool write(const std::string& path) const;

 private:
  std::string bench_id_;
  std::string kind_;
  json::Object config_;
  json::Value faults_;
  json::Value adversary_;
  json::Object acceptance_;
  bool has_acceptance_ = false;
  struct MetricSeries {
    std::string unit;
    std::vector<double> samples;
  };
  std::map<std::string, MetricSeries> metrics_;  ///< sorted => stable dumps
  json::Array runs_;
};

}  // namespace pdsl::bench
