#pragma once
// One-stop experiment driver: builds data, partition, topology, model and the
// requested algorithm from a declarative config, runs it, and returns the
// per-round series plus summary numbers. Every bench and example is a thin
// wrapper over run_experiment().

#include <memory>
#include <string>
#include <vector>

#include "algos/common.hpp"
#include "graph/spectral.hpp"
#include "sim/metrics.hpp"

namespace pdsl::core {

struct ExperimentConfig {
  std::string algorithm = "pdsl";  ///< pdsl | pdsl_uniform | dp_dpsgd | muffliato |
                                   ///< dp_cga | dp_netfleet | dpsgd | dmsgd
  std::string dataset = "mnist_like";  ///< mnist_like | cifar_like | gaussian
  std::string model = "mlp";           ///< mlp | mnist_cnn | cifar_cnn | logistic
  std::string topology = "full";       ///< full | ring | bipartite | star | torus | er |
                                       ///< regular | geometric (graph::Graph::make)

  std::size_t agents = 10;
  std::size_t rounds = 50;
  std::size_t train_samples = 2000;
  std::size_t test_samples = 400;
  std::size_t validation_samples = 200;  ///< size of the global validation set Q
  std::size_t image = 14;                ///< square image side (synthetic sets)
  std::size_t hidden = 32;               ///< MLP hidden width
  double mu = 0.25;                      ///< Dirichlet heterogeneity (paper: 0.25)
  bool iid = false;                      ///< override: homogeneous split
  /// "dirichlet" (paper) | "iid" | "shards" (pathological McMahan split).
  std::string partition = "dirichlet";
  std::size_t shards_per_agent = 2;      ///< only for partition = "shards"
  /// Poison the first `corrupt_agents` agents with uniformly random labels
  /// (extension experiment: Shapley weighting should suppress their
  /// cross-gradient contributions; uniform averaging cannot).
  std::size_t corrupt_agents = 0;
  /// Legacy alias for the S-BYZ adversary: the first `byzantine_agents` run a
  /// sign_flip role at the historical x3 amplification. Folded into
  /// `adversary` by run_experiment when the plan is otherwise empty (now
  /// applies to every algorithm, not only the PDSL variants).
  std::size_t byzantine_agents = 0;

  algos::HyperParams hp;

  /// Privacy calibration:
  ///  - "none": sigma = 0 (no DP);
  ///  - "fixed": use hp.sigma verbatim;
  ///  - "dpsgd": per-round Gaussian mechanism on the mini-batch mean gradient,
  ///    sensitivity 2C/B -> sigma = sqrt(2 ln(1.25/delta)) * 2C / (B*epsilon);
  ///  - "theorem1": the paper's Theorem-1 bound (very conservative).
  std::string sigma_mode = "dpsgd";
  /// Multiplier applied to the calibrated sigma (all modes except "none").
  /// Reduced-scale benches use < 1: with tiny batches and few rounds the
  /// per-round Gaussian-mechanism sigma would drown learning entirely, so we
  /// rescale the noise while preserving its 1/epsilon ordering across
  /// budgets and keeping all algorithms at identical sigma. Documented in
  /// DESIGN.md ("Substitutions") and EXPERIMENTS.md.
  double noise_scale = 1.0;
  double epsilon = 0.1;
  double delta = 1e-3;
  double phi_hat_min = 0.1;  ///< Theorem-1 parameter

  /// S-RT execution width for the per-agent phases: 1 = sequential (default),
  /// 0 = auto-detect (hardware_concurrency), N = fixed pool of N threads.
  /// Results are bit-identical at every setting; this is wall-clock only.
  std::size_t threads = 1;

  /// S-KER math backend: "blocked" (also "", the default) or "naive", the
  /// bit-for-bit reference loops kept for differential testing. Every
  /// run_experiment call applies it, so a run never inherits the backend of
  /// an earlier run in the same process; any other value throws. See
  /// DESIGN.md "S-KER" for the cross-backend numerics contract.
  std::string backend;

  std::uint64_t seed = 1;
  double drop_prob = 0.0;  ///< legacy alias for faults.drop_prob
  /// S-FAULT: deterministic drop/delay/churn injection plus the staleness
  /// bound. drop_prob above is folded in when faults.drop_prob is 0.
  sim::FaultPlan faults;
  /// S-RECOV: unreliable-channel transport — deterministic bit-flip
  /// corruption, duplication and reordering, recovered by the checksum-NACK/
  /// retransmit loop with bounded retries and round-granular backoff.
  sim::ChannelPlan channel;
  /// S-RECOV: fail-stop crash schedule + periodic snapshot cadence.
  sim::CrashPlan crash;
  /// S-RECOV: directory for per-agent recovery snapshot files ("" = snapshots
  /// stay in memory only).
  std::string recovery_dir;
  /// S-RECOV kill-and-resume: persist a resumable run-state file every N
  /// rounds (0 = off; requires checkpoint_path). Never fires after the final
  /// round.
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path;
  /// Resume a previous run from this run-state file ("" = fresh run). The
  /// file's config-identity hash must match this config.
  std::string resume_from;
  /// S-BYZ: Byzantine roles (who attacks, how, when) + defense screening.
  sim::AdversaryPlan adversary;
  algos::DefenseOptions defense;
  /// Lossy channel compression spec: "none", "topk:<fraction>", "quant:<bits>"
  /// (extension experiment; see src/compress/).
  std::string compression = "none";
  algos::MetricsOptions metrics;
  /// S-SCALE fleet knobs: sampled/walk participation, sparse topologies,
  /// lazy agent state, wire round-trip verification. All-defaults =
  /// historical behavior.
  fleet::FleetOptions fleet;

  /// S-OBS: collect a per-phase wall-time breakdown and have the CLI/bench
  /// front-ends print it (phase timings are recorded regardless; this flag
  /// only controls reporting).
  bool profile = false;
  /// S-OBS: enable span tracing for this run and write Chrome trace-event
  /// JSON (chrome://tracing / Perfetto loadable) to this path; empty = off.
  std::string trace_out;
  /// S-BENCH360: write a structured JSONL run ledger (round-level events:
  /// per-round epsilon spent, Shapley pi/phi vectors, fault/Byzantine
  /// counters, per-phase wall time) to this path; empty = off. Stripping the
  /// volatile "phase_timing" and "run_env" lines, the ledger is
  /// bit-identical at any --threads (see obs/ledger.hpp).
  std::string ledger_out;
};

struct ExperimentResult {
  std::string algorithm;
  std::vector<sim::RoundMetrics> series;
  double final_loss = 0.0;
  double final_accuracy = 0.0;
  double sigma = 0.0;                ///< noise actually used
  double heterogeneity = 0.0;        ///< mean pairwise TV distance of label dists
  graph::SpectralInfo spectral;      ///< of the mixing matrix
  std::size_t model_dim = 0;
  std::size_t messages = 0;
  std::size_t bytes = 0;
  std::size_t dropped = 0;           ///< messages lost to faults (drops + churn)
  std::size_t delayed = 0;           ///< messages that arrived late
  std::size_t corrupted = 0;         ///< payloads corrupted by Byzantine senders
  std::size_t rejected = 0;          ///< payloads refused by sanitization (total)
  std::size_t reclipped = 0;         ///< received gradients re-clipped to C (total)
  std::vector<float> average_model;  ///< consensus model after the last round
  obs::PhaseTimings phase_totals;    ///< per-phase seconds summed over rounds
  /// Total privacy budget spent by the run: the RDP accountant's epsilon at
  /// cfg.delta after the final round (0 for non-private runs). The per-round
  /// trajectory is series[t].epsilon_spent.
  double epsilon_spent = 0.0;
  // S-SCALE fleet accounting (0 unless the corresponding knob is on).
  std::size_t wire_messages = 0;       ///< messages round-tripped through the wire codec
  std::size_t wire_bytes = 0;          ///< encoded frame bytes across those messages
  std::size_t workers_peak = 0;        ///< high-water mark of resident LocalWorkers
  std::size_t models_materialized = 0; ///< model rows diverged from the shared x0
  std::size_t participants = 0;        ///< sampled participants in the final round
  // S-RECOV transport + recovery accounting (0 unless channel/crash are on).
  std::size_t retransmits = 0;           ///< frames resent after a NACK
  std::size_t corruptions_detected = 0;  ///< checksum-caught bit flips
  std::size_t retry_exhausted = 0;       ///< messages lost after all retries
  std::size_t duplicates_dropped = 0;    ///< duplicate copies deduped
  std::size_t reordered = 0;             ///< deliveries that jumped the queue
  std::size_t crashes = 0;               ///< agent crash/restart events (total)
  std::size_t resyncs = 0;               ///< crashes recovered with a neighbor resync
  std::size_t resumed_from_round = 0;    ///< 0 = fresh run; else the resume cursor
};

/// Resolve the noise level for a config (exposed for the sigma ablation).
double calibrate_sigma(const ExperimentConfig& cfg, const graph::Metropolis& w);

/// Build the algorithm by name over a prepared Env (PDSL lives here; baselines
/// come from pdsl_algos). Adversary/defense wiring rides in env.
std::unique_ptr<algos::Algorithm> make_algorithm(const std::string& name,
                                                 const algos::Env& env);

/// S-RECOV: FNV-1a over the canonical JSON of `cfg` with the volatile,
/// resume-irrelevant knobs scrubbed (threads, profiling/output paths, the
/// checkpoint/resume knobs themselves). Two configs that must produce the
/// same learning trajectory hash equal; a checkpoint resumes only against a
/// matching hash.
std::uint64_t config_identity_hash(const ExperimentConfig& cfg);

/// End-to-end: build everything from the config, run, summarize.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// The five algorithms of the paper's evaluation, in its plotting order.
const std::vector<std::string>& paper_algorithms();

}  // namespace pdsl::core
