#pragma once
// Shared machinery for decentralized learning algorithms (S8/S9): the
// hyper-parameter bundle, the experiment environment handed to every
// algorithm, and the Algorithm base class (per-agent workers + models +
// message-passing network + synchronized metric hooks).

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "compress/compressor.hpp"
#include "dp/rdp.hpp"
#include "fleet/lazy_matrix.hpp"
#include "fleet/options.hpp"
#include "io/codec.hpp"
#include "obs/ledger.hpp"
#include "obs/phase.hpp"
#include "data/dataset.hpp"
#include "graph/graph.hpp"
#include "graph/mixing.hpp"
#include "nn/model.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/worker.hpp"
#include "sim/worker_pool.hpp"

namespace pdsl::algos {

/// The names HyperParams::shapley_method and shapley_eval accept.
inline constexpr const char* kShapleyMethods = "mc|exact|tmc|stratified|adaptive";
inline constexpr const char* kShapleyEvals = "sequential|batched|linear";

struct HyperParams {
  double gamma = 0.01;   ///< learning rate (paper's gamma)
  double alpha = 0.5;    ///< momentum coefficient (paper's alpha)
  double clip = 1.0;     ///< gradient clipping threshold C
  double sigma = 0.0;    ///< Gaussian noise stddev; 0 disables DP
  std::size_t batch = 32;

  // PDSL
  std::size_t shapley_permutations = 8;  ///< R in Algorithm 2
  /// Estimator: "mc" (Algorithm 2) | "exact" (Eq. 18 enumeration) | "tmc"
  /// (truncated MC) | "stratified" (Castro et al. [37]) | "adaptive"
  /// (S-SHAP antithetic pairs + CI early stop).
  std::string shapley_method = "mc";
  double tmc_tolerance = 0.01;           ///< truncation tolerance for "tmc"
  std::size_t validation_batch = 64;     ///< per-round subsample of Q for v(.)
  /// S-SHAP coalition scoring path: "sequential" (one forward pass per
  /// coalition — the bit-identical reference) | "batched" (stacked-GEMM
  /// evaluation; bit-identical on supported models, verified by
  /// tests/test_shapley.cpp) | "linear" (additionally
  /// reuses per-member first-layer pre-activations across coalitions —
  /// fastest, tolerance-banded against sequential, pinned by the banded
  /// golden fixture tests/golden/pdsl_linear.csv). Default: linear; models
  /// the batch evaluator cannot stack (CNNs) fall back to sequential
  /// scoring automatically.
  std::string shapley_eval = "linear";
  /// "adaptive" floor: permutations drawn before the CI stop may trigger.
  /// The budget ceiling is shapley_permutations.
  std::size_t shapley_min_permutations = 4;
  double shapley_ci_z = 2.0;             ///< "adaptive" CI half-width z-score

  // MUFFLIATO
  std::size_t gossip_steps = 2;  ///< gossip iterations after noise injection

  // DP-NET-FLEET
  std::size_t local_steps = 3;  ///< local updates between communication rounds
};

/// S-BYZ consumer-side defense screening: what every receiver does to
/// incoming payloads before trusting them. These are the generic defenses any
/// gossip protocol can run; PDSL's Shapley weighting is the *native* defense
/// layered on top (it needs no robust aggregation — poisoned cross-gradients
/// score at the bottom of every coalition and are zeroed by Eq. 19).
struct DefenseOptions {
  /// Incoming-message sanitization: reject non-finite payloads and re-clip
  /// received cross-gradients to the DP threshold C (models are only checked
  /// for finiteness — their norm is legitimately unbounded). kAuto turns it
  /// on exactly when an adversary or robust aggregation is configured, so
  /// clean runs stay bit-identical to pre-defense code.
  enum class Sanitize { kAuto, kOn, kOff };
  Sanitize sanitize = Sanitize::kAuto;

  /// Robust replacement for the W-weighted average in mix_vectors, applied
  /// coordinate-wise over {self} + arrived neighbors (W weights ignored):
  /// the screening defense for the mixing-matrix baselines.
  enum class RobustAgg { kNone, kTrimmedMean, kMedian };
  RobustAgg robust_agg = RobustAgg::kNone;
  double trim_frac = 0.25;  ///< per-side trim fraction for kTrimmedMean
};

[[nodiscard]] const char* robust_agg_to_string(DefenseOptions::RobustAgg agg);
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] DefenseOptions::RobustAgg robust_agg_from_string(const std::string& name);
[[nodiscard]] const char* sanitize_to_string(DefenseOptions::Sanitize s);
[[nodiscard]] DefenseOptions::Sanitize sanitize_from_string(const std::string& name);
/// The config schema (common/schema.hpp): JSON keys, `pdsl_cli run` flags
/// and single-field ranges, declared once.
void visit(schema::Visitor& v, DefenseOptions& d);

/// Borrowed views of everything one experiment run shares across algorithms.
/// All pointers must outlive the Algorithm.
struct Env {
  const graph::Graph* topo = nullptr;
  const graph::Metropolis* mixing = nullptr;
  const data::Dataset* train = nullptr;
  const data::Dataset* validation = nullptr;  ///< Q; required by PDSL only
  const nn::Model* model_template = nullptr;
  const std::vector<std::vector<std::size_t>>* partition = nullptr;
  HyperParams hp;
  std::uint64_t seed = 1;
  /// DP failure probability delta for the per-round privacy accounting
  /// (RoundMetrics::epsilon_spent). Only the report changes with it — the
  /// noise itself is hp.sigma, calibrated upstream.
  double dp_delta = 1e-3;
  const compress::Compressor* compressor = nullptr;  ///< optional lossy channel
  sim::FaultPlan faults;  ///< S-FAULT: drop/delay/churn/staleness injection
  sim::AdversaryPlan adversary;  ///< S-BYZ: Byzantine roles (empty = honest fleet)
  sim::ChannelPlan channel;      ///< S-RECOV: corruption/dup/reorder + retry budget
  sim::CrashPlan crash;          ///< S-RECOV: fail-stop crash schedule
  DefenseOptions defense;        ///< S-BYZ: consumer-side screening
  /// S-SCALE: sampled/walk participation, lazy agent state, wire round-trip.
  /// All-defaults = historical behavior, bit-identical.
  fleet::FleetOptions fleet;
};

/// S-SHAP per-round Shapley-phase accounting, snapshotted by
/// run_with_metrics into the CSV so the adaptive sampler's savings are
/// attributable round by round.
struct ShapleyRoundStats {
  std::size_t coalition_evals = 0;      ///< characteristic evaluations run
  std::size_t permutations_used = 0;    ///< MC permutations consumed (all agents)
  std::size_t early_stopped = 0;        ///< agents whose sampler CI-stopped early
};

/// Per-round graceful-degradation accounting (S-FAULT), reset at the top of
/// every round and snapshotted by run_with_metrics into the CSV.
struct FaultRoundStats {
  std::size_t offline_agents = 0;   ///< agents churned out this round
  std::size_t mix_renormalized = 0; ///< mixing rows renormalized over arrivals
  std::size_t stale_reused = 0;     ///< cached cross-gradients substituted
  std::size_t self_fallbacks = 0;   ///< agents that fell back to self-gradient
  std::size_t msgs_rejected = 0;    ///< non-finite payloads refused (S-BYZ)
  std::size_t msgs_reclipped = 0;   ///< received gradients re-clipped to C (S-BYZ)
  std::size_t crashed_agents = 0;   ///< agents that crashed this round (S-RECOV)
  std::size_t resynced_agents = 0;  ///< crashed agents restored via snapshot+resync
  std::size_t recovery_lag = 0;     ///< summed rounds-since-snapshot over recoveries
};

class Algorithm;

/// S-RECOV driver-side hook on the run_round template method. The concrete
/// implementation (recovery::RecoveryManager) lives above the algos layer;
/// this interface breaks the dependency cycle. on_round_begin fires after the
/// churn/participation mask refresh and worker preparation but before late
/// messages are absorbed (a crashed agent loses state *before* it does any
/// round-t work); on_round_end fires after round_impl (snapshots capture the
/// post-round state the next round builds on).
class RecoveryHook {
 public:
  virtual ~RecoveryHook() = default;
  virtual void on_round_begin(Algorithm& alg, std::size_t t) = 0;
  virtual void on_round_end(Algorithm& alg, std::size_t t) = 0;
};

class Algorithm {
 public:
  explicit Algorithm(const Env& env);
  virtual ~Algorithm() = default;
  Algorithm(const Algorithm&) = delete;
  Algorithm& operator=(const Algorithm&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Execute one synchronous communication round (1-indexed t). Template
  /// method: advances the network round clock (maturing delayed messages into
  /// absorb_late), refreshes the churn activity mask, runs the algorithm's
  /// round_impl, then clears the mailboxes — a non-zero leftover is a
  /// protocol bug, counted in unread_cleared() and asserted in debug builds.
  void run_round(std::size_t t);

  [[nodiscard]] std::size_t num_agents() const { return models_.size(); }
  [[nodiscard]] const fleet::LazyMatrix& models() const { return models_; }

  /// Overwrite every agent's model (warm start / checkpoint restore).
  /// Momentum-like per-algorithm state is NOT restored; it restarts at its
  /// initial value, the standard warm-start tradeoff.
  void set_models(std::vector<std::vector<float>> models);
  [[nodiscard]] std::vector<float> average_model() const;
  [[nodiscard]] sim::Network& network() { return net_; }
  [[nodiscard]] sim::LocalWorker& worker(std::size_t i) { return workers_[i]; }
  [[nodiscard]] const Env& env() const { return env_; }

  /// Phase-time breakdown accumulated since the last reset (S-OBS). The
  /// metrics loop resets before each round and snapshots after, giving a
  /// per-round local_grad/crossgrad/shapley/aggregate/gossip split.
  [[nodiscard]] const obs::PhaseTimings& phase_timings() const { return phases_; }
  void reset_phase_timings() { phases_ = obs::PhaseTimings{}; }

  /// Is agent i online for the round most recently started? (Always true
  /// without churn.) Offline agents freeze: no compute, no traffic. With
  /// S-SCALE participation, active = participating AND not churned out.
  [[nodiscard]] bool agent_active(std::size_t i) const { return active_[i] != 0; }

  /// S-SCALE: was agent i sampled into the round most recently started?
  /// (Always true in full-participation mode.)
  [[nodiscard]] bool agent_participates(std::size_t i) const { return participates_[i] != 0; }

  /// S-SCALE fleet accounting: participants in the last round, peak resident
  /// workers, and materialized model rows (≈ agents ever active).
  [[nodiscard]] std::size_t participants() const { return participants_; }
  [[nodiscard]] std::size_t workers_peak() const { return workers_.peak_materialized(); }
  [[nodiscard]] std::size_t workers_resident() const { return workers_.materialized(); }
  [[nodiscard]] std::size_t models_materialized() const { return models_.materialized_count(); }

  /// Degradation accounting for the round most recently run.
  [[nodiscard]] const FaultRoundStats& fault_stats() const { return fault_stats_; }

  /// Total mailbox messages a round_impl left unread (protocol-bug detector;
  /// always 0 for a correct protocol, faulted or not).
  [[nodiscard]] std::size_t unread_cleared() const { return unread_cleared_; }

  /// S-BYZ: mean aggregation weight a defense assigns to attacker-origin vs
  /// honest-origin contributions, measured over honest receivers only, for
  /// the last round run. nullopt when the algorithm has no per-edge weights
  /// to report (the base default) or no adversary is configured; Pdsl
  /// overrides with its Shapley-derived pi split.
  [[nodiscard]] virtual std::optional<std::pair<double, double>>
  attacker_honest_weight_split() const {
    return std::nullopt;
  }

  /// S-SHAP: Shapley-phase accounting for the last round run. nullopt for
  /// algorithms without a Shapley phase (the base default); Pdsl overrides.
  [[nodiscard]] virtual std::optional<ShapleyRoundStats> shapley_round_stats() const {
    return std::nullopt;
  }

  /// Is incoming-payload sanitization in effect for this run?
  [[nodiscard]] bool sanitizing() const { return sanitize_; }

  // --- S-RECOV surface -----------------------------------------------------

  /// Install (or clear, with nullptr) the recovery hook run_round calls. The
  /// hook is borrowed and must outlive the algorithm's rounds.
  void set_recovery(RecoveryHook* hook) { recovery_ = hook; }

  /// Per-agent auxiliary state a crash wipes and a snapshot must carry beyond
  /// the model row (Pdsl: the momentum column u_i). Empty by default.
  [[nodiscard]] virtual std::vector<float> crash_snapshot_extra(std::size_t i) const {
    (void)i;
    return {};
  }

  /// Restore the auxiliary state captured by crash_snapshot_extra.
  virtual void crash_restore_extra(std::size_t i, const std::vector<float>& extra) {
    (void)i;
    (void)extra;
  }

  /// A crash loses everything in agent i's process memory that is NOT part of
  /// a snapshot, e.g. PDSL's cross-gradient staleness cache.
  /// Called by the RecoveryManager on every crash (base: nothing to wipe).
  virtual void crash_wipe_caches(std::size_t i) { (void)i; }

  /// Overwrite one agent's model row (RecoveryManager snapshot restore).
  void restore_agent_model(std::size_t i, std::vector<float> row);

  /// Fold one crash recovery into the round's fault accounting.
  /// `lag` = rounds between the snapshot restored from and the crash round.
  void note_crash_recovery(bool resynced, std::size_t lag);

  /// Serialize the algorithm's full dynamic state for kill-and-resume
  /// (models, per-agent RNG cursors, network counters/in-flight messages,
  /// algorithm-specific members). The base implementation refuses loudly;
  /// algorithms opt in by overriding both (Pdsl does).
  virtual void save_state(io::ByteBuffer& buf) const;
  virtual void load_state(io::ByteReader& r);

  /// S-BENCH360: algorithm-specific run-ledger events for the round most
  /// recently run, emitted from the driver thread after round_impl. The base
  /// emits nothing; Pdsl overrides to record its Shapley phi/pi vectors.
  /// Implementations must only write deterministic fields (the ledger's
  /// bit-identity contract; wall-clock belongs in the "phase_timing" event).
  virtual void ledger_round(obs::RunLedger& ledger, std::size_t t) const {
    (void)ledger;
    (void)t;
  }

 protected:
  /// The algorithm-specific body of one round, called by run_round() after
  /// fault bookkeeping. Implementations should skip compute for agents where
  /// !active(i) (mix_vectors already freezes them).
  virtual void round_impl(std::size_t t) = 0;

  /// Hook for delayed messages that matured at the top of this round, in
  /// deterministic (src, dst, tag, edge index) order. Default: discard them
  /// (too late for protocols without a staleness story); Pdsl overrides to
  /// feed its cross-gradient staleness cache.
  virtual void absorb_late(std::vector<sim::LateMessage> late);

  [[nodiscard]] bool active(std::size_t i) const { return active_[i] != 0; }
  [[nodiscard]] bool participating(std::size_t i) const { return participates_[i] != 0; }

  [[nodiscard]] double w(std::size_t i, std::size_t j) const { return (*env_.mixing)(i, j); }
  [[nodiscard]] std::vector<std::size_t> neighbors(std::size_t i) const {
    return env_.topo->neighbors(i);
  }
  [[nodiscard]] std::vector<std::size_t> closed_neighborhood(std::size_t i) const {
    return env_.topo->closed_neighborhood(i);
  }

  /// Gossip-average a per-agent family of vectors with W:
  /// out_i = sum_j w_ij in_j, exchanged through the network under `tag`.
  /// For the mixing-matrix baselines this traffic IS the update carrier, so
  /// it defaults to the adversary's contribution channel; PDSL passes kState
  /// for its momentum/model gossip (its contribution channel is the
  /// cross-gradient exchange). Incoming payloads are sanitized (finiteness
  /// only — no re-clip; see DefenseOptions), and when robust_agg is set the
  /// W-average is replaced by a coordinate-wise trimmed-mean/median over
  /// {self} + arrivals.
  std::vector<std::vector<float>> mix_vectors(
      const fleet::LazyMatrix& in, const std::string& tag,
      sim::Channel channel = sim::Channel::kContribution);

  /// S-SCALE in-place gossip: mix `contrib` (rows populated for active agents
  /// only) into `state`. Active rows receive the W-average over self +
  /// arrived participating neighbors (same FP order as mix_vectors); frozen
  /// rows are left untouched — no copy, so lazy state stays lazy.
  void mix_into(fleet::LazyMatrix& state, const std::vector<std::vector<float>>& contrib,
                const std::string& tag, sim::Channel channel = sim::Channel::kContribution);

  /// receive() + sanitization (S-BYZ): nullopt if nothing arrived or the
  /// payload was rejected as non-finite. `reclip` re-clips gradient-kind
  /// payloads to the DP threshold C. A no-op passthrough when sanitization
  /// is off, so clean runs stay bit-identical.
  std::optional<std::vector<float>> receive_checked(std::size_t dst, std::size_t src,
                                                    const std::string& tag, bool reclip);

  /// The sanitization half of receive_checked, for payloads that arrive by
  /// other paths (the staleness cache, absorb_late). Returns false (and
  /// counts a rejection) if the payload must be discarded.
  bool sanitize_payload(std::vector<float>& payload, bool reclip);

  /// Draw this round's mini-batch on every worker (fleet mode: round-keyed
  /// stateless draws on active workers only; see FleetOptions).
  void draw_all_batches();

  /// RAII timer crediting the enclosing scope to `p` (and emitting a trace
  /// span when tracing is on): `auto t = phase(obs::Phase::kLocalGrad);`.
  [[nodiscard]] obs::PhaseScope phase(obs::Phase p) { return {phases_, p}; }

  /// The shared slice of save_state/load_state: model rows, per-agent RNG
  /// cursors, stateful batch-sampler cursors (or the stateless draw epoch),
  /// the unread-mailbox tally and the network's dynamic state. Subclasses
  /// call these from their overrides, then append their own members.
  void save_base_state(io::ByteBuffer& buf) const;
  void load_base_state(io::ByteReader& r);

  Env env_;
  sim::Network net_;
  sim::WorkerPool workers_;                 ///< per-agent workers (lazy in fleet mode)
  fleet::LazyMatrix models_;                ///< x_i, flat (COW rows share x0)
  std::vector<Rng> agent_rngs_;             ///< per-agent noise streams
  obs::PhaseTimings phases_;                ///< since last reset_phase_timings()
  FaultRoundStats fault_stats_;             ///< reset at the top of each round
  std::vector<unsigned char> active_;       ///< participation && !churn, per round
  std::vector<unsigned char> participates_; ///< S-SCALE sampling mask, per round

 private:
  /// Shared gossip core: sends row(i) for active i to participating
  /// neighbors, receives + W-averages into out[i] for active i (untouched
  /// for inactive i). Exact historical FP accumulation order.
  void mix_exchange(const std::function<const std::vector<float>&(std::size_t)>& row,
                    const std::string& tag, sim::Channel channel,
                    std::vector<std::vector<float>>& out);

  void refresh_active(std::size_t t);

  std::uint64_t participation_seed_ = 0;    ///< resolved hash seed (S-SCALE)
  std::size_t participants_ = 0;            ///< participating agents, last round
  std::uint64_t draw_epoch_ = 0;            ///< stateless-draw salt counter
  bool stateless_draws_ = false;            ///< round-keyed batch draws (fleet)
  std::size_t unread_cleared_ = 0;
  RecoveryHook* recovery_ = nullptr;        ///< S-RECOV hook (borrowed; may be null)
  bool sanitize_ = false;  ///< resolved DefenseOptions::sanitize for this run
  /// Per-round sanitization counters; atomics because receive_checked runs
  /// inside parallel per-agent bodies. Reset with fault_stats_, folded into
  /// it after round_impl.
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> reclipped_{0};
};

struct MetricsOptions {
  std::size_t test_subsample = 256;  ///< samples of the test set per evaluation
  std::size_t eval_every = 1;        ///< test-accuracy cadence; 0 = never (loss is every round)
  /// S-SCALE: evaluate loss/accuracy over the first `metric_agents` agents
  /// only (0 = all). At fleet scale, touching every agent's worker each round
  /// would materialize the whole fleet; a fixed prefix keeps the metric
  /// deterministic and the resident set small.
  std::size_t metric_agents = 0;
};

/// S-RECOV: everything run_with_metrics needs to continue a checkpointed run
/// bit-identically — the completed-round cursor, the held test accuracy, the
/// raw RDP accumulators (persisted verbatim: re-deriving them changes the FP
/// accumulation order and breaks the epsilon_spent contract) and the already
/// recorded per-round series. The caller restores the *algorithm's* state
/// separately via Algorithm::load_state before driving.
struct ResumeState {
  std::size_t completed_rounds = 0;
  double last_acc = 0.0;
  std::vector<double> accountant_rdp;
  std::size_t accountant_invocations = 0;
  std::vector<sim::RoundMetrics> prior_series;
};

/// Called after round `t`'s metrics are recorded, with the accountant and the
/// full series so far; the CLI persists a resumable run-state file from it.
using CheckpointHook = std::function<void(std::size_t t, double last_acc,
                                          const dp::RdpAccountant& accountant,
                                          const std::vector<sim::RoundMetrics>& series)>;

/// Drive `alg` for `rounds` rounds, recording the per-round series the
/// paper's figures plot and the final accuracy its tables report. When
/// `ledger` is non-null and open, each round appends "round",
/// algorithm-specific and "phase_timing" events to the run ledger
/// (S-BENCH360). With `resume` the loop continues from
/// resume->completed_rounds + 1; with `checkpoint_every` > 0 and a hook, the
/// hook fires every that-many rounds (and never after the final round — the
/// run is complete then, not resumable).
std::vector<sim::RoundMetrics> run_with_metrics(Algorithm& alg, std::size_t rounds,
                                                const data::Dataset& test,
                                                const MetricsOptions& opts = {},
                                                obs::RunLedger* ledger = nullptr,
                                                const ResumeState* resume = nullptr,
                                                const CheckpointHook& checkpoint = nullptr,
                                                std::size_t checkpoint_every = 0);

}  // namespace pdsl::algos
