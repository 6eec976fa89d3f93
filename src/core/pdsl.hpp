#pragma once
// PDSL — the paper's Algorithm 1. Per round, each agent:
//   1. computes, clips and perturbs its local stochastic gradient (Eqs. 9-11);
//   2. broadcasts its model; computes privatized cross-gradients for every
//      neighbor's model on its own data and returns them (Eqs. 12-14);
//   3. forms one-step virtual models from the returned gradients (Eq. 15),
//      scores coalitions of them on the shared validation set Q (Eqs. 16-17)
//      and computes Shapley values exactly (Eq. 18) or via the Monte Carlo
//      sampler (Algorithm 2);
//   4. normalizes them (Eq. 19), derives aggregation weights (Eq. 20),
//      aggregates the perturbed gradients (Eq. 21), takes a momentum step
//      (Eqs. 22-23) and gossip-averages momentum and model (Eqs. 24-25).

#include <map>

#include "algos/common.hpp"
#include "sim/evaluate.hpp"

namespace pdsl::core {

struct PdslOptions {
  /// Ablation switch: replace the Shapley-derived phi_hat with all-ones
  /// (plain W-weighted averaging of the perturbed gradients).
  bool uniform_weights = false;

  // Byzantine injection moved to sim::AdversaryPlan (Env::adversary): the
  // network corrupts outgoing contribution payloads, so every algorithm faces
  // the same attacker. The Shapley weighting is PDSL's built-in defense:
  // poisoned contributions score at the bottom of every coalition and are
  // zeroed by the min-max normalization.

  /// Extension: replace Eq. 19's min-max normalization with ReLU
  /// normalization (shapley::relu_normalize), which zeroes *every*
  /// negative-marginal contributor instead of only the single worst one.
  /// Strictly more robust under multiple Byzantine/poisoned neighbors.
  bool relu_normalization = false;

  /// Extension: use negative validation *loss* as the characteristic
  /// function instead of the paper's accuracy (Eq. 16). Accuracy is flat
  /// around a random initialization (~chance for every coalition), so in the
  /// first rounds Eq. 19 degenerates to uniform weights and a gradient
  /// attacker gets full weight exactly when the model is most fragile; loss
  /// separates coalitions immediately.
  bool loss_characteristic = false;
};

class Pdsl final : public algos::Algorithm {
 public:
  using Options = PdslOptions;

  explicit Pdsl(const algos::Env& env, Options options = {});

  [[nodiscard]] std::string name() const override {
    return options_.uniform_weights ? "PDSL-uniform" : "PDSL";
  }
  /// ---- observability hooks (tests, ablation benches) ----

  /// Raw Shapley values from the last round; [agent][k] aligned with
  /// closed_neighborhood(agent). Under faults, neighbors whose
  /// cross-gradient never arrived hold 0 (they were excluded from the game).
  [[nodiscard]] const std::vector<std::vector<double>>& last_shapley() const {
    return last_phi_;
  }
  /// Aggregation weights pi from the last round (same alignment).
  [[nodiscard]] const std::vector<std::vector<double>>& last_pi() const { return last_pi_; }
  /// Distinct coalition evaluations performed last round (all agents).
  [[nodiscard]] std::size_t last_characteristic_evals() const { return last_evals_; }

  /// S-SHAP: evaluation/early-stop accounting for the last round.
  [[nodiscard]] std::optional<algos::ShapleyRoundStats> shapley_round_stats() const override {
    return last_shapley_stats_;
  }
  /// Smallest normalized Shapley share observed so far (empirical
  /// counterpart of Theorem 1's phi_hat_min).
  [[nodiscard]] double observed_phi_hat_min() const { return observed_phi_hat_min_; }

  /// S-BYZ: mean pi an *honest* receiver assigned to attacker-origin vs
  /// honest-origin hood members (self edges excluded) in the last round.
  /// nullopt when no adversary is configured or either class is empty.
  [[nodiscard]] std::optional<std::pair<double, double>>
  attacker_honest_weight_split() const override;

  /// S-BENCH360: one "shapley" ledger event per round carrying the raw phi
  /// and normalized pi vectors, [agent][k] aligned with
  /// closed_neighborhood(agent) — the numbers behind the attacker-pi-collapse
  /// finding, replayable without rerunning.
  void ledger_round(obs::RunLedger& ledger, std::size_t t) const override;

  /// ---- S-RECOV checkpoint/restore + crash-recovery hooks ----

  /// Full algorithm state for kill-and-resume: base state (models, RNG
  /// streams, network) plus momentum, the validation/Shapley RNG cursors, the
  /// staleness cache and the phi_hat_min floor.
  void save_state(io::ByteBuffer& buf) const override;
  void load_state(io::ByteReader& r) override;

  /// Per-agent crash snapshot payload: the momentum row u_i (the model row is
  /// snapshotted by the RecoveryManager itself).
  [[nodiscard]] std::vector<float> crash_snapshot_extra(std::size_t i) const override;
  void crash_restore_extra(std::size_t i, const std::vector<float>& extra) override;
  /// A crashed agent loses its warm state: the staleness-cached
  /// cross-gradients (they lived in the dead process's memory).
  void crash_wipe_caches(std::size_t i) override;

 protected:
  void round_impl(std::size_t t) override;

  /// S-FAULT: matured delayed cross-gradients feed the staleness cache
  /// (stamped with the round they were computed in); everything else is too
  /// late to use and is discarded.
  void absorb_late(std::vector<sim::LateMessage> late) override;

 private:
  /// Round-shared validation batch (same subsample of Q on every agent).
  sim::FixedBatch draw_validation_batch();

  /// A neighbor's last successfully received cross-gradient, kept so a
  /// missing fresh one can be substituted for up to
  /// FaultPlan::staleness_rounds rounds (Eq. 21 with a bounded-staleness
  /// relaxation). `round` is when the gradient was computed.
  struct CachedXGrad {
    std::vector<float> grad;
    std::size_t round = 0;
  };

  Options options_;
  fleet::LazyMatrix momentum_;                ///< u_i (COW rows share the zero vector)
  Rng val_rng_;                               ///< shared validation subsampling
  std::vector<Rng> shapley_rngs_;             ///< per-agent MC permutation streams,
                                              ///< separate from the DP noise streams so
                                              ///< exact-vs-MC ablations share noise draws
  std::vector<std::vector<double>> last_phi_;
  std::vector<std::vector<double>> last_pi_;
  std::size_t last_evals_ = 0;
  double observed_phi_hat_min_ = 1.0;
  algos::ShapleyRoundStats last_shapley_stats_;

  /// S-SHAP: how a chunk of coalitions is scored, from hp.shapley_eval
  /// (validated in the ctor) and what sim::CoalitionBatchEvaluator supports
  /// for the model:
  ///   kLinear     "linear" on a linear_scorable() model (the MLP chains and
  ///               the Conv2D-first CNNs): member first-layer pre-activations
  ///               averaged instead of re-running the first layer per
  ///               coalition. Mathematically the same characteristic,
  ///               rounding-level numeric differences; NOT bit-identical to
  ///               sequential.
  ///   kBatched    "batched" on a stackable() model (the MLP chains): one
  ///               stacked GEMM per chunk, bit-identical to sequential.
  ///   kSequential everything else: one forward pass per coalition.
  enum class Scoring { kSequential, kBatched, kLinear };
  Scoring scoring_ = Scoring::kSequential;
  /// xgrad_cache_[i][j]: agent i's cached cross-gradient from neighbor j.
  /// Written only by agent i's phase body (slot discipline) or the sequential
  /// absorb_late hook, so no synchronization is needed.
  std::vector<std::map<std::size_t, CachedXGrad>> xgrad_cache_;
};

}  // namespace pdsl::core
