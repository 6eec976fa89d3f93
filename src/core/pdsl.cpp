#include "core/pdsl.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "common/schema.hpp"
#include "common/vec_math.hpp"
#include "dp/mechanism.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "shapley/game.hpp"
#include "shapley/shapley.hpp"
#include "shapley/weighting.hpp"

namespace pdsl::core {

Pdsl::Pdsl(const algos::Env& env, Options options)
    : Algorithm(env),
      options_(options),
      val_rng_(splitmix64(env.seed ^ 0x5A11DA7E)) {
  if (env.validation == nullptr || env.validation->empty()) {
    throw std::invalid_argument("Pdsl: a non-empty validation dataset Q is required");
  }
  schema::OneOf{algos::kShapleyEvals}.check(env.hp.shapley_eval, "Pdsl: shapley_eval");
  schema::OneOf{algos::kShapleyMethods}.check(env.hp.shapley_method, "Pdsl: shapley_method");
  // Coalitions are uint64_t bitmasks, so the Shapley game is capped at 63
  // players. The fleet layer allows 1024+ agents; fail loudly HERE — before
  // any round runs — instead of overflowing a mask mid-round.
  std::size_t max_hood = 0;
  for (std::size_t i = 0; i < num_agents(); ++i) {
    max_hood = std::max(max_hood, env.topo->closed_neighborhood(i).size());
  }
  if (max_hood > 63) {
    throw std::invalid_argument(
        "Pdsl: a closed neighborhood has " + std::to_string(max_hood) +
        " members, but Shapley coalitions are uint64_t bitmasks (<= 63 players). "
        "With " + std::to_string(num_agents()) +
        " agents, use a bounded-degree topology "
        "(--topology regular --degree <= 62) so every closed neighborhood fits.");
  }
  const nn::Model& arch = *env.model_template;
  if (env.hp.shapley_eval == "linear" && sim::CoalitionBatchEvaluator::linear_scorable(arch)) {
    scoring_ = Scoring::kLinear;
  } else if (env.hp.shapley_eval == "batched" && sim::CoalitionBatchEvaluator::stackable(arch)) {
    scoring_ = Scoring::kBatched;
  }
  momentum_.reset(num_agents(), std::vector<float>(models_.dim(), 0.0f));
  Rng shapley_root(splitmix64(env.seed ^ 0x5876BE7));
  shapley_rngs_.reserve(num_agents());
  for (std::size_t i = 0; i < num_agents(); ++i) shapley_rngs_.push_back(shapley_root.split(i));
  last_phi_.assign(num_agents(), {});
  last_pi_.assign(num_agents(), {});
  xgrad_cache_.resize(num_agents());
}

void Pdsl::absorb_late(std::vector<sim::LateMessage> late) {
  // Runs sequentially at the top of a round (before any parallel phase), so
  // plain writes into the per-agent caches are safe. Only cross-gradients are
  // worth keeping — a stale model/momentum/x-hat payload has no consumer —
  // and only when the staleness bound allows reuse at all. Late payloads get
  // the same screening as fresh ones (a delayed NaN bomb is still a NaN bomb).
  const std::size_t bound = net_.faults().staleness_rounds;
  for (auto& msg : late) {
    if (bound == 0 || msg.tag.rfind("xg@", 0) != 0 ||
        !sanitize_payload(msg.payload, /*reclip=*/true)) {
      continue;
    }
    CachedXGrad& slot = xgrad_cache_[msg.dst][msg.src];
    if (slot.grad.empty() || slot.round <= msg.sent_round) {
      slot.grad = std::move(msg.payload);
      slot.round = msg.sent_round;
    }
  }
}

void Pdsl::save_state(io::ByteBuffer& buf) const {
  save_base_state(buf);
  const std::size_t m = num_agents();
  for (std::size_t i = 0; i < m; ++i) io::append_floats(buf, momentum_[i]);
  io::append_string(buf, val_rng_.serialize());
  for (std::size_t i = 0; i < m; ++i) io::append_string(buf, shapley_rngs_[i].serialize());
  io::append_f64(buf, observed_phi_hat_min_);
  for (std::size_t i = 0; i < m; ++i) {
    io::append_u64(buf, xgrad_cache_[i].size());
    for (const auto& [j, cached] : xgrad_cache_[i]) {  // std::map: key-sorted, deterministic
      io::append_u64(buf, j);
      io::append_u64(buf, cached.round);
      io::append_floats(buf, cached.grad);
    }
  }
}

void Pdsl::load_state(io::ByteReader& r) {
  load_base_state(r);
  const std::size_t m = num_agents();
  for (std::size_t i = 0; i < m; ++i) {
    auto row = r.read_floats("pdsl momentum row");
    if (row.size() != models_.dim()) {
      throw std::runtime_error("Pdsl::load_state: momentum dimension mismatch");
    }
    momentum_.set(i, std::move(row));
  }
  val_rng_ = Rng::deserialize(r.read_string("pdsl val rng"));
  for (std::size_t i = 0; i < m; ++i) {
    shapley_rngs_[i] = Rng::deserialize(r.read_string("pdsl shapley rng"));
  }
  observed_phi_hat_min_ = r.read_f64("pdsl phi_hat_min");
  for (std::size_t i = 0; i < m; ++i) {
    xgrad_cache_[i].clear();
    const auto count = static_cast<std::size_t>(r.read_u64("pdsl xgrad count"));
    for (std::size_t k = 0; k < count; ++k) {
      const auto j = static_cast<std::size_t>(r.read_u64("pdsl xgrad neighbor"));
      CachedXGrad cached;
      cached.round = static_cast<std::size_t>(r.read_u64("pdsl xgrad round"));
      cached.grad = r.read_floats("pdsl xgrad payload");
      xgrad_cache_[i].emplace(j, std::move(cached));
    }
  }
}

std::vector<float> Pdsl::crash_snapshot_extra(std::size_t i) const {
  return momentum_[i];
}

void Pdsl::crash_restore_extra(std::size_t i, const std::vector<float>& extra) {
  if (extra.size() != models_.dim()) {
    throw std::invalid_argument("Pdsl::crash_restore_extra: momentum dimension mismatch");
  }
  momentum_.set(i, extra);
}

void Pdsl::crash_wipe_caches(std::size_t i) {
  xgrad_cache_[i].clear();
}

sim::FixedBatch Pdsl::draw_validation_batch() {
  const auto& q = *env_.validation;
  const std::size_t want = std::min(env_.hp.validation_batch, q.size());
  std::vector<std::size_t> idx(want);
  if (want == q.size()) {
    for (std::size_t k = 0; k < want; ++k) idx[k] = k;
  } else {
    // Same subsample for every agent this round: Q is globally shared.
    for (auto& v : idx) {
      v = static_cast<std::size_t>(
          val_rng_.uniform_int(0, static_cast<std::int64_t>(q.size()) - 1));
    }
  }
  return sim::FixedBatch::from(q, idx);
}

// Every phase below is a runtime::parallel_for over agents between the same
// barriers the sequential loops had. Determinism at any width: each agent
// draws only from its own pre-split RNG streams (agent_rngs_[i],
// shapley_rngs_[i]), writes only slot i of pre-sized outputs, and moves data
// exclusively through the thread-safe sim::Network. Scalar round reductions
// (coalition-eval counts, the phi_hat minimum) go through per-agent slots and
// are folded sequentially after the barrier so no float/int accumulation
// order depends on scheduling.
void Pdsl::round_impl(std::size_t t) {
  const std::size_t m = num_agents();
  const sim::FaultPlan& plan = net_.faults();
  const std::string model_tag = "x@" + std::to_string(t);
  const std::string xgrad_tag = "xg@" + std::to_string(t);
  const std::string uhat_tag = "u@" + std::to_string(t);
  const std::string xhat_tag = "xh@" + std::to_string(t);

  // ---- Lines 2-5: local gradient, clip, perturb; broadcast model ----
  std::vector<std::vector<float>> own_grad(m);  // \hat g_{i,i}
  {
    auto timer = phase(obs::Phase::kLocalGrad);
    draw_all_batches();
    runtime::parallel_for(0, m, 1, [&](std::size_t i) {
      if (!active(i)) return;  // churned out: frozen, silent
      own_grad[i] =
          dp::privatize(workers_[i].gradient(models_[i]), env_.hp.clip, env_.hp.sigma,
                        agent_rngs_[i]);
      for (std::size_t j : neighbors(i)) {
        // S-SCALE: non-participating neighbors are outside the round — no
        // model broadcast to them (no-op in full-participation mode).
        if (participating(j)) net_.send(i, j, model_tag, models_[i]);
      }
    });
  }

  // ---- Lines 6-12: cross-gradients on received models, perturbed, returned ----
  // The returned cross-gradient is the payload that steers neighbor j's
  // update, so it rides the adversary's contribution channel; the model
  // broadcast above is protocol state a stealthy attacker keeps honest.
  {
    auto timer = phase(obs::Phase::kCrossGrad);
    runtime::parallel_for(0, m, 1, [&](std::size_t i) {
      if (!active(i)) return;
      for (std::size_t j : neighbors(i)) {
        auto xj = receive_checked(i, j, model_tag, /*reclip=*/false);
        if (!xj) continue;  // dropped link; j degrades (renormalize/stale/self)
        auto g = dp::privatize(workers_[i].gradient(*xj), env_.hp.clip, env_.hp.sigma,
                               agent_rngs_[i]);
        if (participating(j)) net_.send(i, j, xgrad_tag, std::move(g), sim::Channel::kContribution);
      }
    });
  }

  // Shared validation batch for this round's characteristic function.
  const sim::FixedBatch val = draw_validation_batch();

  // ---- Lines 13-20: virtual models, Shapley weights ----
  // Under faults each agent plays the Shapley game over the *present* subset
  // of its closed neighborhood: members whose perturbed cross-gradient is
  // available fresh, from the bounded-staleness cache, or (always) itself.
  // With every neighbor present this is exactly the historical full-hood
  // computation, so zero-fault runs stay bit-identical.
  std::vector<std::vector<std::vector<float>>> ghat(m);  // \hat g_{j,i}, present-aligned
  std::vector<std::vector<double>> pi(m);                // present-aligned
  std::vector<std::size_t> agent_evals(m, 0);
  std::vector<double> agent_phi_min(m, 1.0);
  std::vector<std::size_t> agent_stale(m, 0);      // slot-written, folded below
  std::vector<unsigned char> agent_fallback(m, 0);
  std::vector<std::size_t> agent_perms(m, 0);      // S-SHAP slots
  std::vector<unsigned char> agent_early(m, 0);
  {
    auto timer = phase(obs::Phase::kShapley);
    runtime::parallel_for(0, m, 1, [&](std::size_t i) {
      if (!active(i)) return;  // churned out: no update this round
      PDSL_SPAN("shapley_eval", i, "shapley");
      const auto hood = closed_neighborhood(i);  // M_i, ascending, includes i
      const std::size_t n = hood.size();
      auto& cache = xgrad_cache_[i];

      // Gather \hat g_{j,i} for every reachable member, remembering which
      // hood positions made it.
      std::vector<std::size_t> present;  // indices into hood, ascending
      present.reserve(n);
      ghat[i].reserve(n);
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t j = hood[k];
        if (j == i) {
          present.push_back(k);
          ghat[i].push_back(own_grad[i]);
          continue;
        }
        if (auto g = receive_checked(i, j, xgrad_tag, /*reclip=*/true)) {
          if (plan.staleness_rounds > 0) {
            cache[j] = CachedXGrad{*g, t};  // refresh the staleness cache
          }
          present.push_back(k);
          ghat[i].push_back(std::move(*g));
          continue;
        }
        if (plan.staleness_rounds > 0) {
          const auto it = cache.find(j);
          if (it != cache.end()) {
            if (t - it->second.round <= plan.staleness_rounds) {
              present.push_back(k);
              ghat[i].push_back(it->second.grad);
              ++agent_stale[i];
              continue;
            }
            cache.erase(it);  // expired: prune so the cache stays bounded
          }
        }
        // Absent: excluded from this round's game and aggregation.
      }

      last_phi_[i].assign(n, 0.0);
      last_pi_[i].assign(n, 0.0);

      if (present.size() == 1) {
        // Every neighbor failed: fall back to the pure self-gradient step
        // (g_bar = own gradient, no 1/w amplification).
        pi[i] = {1.0};
        last_phi_[i][present[0]] = 1.0;
        last_pi_[i][present[0]] = 1.0;
        agent_fallback[i] = 1;
        return;
      }
      const std::size_t p = present.size();

      // Eq. 15: one-step virtual models x_{i,j} = x_i - gamma * ghat_{j,i}.
      std::vector<std::vector<float>> virtual_models(p);
      for (std::size_t k = 0; k < p; ++k) {
        virtual_models[k] = models_[i];
        axpy(virtual_models[k], ghat[i][k], static_cast<float>(-env_.hp.gamma));
      }

      // Eqs. 16-17: v(M') = validation accuracy of the coalition-average model
      // (or negative validation loss under Options::loss_characteristic).
      // Agent i scores coalitions in its own worker's model workspace — idle
      // between the gradient phases — so no two agents share a forward buffer.
      nn::Model& ws = workers_[i].workspace();
      // Line 15 / Algorithm 2 (or an alternative estimator when requested).
      std::vector<double> phi;
      const std::string& method = env_.hp.shapley_method;
      if (options_.uniform_weights) {
        phi.assign(p, 1.0);
      } else {
        // One game per agent-round; --shapley-eval picks only how a chunk of
        // coalition masks is scored. Every scorer averages the SAME
        // virtual-model pointers with the same mean_of fold, so batched and
        // sequential values are bit-identical by construction.
        const bool loss = options_.loss_characteristic;
        const auto coalition_avg = [&](std::uint64_t mask) {
          std::vector<const std::vector<float>*> mem;
          for (std::size_t k : shapley::Game::members(mask)) mem.push_back(&virtual_models[k]);
          return mean_of(mem);
        };
        const auto negate_if_loss = [loss](std::vector<double> out) {
          if (loss) {
            for (double& v : out) v = -v;
          }
          return out;
        };
        std::optional<sim::CoalitionBatchEvaluator> batch_eval;
        shapley::BatchCharacteristicFn score;
        if (scoring_ == Scoring::kLinear) {
          // First-layer linearity: member pre-activations are scored once in
          // set_members(); each coalition is an average of them + the later
          // layers. No mean_of, no first-layer GEMM per coalition.
          batch_eval.emplace(*env_.model_template, val);
          std::vector<const std::vector<float>*> member_ptrs(p);
          for (std::size_t k = 0; k < p; ++k) member_ptrs[k] = &virtual_models[k];
          batch_eval->set_members(member_ptrs);
          score = [&](const std::vector<std::uint64_t>& masks) {
            return negate_if_loss(loss ? batch_eval->coalition_losses(masks)
                                       : batch_eval->coalition_accuracies(masks));
          };
        } else if (scoring_ == Scoring::kBatched) {
          // Stacked GEMM over the chunk's coalition-average models.
          batch_eval.emplace(*env_.model_template, val);
          score = [&](const std::vector<std::uint64_t>& masks) {
            std::vector<std::vector<float>> avgs;
            avgs.reserve(masks.size());
            for (const std::uint64_t mask : masks) avgs.push_back(coalition_avg(mask));
            std::vector<const std::vector<float>*> ptrs(avgs.size());
            for (std::size_t q = 0; q < avgs.size(); ++q) ptrs[q] = &avgs[q];
            return negate_if_loss(loss ? batch_eval->losses(ptrs) : batch_eval->accuracies(ptrs));
          };
        } else {
          // One forward pass per coalition, each average formed just before
          // it is scored (sequential mode, and models neither mode covers).
          score = [&](const std::vector<std::uint64_t>& masks) {
            std::vector<double> out;
            out.reserve(masks.size());
            for (const std::uint64_t mask : masks) {
              const auto avg = coalition_avg(mask);
              out.push_back(loss ? sim::loss_on(ws, avg, val) : sim::accuracy_on(ws, avg, val));
            }
            return negate_if_loss(std::move(out));
          };
        }
        shapley::Game game(p, std::move(score));

        if (method == "exact" && p <= 20) {
          phi = shapley::exact_shapley(game);
        } else if (method == "tmc") {
          shapley::TruncatedMcOptions topts;
          topts.num_permutations = env_.hp.shapley_permutations;
          topts.tolerance = env_.hp.tmc_tolerance;
          phi = shapley::truncated_monte_carlo_shapley(game, topts, shapley_rngs_[i]);
          agent_perms[i] = topts.num_permutations;
        } else if (method == "stratified") {
          const std::size_t per_stratum =
              std::max<std::size_t>(1, env_.hp.shapley_permutations / 2);
          phi = shapley::stratified_shapley(game, per_stratum, shapley_rngs_[i]);
        } else if (method == "adaptive") {
          shapley::AdaptiveMcOptions aopts;
          aopts.min_permutations = env_.hp.shapley_min_permutations;
          aopts.max_permutations = env_.hp.shapley_permutations;
          aopts.ci_z = env_.hp.shapley_ci_z;
          auto res = shapley::adaptive_monte_carlo_shapley(game, aopts, shapley_rngs_[i]);
          phi = std::move(res.phi);
          agent_perms[i] = res.permutations_used;
          agent_early[i] = res.early_stopped ? 1 : 0;
        } else {  // "mc" and the exact fallback for oversized neighborhoods
          phi = shapley::monte_carlo_shapley(game, env_.hp.shapley_permutations,
                                             shapley_rngs_[i]);
          agent_perms[i] = env_.hp.shapley_permutations;
        }
        agent_evals[i] = game.evaluations();
      }

      // Eq. 19 normalization (or the robust ReLU variant), Eq. 20 weights.
      // Restricting to `present` renormalizes pi over the survivors: the
      // shares already sum to 1 over the members that arrived.
      const std::vector<double> phi_hat =
          options_.uniform_weights
              ? phi
              : (options_.relu_normalization ? shapley::relu_normalize(phi)
                                             : shapley::minmax_normalize(phi));
      std::vector<double> w_row(p);
      for (std::size_t k = 0; k < p; ++k) w_row[k] = w(i, hood[present[k]]);
      pi[i] = shapley::aggregation_weights(phi_hat, w_row);
      for (double share : shapley::normalized_shares(phi_hat)) {
        if (share > 0.0) agent_phi_min[i] = std::min(agent_phi_min[i], share);
      }
      for (std::size_t k = 0; k < p; ++k) {
        last_phi_[i][present[k]] = phi[k];
        last_pi_[i][present[k]] = pi[i][k];
      }
    });

    // Sequential fold of the per-agent reductions (scheduling-independent).
    algos::ShapleyRoundStats sstats;
    std::size_t stale = 0;
    std::size_t fallbacks = 0;
    for (std::size_t i = 0; i < m; ++i) {
      sstats.coalition_evals += agent_evals[i];
      sstats.permutations_used += agent_perms[i];
      sstats.early_stopped += agent_early[i];
      observed_phi_hat_min_ = std::min(observed_phi_hat_min_, agent_phi_min[i]);
      stale += agent_stale[i];
      fallbacks += agent_fallback[i];
    }
    last_shapley_stats_ = sstats;
    last_evals_ = sstats.coalition_evals;
    fault_stats_.stale_reused += stale;
    fault_stats_.self_fallbacks += fallbacks;
  }

  // ---- Eqs. 21-23: aggregation, momentum step ----
  std::vector<std::vector<float>> u_hat(m);
  std::vector<std::vector<float>> x_hat(m);
  {
    auto timer = phase(obs::Phase::kAggregate);
    runtime::parallel_for(0, m, 1, [&](std::size_t i) {
      // Frozen agents contribute nothing: mix_into leaves their momentum and
      // model rows untouched (no copy — lazy rows stay shared).
      if (!active(i)) return;
      // Eq. 21: weighted aggregate of the perturbed gradients.
      std::vector<const std::vector<float>*> gptrs;
      gptrs.reserve(ghat[i].size());
      for (const auto& g : ghat[i]) gptrs.push_back(&g);
      const auto g_bar = weighted_sum(gptrs, pi[i]);

      // Eqs. 22-23 + Line 21 broadcast.
      u_hat[i] = momentum_[i];
      scale_inplace(u_hat[i], static_cast<float>(env_.hp.alpha));
      axpy(u_hat[i], g_bar, 1.0f);
      x_hat[i] = models_[i];
      axpy(x_hat[i], u_hat[i], static_cast<float>(-env_.hp.gamma));
    });
  }

  // ---- Lines 21-24: gossip-average momentum and model with W ----
  // State channel: PDSL's contribution channel is the cross-gradient exchange
  // above; the momentum/model gossip is bookkeeping the attacker keeps honest.
  mix_into(momentum_, u_hat, uhat_tag, sim::Channel::kState);
  mix_into(models_, x_hat, xhat_tag, sim::Channel::kState);
}

std::optional<std::pair<double, double>> Pdsl::attacker_honest_weight_split() const {
  const sim::AdversaryPlan& plan = net_.adversary();
  const std::size_t m = num_agents();
  if (!plan.any()) return std::nullopt;
  double att_sum = 0.0, hon_sum = 0.0;
  std::size_t att_n = 0, hon_n = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (plan.is_byzantine(i, m)) continue;  // measure honest receivers only
    const auto hood = closed_neighborhood(i);
    if (last_pi_[i].size() != hood.size()) continue;  // agent never ran a round
    for (std::size_t k = 0; k < hood.size(); ++k) {
      const std::size_t j = hood[k];
      if (j == i) continue;  // self edge says nothing about the defense
      if (plan.is_byzantine(j, m)) {
        att_sum += last_pi_[i][k];
        ++att_n;
      } else {
        hon_sum += last_pi_[i][k];
        ++hon_n;
      }
    }
  }
  if (att_n == 0 || hon_n == 0) return std::nullopt;
  return std::make_pair(att_sum / static_cast<double>(att_n),
                        hon_sum / static_cast<double>(hon_n));
}

void Pdsl::ledger_round(obs::RunLedger& ledger, std::size_t t) const {
  json::Object ev;
  ev["round"] = t;
  json::Array phi, pi;
  for (std::size_t i = 0; i < num_agents(); ++i) {
    json::Array phi_i, pi_i;
    for (const double v : last_phi_[i]) phi_i.push_back(json::Value(v));
    for (const double v : last_pi_[i]) pi_i.push_back(json::Value(v));
    phi.push_back(json::Value(std::move(phi_i)));
    pi.push_back(json::Value(std::move(pi_i)));
  }
  ev["phi"] = json::Value(std::move(phi));
  ev["pi"] = json::Value(std::move(pi));
  ev["characteristic_evals"] = last_evals_;
  // S-SHAP evaluation budget: how many permutations the sampler actually
  // consumed. Deterministic, so it stays inside the ledger's bit-identity
  // contract.
  ev["permutations_used"] = last_shapley_stats_.permutations_used;
  ev["early_stopped"] = last_shapley_stats_.early_stopped;
  ledger.event("shapley", std::move(ev));
}

}  // namespace pdsl::core
