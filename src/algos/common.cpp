#include "algos/common.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "common/schema.hpp"
#include "common/stopwatch.hpp"
#include "common/vec_math.hpp"
#include "dp/mechanism.hpp"
#include "fleet/participation.hpp"
#include "dp/rdp.hpp"
#include "runtime/parallel_for.hpp"
#include "sim/evaluate.hpp"

namespace pdsl::algos {

const char* robust_agg_to_string(DefenseOptions::RobustAgg agg) {
  switch (agg) {
    case DefenseOptions::RobustAgg::kNone: return "none";
    case DefenseOptions::RobustAgg::kTrimmedMean: return "trimmed_mean";
    case DefenseOptions::RobustAgg::kMedian: return "median";
  }
  return "none";
}

DefenseOptions::RobustAgg robust_agg_from_string(const std::string& name) {
  if (name == "none") return DefenseOptions::RobustAgg::kNone;
  if (name == "trimmed_mean") return DefenseOptions::RobustAgg::kTrimmedMean;
  if (name == "median") return DefenseOptions::RobustAgg::kMedian;
  throw std::invalid_argument("unknown robust aggregation mode: " + name);
}

const char* sanitize_to_string(DefenseOptions::Sanitize s) {
  switch (s) {
    case DefenseOptions::Sanitize::kAuto: return "auto";
    case DefenseOptions::Sanitize::kOn: return "on";
    case DefenseOptions::Sanitize::kOff: return "off";
  }
  return "auto";
}

DefenseOptions::Sanitize sanitize_from_string(const std::string& name) {
  if (name == "auto") return DefenseOptions::Sanitize::kAuto;
  if (name == "on") return DefenseOptions::Sanitize::kOn;
  if (name == "off") return DefenseOptions::Sanitize::kOff;
  throw std::invalid_argument("unknown sanitize mode: " + name);
}

void visit(schema::Visitor& v, DefenseOptions& d) {
  v.field({"sanitize", "sanitize"}, d.sanitize,
          schema::Enum{sanitize_to_string, sanitize_from_string});
  v.field({"robust_agg", "robust-agg"}, d.robust_agg,
          schema::Enum{robust_agg_to_string, robust_agg_from_string});
  v.field({"trim_frac"}, d.trim_frac, schema::Num{0.0, 0.5, false, true});
}

namespace {
void validate_env(const Env& env) {
  if (env.topo == nullptr || env.mixing == nullptr || env.train == nullptr ||
      env.model_template == nullptr || env.partition == nullptr) {
    throw std::invalid_argument("Algorithm: incomplete Env");
  }
  if (env.topo->size() != env.mixing->size()) {
    throw std::invalid_argument("Algorithm: topology/mixing size mismatch");
  }
  if (env.partition->size() != env.topo->size()) {
    throw std::invalid_argument("Algorithm: partition size != agent count");
  }
  if (env.hp.gamma <= 0.0) throw std::invalid_argument("Algorithm: gamma must be positive");
  if (env.hp.alpha < 0.0 || env.hp.alpha >= 1.0) {
    throw std::invalid_argument("Algorithm: alpha must be in [0,1)");
  }
  schema::check(env.defense, "Algorithm: defense");
  env.fleet.validate(env.topo->size());
}

/// Auto cache cap for the lazy worker pool: generous slack over the active
/// set so gossip-adjacent touches don't thrash, but still O(active).
std::size_t auto_cache_cap(const fleet::FleetOptions& fleet, std::size_t m) {
  if (fleet.worker_cache != 0) return fleet.worker_cache;
  if (!fleet.lazy_state) return 0;
  std::size_t k = m;
  if (fleet.participation.mode == fleet::ParticipationMode::kSampled) {
    k = fleet.participation.resolved_active(m);
  } else if (fleet.participation.mode == fleet::ParticipationMode::kWalk) {
    k = 2;
  }
  return std::max<std::size_t>(32, 4 * k);
}
}  // namespace

Algorithm::Algorithm(const Env& env)
    : env_(env),
      net_(*env.topo, sim::Network::Options{splitmix64(env.seed ^ 0xAEAE), true, env.compressor,
                                            env.faults, env.adversary,
                                            env.fleet.wire_roundtrip, env.channel}) {
  validate_env(env);
  // Sanitization defaults to "exactly when it could matter": an adversary in
  // play or robust aggregation requested. Clean kAuto runs take the untouched
  // receive path and stay bit-identical to pre-defense binaries.
  sanitize_ = env.defense.sanitize == DefenseOptions::Sanitize::kOn ||
              (env.defense.sanitize == DefenseOptions::Sanitize::kAuto &&
               (env.adversary.any() ||
                env.defense.robust_agg != DefenseOptions::RobustAgg::kNone));
  const std::size_t m = env.topo->size();
  active_.assign(m, 1);
  participates_.assign(m, 1);
  participants_ = m;
  participation_seed_ = fleet::resolve_participation_seed(env.fleet.participation, env.seed);
  // Round-keyed batch draws decouple a worker's samples from how often it was
  // touched, which is what makes sampling and lazy eviction deterministic.
  stateless_draws_ = env.fleet.stateless_batches();
  Rng root(env.seed);

  // One shared initialization: the analysis assumes all columns of X^[0]
  // are identical (Appendix B), so every agent starts from the same point.
  nn::Model init_model = *env.model_template;
  Rng init_rng = root.split(0x1217);
  init_model.init(init_rng);
  const std::vector<float> x0 = init_model.flat_params();

  workers_.init(init_model, *env.train, *env.partition, env.hp.batch, root,
                env.fleet.lazy_state, auto_cache_cap(env.fleet, m));
  models_.reset(m, x0);  // COW: one shared x0 row until an agent diverges
  agent_rngs_.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    agent_rngs_.push_back(root.split(0xA900 + i));
  }
}

std::vector<float> Algorithm::average_model() const { return sim::average_model(models_); }

void Algorithm::run_round(std::size_t t) {
  // Advance the fault clock first: churn decisions for round t key on it, and
  // delayed messages that mature by t come back here rather than appearing in
  // mailboxes (so the leftover check below stays exact).
  std::vector<sim::LateMessage> late = net_.begin_round(t);
  fault_stats_ = FaultRoundStats{};
  rejected_.store(0, std::memory_order_relaxed);
  reclipped_.store(0, std::memory_order_relaxed);
  refresh_active(t);
  workers_.prepare(active_, t);
  // S-RECOV: crash injection + restore happens before any round-t work — a
  // crashed agent rejoins from snapshot + resync, then participates normally
  // (late messages addressed to it still arrive below, as they would to a
  // restarted process).
  if (recovery_ != nullptr) recovery_->on_round_begin(*this, t);
  if (!late.empty()) absorb_late(std::move(late));
  round_impl(t);
  // S-RECOV: snapshots capture the post-round state the next round builds on.
  if (recovery_ != nullptr) recovery_->on_round_end(*this, t);
  // Fold the atomic sanitization tallies into the plain per-round snapshot
  // (absorb_late runs after the reset, so late-payload screening is counted).
  fault_stats_.msgs_rejected = rejected_.load(std::memory_order_relaxed);
  fault_stats_.msgs_reclipped = reclipped_.load(std::memory_order_relaxed);
  // A correct synchronous protocol reads every message it was sent within the
  // round, faults or not (drops and delays never reach a mailbox). Leftovers
  // mean a protocol bug; keep the evidence visible in release builds too.
  const std::size_t leftover = net_.clear();
  unread_cleared_ += leftover;
  assert(leftover == 0 && "protocol bug: round_impl left unread mailbox messages");
}

void Algorithm::refresh_active(std::size_t t) {
  const sim::FaultPlan& plan = net_.faults();
  const bool sampling = env_.fleet.participation.enabled();
  if (sampling) {
    participates_ =
        fleet::participation_mask(env_.fleet.participation, *env_.topo, t, participation_seed_);
    participants_ = 0;
    for (unsigned char p : participates_) participants_ += p;
  }
  if (!sampling && plan.churn_prob <= 0.0) return;  // mask stays all-online
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const bool off = plan.churn_prob > 0.0 && plan.offline(i, t);
    active_[i] = (!off && participates_[i] != 0) ? 1 : 0;
    if (off) ++fault_stats_.offline_agents;
  }
}

void Algorithm::absorb_late(std::vector<sim::LateMessage> /*late*/) {
  // Default: the payload arrived too late to be useful — discard it.
}

void Algorithm::set_models(std::vector<std::vector<float>> models) {
  if (models.size() != models_.size()) {
    throw std::invalid_argument("set_models: fleet size mismatch");
  }
  for (const auto& m : models) {
    if (m.size() != models_.dim()) {
      throw std::invalid_argument("set_models: model dimension mismatch");
    }
  }
  models_.assign(std::move(models));
}

void Algorithm::restore_agent_model(std::size_t i, std::vector<float> row) {
  if (i >= models_.size()) {
    throw std::out_of_range("restore_agent_model: agent id out of range");
  }
  if (row.size() != models_.dim()) {
    throw std::invalid_argument("restore_agent_model: model dimension mismatch");
  }
  models_.set(i, std::move(row));
}

void Algorithm::note_crash_recovery(bool resynced) {
  ++fault_stats_.crashed_agents;
  if (resynced) ++fault_stats_.resynced_agents;
}

void Algorithm::save_state(io::ByteBuffer& buf) const {
  (void)buf;
  throw std::runtime_error("checkpointing not supported for algorithm '" + name() + "'");
}

void Algorithm::load_state(io::ByteReader& r) {
  (void)r;
  throw std::runtime_error("checkpointing not supported for algorithm '" + name() + "'");
}

void Algorithm::save_base_state(io::ByteBuffer& buf) const {
  const std::size_t m = num_agents();
  io::append_u64(buf, m);
  io::append_u64(buf, models_.dim());
  for (std::size_t i = 0; i < m; ++i) io::append_floats(buf, models_[i]);
  for (std::size_t i = 0; i < m; ++i) io::append_string(buf, agent_rngs_[i].serialize());
  io::append_u64(buf, draw_epoch_);
  // Stateful (non-fleet) runs advance each worker's sampler stream once per
  // draw; the cursor must resume exactly. stateless_batches() guarantees the
  // pool is eager whenever draws are stateful, so touching every worker here
  // cannot materialize anything new.
  io::append_u8(buf, stateless_draws_ ? 1 : 0);
  if (!stateless_draws_) {
    auto& self = const_cast<Algorithm&>(*this);
    for (std::size_t i = 0; i < m; ++i) {
      io::append_string(buf, self.workers_.get(i).sampler().rng().serialize());
    }
  }
  io::append_u64(buf, unread_cleared_);
  net_.save_state(buf);
}

void Algorithm::load_base_state(io::ByteReader& r) {
  const auto m = static_cast<std::size_t>(r.read_u64("state agent count"));
  const auto dim = static_cast<std::size_t>(r.read_u64("state model dim"));
  if (m != num_agents() || dim != models_.dim()) {
    throw std::runtime_error("load_base_state: fleet shape mismatch (file " +
                             std::to_string(m) + "x" + std::to_string(dim) + ", run " +
                             std::to_string(num_agents()) + "x" +
                             std::to_string(models_.dim()) + ")");
  }
  std::vector<std::vector<float>> rows;
  rows.reserve(m);
  for (std::size_t i = 0; i < m; ++i) rows.push_back(r.read_floats("state model row"));
  models_.assign(std::move(rows));
  for (std::size_t i = 0; i < m; ++i) {
    agent_rngs_[i] = Rng::deserialize(r.read_string("state agent rng"));
  }
  draw_epoch_ = r.read_u64("state draw epoch");
  const bool file_stateless = r.read_u8("state draw mode") != 0;
  if (file_stateless != stateless_draws_) {
    throw std::runtime_error("load_base_state: batch-draw mode mismatch between the "
                             "checkpoint and this run's fleet options");
  }
  if (!stateless_draws_) {
    for (std::size_t i = 0; i < m; ++i) {
      workers_.get(i).sampler().rng() = Rng::deserialize(r.read_string("state sampler rng"));
    }
  }
  unread_cleared_ = static_cast<std::size_t>(r.read_u64("state unread_cleared"));
  net_.restore_state(r);
}

namespace {
/// Coordinate-wise robust center of `cols` (self + arrived neighbors). The
/// comparator orders non-finite values last so a NaN that slipped past
/// sanitization cannot make std::sort UB; with trimming it usually lands in
/// the discarded tail.
std::vector<float> robust_center(const std::vector<const std::vector<float>*>& cols,
                                 DefenseOptions::RobustAgg mode, double trim_frac) {
  const std::size_t dim = cols.front()->size();
  const std::size_t n = cols.size();
  std::vector<float> out(dim, 0.0f);
  std::vector<float> vals(n);
  const auto nan_last = [](float a, float b) {
    if (std::isnan(b)) return !std::isnan(a);
    if (std::isnan(a)) return false;
    return a < b;
  };
  const std::size_t k =
      std::min(static_cast<std::size_t>(trim_frac * static_cast<double>(n)), (n - 1) / 2);
  for (std::size_t d = 0; d < dim; ++d) {
    for (std::size_t c = 0; c < n; ++c) vals[c] = (*cols[c])[d];
    std::sort(vals.begin(), vals.end(), nan_last);
    if (mode == DefenseOptions::RobustAgg::kMedian) {
      out[d] = (n % 2 == 1) ? vals[n / 2] : 0.5f * (vals[n / 2 - 1] + vals[n / 2]);
    } else {  // trimmed mean over vals[k .. n-k)
      double acc = 0.0;
      for (std::size_t c = k; c < n - k; ++c) acc += vals[c];
      out[d] = static_cast<float>(acc / static_cast<double>(n - 2 * k));
    }
  }
  return out;
}
}  // namespace

bool Algorithm::sanitize_payload(std::vector<float>& payload, bool reclip) {
  if (!sanitize_) return true;
  for (float x : payload) {
    if (!std::isfinite(x)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  if (reclip && env_.hp.clip > 0.0) {
    // Bounded-injection defense: whatever a sender claims, a received gradient
    // contributes at most norm C — the same bound DP clipping promised.
    if (dp::clip_l2(payload, env_.hp.clip) > env_.hp.clip) {
      reclipped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return true;
}

std::optional<std::vector<float>> Algorithm::receive_checked(std::size_t dst, std::size_t src,
                                                             const std::string& tag,
                                                             bool reclip) {
  std::optional<std::vector<float>> payload = net_.receive(dst, src, tag);
  if (payload && !sanitize_payload(*payload, reclip)) return std::nullopt;
  return payload;
}

void Algorithm::mix_exchange(
    const std::function<const std::vector<float>&(std::size_t)>& row, const std::string& tag,
    sim::Channel channel, std::vector<std::vector<float>>& out) {
  // Every algorithm's mixing-matrix averaging flows through here, so this one
  // scope accounts the gossip phase for the whole family.
  auto timer = phase(obs::Phase::kGossip);
  const std::size_t m = num_agents();
  const bool robust = env_.defense.robust_agg != DefenseOptions::RobustAgg::kNone &&
                      channel == sim::Channel::kContribution;
  // Broadcast, then (phase barrier between the two parallel_fors) accumulate.
  // Each agent writes only its own mailbox edges / output slot, so any
  // execution width produces the same result.
  runtime::parallel_for(0, m, 1, [&](std::size_t i) {
    if (!active(i)) return;  // offline agents generate no traffic
    for (std::size_t j : neighbors(i)) {
      // Non-participating agents are outside the round entirely: no sends to
      // them (a churned-but-participating target still receives — Network
      // drops deliverless traffic, preserving the historical counters).
      if (!participating(j)) continue;
      net_.send(i, j, tag, row(i), channel);
    }
  });
  runtime::parallel_for(0, m, 1, [&](std::size_t i) {
    if (!active(i)) return;  // inactive rows stay untouched in `out`
    const std::vector<float>& self = row(i);
    const std::vector<std::size_t> nbrs = neighbors(i);
    std::vector<std::optional<std::vector<float>>> got;
    got.reserve(nbrs.size());
    bool complete = true;
    for (std::size_t j : nbrs) {
      got.push_back(net_.receive(i, j, tag));
      // A rejected (non-finite) payload degrades exactly like a dropped one:
      // the row renormalizes over what survived screening.
      if (got.back() && !sanitize_payload(*got.back(), /*reclip=*/false)) {
        got.back().reset();
      }
      if (!got.back().has_value()) complete = false;
    }
    if (robust) {
      // Screening defense for the mixing-matrix baselines: W weights are
      // ignored and each coordinate takes a trimmed-mean/median over
      // {self} + arrivals, so a minority of outliers cannot steer the center.
      std::vector<const std::vector<float>*> cols;
      cols.reserve(nbrs.size() + 1);
      cols.push_back(&self);
      for (const auto& g : got) {
        if (g) cols.push_back(&*g);
      }
      out[i] = robust_center(cols, env_.defense.robust_agg, env_.defense.trim_frac);
      return;
    }
    std::vector<float> acc(self.size(), 0.0f);
    if (complete) {
      // Full participation: the exact historical accumulation order, so runs
      // with every fault knob at zero stay bit-identical to pre-fault code.
      axpy(acc, self, static_cast<float>(w(i, i)));
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        axpy(acc, *got[k], static_cast<float>(w(i, nbrs[k])));
      }
    } else {
      // Degrade: renormalize this row of W over self + reachable neighbors
      // (Eqs. 24-25 restricted to the surviving support), keeping the mixing
      // step an average — weights still sum to 1 — instead of silently
      // shrinking toward whatever arrived.
      double wsum = w(i, i);
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        if (got[k]) wsum += w(i, nbrs[k]);
      }
      if (wsum <= 0.0) {
        acc = self;  // degenerate row: keep own value
      } else {
        axpy(acc, self, static_cast<float>(w(i, i) / wsum));
        for (std::size_t k = 0; k < nbrs.size(); ++k) {
          if (got[k]) axpy(acc, *got[k], static_cast<float>(w(i, nbrs[k]) / wsum));
        }
      }
    }
    out[i] = std::move(acc);
  });
}

std::vector<std::vector<float>> Algorithm::mix_vectors(const fleet::LazyMatrix& in,
                                                       const std::string& tag,
                                                       sim::Channel channel) {
  const std::size_t m = num_agents();
  if (in.size() != m) throw std::invalid_argument("mix_vectors: arity mismatch");
  std::vector<std::vector<float>> out(m);
  mix_exchange([&in](std::size_t i) -> const std::vector<float>& { return in[i]; }, tag, channel,
               out);
  for (std::size_t i = 0; i < m; ++i) {
    if (!active(i)) out[i] = in[i];  // offline agents freeze their value
  }
  return out;
}

void Algorithm::mix_into(fleet::LazyMatrix& state, const std::vector<std::vector<float>>& contrib,
                         const std::string& tag, sim::Channel channel) {
  const std::size_t m = num_agents();
  if (state.size() != m || contrib.size() != m) {
    throw std::invalid_argument("mix_into: arity mismatch");
  }
  // `contrib` rows are only read for active agents, so callers may leave
  // inactive rows empty; frozen agents keep their (possibly still-shared)
  // state row without a copy.
  std::vector<std::vector<float>> out(m);
  mix_exchange([&contrib](std::size_t i) -> const std::vector<float>& { return contrib[i]; }, tag,
               channel, out);
  for (std::size_t i = 0; i < m; ++i) {
    if (active(i)) state.set(i, std::move(out[i]));
  }
}

void Algorithm::draw_all_batches() {
  if (stateless_draws_) {
    // Fleet mode: round-keyed draws on the active set only. The salt is a
    // per-call epoch (not the round number) so algorithms that draw more than
    // once per round get distinct batches each time, and a worker's samples
    // depend only on (its identity, the epoch) — never on how many times it
    // was previously touched or whether it was evicted in between.
    const std::uint64_t salt = ++draw_epoch_;
    runtime::parallel_for(0, workers_.size(), 1, [&](std::size_t i) {
      if (active(i)) workers_.get(i).draw_batch(salt);
    });
    return;
  }
  // Each worker samples from its own RNG stream (split at construction).
  runtime::parallel_for(0, workers_.size(), 1,
                        [&](std::size_t i) { workers_[i].draw_batch(); });
}

std::vector<sim::RoundMetrics> run_with_metrics(Algorithm& alg, std::size_t rounds,
                                                const data::Dataset& test,
                                                const MetricsOptions& opts,
                                                obs::RunLedger* ledger,
                                                const ResumeState* resume,
                                                const CheckpointHook& checkpoint,
                                                std::size_t checkpoint_every) {
  std::vector<sim::RoundMetrics> series;
  series.reserve(rounds);
  Stopwatch watch;
  double last_acc = 0.0;
  // S-RECOV resume: continue past the checkpointed cursor with the held
  // accuracy, the prior series and the accountant's raw accumulators restored
  // verbatim, so the continued run's CSV is bit-identical (modulo wall-clock
  // columns) to an uninterrupted one.
  std::size_t start = 1;
  if (resume != nullptr) {
    if (resume->completed_rounds >= rounds) {
      throw std::invalid_argument("run_with_metrics: resume cursor is at or past the "
                                  "requested round count");
    }
    start = resume->completed_rounds + 1;
    last_acc = resume->last_acc;
    series = resume->prior_series;
  }

  // S-BENCH360 privacy trajectory: the paper's analysis treats one round as
  // one Gaussian-mechanism release per agent (sensitivity 2C/B on the
  // mini-batch mean), so the accountant composes one invocation at noise
  // multiplier z = sigma / (2C/B) per round and epsilon_spent is its
  // (epsilon, delta)-DP conversion at the run's dp_delta.
  const auto& hp = alg.env().hp;
  const double sensitivity =
      hp.batch > 0 ? 2.0 * hp.clip / static_cast<double>(hp.batch) : 0.0;
  const double noise_multiplier =
      (hp.sigma > 0.0 && sensitivity > 0.0) ? hp.sigma / sensitivity : 0.0;
  dp::RdpAccountant accountant;
  if (resume != nullptr && !resume->accountant_rdp.empty()) {
    accountant.restore(resume->accountant_rdp, resume->accountant_invocations);
  }
  for (std::size_t t = start; t <= rounds; ++t) {
    alg.reset_phase_timings();
    Stopwatch round_watch;
    {
      PDSL_SPAN("round", static_cast<std::int64_t>(t), "round");
      alg.run_round(t);
    }

    sim::RoundMetrics m;
    m.round = t;
    m.round_s = round_watch.elapsed_seconds();
    m.phases = alg.phase_timings();
    // S-SCALE: loss/accuracy over a fixed agent prefix when metric_agents is
    // set — touching every worker would materialize the whole fleet.
    const std::size_t eval_agents =
        opts.metric_agents == 0 ? alg.num_agents() : std::min(alg.num_agents(), opts.metric_agents);
    const bool eval_now =
        opts.eval_every != 0 && (t % opts.eval_every == 0 || t == rounds);
    Stopwatch metrics_watch;
    {
      PDSL_SPAN("metrics_eval", static_cast<std::int64_t>(t), "round");
      // One barrier, agent-parallel: agent i scores its own model in its own
      // worker's workspace (idle between rounds) and writes only slot i, so
      // its GEMMs run inline instead of forking per call. A lazy worker may
      // materialize here (WorkerPool slot discipline). The folds below run in
      // agent order, so the sums are bit-identical at every width.
      std::vector<double> losses(eval_agents);
      std::vector<double> accuracies(eval_now ? eval_agents : 0);
      runtime::parallel_for(0, eval_agents, 1, [&](std::size_t i) {
        sim::LocalWorker& w = alg.worker(i);
        losses[i] = w.local_eval_loss(alg.models()[i]);
        if (eval_now) {
          accuracies[i] =
              sim::evaluate(w.workspace(), alg.models()[i], test, opts.test_subsample).accuracy;
        }
      });
      double loss_acc = 0.0;
      for (const double l : losses) loss_acc += l;
      m.avg_loss = loss_acc / static_cast<double>(eval_agents);
      m.consensus = sim::consensus_distance(alg.models());
      if (eval_now) {
        double acc = 0.0;
        for (const double a : accuracies) acc += a;
        last_acc = acc / static_cast<double>(eval_agents);
      }
    }
    const double metrics_eval_s = metrics_watch.elapsed_seconds();
    m.test_accuracy = last_acc;
    const sim::NetCounters net = alg.network().counters();
    m.messages = net.messages;
    m.bytes = net.bytes;
    m.dropped = net.dropped;
    m.delayed = net.delayed;
    m.offline = alg.fault_stats().offline_agents;
    m.stale_reused = alg.fault_stats().stale_reused;
    m.fallbacks = alg.fault_stats().self_fallbacks;
    m.byz_active = alg.network().adversary().active_count(alg.num_agents(), t);
    m.corrupted = net.corrupted;
    m.rejected = alg.fault_stats().msgs_rejected;
    m.reclipped = alg.fault_stats().msgs_reclipped;
    if (const auto split = alg.attacker_honest_weight_split()) {
      m.pi_attacker = split->first;
      m.pi_honest = split->second;
    }
    if (const auto sstats = alg.shapley_round_stats()) {
      m.shapley_evals = sstats->coalition_evals;
      m.shapley_early_stops = sstats->early_stopped;
    }
    m.retransmits = net.retransmits;
    m.corrupt_detected = net.corrupt_detected;
    m.dup_dropped = net.dup_dropped;
    m.reordered = net.reordered;
    m.crashes = alg.fault_stats().crashed_agents;
    m.resyncs = alg.fault_stats().resynced_agents;
    if (noise_multiplier > 0.0) {
      accountant.add_gaussian(noise_multiplier, 1);
      m.epsilon_spent = accountant.epsilon(alg.env().dp_delta);
    }
    m.elapsed_s = watch.elapsed_seconds();
    if (ledger != nullptr && ledger->enabled()) {
      ledger->event("round", sim::deterministic_json(m));
      alg.ledger_round(*ledger, t);
      json::Object timing;
      timing["round"] = m.round;
      timing["round_ms"] = 1e3 * m.round_s;
      for (const obs::Phase p : obs::kPhases) {
        timing[std::string(obs::phase_name(p)) + "_ms"] = 1e3 * m.phases.at(p);
      }
      timing["metrics_eval_ms"] = 1e3 * metrics_eval_s;
      ledger->event(obs::RunLedger::kTimingEvent, std::move(timing));
    }
    series.push_back(m);
    // Never checkpoint after the final round: the run is complete, not
    // resumable, and the final state already lives in the metrics/model
    // outputs.
    if (checkpoint && checkpoint_every > 0 && t % checkpoint_every == 0 && t < rounds) {
      checkpoint(t, last_acc, accountant, series);
    }
  }
  return series;
}

}  // namespace pdsl::algos
