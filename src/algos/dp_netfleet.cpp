#include "algos/dp_netfleet.hpp"

#include <cmath>

#include "common/vec_math.hpp"
#include "dp/mechanism.hpp"
#include "runtime/parallel_for.hpp"

namespace pdsl::algos {

DpNetFleet::DpNetFleet(const Env& env) : Algorithm(env) {
  const std::size_t d = models_.dim();
  tracker_.reset(num_agents(), std::vector<float>(d, 0.0f));
  prev_grad_.assign(num_agents(), std::vector<float>(d, 0.0f));
}

void DpNetFleet::round_impl(std::size_t t) {
  const std::size_t m = num_agents();

  // Initialize the tracker with the first privatized local gradients: after
  // this, everything an agent transmits (tracker, model) is a function of
  // already-privatized gradients, so DP follows by post-processing — no
  // second noise injection that would compound over the tracking recursion.
  if (first_round_) {
    auto timer = phase(obs::Phase::kLocalGrad);
    draw_all_batches();
    runtime::parallel_for(0, m, 1, [&](std::size_t i) {
      if (!active(i)) return;  // tracker stays 0 until the agent comes back
      prev_grad_[i] = dp::privatize(workers_[i].gradient(models_[i]), env_.hp.clip,
                                    env_.hp.sigma, agent_rngs_[i]);
      tracker_.set(i, prev_grad_[i]);
    });
    first_round_ = false;
  }

  // Local phase: K tracker-guided updates (no communication).
  {
    auto timer = phase(obs::Phase::kAggregate);
    const std::size_t steps = std::max<std::size_t>(1, env_.hp.local_steps);
    runtime::parallel_for(0, m, 1, [&](std::size_t i) {
      if (!active(i)) return;
      for (std::size_t k = 0; k + 1 < steps; ++k) {
        axpy(models_.mut(i), tracker_[i], static_cast<float>(-env_.hp.gamma));
      }
    });
  }

  // Communication phase: gossip the trackers and models (both are functions
  // of privatized gradients only).
  auto mixed_tracker = mix_vectors(tracker_, "y@" + std::to_string(t));
  auto mixed_model = mix_vectors(models_, "x@" + std::to_string(t));

  // Recursive gradient correction with a fresh privatized gradient at the
  // mixed model. The recursion telescopes, so tracker noise stays bounded
  // (~the noise of one privatized gradient); a generous clip only guards
  // against outright divergence without biasing the direction.
  auto timer = phase(obs::Phase::kLocalGrad);
  draw_all_batches();
  runtime::parallel_for(0, m, 1, [&](std::size_t i) {
    if (!active(i)) return;  // churned out: tracker, prev grad and model frozen
    auto g = dp::privatize(workers_[i].gradient(mixed_model[i]), env_.hp.clip, env_.hp.sigma,
                           agent_rngs_[i]);
    auto& y = mixed_tracker[i];
    for (std::size_t k = 0; k < y.size(); ++k) y[k] += g[k] - prev_grad_[i][k];
    const double noise_norm_bound =
        env_.hp.clip + 4.0 * env_.hp.sigma * std::sqrt(static_cast<double>(y.size()));
    dp::clip_l2(y, std::max(2.0 * env_.hp.clip, noise_norm_bound));
    prev_grad_[i] = std::move(g);

    // NET-FLEET model update: x_i <- sum_j w_ij x_j - gamma * y_i.
    axpy(mixed_model[i], y, static_cast<float>(-env_.hp.gamma));
    tracker_.set(i, std::move(y));
    models_.set(i, std::move(mixed_model[i]));
  });
}

}  // namespace pdsl::algos
