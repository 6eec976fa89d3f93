#include "recovery/recovery.hpp"

#include <stdexcept>
#include <utility>

#include "io/checkpoint.hpp"
#include "recovery/run_state.hpp"

namespace pdsl::recovery {

RecoveryManager::RecoveryManager(sim::CrashPlan plan, RecoveryOptions opts)
    : plan_(std::move(plan)), opts_(std::move(opts)) {
  plan_.validate();
}

void RecoveryManager::take_snapshots(algos::Algorithm& alg, std::size_t round) {
  const std::size_t m = alg.num_agents();
  snaps_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    snaps_[i].round = round;
    snaps_[i].model = alg.models()[i];
    snaps_[i].extra = alg.crash_snapshot_extra(i);
  }
  ++snapshot_epochs_;
  if (!opts_.snapshot_dir.empty()) {
    for (std::size_t i = 0; i < m; ++i) {
      io::ByteBuffer body;
      io::append_u64(body, snaps_[i].round);
      io::append_floats(body, snaps_[i].model);
      io::append_floats(body, snaps_[i].extra);
      io::save_blob(opts_.snapshot_dir + "/agent_" + std::to_string(i) + ".snap",
                    kSnapshotMagic, body, "recovery snapshot");
    }
  }
}

void RecoveryManager::on_round_begin(algos::Algorithm& alg, std::size_t t) {
  if (!plan_.any()) return;
  // First call: capture the state *entering* this round (round t-1's post
  // state), which under resume is the checkpointed state, not initialization.
  if (snaps_.empty()) take_snapshots(alg, t == 0 ? 0 : t - 1);

  const std::size_t m = alg.num_agents();
  std::vector<std::size_t> crashed;
  for (std::size_t i = 0; i < m; ++i) {
    if (plan_.crashes(i, t)) crashed.push_back(i);
  }
  if (crashed.empty()) return;

  // Pass 1: every crashed agent loses its warm caches and restarts from its
  // latest snapshot. All restores complete before any resync traffic so the
  // outcome cannot depend on the order crashed agents are processed in.
  for (const std::size_t i : crashed) {
    alg.crash_wipe_caches(i);
    alg.restore_agent_model(i, snaps_[i].model);
    if (!snaps_[i].extra.empty()) alg.crash_restore_extra(i, snaps_[i].extra);
  }

  // Pass 2: online neighbors gossip their current models to each restarted
  // agent, through the real (droppable, delayable, corruptible) network.
  const std::string tag = "rs@" + std::to_string(t);
  auto& net = alg.network();
  const auto& topo = *alg.env().topo;
  for (const std::size_t i : crashed) {
    for (const std::size_t j : topo.neighbors(i)) {
      if (j == i || !alg.agent_active(j)) continue;
      net.send(j, i, tag, alg.models()[j], sim::Channel::kState);
    }
  }

  // Pass 3: each restarted agent re-enters the consensus at the W-weighted
  // average of its restored snapshot and whichever neighbor models arrived,
  // renormalized over the arrivals (the PR-4 degradation idiom). Accumulate
  // in double for a threads-invariant, order-fixed reduction.
  const auto& mix = *alg.env().mixing;
  for (const std::size_t i : crashed) {
    const std::vector<float>& restored = alg.models()[i];
    const std::size_t dim = restored.size();
    std::vector<double> acc(dim, 0.0);
    double wsum = mix(i, i);
    for (std::size_t d = 0; d < dim; ++d) acc[d] = wsum * static_cast<double>(restored[d]);
    bool resynced = false;
    for (const std::size_t j : topo.neighbors(i)) {
      if (j == i) continue;
      auto row = net.receive(i, j, tag);
      if (!row.has_value()) continue;
      if (row->size() != dim) {
        throw std::runtime_error("RecoveryManager: resync payload dimension mismatch");
      }
      const double wij = mix(i, j);
      for (std::size_t d = 0; d < dim; ++d) {
        acc[d] += wij * static_cast<double>((*row)[d]);
      }
      wsum += wij;
      resynced = true;
    }
    if (resynced && wsum > 0.0) {
      std::vector<float> blended(dim);
      for (std::size_t d = 0; d < dim; ++d) {
        blended[d] = static_cast<float>(acc[d] / wsum);
      }
      alg.restore_agent_model(i, std::move(blended));
    }
    alg.note_crash_recovery(resynced);
  }
}

void RecoveryManager::on_round_end(algos::Algorithm& alg, std::size_t t) {
  if (!plan_.any()) return;
  if (plan_.snapshot_every > 0 && t % plan_.snapshot_every == 0) {
    take_snapshots(alg, t);
  }
}

}  // namespace pdsl::recovery
