#pragma once
// S-RECOV crash/restart recovery (fail-stop model). A crashed agent loses
// everything in its process memory — model, momentum-like auxiliary state,
// staleness-cached cross-gradients, Shapley score caches — and restarts from
// its latest periodic snapshot plus a neighbor state-resync: online neighbors
// gossip their current models over the (faulty!) network and the restarted
// agent re-enters the consensus at the W-renormalized average instead of a
// snapshot_every-rounds-stale point.
//
// Determinism contract (S-RT): crash decisions are a pure hash of
// (seed, agent, round) via sim::CrashPlan — never a shared RNG draw — and
// both hooks run sequentially on the driver thread between parallel phases,
// so a run with crashes is bit-identical at any --threads width and across
// reruns. Resync traffic goes through sim::Network::send and is therefore
// charged, droppable, delayable and corruptible like any protocol message.

#include <cstdint>
#include <string>
#include <vector>

#include "algos/common.hpp"
#include "sim/faults.hpp"

namespace pdsl::recovery {

struct RecoveryOptions {
  /// When non-empty, every snapshot epoch also persists one crash-safe
  /// `agent_<i>.snap` blob per agent into this directory (io::AtomicFile
  /// tmp+rename discipline), so an operator can inspect or restore the
  /// fleet's last good state out-of-process.
  std::string snapshot_dir;
};

/// Drives crash injection + recovery from inside Algorithm::run_round via the
/// RecoveryHook seam. Install with alg.set_recovery(&mgr); the manager is
/// borrowed and must outlive the run.
class RecoveryManager final : public algos::RecoveryHook {
 public:
  explicit RecoveryManager(sim::CrashPlan plan, RecoveryOptions opts = {});

  /// Crash injection: fires after the churn/participation refresh, before any
  /// round-t compute. Lazily snapshots the entering state on the first call
  /// (so a resume-from-checkpoint run recovers toward resumed state, not
  /// initialization), then wipes + restores every agent the plan crashes at
  /// round t and runs the neighbor resync.
  void on_round_begin(algos::Algorithm& alg, std::size_t t) override;

  /// Periodic snapshot: every plan.snapshot_every rounds, capture each
  /// agent's post-round model row + crash_snapshot_extra.
  void on_round_end(algos::Algorithm& alg, std::size_t t) override;

  [[nodiscard]] std::size_t snapshot_epochs() const { return snapshot_epochs_; }
  [[nodiscard]] const sim::CrashPlan& plan() const { return plan_; }

 private:
  struct Snapshot {
    std::size_t round = 0;  ///< round whose post-state this captures (0 = init)
    std::vector<float> model;
    std::vector<float> extra;  ///< Algorithm::crash_snapshot_extra payload
  };

  void take_snapshots(algos::Algorithm& alg, std::size_t round);

  sim::CrashPlan plan_;
  RecoveryOptions opts_;
  std::vector<Snapshot> snaps_;  ///< empty until the first hook call
  std::size_t snapshot_epochs_ = 0;
};

}  // namespace pdsl::recovery
