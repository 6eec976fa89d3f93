// pdsl_cli — command-line front door to the library.
//
//   pdsl_cli run        --algorithm pdsl --topology ring --agents 8 ...
//   pdsl_cli topology   --agents 10,15,20
//   pdsl_cli calibrate  --eps 0.1 --delta 1e-3 --clip 1 --batch 250 ...
//   pdsl_cli help
//
// `run` executes one experiment and prints the per-round series (optionally
// writing CSV and a model checkpoint); `topology` prints spectral/structure
// facts for the supported graphs; `calibrate` compares every sigma
// calibration mode and the total privacy spend over T rounds.

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/schema.hpp"
#include "core/config_io.hpp"
#include "core/experiment.hpp"
#include "core/replicate.hpp"
#include "dp/accountant.hpp"
#include "dp/calibration.hpp"
#include "dp/mechanism.hpp"
#include "dp/rdp.hpp"
#include "graph/spectral.hpp"
#include "io/checkpoint.hpp"
#include "kernels/backend.hpp"
#include "fleet/options.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "sim/metrics.hpp"

using namespace pdsl;

namespace {

int usage() {
  std::printf(
      "usage: pdsl_cli <command> [--flag value ...]\n"
      "\n"
      "commands:\n"
      "  run        run one experiment (or several seeds) and print the series\n"
      "             flags: --config <file.json> --json (print the result as JSON\n"
      "                      instead of the text report)\n"
      "                    --algorithm --dataset --model --topology --agents --rounds\n"
      "                    --train --image --mu --partition --batch --gamma --alpha\n"
      "                    --clip --eps --delta --sigma_mode --noise_scale --seed\n"
      "                    --seeds 1,2,3 (one summary line over the seeds; not with\n"
      "                      --json, --csv, --save_model, --ledger-out,\n"
      "                      --checkpoint-path or --resume-from)\n"
      "                    --compression --drop_prob --corrupt\n"
      "                    --csv <path> --save_model <path>\n"
      "                    --hidden H (the mlp model's hidden width)\n"
      "                    --mc_perms K --valbatch N (PDSL Shapley: Monte Carlo\n"
      "                      permutations, and the validation samples each\n"
      "                      coalition is scored on)\n"
      "                    --drop-prob P (alias of --drop_prob: lossy links)\n"
      "                    --delay-rounds D --delay-prob P (S-FAULT: delayed\n"
      "                      messages surface 1..D rounds late)\n"
      "                    --churn P --churn-interval K (agents offline with\n"
      "                      prob P per K-round interval)\n"
      "                    --staleness S (reuse a neighbor's cached\n"
      "                      cross-gradient up to S rounds old)\n"
      "                    --byz-frac F --byz-mode sign_flip|scale|noise|nan_bomb|\n"
      "                      stale_replay --byz-scale X --byz-onset T (S-BYZ:\n"
      "                      first round(F*M) agents attack from round T on)\n"
      "                    --robust-agg none|trimmed_mean|median --sanitize\n"
      "                      auto|on|off (consumer-side defense screening)\n"
      "                    --participation full|sampled|walk --active K\n"
      "                      --participation-rate R (S-SCALE: k of N agents\n"
      "                      per round, or a single random walker)\n"
      "                    --degree D --radius R (the regular/geometric\n"
      "                      topologies' degree and connection radius)\n"
      "                    --sparse (skip the O(M^3) spectral report; rho = 0)\n"
      "                    --lazy-state --worker-cache N (materialize agent\n"
      "                      state on demand, LRU-evict above N)\n"
      "                    --wire-roundtrip (encode+decode+verify every\n"
      "                      inter-agent message that survives the drop\n"
      "                      through the fleet wire format)\n"
      "                    --metric-agents K (evaluate loss/acc on the first\n"
      "                      K agents only; 0 = all)\n"
      "                    --threads N (parallel agents; 1=sequential, 0=auto-detect)\n"
      "                    --backend blocked|naive (S-KER math kernels; default\n"
      "                      blocked; naive = the reference loops, same GEMM bits)\n"
      "                    --shapley-eval sequential|batched|linear (S-SHAP:\n"
      "                      batched = one stacked GEMM per layer, bit-identical;\n"
      "                      mlp/logistic only, the CNNs fall back to sequential;\n"
      "                      linear = reuse per-member first-layer (Linear or\n"
      "                      Conv2D) pre-activations across coalitions, fastest,\n"
      "                      tolerance-banded; the default)\n"
      "                    --shapley-method mc|exact|tmc|stratified|adaptive\n"
      "                      (adaptive = antithetic pairs + CI early stop;\n"
      "                      see --shapley-min-perms / --shapley-ci-z)\n"
      "                    --shapley-min-perms K --shapley-ci-z Z (adaptive MC\n"
      "                      floor and confidence width; budget stays --mc_perms)\n"
      "                    --corrupt-prob P --dup-prob P --reorder-prob P\n"
      "                      --max-retries R (S-RECOV unreliable channel:\n"
      "                      deterministic bit flips caught by the wire checksum\n"
      "                      and NACK/retransmitted with exponential backoff,\n"
      "                      plus duplicate and out-of-order delivery)\n"
      "                    --crash-prob P --snapshot-every K --recovery-dir <dir>\n"
      "                      (S-RECOV fail-stop crashes: a crashed agent loses\n"
      "                      model/momentum/caches and restarts from its latest\n"
      "                      K-round snapshot plus a neighbor state-resync)\n"
      "                    --checkpoint-every N --checkpoint-path <f> (persist a\n"
      "                      resumable run-state file every N rounds)\n"
      "                    --resume-from <f> (continue a checkpointed run\n"
      "                      bit-identically; config must match the checkpoint)\n"
      "                    --profile (per-phase timing table + key counters)\n"
      "                    --trace-out <t.json> (Chrome trace-event spans)\n"
      "                    --ledger-out <l.jsonl> (S-BENCH360 run ledger:\n"
      "                      per-round epsilon/pi/fault events as JSONL)\n"
      "  topology   print spectral facts for the supported graphs\n"
      "             flags: --agents 10,15,20\n"
      "  calibrate  compare sigma calibrations and composed privacy budgets\n"
      "             flags: --topology --agents --eps --delta --clip --batch --rounds\n"
      "                    --phimin\n"
      "  help       this text\n");
  return 2;
}

/// The text report of one run: the round table, the counter lines and, with
/// --profile, the phase breakdown and the run's Shapley and DP counts.
void print_report(const core::ExperimentConfig& cfg, const core::ExperimentResult& res) {
  std::printf("algorithm=%s d=%zu sigma=%.4f heterogeneity=%.3f rho=%.3f\n",
              res.algorithm.c_str(), res.model_dim, res.sigma, res.heterogeneity,
              res.spectral.rho);
  std::printf("%6s %10s %10s %12s\n", "round", "avg_loss", "test_acc", "consensus");
  // One row per accuracy evaluation (every 5 rounds when there is none),
  // plus the first and the last round.
  const std::size_t every = cfg.metrics.eval_every == 0 ? 5 : cfg.metrics.eval_every;
  for (const auto& m : res.series) {
    if (m.round % every == 0 || m.round == 1 || m.round == res.series.size()) {
      std::printf("%6zu %10.4f %10.3f %12.5f\n", m.round, m.avg_loss, m.test_accuracy,
                  m.consensus);
    }
  }
  std::printf("final: loss=%.4f acc=%.3f messages=%zu bytes=%.1fMB\n", res.final_loss,
              res.final_accuracy, res.messages, static_cast<double>(res.bytes) / 1e6);
  if (res.epsilon_spent > 0.0) {
    std::printf("privacy: epsilon_spent=%.3f at delta=%.1e (RDP, per-round releases)\n",
                res.epsilon_spent, cfg.delta);
  }
  if (!cfg.ledger_out.empty()) {
    std::printf("run ledger written to %s\n", cfg.ledger_out.c_str());
  }
  if (res.dropped != 0 || res.delayed != 0) {
    std::printf("faults: dropped=%zu delayed=%zu\n", res.dropped, res.delayed);
  }
  if (res.corrupted != 0 || res.rejected != 0 || res.reclipped != 0) {
    std::printf("byzantine: corrupted=%zu rejected=%zu reclipped=%zu\n", res.corrupted,
                res.rejected, res.reclipped);
  }
  if (res.retransmits != 0 || res.corruptions_detected != 0 || res.duplicates_dropped != 0 ||
      res.reordered != 0) {
    std::printf(
        "transport: retransmits=%zu corrupt_detected=%zu retry_exhausted=%zu "
        "dup_dropped=%zu reordered=%zu\n",
        res.retransmits, res.corruptions_detected, res.retry_exhausted,
        res.duplicates_dropped, res.reordered);
  }
  if (res.crashes != 0) {
    std::printf("recovery: crashes=%zu resyncs=%zu\n", res.crashes, res.resyncs);
  }
  if (res.resumed_from_round != 0) {
    std::printf("resumed from round %zu (%s)\n", res.resumed_from_round,
                cfg.resume_from.c_str());
  }
  if (cfg.checkpoint_every > 0 && cfg.rounds > cfg.checkpoint_every) {
    std::printf("resumable run state checkpointed to %s (every %zu rounds)\n",
                cfg.checkpoint_path.c_str(), cfg.checkpoint_every);
  }
  if (cfg.fleet.enabled()) {
    std::printf("fleet: participants=%zu/%zu workers_peak=%zu models_materialized=%zu",
                res.participants, cfg.agents, res.workers_peak, res.models_materialized);
    if (res.wire_messages != 0) {
      std::printf(" wire=%zu msgs/%.1fMB", res.wire_messages,
                  static_cast<double>(res.wire_bytes) / 1e6);
    }
    std::printf("\n");
  }

  if (cfg.profile) {
    std::printf("\n-- phase breakdown (%zu rounds; kernels backend=%s isa=%s) --\n%s",
                cfg.rounds, kernels::backend_name(kernels::backend()), kernels::isa_name(),
                obs::format_phase_table(res.phase_totals, cfg.rounds).c_str());
    // Summed over every row of the series, so a resumed run counts the
    // restored rounds too, as the phase table above does.
    std::size_t evals = 0;
    std::size_t early_stops = 0;
    for (const auto& m : res.series) {
      evals += m.shapley_evals;
      early_stops += m.shapley_early_stops;
    }
    std::printf("shapley.coalition_evals=%zu  shapley.permutations_early_stopped=%zu  "
                "dp.sigma=%.4f\n",
                evals, early_stops, res.sigma);
  }
  if (!cfg.trace_out.empty()) {
    std::printf("trace written to %s (%zu events; load in chrome://tracing)\n",
                cfg.trace_out.c_str(), obs::TraceRecorder::global().size());
  }
}

int cmd_run(int argc, const char* const* argv) {
  // The config schema declares every experiment flag; these few are the
  // CLI's own.
  std::vector<std::string> allowed = schema::flags<core::ExperimentConfig>();
  allowed.insert(allowed.end(), {"config", "json", "seeds", "csv", "save_model"});
  const CliArgs args(argc, argv, allowed);
  core::ExperimentConfig cfg;
  const bool from_file = args.has("config");
  if (from_file) cfg = core::load_config(args.get_string("config", ""));
  // CLI defaults differ from the struct's (they target the quick demo scale);
  // a config file's values win over CLI defaults, explicit flags win over both.
  if (!from_file) {
    cfg.agents = 6;
    cfg.rounds = 25;
    cfg.train_samples = 900;
    cfg.image = 10;
    cfg.hp.batch = 16;
    cfg.hp.gamma = 0.05;
    cfg.hp.shapley_permutations = 6;
    cfg.hp.validation_batch = 32;
    cfg.epsilon = 0.3;
    cfg.noise_scale = 0.06;
    cfg.metrics.eval_every = 5;
  }
  // Loud flag-range validation: a bad value exits immediately with a message
  // naming the offending flag, instead of wrapping through a size_t cast or
  // surfacing as a confusing failure deep inside the run.
  schema::apply_flags(args, cfg);

  // Cross-field rules.
  // --delay-rounds without --delay-prob gets a visible default rate, so the
  // single-flag quickstart actually injects delays.
  if (cfg.faults.delay_rounds > 0 && cfg.faults.delay_prob == 0.0) {
    cfg.faults.delay_prob = 0.25;
  }
  cfg.faults.validate();
  cfg.channel.validate();
  cfg.crash.validate();
  if (cfg.checkpoint_every > 0 && cfg.checkpoint_path.empty()) {
    throw std::invalid_argument("--checkpoint-every needs --checkpoint-path <file>");
  }
  cfg.adversary.validate();
  // S-SCALE fleet rules, checked again in FleetOptions::validate.
  if (cfg.fleet.participation.active > cfg.agents) {
    throw std::invalid_argument("--active (" + std::to_string(cfg.fleet.participation.active) +
                                ") exceeds --agents (" + std::to_string(cfg.agents) + ")");
  }
  if (cfg.fleet.participation.mode == fleet::ParticipationMode::kSampled &&
      cfg.fleet.participation.active == 0 && cfg.fleet.participation.rate == 0.0) {
    throw std::invalid_argument(
        "--participation sampled needs --active K or --participation-rate R");
  }
  if (cfg.topology == "regular" && cfg.fleet.degree >= cfg.agents) {
    throw std::invalid_argument("--degree (" + std::to_string(cfg.fleet.degree) +
                                ") must be below --agents (" + std::to_string(cfg.agents) + ")");
  }
  cfg.fleet.validate(cfg.agents);
  // The Shapley characteristic function keys coalitions by a 64-bit mask, so a
  // dense PDSL game is capped at 63 players (an agent plus its neighbors).
  // Catch the 1024-agent-fleet-on-full-graph mistake here, before any data is
  // generated; bounded-degree graphs keep neighborhoods small and stay fine.
  if (cfg.algorithm.rfind("pdsl", 0) == 0 && cfg.topology == "full" && cfg.agents > 63) {
    throw std::invalid_argument(
        "--agents " + std::to_string(cfg.agents) +
        " on a full graph gives every agent a " + std::to_string(cfg.agents) +
        "-player Shapley game, above the 63-player uint64 coalition-mask cap; "
        "use --topology regular --degree <= 62 (or a ring/torus topology) at this scale");
  }
  const bool as_json = args.get_bool("json", false);

  if (args.has("seeds")) {
    // A replicated run prints one summary line and keeps no per-seed result,
    // so the single-run outputs have nothing to write.
    for (const char* flag : {"json", "csv", "save_model"}) {
      if (args.has(flag)) {
        throw std::invalid_argument(std::string("--seeds cannot be combined with --") + flag);
      }
    }
    const auto seed_ints = args.get_int_list("seeds", {1, 2, 3});
    const auto rep =
        core::run_replicated(cfg, std::vector<std::uint64_t>(seed_ints.begin(), seed_ints.end()));
    std::printf("%s over %zu seeds: loss %.4f +- %.4f, accuracy %.3f +- %.3f\n",
                cfg.algorithm.c_str(), rep.runs.size(), rep.final_loss.mean,
                rep.final_loss.stddev, rep.final_accuracy.mean, rep.final_accuracy.stddev);
    return 0;
  }

  const auto res = core::run_experiment(cfg);
  if (as_json) {
    std::printf("%s\n", core::result_to_json(res).dump(2).c_str());
  } else {
    print_report(cfg, res);
  }
  // Under --json stdout holds the JSON document alone, so file notices go to
  // stderr.
  std::FILE* const notes = as_json ? stderr : stdout;
  if (args.has("csv")) {
    sim::write_metrics_csv(args.get_string("csv", ""), cfg.algorithm, res.series);
    std::fprintf(notes, "series written to %s\n", args.get_string("csv", "").c_str());
  }
  if (args.has("save_model")) {
    // Persist the consensus (average) model; agents are near-consensus
    // after the final gossip step anyway.
    const auto path = args.get_string("save_model", "");
    io::save_params(path, res.average_model);
    std::fprintf(notes, "average model written to %s\n", path.c_str());
  }
  return 0;
}

int cmd_topology(int argc, const char* const* argv) {
  const CliArgs args(argc, argv, {"agents"});
  const auto counts = args.get_int_list("agents", {10, 15, 20});
  std::printf("%-16s %4s %6s %8s %8s %10s %10s\n", "topology", "M", "edges", "rho",
              "gap", "omega_min", "diam<=M?");
  Rng rng(1);
  for (const std::string name : {"full", "bipartite", "torus", "ring", "star", "er"}) {
    for (const auto m : counts) {
      try {
        graph::GraphParams gp;
        gp.rng = &rng;
        const auto topo = graph::Graph::make(name, static_cast<std::size_t>(m), gp);
        const graph::Metropolis w(topo);
        const auto info = graph::analyze(w);
        std::printf("%-16s %4lld %6zu %8.4f %8.4f %10.4f %10s\n", name.c_str(),
                    static_cast<long long>(m), topo.num_edges(), info.rho, info.spectral_gap,
                    w.min_positive_weight(), topo.is_connected() ? "yes" : "NO");
      } catch (const std::exception& e) {
        std::printf("%-16s %4lld  (skipped: %s)\n", name.c_str(), static_cast<long long>(m),
                    e.what());
      }
    }
  }
  return 0;
}

int cmd_calibrate(int argc, const char* const* argv) {
  const CliArgs args(argc, argv,
                     {"topology", "agents", "eps", "delta", "clip", "batch", "rounds", "phimin"});
  const std::string topology = args.get_string("topology", "full");
  const auto m = static_cast<std::size_t>(args.get_int("agents", 10));
  const double eps = args.get_double("eps", 0.1);
  const double delta = args.get_double("delta", 1e-3);
  const double clip = args.get_double("clip", 1.0);
  const auto batch = static_cast<std::size_t>(args.get_int("batch", 250));
  const auto rounds = static_cast<std::size_t>(args.get_int("rounds", 180));
  const double phimin = args.get_double("phimin", 0.1);

  Rng rng(1);
  graph::GraphParams gp;
  gp.rng = &rng;
  const auto topo = graph::Graph::make(topology, m, gp);
  const graph::Metropolis w(topo);
  const double sens = 2.0 * clip / static_cast<double>(batch);
  const double sigma_dpsgd = dp::gaussian_sigma(sens, eps, delta);
  dp::Theorem1Params p;
  p.epsilon = eps;
  p.delta = delta;
  p.clip = clip;
  p.phi_hat_min = phimin;
  const double sigma_thm = dp::theorem1_sigma(w, p);

  std::printf("topology=%s M=%zu eps=%.3g delta=%.1e clip=%.2f batch=%zu\n", topology.c_str(),
              m, eps, delta, clip, batch);
  std::printf("  per-round DP-SGD sigma (sens 2C/B):  %.6f\n", sigma_dpsgd);
  std::printf("  Theorem-1 sigma (phi_hat_min=%.2f):  %.4f\n", phimin, sigma_thm);
  std::printf("  Theorem-1 L2 sensitivity bound:      %.4f\n",
              dp::theorem1_sensitivity(w, clip));

  dp::PrivacyAccountant acc;
  acc.record_rounds(eps, delta, rounds);
  dp::RdpAccountant rdp;
  rdp.add_gaussian(sigma_dpsgd / sens, rounds);
  std::printf("composition over %zu rounds:\n", rounds);
  std::printf("  basic:    eps=%.3f  delta=%.2e\n", acc.basic_epsilon(), acc.basic_delta());
  std::printf("  advanced: eps=%.3f  (delta'=%.0e)\n", acc.advanced_epsilon(delta), delta);
  std::printf("  RDP:      eps=%.3f  at delta=%.2e (best order %.1f)\n",
              rdp.epsilon(acc.basic_delta()), acc.basic_delta(),
              rdp.best_order(acc.basic_delta()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  // Shift argv so CliArgs sees only the flags.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (cmd == "run") return cmd_run(sub_argc, sub_argv);
    if (cmd == "topology") return cmd_topology(sub_argc, sub_argv);
    if (cmd == "calibrate") return cmd_calibrate(sub_argc, sub_argv);
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
      usage();
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdsl_cli %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "pdsl_cli: unknown command '%s'\n", cmd.c_str());
  return usage();
}
