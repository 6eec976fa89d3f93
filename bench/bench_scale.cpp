// S-SCALE fleet bench: PDSL at M in {8, 64, 256, 1024} with the full fleet
// stack on — sparse regular-4 topology (CSR, no N x N matrix), sampled
// participation (k active agents per round), lazy worker state and wire
// round-trip verification on every message. Reports ms/round, peak RSS and
// steady-state heap per fleet size: the numbers that prove cost scales with
// the *active set*, not the fleet.
//
// Sweep smallest fleet first: peak RSS is a process-wide high-water mark, so
// per-size readings are only meaningful in ascending order.
//
// Also runs one random-walk scenario (a single model walking the graph) at
// the second-largest size, and gates on the S-SCALE determinism contract:
// the largest fleet under chaos (drop + delay + churn) plus sign-flip
// Byzantine agents must be bit-identical across a rerun and across
// --threads 1 vs 4. Writes BENCH_scale.json (override with --out).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/schema.hpp"
#include "common/stopwatch.hpp"
#include "core/experiment.hpp"
#include "io/codec.hpp"
#include "sim/faults.hpp"

namespace {

using pdsl::core::ExperimentConfig;
using pdsl::core::ExperimentResult;

ExperimentConfig base_config(const pdsl::CliArgs& args, std::size_t agents) {
  ExperimentConfig cfg;
  cfg.algorithm = args.get_string("algo", "pdsl");
  cfg.dataset = "mnist_like";
  cfg.model = "logistic";  // small model: the bench measures fleet overhead
  cfg.image = 8;
  cfg.partition = "iid";  // every agent holds >= 1 sample even at M = 1024
  cfg.agents = agents;
  cfg.rounds = static_cast<std::size_t>(args.get_int("rounds", 6));
  cfg.train_samples = static_cast<std::size_t>(args.get_int("train", 3000));
  cfg.test_samples = 200;
  cfg.validation_samples = 128;
  cfg.hp.batch = static_cast<std::size_t>(args.get_int("batch", 8));
  cfg.hp.gamma = 0.05;
  cfg.hp.alpha = 0.5;
  cfg.hp.clip = 1.0;
  cfg.hp.shapley_permutations = 2;
  cfg.hp.validation_batch = 32;
  cfg.sigma_mode = "none";  // scaling signal only; no DP noise in the loop
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.metrics.eval_every = 0;       // no per-round test eval
  cfg.metrics.test_subsample = 100;
  cfg.metrics.metric_agents = 8;    // O(1) metric cost regardless of M

  // The fleet stack under test.
  cfg.topology = "regular";
  cfg.fleet.sparse = true;
  cfg.fleet.degree = 4;
  cfg.fleet.lazy_state = true;
  cfg.fleet.wire_roundtrip = true;
  cfg.fleet.participation.mode = pdsl::fleet::ParticipationMode::kSampled;
  cfg.fleet.participation.active = std::min<std::size_t>(
      static_cast<std::size_t>(args.get_int("active", 8)), agents);
  return cfg;
}

double ms_per_round(double seconds, std::size_t rounds) {
  return 1e3 * seconds / static_cast<double>(rounds);
}

double mb(std::size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

// Hex string: 64-bit hashes don't survive JSON's double representation.
std::string model_hash(const std::vector<float>& v) {
  const std::uint64_t h = pdsl::io::fnv1a_bytes(v.data(), v.size() * sizeof(float));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return std::string(buf);
}

}  // namespace

int main(int argc, char** argv) {
  const pdsl::CliArgs args(argc, argv,
                           {"agents", "rounds", "train", "batch", "active",
                            "seed", "algo", "out"});
  auto sizes = args.get_int_list("agents", {8, 64, 256, 1024});
  std::sort(sizes.begin(), sizes.end());  // ascending: see peak-RSS note above
  const std::string out_path = args.get_string("out", "BENCH_scale.json");

  pdsl::bench::BenchEnvelope env("scale", "scaling");
  {
    pdsl::json::Object c;
    c["algorithm"] = args.get_string("algo", "pdsl");
    pdsl::json::Array ms;
    for (const auto m : sizes) ms.push_back(pdsl::json::Value(m));
    c["agents"] = pdsl::json::Value(std::move(ms));
    c["rounds"] = static_cast<std::size_t>(args.get_int("rounds", 6));
    c["active"] = static_cast<std::size_t>(args.get_int("active", 8));
    c["topology"] = std::string("regular");
    c["degree"] = static_cast<std::size_t>(4);
    c["lazy_state"] = true;
    c["wire_roundtrip"] = true;
    c["seed"] = static_cast<std::size_t>(args.get_int("seed", 1));
    env.set_config(std::move(c));
  }

  std::printf("==== bench_scale: sampled-participation fleet sweep ====\n");
  std::printf("%7s %7s %12s %12s %10s %10s %12s %10s\n", "agents", "active",
              "ms/round", "workers_pk", "models", "heap_MB", "peak_rss_MB",
              "wire_MB");

  for (const auto m : sizes) {
    const auto agents = static_cast<std::size_t>(m);
    ExperimentConfig cfg = base_config(args, agents);

    pdsl::Stopwatch sw;
    const ExperimentResult res = pdsl::core::run_experiment(cfg);
    const double total = sw.elapsed_seconds();
    const double mspr = ms_per_round(total, cfg.rounds);
    const double heap_mb = mb(pdsl::bench::current_heap_bytes());
    const double rss_mb = mb(pdsl::bench::peak_rss_bytes());

    std::printf("%7zu %7zu %12.2f %12zu %10zu %10.1f %12.1f %10.2f\n", agents,
                cfg.fleet.participation.active, mspr, res.workers_peak,
                res.models_materialized, heap_mb, rss_mb, mb(res.wire_bytes));

    const std::string prefix = "n" + std::to_string(agents);
    env.add_metric_sample(prefix + ".ms_per_round", "ms", mspr);
    env.add_metric_sample(prefix + ".heap_mb", "MB", heap_mb);
    env.add_metric_sample(prefix + ".peak_rss_mb", "MB", rss_mb);

    pdsl::json::Object row;
    row["scenario"] = std::string("sampled");
    row["agents"] = agents;
    row["active"] = cfg.fleet.participation.active;
    row["ms_per_round"] = mspr;
    row["total_s"] = total;
    row["workers_peak"] = res.workers_peak;
    row["models_materialized"] = res.models_materialized;
    row["participants_final_round"] = res.participants;
    row["wire_messages"] = res.wire_messages;
    row["wire_bytes"] = res.wire_bytes;
    row["heap_mb"] = heap_mb;
    row["peak_rss_mb"] = rss_mb;
    row["model_hash"] = model_hash(res.average_model);
    env.add_run(std::move(row));
  }

  // Random-walk participation: one model walks the sparse graph. Run at the
  // second-largest size so it stays cheap even in the full sweep.
  {
    const auto agents =
        static_cast<std::size_t>(sizes.size() > 1 ? sizes[sizes.size() - 2]
                                                  : sizes.back());
    ExperimentConfig cfg = base_config(args, agents);
    cfg.fleet.participation.mode = pdsl::fleet::ParticipationMode::kWalk;
    cfg.fleet.participation.active = 0;

    pdsl::Stopwatch sw;
    const ExperimentResult res = pdsl::core::run_experiment(cfg);
    const double mspr = ms_per_round(sw.elapsed_seconds(), cfg.rounds);
    std::printf("%7zu %7s %12.2f %12zu %10zu  (random-walk)\n", agents, "walk",
                mspr, res.workers_peak, res.models_materialized);
    env.add_metric_sample("walk.ms_per_round", "ms", mspr);

    pdsl::json::Object row;
    row["scenario"] = std::string("walk");
    row["agents"] = agents;
    row["ms_per_round"] = mspr;
    row["workers_peak"] = res.workers_peak;
    row["models_materialized"] = res.models_materialized;
    row["participants_final_round"] = res.participants;
    row["model_hash"] = model_hash(res.average_model);
    env.add_run(std::move(row));
  }

  // Acceptance gate: the largest fleet under chaos (drop + delay + churn)
  // plus 10% sign-flip Byzantine agents must be bit-identical across a rerun
  // and across --threads 1 vs 4.
  bool rerun_ok = false, threads_ok = false;
  {
    ExperimentConfig cfg = base_config(args, static_cast<std::size_t>(sizes.back()));
    // 64 participants so some sampled agents are graph-adjacent and the gate
    // exercises real traffic (wire, drops, corruption), not just local steps.
    cfg.fleet.participation.active = std::min<std::size_t>(64, cfg.agents);
    cfg.faults.drop_prob = 0.05;
    cfg.faults.delay_prob = 0.10;
    cfg.faults.delay_rounds = 2;
    cfg.faults.churn_prob = 0.05;
    cfg.faults.churn_interval = 2;
    cfg.adversary.frac = 0.1;  // lowest ids sign-flip at the default x3 scale
    env.set_faults(pdsl::bench::fault_config_json(cfg));
    env.set_adversary(pdsl::schema::to_json(cfg.adversary));

    const ExperimentResult a = pdsl::core::run_experiment(cfg);
    const ExperimentResult b = pdsl::core::run_experiment(cfg);
    cfg.threads = 4;
    const ExperimentResult c = pdsl::core::run_experiment(cfg);
    rerun_ok = a.average_model == b.average_model;
    threads_ok = a.average_model == c.average_model;
    std::printf("chaos+byzantine @ M=%zu: rerun %s, threads 1-vs-4 %s "
                "(model hash %s)\n",
                cfg.agents, rerun_ok ? "bit-identical" : "DIVERGED",
                threads_ok ? "bit-identical" : "DIVERGED",
                model_hash(a.average_model).c_str());

    pdsl::json::Object gate;
    gate["chaos_agents"] = cfg.agents;
    gate["rerun_bit_identical"] = rerun_ok;
    gate["threads_bit_identical"] = threads_ok;
    gate["model_hash"] = model_hash(a.average_model);
    gate["passed"] = rerun_ok && threads_ok;
    env.set_acceptance(std::move(gate));
  }

  if (!env.write(out_path)) return 1;
  if (!rerun_ok || !threads_ok) {
    std::fprintf(stderr,
                 "ERROR: chaos+byzantine fleet run is not deterministic "
                 "(rerun %d, threads %d)\n",
                 static_cast<int>(rerun_ok), static_cast<int>(threads_ok));
    return 1;
  }
  return 0;
}
