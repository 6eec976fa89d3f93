// Benchmark runner: repeats core::run_experiment on one workload's config for
// a wall-clock budget and writes every repetition's raw per-round timings and
// outputs as JSON. run.py derives the metrics and checks from that file; this
// program only measures.
//
//   pdsl_benchmark --workload w.json --seed 7 --seconds 20 --min-reps 1
//                  --out raw.json [--max-reps N] [--setup-reps K] [--rounds R]
//                  [--heldout 1] [--per-layer p.json --chrome t.trace.json]
//
// Every repetition runs the workload's "config" object with the given seed:
// first K set-up-only repetitions with 0 rounds, then training repetitions.
// Training repetitions start while the budget is expected to cover one more
// (the mean repetition time so far), and always until --min-reps have run.
// With --heldout 1 every training repetition also scores its final average
// model on a held-out set that is the same for every seed (heldout_accuracy).
// Every repetition records the process's peak RSS as it ends (peak_rss_mb).
// The traced build (pdsl_benchmark_traced) requires --per-layer/--chrome.

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "core/config_io.hpp"
#include "core/experiment.hpp"
#include "data/synthetic.hpp"
#include "nn/model_zoo.hpp"
#include "sim/evaluate.hpp"
#include "trace_hooks.hpp"

namespace {

using namespace pdsl;

struct Args {
  std::string workload;
  std::string out;
  std::string per_layer;
  std::string chrome;
  std::uint64_t seed = 0;
  bool has_seed = false;
  double seconds = 0.0;
  std::size_t min_reps = 1;
  std::size_t max_reps = 1000;
  std::size_t setup_reps = 0;
  std::size_t rounds = 0;  ///< 0 = the workload's own round count
  bool heldout = false;
};

// Held-out scoring of the final average model. The synthetic class templates
// do not depend on the seed, so samples drawn with a fixed seed of their own
// come from the training distribution of every other seed without sharing its
// samples; one fixed set for all seeds keeps its sampling noise out of the
// spread across seeds.
constexpr std::size_t kHeldoutSamples = 4000;
constexpr std::uint64_t kHeldoutSeed = 0x4E1D07;

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || text[0] == '-') {
    throw std::invalid_argument(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string val = argv[++i];
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--out") {
      a.out = val;
    } else if (flag == "--per-layer") {
      a.per_layer = val;
    } else if (flag == "--chrome") {
      a.chrome = val;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(val);
    } else if (flag == "--min-reps") {
      a.min_reps = parse_u64(flag, val);
    } else if (flag == "--max-reps") {
      a.max_reps = parse_u64(flag, val);
    } else if (flag == "--setup-reps") {
      a.setup_reps = parse_u64(flag, val);
    } else if (flag == "--rounds") {
      a.rounds = parse_u64(flag, val);
    } else if (flag == "--heldout") {
      a.heldout = parse_u64(flag, val) != 0;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, val);
      a.has_seed = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.out.empty() || !a.has_seed) {
    throw std::invalid_argument("--workload, --out and --seed are required");
  }
  if (a.min_reps == 0 || a.max_reps < a.min_reps) {
    throw std::invalid_argument("need 1 <= --min-reps <= --max-reps");
  }
  if (a.per_layer.empty() != a.chrome.empty()) {
    throw std::invalid_argument("--per-layer and --chrome go together");
  }
  if (!(a.seconds >= 0.0)) throw std::invalid_argument("--seconds must be >= 0");
  return a;
}

/// Hex FNV-1a 64 of raw bytes: the bit-identity fingerprint of a model.
std::string fnv1a_hex(const void* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

json::Object rep_to_json(std::uint64_t seed, double wall_s, const core::ExperimentResult& res) {
  json::Array round_s, elapsed_s, accuracy, local_grad, crossgrad, shapley, aggregate, gossip,
      evals, retransmits, crashes, resyncs;
  for (const auto& m : res.series) {
    round_s.emplace_back(m.round_s);
    elapsed_s.emplace_back(m.elapsed_s);
    accuracy.emplace_back(m.test_accuracy);
    local_grad.emplace_back(m.phases.local_grad_s);
    crossgrad.emplace_back(m.phases.crossgrad_s);
    shapley.emplace_back(m.phases.shapley_s);
    aggregate.emplace_back(m.phases.aggregate_s);
    gossip.emplace_back(m.phases.gossip_s);
    evals.emplace_back(m.shapley_evals);
    retransmits.emplace_back(m.retransmits);
    crashes.emplace_back(m.crashes);
    resyncs.emplace_back(m.resyncs);
  }
  json::Object rounds;
  rounds["round_s"] = std::move(round_s);
  rounds["elapsed_s"] = std::move(elapsed_s);
  rounds["test_accuracy"] = std::move(accuracy);
  rounds["local_grad_s"] = std::move(local_grad);
  rounds["crossgrad_s"] = std::move(crossgrad);
  rounds["shapley_s"] = std::move(shapley);
  rounds["aggregate_s"] = std::move(aggregate);
  rounds["gossip_s"] = std::move(gossip);
  rounds["shapley_evals"] = std::move(evals);
  rounds["retransmits"] = std::move(retransmits);
  rounds["crashes"] = std::move(crashes);
  rounds["resyncs"] = std::move(resyncs);

  json::Object o;
  o["seed"] = static_cast<std::int64_t>(seed);
  o["wall_s"] = wall_s;
  o["final_loss"] = res.final_loss;
  o["final_accuracy"] = res.final_accuracy;
  o["model_hash"] = fnv1a_hex(res.average_model.data(), res.average_model.size() * sizeof(float));
  o["messages"] = res.messages;
  o["bytes"] = res.bytes;
  o["dropped"] = res.dropped;
  o["retransmits"] = res.retransmits;
  o["corruptions_detected"] = res.corruptions_detected;
  o["retry_exhausted"] = res.retry_exhausted;
  o["duplicates_dropped"] = res.duplicates_dropped;
  o["crashes"] = res.crashes;
  o["resyncs"] = res.resyncs;
  o["workers_peak"] = res.workers_peak;
  o["rounds"] = std::move(rounds);
  return o;
}

/// Accuracy of `params` on the held-out set. The set is drawn after the
/// repetition's peak RSS is read, so that it does not count towards it.
double heldout_accuracy(const core::ExperimentConfig& cfg, const std::vector<float>& params) {
  data::SyntheticSpec spec;
  if (cfg.dataset == "mnist_like") {
    spec = data::mnist_like_spec(kHeldoutSamples, cfg.image, kHeldoutSeed);
  } else if (cfg.dataset == "cifar_like") {
    spec = data::cifar_like_spec(kHeldoutSamples, cfg.image, kHeldoutSeed);
  } else {
    throw std::invalid_argument("--heldout needs a mnist_like or cifar_like workload");
  }
  const data::Dataset heldout = data::make_synthetic_images(spec);
  nn::Model workspace =
      nn::make_model(cfg.model, cfg.image, spec.channels, spec.classes, cfg.hidden);
  return sim::evaluate(workspace, params, heldout).accuracy;
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) throw std::runtime_error("getrusage failed");
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

int run(const Args& args) {
  const json::Value workload = json::parse_file(args.workload);
  core::ExperimentConfig base = core::config_from_json(workload.at("config"));
  // The identity of the workload as written, seed excluded (results carry
  // their seed separately): the same for every process and seed of one
  // workload, whatever --rounds a process was given.
  core::ExperimentConfig identity = base;
  identity.seed = 0;
  base.seed = args.seed;
  if (args.rounds > 0) base.rounds = args.rounds;
  if (base.rounds < 2) throw std::invalid_argument("a workload needs at least 2 rounds");

  const bool traced = pdsl_bench_trace_dump != nullptr;
  if (traced && args.per_layer.empty()) {
    throw std::invalid_argument("the traced runner needs --per-layer and --chrome");
  }
  if (traced) pdsl_bench_trace_capture(args.setup_reps, (base.rounds + 1) / 2);
  // Scoring outside run_experiment would land in the tracer's last round.
  if (traced && args.heldout) throw std::invalid_argument("the traced runner has no --heldout");
  if (args.heldout && base.seed == kHeldoutSeed) {
    throw std::invalid_argument("--seed " + std::to_string(kHeldoutSeed) +
                                " draws the held-out set itself");
  }

  json::Array reps;
  const auto run_rep = [&](std::size_t rounds) {
    core::ExperimentConfig cfg = base;
    cfg.rounds = rounds;
    if (traced) pdsl_bench_trace_rep(reps.size());
    Stopwatch wall;
    const core::ExperimentResult res = core::run_experiment(cfg);
    json::Object rep = rep_to_json(cfg.seed, wall.elapsed_seconds(), res);
    // The process's peak so far: for the first repetition of a process, the
    // peak of one run_experiment on its own.
    rep["peak_rss_mb"] = peak_rss_mb();
    if (args.heldout && rounds > 0) {
      rep["heldout_accuracy"] = heldout_accuracy(cfg, res.average_model);
    }
    reps.push_back(json::Value(std::move(rep)));
  };
  // Set-up-only repetitions: everything run_experiment builds before the
  // first round, timed on its own.
  for (std::size_t rep = 0; rep < args.setup_reps; ++rep) run_rep(0);
  Stopwatch budget;
  for (std::size_t rep = 0; rep < args.max_reps; ++rep) {
    if (rep >= args.min_reps) {
      const double mean_rep = budget.elapsed_seconds() / static_cast<double>(rep);
      if (budget.elapsed_seconds() + mean_rep > args.seconds) break;
    }
    run_rep(base.rounds);
  }

  json::Object out;
  out["config_hash"] = hex64(core::config_identity_hash(identity));
  out["reps"] = std::move(reps);
  std::ofstream f(args.out);
  f << json::Value(std::move(out)).dump(1) << "\n";
  if (!f) throw std::runtime_error("cannot write " + args.out);

  if (traced && !pdsl_bench_trace_dump(args.per_layer.c_str(), args.chrome.c_str())) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdsl_benchmark: %s\n", e.what());
    return 1;
  }
}
