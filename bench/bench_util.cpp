#include "bench_util.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/csv.hpp"
#include "common/schema.hpp"
#include "common/stopwatch.hpp"
#include "kernels/backend.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"

namespace pdsl::bench {

namespace {

const std::vector<std::string> kFlags = {
    "scale",  "agents", "eps",        "rounds", "seed",  "train", "image",
    "batch",  "model",  "mc_perms",   "valbatch", "out", "gamma", "alpha",
    "print_every", "noise_scale", "profile", "trace-out", "threads"};

constexpr const char* kOutDir = "bench_results";

std::string csv_path(const std::string& id) {
  std::filesystem::create_directories(kOutDir);
  return std::string(kOutDir) + "/" + id + ".csv";
}

double default_alpha(const std::string& dataset) {
  return dataset == "cifar_like" ? 0.7 : 0.5;  // paper Sec. VI-A
}

}  // namespace

ScaleParams scale_params(const std::string& scale, const std::string& dataset) {
  ScaleParams sp;
  const bool cifar = dataset == "cifar_like";
  if (scale == "quick") {
    sp.agents = {6};
    sp.rounds = cifar ? 35 : 25;
    sp.train_samples = 900;
    sp.test_samples = 240;
    sp.validation_samples = 150;
    sp.image = cifar ? 8 : 10;
    sp.batch = 16;
    sp.model = "mlp";
    sp.shapley_permutations = 6;
    sp.validation_batch = 32;
    sp.test_subsample = 160;
    sp.eval_every = 5;
    sp.print_every = 2;
    // The CIFAR-like task is harder, so its (larger) epsilon grid needs a
    // larger multiplier for the noise to remain the visible axis.
    sp.noise_scale = cifar ? 0.25 : 0.06;
  } else if (scale == "medium") {
    sp.agents = {10};
    sp.rounds = cifar ? 80 : 60;
    sp.train_samples = 3000;
    sp.test_samples = 600;
    sp.validation_samples = 400;
    sp.image = cifar ? 12 : 14;
    sp.batch = 32;
    sp.model = "mlp";
    sp.shapley_permutations = 8;
    sp.validation_batch = 48;
    sp.test_subsample = 300;
    sp.eval_every = 10;
    sp.print_every = 4;
    sp.noise_scale = cifar ? 0.4 : 0.15;
  } else if (scale == "paper") {
    sp.agents = {10, 15, 20};
    sp.rounds = cifar ? 200 : 180;
    sp.train_samples = cifar ? 48000 : 58000;
    sp.test_samples = 8000;
    sp.validation_samples = 2000;  // paper: 2000 held-out validation images
    sp.image = cifar ? 32 : 28;
    sp.batch = 250;  // paper Sec. VI-A
    sp.model = cifar ? "cifar_cnn" : "mnist_cnn";
    sp.shapley_permutations = 10;
    sp.validation_batch = 250;
    sp.test_subsample = 2000;
    sp.eval_every = 10;
    sp.print_every = 10;
    sp.gamma = cifar ? 1e-2 : 1e-3;  // paper Sec. VI-A, for its CNNs
  } else {
    throw std::invalid_argument("unknown --scale '" + scale + "' (quick|medium|paper)");
  }
  return sp;
}

core::ExperimentConfig make_config(const SweepSpec& spec, const ScaleParams& sp,
                                   std::size_t agents, double epsilon, std::uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.dataset = spec.dataset;
  cfg.model = sp.model;
  cfg.topology = spec.topology;
  cfg.agents = agents;
  cfg.rounds = sp.rounds;
  cfg.train_samples = sp.train_samples;
  cfg.test_samples = sp.test_samples;
  cfg.validation_samples = sp.validation_samples;
  cfg.image = sp.image;
  cfg.mu = 0.25;  // paper Sec. VI-A
  cfg.hp.batch = sp.batch;
  cfg.hp.gamma = spec.gamma > 0.0 ? spec.gamma : sp.gamma;
  cfg.hp.alpha = spec.alpha > 0.0 ? spec.alpha : default_alpha(spec.dataset);
  cfg.hp.clip = 1.0;
  cfg.hp.shapley_permutations = sp.shapley_permutations;
  cfg.hp.validation_batch = sp.validation_batch;
  cfg.epsilon = epsilon;
  cfg.delta = 1e-3;
  cfg.sigma_mode = "dpsgd";
  cfg.noise_scale = sp.noise_scale;
  cfg.seed = seed;
  cfg.metrics.test_subsample = sp.test_subsample;
  cfg.metrics.eval_every = sp.eval_every;
  return cfg;
}

std::string display_name(const std::string& algo_key) {
  static const std::map<std::string, std::string> names = {
      {"pdsl", "PDSL"},           {"pdsl_uniform", "PDSL-uniform"},
      {"dp_dpsgd", "DP-DPSGD"},   {"muffliato", "MUFFLIATO"},
      {"dp_cga", "DP-CGA"},       {"dp_netfleet", "DP-NET-FLEET"},
      {"dpsgd", "D-PSGD"},        {"dmsgd", "DMSGD"},
      {"async_dp_gossip", "ASYNC-DP-GOSSIP"}, {"dp_qgm", "DP-QGM"},
      {"pdsl_relu", "PDSL-relu"},             {"pdsl_robust", "PDSL-robust"},
      {"fedavg", "FEDAVG"},                   {"dp_fedavg", "DP-FEDAVG"}};
  const auto it = names.find(algo_key);
  return it == names.end() ? algo_key : it->second;
}

json::Value fault_config_json(const core::ExperimentConfig& cfg) {
  // Report the plan run_experiment actually runs (the legacy drop_prob
  // alias folded in), not the raw struct.
  sim::FaultPlan plan = cfg.faults;
  if (plan.drop_prob == 0.0) plan.drop_prob = cfg.drop_prob;
  return schema::to_json(plan);
}

// ---------------------------------------------------------------------------
// S-BENCH360 envelope
// ---------------------------------------------------------------------------

json::Value build_info_json() {
  json::Object b;
#ifdef PDSL_COMPILER_ID
  b["compiler"] = std::string(PDSL_COMPILER_ID);
#else
  b["compiler"] = std::string("unknown");
#endif
#ifdef PDSL_COMPILER_VERSION
  b["compiler_version"] = std::string(PDSL_COMPILER_VERSION);
#else
  b["compiler_version"] = std::string("unknown");
#endif
#ifdef PDSL_BUILD_TYPE
  b["build_type"] = std::string(PDSL_BUILD_TYPE);
#else
  b["build_type"] = std::string("unknown");
#endif
#ifdef PDSL_NATIVE_BUILD
  b["pdsl_native"] = true;
#else
  b["pdsl_native"] = false;
#endif
  return json::Value(std::move(b));
}

json::Value host_info_json() {
  json::Object h;
  h["hardware_concurrency"] =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  // The blocked kernels run at the host's vector width: timings from hosts
  // of different widths are not comparable.
  h["kernels_isa"] = std::string(kernels::isa_name());
  return json::Value(std::move(h));
}

std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

std::size_t current_heap_bytes() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::size_t>(mi.uordblks);
#else
  return 0;
#endif
}

json::Value memory_info_json() {
  json::Object m;
  m["peak_rss_bytes"] = peak_rss_bytes();
  m["heap_bytes"] = current_heap_bytes();
  return json::Value(std::move(m));
}

std::string bench_git_rev() {
  if (const char* env = std::getenv("PDSL_GIT_REV")) return env;
#ifdef PDSL_GIT_REV
  return PDSL_GIT_REV;
#else
  return "unknown";
#endif
}

BenchEnvelope::BenchEnvelope(std::string bench_id, std::string kind)
    : bench_id_(std::move(bench_id)),
      kind_(std::move(kind)),
      faults_(json::Object{}),
      adversary_(json::Object{}) {}

void BenchEnvelope::set_config(json::Object cfg) { config_ = std::move(cfg); }
void BenchEnvelope::set_faults(json::Value faults) { faults_ = std::move(faults); }
void BenchEnvelope::set_adversary(json::Value adversary) {
  adversary_ = std::move(adversary);
}
void BenchEnvelope::set_acceptance(json::Object acceptance) {
  acceptance_ = std::move(acceptance);
  has_acceptance_ = true;
}

void BenchEnvelope::add_metric_sample(const std::string& name, const std::string& unit,
                                      double value) {
  auto& series = metrics_[name];
  series.unit = unit;
  series.samples.push_back(value);
}

void BenchEnvelope::add_run(json::Object run) {
  runs_.push_back(json::Value(std::move(run)));
}

json::Value BenchEnvelope::to_json() const {
  json::Object o;
  o["schema_version"] = 1;
  o["bench"] = bench_id_;
  o["kind"] = kind_;
  o["git_rev"] = bench_git_rev();
  o["build"] = build_info_json();
  o["host"] = host_info_json();
  o["repeats"] = 1;  // >1 only in driver-merged files
  o["config"] = json::Value(config_);
  o["faults"] = faults_;
  o["adversary"] = adversary_;
  json::Object metrics;
  for (const auto& [name, series] : metrics_) {
    std::vector<double> sorted = series.samples;
    std::sort(sorted.begin(), sorted.end());
    json::Object m;
    m["unit"] = series.unit;
    m["min"] = sorted.front();
    m["max"] = sorted.back();
    const std::size_t n = sorted.size();
    m["median"] = n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
    json::Array samples;
    for (const double s : series.samples) samples.push_back(json::Value(s));
    m["samples"] = json::Value(std::move(samples));
    metrics[name] = json::Value(std::move(m));
  }
  o["metrics"] = json::Value(std::move(metrics));
  o["memory"] = memory_info_json();  // S-SCALE: safe schema-v1 addition
  o["runs"] = json::Value(runs_);
  if (has_acceptance_) o["acceptance"] = json::Value(acceptance_);
  return json::Value(std::move(o));
}

bool BenchEnvelope::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot write %s\n", bench_id_.c_str(), path.c_str());
    return false;
  }
  const std::string s = to_json().dump(2);
  std::fwrite(s.data(), 1, s.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

namespace {

struct ParsedCommon {
  std::string scale;
  ScaleParams sp;
  std::vector<std::int64_t> agents;
  std::vector<double> epsilons;
  std::uint64_t seed;
  std::size_t threads = 1;     ///< S-RT width (1=sequential, 0=auto-detect)
  bool profile = false;        ///< print per-phase breakdown per run
  std::string trace_out;       ///< Chrome trace sink for the whole sweep
};

ParsedCommon parse_common(const CliArgs& args, SweepSpec& spec) {
  ParsedCommon pc;
  pc.scale = args.get_string("scale", "quick");
  pc.sp = scale_params(pc.scale, spec.dataset);
  // Per-flag overrides.
  pc.sp.rounds = static_cast<std::size_t>(args.get_int("rounds", static_cast<std::int64_t>(pc.sp.rounds)));
  pc.sp.train_samples = static_cast<std::size_t>(args.get_int("train", static_cast<std::int64_t>(pc.sp.train_samples)));
  pc.sp.image = static_cast<std::size_t>(args.get_int("image", static_cast<std::int64_t>(pc.sp.image)));
  pc.sp.batch = static_cast<std::size_t>(args.get_int("batch", static_cast<std::int64_t>(pc.sp.batch)));
  pc.sp.model = args.get_string("model", pc.sp.model);
  pc.sp.shapley_permutations = static_cast<std::size_t>(
      args.get_int("mc_perms", static_cast<std::int64_t>(pc.sp.shapley_permutations)));
  pc.sp.validation_batch = static_cast<std::size_t>(
      args.get_int("valbatch", static_cast<std::int64_t>(pc.sp.validation_batch)));
  pc.sp.print_every = static_cast<std::size_t>(
      args.get_int("print_every", static_cast<std::int64_t>(pc.sp.print_every)));
  pc.sp.noise_scale = args.get_double("noise_scale", pc.sp.noise_scale);
  spec.gamma = args.get_double("gamma", spec.gamma);
  spec.alpha = args.get_double("alpha", spec.alpha);
  pc.agents = args.get_int_list("agents", pc.sp.agents);
  pc.epsilons = args.get_double_list("eps", spec.epsilons);
  pc.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  pc.threads = static_cast<std::size_t>(args.get_int("threads", 1));
  pc.profile = args.get_bool("profile", false);
  pc.trace_out = args.get_string("trace-out", "");
  if (!pc.trace_out.empty()) obs::TraceRecorder::global().enable(true);
  return pc;
}

/// Per-run profile line + accumulated sweep totals.
void print_profile(const core::ExperimentResult& res, std::size_t rounds) {
  const auto& p = res.phase_totals;
  std::printf(
      "     phases(ms/round): local_grad=%.2f crossgrad=%.2f shapley=%.2f "
      "aggregate=%.2f gossip=%.2f\n",
      1e3 * p.local_grad_s / static_cast<double>(rounds),
      1e3 * p.crossgrad_s / static_cast<double>(rounds),
      1e3 * p.shapley_s / static_cast<double>(rounds),
      1e3 * p.aggregate_s / static_cast<double>(rounds),
      1e3 * p.gossip_s / static_cast<double>(rounds));
}

/// Common envelope config block for the figure/table sweeps.
json::Object sweep_config_json(const SweepSpec& spec, const ParsedCommon& pc) {
  json::Object c;
  c["dataset"] = spec.dataset;
  c["topology"] = spec.topology;
  c["scale"] = pc.scale;
  c["model"] = pc.sp.model;
  c["image"] = pc.sp.image;
  c["rounds"] = pc.sp.rounds;
  c["train_samples"] = pc.sp.train_samples;
  c["batch"] = pc.sp.batch;
  c["shapley_permutations"] = pc.sp.shapley_permutations;
  c["noise_scale"] = pc.sp.noise_scale;
  c["gamma"] = spec.gamma > 0.0 ? spec.gamma : pc.sp.gamma;
  c["seed"] = pc.seed;
  c["threads"] = pc.threads;
  json::Array agents;
  for (const auto m : pc.agents) agents.push_back(json::Value(m));
  c["agents"] = json::Value(std::move(agents));
  json::Array eps;
  for (const double e : pc.epsilons) eps.push_back(json::Value(e));
  c["epsilons"] = json::Value(std::move(eps));
  return c;
}

/// End-of-bench reporting: the sweep-wide phase table and the trace file.
void finish_obs(const ParsedCommon& pc, const obs::PhaseTimings& totals,
                std::size_t total_rounds) {
  if (pc.profile) {
    std::printf("\n-- sweep phase breakdown (%zu algorithm-rounds) --\n%s", total_rounds,
                obs::format_phase_table(totals, total_rounds).c_str());
  }
  if (!pc.trace_out.empty()) {
    obs::TraceRecorder::global().write(pc.trace_out);
    std::printf("trace written to %s (%zu events)\n", pc.trace_out.c_str(),
                obs::TraceRecorder::global().size());
  }
}

}  // namespace

int run_figure_bench(int argc, const char* const* argv, const SweepSpec& spec_in) {
  SweepSpec spec = spec_in;
  const CliArgs args(argc, argv, kFlags);
  auto pc = parse_common(args, spec);

  std::printf("==== %s: %s ====\n", spec.id.c_str(), spec.title.c_str());
  std::printf("scale=%s model=%s image=%zu rounds=%zu train=%zu batch=%zu threads=%zu\n",
              pc.scale.c_str(), pc.sp.model.c_str(), pc.sp.image, pc.sp.rounds,
              pc.sp.train_samples, pc.sp.batch, pc.threads);

  CsvWriter csv(csv_path(spec.id),
                {"figure", "dataset", "topology", "agents", "epsilon", "algorithm", "threads",
                 "round", "avg_loss", "test_accuracy", "consensus"});
  Stopwatch total;
  obs::PhaseTimings phase_totals;
  std::size_t total_rounds = 0;
  BenchEnvelope env(spec.id, "figure");
  env.set_config(sweep_config_json(spec, pc));

  for (const auto m : pc.agents) {
    for (const double eps : pc.epsilons) {
      std::printf("\n-- %s  M=%lld  epsilon=%.3g  (%s graph) --\n", spec.id.c_str(),
                  static_cast<long long>(m), eps, spec.topology.c_str());
      std::map<std::string, core::ExperimentResult> results;
      for (const auto& algo : core::paper_algorithms()) {
        auto cfg = make_config(spec, pc.sp, static_cast<std::size_t>(m), eps, pc.seed);
        cfg.algorithm = algo;
        cfg.threads = pc.threads;
        env.set_faults(fault_config_json(cfg));
        Stopwatch sw;
        results[algo] = core::run_experiment(cfg);
        const double seconds = sw.elapsed_seconds();
        std::printf("   %-13s sigma=%-8.4g final_loss=%-8.4g final_acc=%.3f  (%.1fs)\n",
                    display_name(algo).c_str(), results[algo].sigma,
                    results[algo].final_loss, results[algo].final_accuracy, seconds);
        if (pc.profile) print_profile(results[algo], pc.sp.rounds);
        phase_totals += results[algo].phase_totals;
        total_rounds += pc.sp.rounds;
        for (const auto& rm : results[algo].series) {
          csv.row(spec.id, spec.dataset, spec.topology, m, eps, display_name(algo), pc.threads,
                  rm.round, rm.avg_loss, rm.test_accuracy, rm.consensus);
        }
        csv.flush();
        const auto& res = results[algo];
        env.add_metric_sample(algo + ".final_loss", "loss", res.final_loss);
        env.add_metric_sample(algo + ".final_accuracy", "accuracy", res.final_accuracy);
        env.add_metric_sample(algo + ".epsilon_spent", "epsilon", res.epsilon_spent);
        env.add_metric_sample(algo + ".run_seconds", "s", seconds);
        json::Object run;
        run["agents"] = m;
        run["epsilon"] = eps;
        run["algorithm"] = algo;
        run["sigma"] = res.sigma;
        run["final_loss"] = res.final_loss;
        run["final_accuracy"] = res.final_accuracy;
        run["epsilon_spent"] = res.epsilon_spent;
        run["seconds"] = seconds;
        env.add_run(std::move(run));
      }
      // Paper-style series: average loss vs communication round.
      std::printf("   round");
      for (const auto& algo : core::paper_algorithms()) {
        std::printf(" %13s", display_name(algo).c_str());
      }
      std::printf("\n");
      const std::size_t rounds = results.begin()->second.series.size();
      const std::size_t step = std::max<std::size_t>(1, pc.sp.print_every);
      for (std::size_t r = 0; r < rounds; r += step) {
        std::printf("   %5zu", r + 1);
        for (const auto& algo : core::paper_algorithms()) {
          std::printf(" %13.4f", results[algo].series[r].avg_loss);
        }
        std::printf("\n");
      }
    }
  }
  finish_obs(pc, phase_totals, total_rounds);
  if (!env.write(args.get_string("out", "BENCH_" + spec.id + ".json"))) return 1;
  std::printf("\n%s done in %.1fs; series in %s\n", spec.id.c_str(), total.elapsed_seconds(),
              csv_path(spec.id).c_str());
  return 0;
}

int run_table_bench(int argc, const char* const* argv, SweepSpec spec,
                    const std::vector<std::string>& topologies) {
  const CliArgs args(argc, argv, kFlags);
  auto pc = parse_common(args, spec);

  std::printf("==== %s: %s ====\n", spec.id.c_str(), spec.title.c_str());
  std::printf("scale=%s model=%s image=%zu rounds=%zu threads=%zu\n", pc.scale.c_str(),
              pc.sp.model.c_str(), pc.sp.image, pc.sp.rounds, pc.threads);

  CsvWriter csv(csv_path(spec.id), {"table", "dataset", "topology", "agents", "epsilon",
                                    "algorithm", "threads", "test_accuracy", "final_loss",
                                    "sigma"});
  Stopwatch total;
  obs::PhaseTimings phase_totals;
  std::size_t total_rounds = 0;
  BenchEnvelope env(spec.id, "table");
  env.set_config(sweep_config_json(spec, pc));

  for (const double eps : pc.epsilons) {
    std::printf("\nepsilon = %.3g\n", eps);
    std::printf("%-13s", "method");
    for (const auto& topo : topologies) {
      for (const auto m : pc.agents) {
        std::printf("  %s/M=%-3lld", topo.substr(0, 4).c_str(), static_cast<long long>(m));
      }
    }
    std::printf("\n");
    for (const auto& algo : core::paper_algorithms()) {
      std::printf("%-13s", display_name(algo).c_str());
      for (const auto& topo : topologies) {
        for (const auto m : pc.agents) {
          spec.topology = topo;
          auto cfg = make_config(spec, pc.sp, static_cast<std::size_t>(m), eps, pc.seed);
          cfg.algorithm = algo;
          cfg.threads = pc.threads;
          env.set_faults(fault_config_json(cfg));
          Stopwatch sw;
          const auto res = core::run_experiment(cfg);
          const double seconds = sw.elapsed_seconds();
          phase_totals += res.phase_totals;
          total_rounds += pc.sp.rounds;
          std::printf("  %9.3f", res.final_accuracy);
          std::fflush(stdout);
          csv.row(spec.id, spec.dataset, topo, m, eps, display_name(algo), pc.threads,
                  res.final_accuracy, res.final_loss, res.sigma);
          csv.flush();
          env.add_metric_sample(algo + ".final_accuracy", "accuracy", res.final_accuracy);
          env.add_metric_sample(algo + ".final_loss", "loss", res.final_loss);
          env.add_metric_sample(algo + ".epsilon_spent", "epsilon", res.epsilon_spent);
          env.add_metric_sample(algo + ".run_seconds", "s", seconds);
          json::Object run;
          run["topology"] = topo;
          run["agents"] = m;
          run["epsilon"] = eps;
          run["algorithm"] = algo;
          run["sigma"] = res.sigma;
          run["final_loss"] = res.final_loss;
          run["final_accuracy"] = res.final_accuracy;
          run["epsilon_spent"] = res.epsilon_spent;
          run["seconds"] = seconds;
          env.add_run(std::move(run));
        }
      }
      std::printf("\n");
    }
  }
  finish_obs(pc, phase_totals, total_rounds);
  if (!env.write(args.get_string("out", "BENCH_" + spec.id + ".json"))) return 1;
  std::printf("\n%s done in %.1fs; rows in %s\n", spec.id.c_str(), total.elapsed_seconds(),
              csv_path(spec.id).c_str());
  return 0;
}

}  // namespace pdsl::bench
