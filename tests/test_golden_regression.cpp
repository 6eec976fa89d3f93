// Golden regression suite (ctest -L golden) in two tiers:
//
//   * Byte-exact tier: guard over the numeric columns of the per-round
//     metrics CSV for every algorithm, fault-free and under seeded fault
//     injection, pinned to the bit-identical paths (blocked kernels,
//     sequential Shapley eval). Any change to the math — kernels, RNG
//     consumption order, aggregation, fault hashing — shows up here as a
//     cell diff, with tolerance ZERO: the S-RT contract says same seed +
//     same config is the same bits, so the only legitimate diff is an
//     intentional numerics change. The same fixtures also pin the knobs that
//     must not move a trajectory: each exact-tier scenario re-run with
//     fleet.sparse, and each MLP scenario re-run on the naive kernels, must
//     reproduce the same bytes.
//   * Tolerance-banded tier: fixtures for the fast paths that reassociate
//     sums (--shapley-eval linear), whose results are deterministic but
//     only rounding-level reproducible across compilers. Each banded
//     fixture <name>.csv ships a band spec <name>.band.csv next to it with
//     per-column `abs,rel` tolerances (row `*` is the default; 0,0 means
//     exact, which is how the counter columns stay locked down): a cell
//     passes when |got - want| <= abs + rel * |want|.
//
// Timing columns (elapsed_s, round_s and the per-phase *_s breakdown) are
// wall-clock and excluded from comparison in both tiers.
//
// Fixtures live in tests/golden/ (path injected by CMake as PDSL_GOLDEN_DIR).
// After an INTENTIONAL numerics change, regenerate and commit them:
//
//   ./build/tests/test_golden_regression --regenerate
//
// and explain the diff in the commit message. --regenerate rewrites both
// tiers' fixture CSVs; the hand-written .band.csv specs are left alone.
// `--regenerate <name>` rewrites only the fixture <name>.csv, and an unknown
// name exits non-zero, listing the valid ones.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "core/experiment.hpp"
#include "sim/metrics.hpp"

#ifndef PDSL_GOLDEN_DIR
#error "PDSL_GOLDEN_DIR must be defined by the build (path to tests/golden)"
#endif

using pdsl::core::ExperimentConfig;
using pdsl::core::ExperimentResult;

namespace {

struct Scenario {
  std::string name;  ///< fixture file stem and CSV run label
  ExperimentConfig cfg;
};

ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.dataset = "mnist_like";
  cfg.model = "mlp";
  cfg.topology = "full";
  cfg.agents = 4;
  cfg.rounds = 3;
  cfg.train_samples = 300;
  cfg.test_samples = 100;
  cfg.validation_samples = 80;
  cfg.image = 8;
  cfg.hidden = 16;
  cfg.hp.batch = 8;
  cfg.hp.gamma = 0.05;
  cfg.hp.alpha = 0.5;
  cfg.hp.clip = 5.0;
  cfg.hp.shapley_permutations = 2;
  cfg.hp.validation_batch = 24;
  cfg.sigma_mode = "dpsgd";  // exercises the DP noise streams too
  cfg.noise_scale = 0.05;
  cfg.seed = 5;
  cfg.threads = 1;
  cfg.metrics.eval_every = 1;
  cfg.metrics.test_subsample = 100;
  // The byte-exact tier pins the bit-identical paths explicitly: the process
  // default shapley_eval is the banded "linear".
  cfg.backend = "blocked";
  cfg.hp.shapley_eval = "sequential";
  return cfg;
}

ExperimentConfig cnn_config() {
  ExperimentConfig cfg = base_config();
  cfg.algorithm = "pdsl";
  cfg.dataset = "cifar_like";
  cfg.model = "cifar_cnn";
  cfg.agents = 3;
  cfg.train_samples = 180;
  cfg.test_samples = 60;
  cfg.validation_samples = 48;
  cfg.metrics.test_subsample = 60;
  cfg.hp.gamma = 0.01;
  return cfg;
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  // Fault-free fixture per algorithm: with every fault knob at zero each of
  // these must stay bit-identical across refactors of the fault machinery.
  for (const char* algo :
       {"pdsl", "pdsl_uniform", "dp_dpsgd", "muffliato", "dp_cga", "dp_netfleet",
        "async_dp_gossip", "dp_qgm", "fedavg", "dpsgd", "dmsgd"}) {
    ExperimentConfig cfg = base_config();
    cfg.algorithm = algo;
    out.push_back({std::string(algo) + "_clean", cfg});
  }
  {
    ExperimentConfig cfg = base_config();
    cfg.algorithm = "pdsl";
    cfg.faults.drop_prob = 0.1;
    out.push_back({"pdsl_drop10", cfg});
  }
  {
    ExperimentConfig cfg = base_config();
    cfg.algorithm = "pdsl";
    cfg.faults.drop_prob = 0.2;
    cfg.faults.delay_prob = 0.25;
    cfg.faults.delay_rounds = 1;
    cfg.faults.churn_prob = 0.2;
    cfg.faults.churn_interval = 2;
    cfg.faults.staleness_rounds = 2;
    out.push_back({"pdsl_chaos", cfg});
  }
  {
    // S-BYZ fixture: one of four agents sign-flips its cross-gradients.
    // Guards the adversary hash streams, sanitization and the pi split
    // columns with the same tolerance-zero contract.
    ExperimentConfig cfg = base_config();
    cfg.algorithm = "pdsl";
    cfg.adversary.frac = 0.25;
    cfg.adversary.mode = pdsl::sim::ByzMode::kSignFlip;
    cfg.adversary.scale = 3.0;
    out.push_back({"pdsl_byz_signflip", cfg});
  }
  // CNN path: every conv forward/backward (im2col GEMMs, per-image dW
  // through sgemm_transpose_b) and the sequential CNN Shapley scoring.
  out.push_back({"pdsl_cnn_clean", cnn_config()});
  return out;
}

// The tolerance-banded tier: same base run, fast-math knobs on. Each entry
// must have a <name>.band.csv spec checked in next to its fixture.
std::vector<Scenario> banded_scenarios() {
  std::vector<Scenario> out;
  {
    // S-SHAP linear coalition evaluation (the process default): reuses
    // per-member first-layer pre-activations across coalitions.
    ExperimentConfig cfg = base_config();
    cfg.algorithm = "pdsl";
    cfg.hp.shapley_eval = "linear";
    out.push_back({"pdsl_linear", cfg});
  }
  {
    // The same scoring on the CNN: member conv1 pre-activations averaged per
    // coalition, the rest of the model run on the averaged tail parameters.
    ExperimentConfig cfg = cnn_config();
    cfg.hp.shapley_eval = "linear";
    out.push_back({"pdsl_cnn_linear", cfg});
  }
  return out;
}

std::string golden_path(const std::string& name) {
  return std::string(PDSL_GOLDEN_DIR) + "/" + name + ".csv";
}

std::string candidate_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("pdsl_golden_" + name + ".csv"))
      .string();
}

void run_scenario_to_csv(const Scenario& s, const std::string& path) {
  const ExperimentResult res = pdsl::core::run_experiment(s.cfg);
  pdsl::sim::write_metrics_csv(path, s.name, res.series);
}

bool is_timing_column(const std::string& name) {
  return name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0;
}

/// Per-column tolerance: pass iff |got - want| <= abs + rel * |want|.
/// abs == rel == 0 degrades to exact string comparison (counters, labels).
struct Band {
  double abs = 0.0;
  double rel = 0.0;
  [[nodiscard]] bool exact() const { return abs == 0.0 && rel == 0.0; }
};

/// <fixture>.band.csv: header `column,abs,rel`, one row per column override,
/// `*` for the default applied to unlisted columns.
struct BandSpec {
  Band fallback;
  std::map<std::string, Band> columns;

  [[nodiscard]] const Band& for_column(const std::string& name) const {
    const auto it = columns.find(name);
    return it == columns.end() ? fallback : it->second;
  }
};

std::string band_path(const std::string& name) {
  return std::string(PDSL_GOLDEN_DIR) + "/" + name + ".band.csv";
}

BandSpec load_band_spec(const std::string& path) {
  const auto rows = pdsl::read_csv(path);
  EXPECT_GE(rows.size(), 2u) << path << ": band spec needs a header and rows";
  EXPECT_EQ(rows[0], (std::vector<std::string>{"column", "abs", "rel"})) << path;
  BandSpec spec;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    EXPECT_EQ(rows[r].size(), 3u) << path << " row " << r;
    if (rows[r].size() != 3) continue;
    const Band band{std::stod(rows[r][1]), std::stod(rows[r][2])};
    if (rows[r][0] == "*") {
      spec.fallback = band;
    } else {
      spec.columns[rows[r][0]] = band;
    }
  }
  return spec;
}

void compare_csv(const std::string& golden, const std::string& candidate,
                 const BandSpec* bands = nullptr) {
  const auto want = pdsl::read_csv(golden);
  const auto got = pdsl::read_csv(candidate);
  ASSERT_FALSE(want.empty()) << golden;
  ASSERT_FALSE(got.empty()) << candidate;
  ASSERT_EQ(got[0], want[0]) << "CSV schema changed — regenerate the fixtures "
                                "if intentional";
  ASSERT_EQ(got.size(), want.size()) << "row count changed";
  const auto& header = want[0];
  for (std::size_t r = 1; r < want.size(); ++r) {
    ASSERT_EQ(got[r].size(), header.size()) << "row " << r;
    ASSERT_EQ(want[r].size(), header.size()) << "row " << r;
    for (std::size_t c = 0; c < header.size(); ++c) {
      if (is_timing_column(header[c])) continue;  // wall-clock, not numerics
      const Band* band = bands ? &bands->for_column(header[c]) : nullptr;
      if (band != nullptr && !band->exact()) {
        double w = 0.0, g = 0.0;
        try {
          w = std::stod(want[r][c]);
          g = std::stod(got[r][c]);
        } catch (const std::exception&) {
          FAIL() << "cell (" << r << ", " << header[c] << ") of " << golden
                 << " is banded but not numeric: want '" << want[r][c] << "' got '"
                 << got[r][c] << "'";
        }
        EXPECT_NEAR(g, w, band->abs + band->rel * std::abs(w))
            << "cell (" << r << ", " << header[c] << ") of " << golden
            << " outside band (abs=" << band->abs << ", rel=" << band->rel << ")";
      } else {
        EXPECT_EQ(got[r][c], want[r][c])
            << "cell (" << r << ", " << header[c] << ") of " << golden;
      }
    }
  }
}

}  // namespace

TEST(GoldenRegression, MetricsSeriesMatchFixtures) {
  for (const Scenario& s : scenarios()) {
    SCOPED_TRACE(s.name);
    const std::string golden = golden_path(s.name);
    ASSERT_TRUE(std::filesystem::exists(golden))
        << "missing fixture " << golden
        << " — run: test_golden_regression --regenerate";
    const std::string candidate = candidate_path(s.name);
    run_scenario_to_csv(s, candidate);
    compare_csv(golden, candidate);
    std::filesystem::remove(candidate);
  }
}

// Banded tier: the reassociating configurations against their fixtures, each
// cell within the per-column band from the checked-in <name>.band.csv spec.
TEST(GoldenRegression, BandedFixturesWithinSpec) {
  for (const Scenario& s : banded_scenarios()) {
    SCOPED_TRACE(s.name);
    const std::string golden = golden_path(s.name);
    ASSERT_TRUE(std::filesystem::exists(golden))
        << "missing fixture " << golden
        << " — run: test_golden_regression --regenerate";
    const std::string spec_path = band_path(s.name);
    ASSERT_TRUE(std::filesystem::exists(spec_path))
        << "banded fixture " << golden << " has no band spec " << spec_path
        << " — band specs are hand-written and checked in";
    const BandSpec spec = load_band_spec(spec_path);
    const std::string candidate = candidate_path(s.name);
    run_scenario_to_csv(s, candidate);
    compare_csv(golden, candidate, &spec);
    std::filesystem::remove(candidate);
  }
}

// Knobs that must change no trajectory, each re-run over the exact-tier
// fixtures and required to reproduce the SAME bytes:
//   * fleet.sparse only skips the spectral report;
//   * the naive kernels give the blocked GEMMs' bits. Their direct
//     convolution agrees with im2col only to rounding (see
//     Kernels.ConvIm2colAgreesWithDirectAcrossShapes), so this variant runs
//     the MLP fixtures only.
TEST(GoldenRegression, TrajectoryNeutralVariantsMatchSameFixtures) {
  struct Variant {
    const char* name;
    void (*apply)(ExperimentConfig&);
    bool mlp_only;
  };
  const Variant variants[] = {
      {"sparse", [](ExperimentConfig& c) { c.fleet.sparse = true; }, false},
      {"naive", [](ExperimentConfig& c) { c.backend = "naive"; }, true},
  };
  for (const Variant& v : variants) {
    for (Scenario s : scenarios()) {
      if (v.mlp_only && s.cfg.model != "mlp") continue;
      SCOPED_TRACE(s.name + " (" + v.name + ")");
      v.apply(s.cfg);
      const std::string golden = golden_path(s.name);
      ASSERT_TRUE(std::filesystem::exists(golden)) << "missing fixture " << golden;
      const std::string candidate = candidate_path(s.name + "_" + v.name);
      run_scenario_to_csv(s, candidate);
      compare_csv(golden, candidate);
      std::filesystem::remove(candidate);
    }
  }
}

namespace {

/// Rewrites the fixture of the scenario named `only`, or of every scenario
/// when `only` is empty; the banded tier's hand-written .band.csv specs are
/// left alone. An unknown name rewrites nothing and lists the valid ones.
int regenerate(const std::string& only) {
  const std::vector<Scenario> exact = scenarios();
  const std::vector<Scenario> banded = banded_scenarios();
  bool known = only.empty();
  for (const auto* tier : {&exact, &banded}) {
    for (const Scenario& s : *tier) known = known || s.name == only;
  }
  if (!known) {
    std::fprintf(stderr, "unknown fixture '%s'; valid names:\n", only.c_str());
    for (const auto* tier : {&exact, &banded}) {
      for (const Scenario& s : *tier) std::fprintf(stderr, "  %s\n", s.name.c_str());
    }
    return 2;
  }
  std::filesystem::create_directories(PDSL_GOLDEN_DIR);
  for (const Scenario& s : exact) {
    if (!only.empty() && s.name != only) continue;
    run_scenario_to_csv(s, golden_path(s.name));
    std::printf("regenerated %s\n", golden_path(s.name).c_str());
  }
  for (const Scenario& s : banded) {
    if (!only.empty() && s.name != only) continue;
    run_scenario_to_csv(s, golden_path(s.name));
    std::printf("regenerated %s (banded; spec %s untouched)\n", golden_path(s.name).c_str(),
                band_path(s.name).c_str());
  }
  return 0;
}

}  // namespace

// Custom main so the same binary can regenerate its fixtures; the object
// file's main wins over the one in the static gtest_main library.
//   --regenerate         rewrites every fixture
//   --regenerate <name>  rewrites the one named <name> (a file stem in
//                        tests/golden/)
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regenerate") {
      const bool named = i + 1 < argc && argv[i + 1][0] != '-';
      return regenerate(named ? argv[i + 1] : "");
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
