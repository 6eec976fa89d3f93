// S-BENCH360 envelope contract: every BENCH_*.json checked in at the repo
// root must parse and follow the schema-v1 envelope emitted by
// bench/bench_util (and merged by tools/run_benchmarks.py). This keeps the
// checked-in artifacts honest — a bench that drifts from the schema breaks
// here before the python driver ever sees it.
//
// The same binary pins the bench harness's scale rules (bench_util's
// scale_params and make_config).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"

using namespace pdsl;

namespace {

std::vector<std::filesystem::path> checked_in_envelopes() {
  std::vector<std::filesystem::path> out;
  const std::filesystem::path root(PDSL_SOURCE_DIR);
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("BENCH_", 0) == 0 &&
        entry.path().extension() == ".json") {
      out.push_back(entry.path());
    }
  }
  return out;
}

void check_metric(const json::Value& m, const std::string& where) {
  ASSERT_TRUE(m.is_object()) << where;
  ASSERT_TRUE(m.contains("unit") && m.at("unit").is_string()) << where;
  for (const std::string key : {"median", "min", "max"}) {
    ASSERT_TRUE(m.contains(key) && m.at(key).is_number()) << where << "." << key;
  }
  ASSERT_TRUE(m.contains("samples") && m.at("samples").is_array()) << where;
  const auto& samples = m.at("samples").as_array();
  ASSERT_FALSE(samples.empty()) << where << ": empty samples";
  double lo = samples.front().as_number();
  double hi = lo;
  for (const auto& s : samples) {
    ASSERT_TRUE(s.is_number()) << where << ": non-numeric sample";
    lo = std::min(lo, s.as_number());
    hi = std::max(hi, s.as_number());
  }
  EXPECT_DOUBLE_EQ(m.at("min").as_number(), lo) << where;
  EXPECT_DOUBLE_EQ(m.at("max").as_number(), hi) << where;
  EXPECT_GE(m.at("median").as_number(), lo) << where;
  EXPECT_LE(m.at("median").as_number(), hi) << where;
}

}  // namespace

TEST(BenchSchema, RepoRootHasEnvelopes) {
  // The quick subset (threads, kernels, byzantine) is always checked in.
  std::set<std::string> names;
  for (const auto& p : checked_in_envelopes()) names.insert(p.filename().string());
  EXPECT_TRUE(names.count("BENCH_threads.json"));
  EXPECT_TRUE(names.count("BENCH_kernels.json"));
  EXPECT_TRUE(names.count("BENCH_byzantine.json"));
}

TEST(BenchSchema, EveryCheckedInEnvelopeIsSchemaV1) {
  const std::set<std::string> kinds = {"figure", "table",  "ablation",   "scaling",
                                       "micro",  "attack", "calibration"};
  for (const auto& path : checked_in_envelopes()) {
    SCOPED_TRACE(path.filename().string());
    json::Value doc;
    ASSERT_NO_THROW(doc = json::parse_file(path.string()));
    ASSERT_TRUE(doc.is_object());

    ASSERT_TRUE(doc.contains("schema_version"));
    EXPECT_EQ(doc.at("schema_version").as_int(), 1);
    ASSERT_TRUE(doc.contains("bench") && doc.at("bench").is_string());
    ASSERT_TRUE(doc.contains("kind") && doc.at("kind").is_string());
    EXPECT_TRUE(kinds.count(doc.at("kind").as_string()))
        << "unknown kind " << doc.at("kind").as_string();
    ASSERT_TRUE(doc.contains("git_rev") && doc.at("git_rev").is_string());
    EXPECT_FALSE(doc.at("git_rev").as_string().empty());

    ASSERT_TRUE(doc.contains("build") && doc.at("build").is_object());
    const auto& build = doc.at("build");
    EXPECT_TRUE(build.contains("compiler") && build.at("compiler").is_string());
    EXPECT_TRUE(build.contains("compiler_version") &&
                build.at("compiler_version").is_string());
    EXPECT_TRUE(build.contains("build_type") && build.at("build_type").is_string());
    EXPECT_TRUE(build.contains("pdsl_native") && build.at("pdsl_native").is_bool());

    ASSERT_TRUE(doc.contains("host") && doc.at("host").is_object());
    EXPECT_TRUE(doc.at("host").contains("hardware_concurrency"));
    EXPECT_GE(doc.at("host").at("hardware_concurrency").as_int(), 1);
    EXPECT_TRUE(doc.at("host").contains("kernels_isa") &&
                doc.at("host").at("kernels_isa").is_string());

    ASSERT_TRUE(doc.contains("repeats") && doc.at("repeats").is_number());
    EXPECT_GE(doc.at("repeats").as_int(), 1);

    ASSERT_TRUE(doc.contains("config") && doc.at("config").is_object());
    ASSERT_TRUE(doc.contains("faults") && doc.at("faults").is_object());
    ASSERT_TRUE(doc.contains("adversary") && doc.at("adversary").is_object());
    ASSERT_TRUE(doc.contains("runs") && doc.at("runs").is_array());

    ASSERT_TRUE(doc.contains("metrics") && doc.at("metrics").is_object());
    const auto& metrics = doc.at("metrics").as_object();
    EXPECT_FALSE(metrics.empty());
    for (const auto& [name, m] : metrics) check_metric(m, "metrics." + name);

    // Driver-merged envelopes concatenate one process worth of samples per
    // repeat, so each metric's sample count is a multiple of the repeat
    // count (a sweep bench may sample the same metric several times per
    // process, e.g. one per attacker fraction).
    const auto repeats = doc.at("repeats").as_int();
    for (const auto& [name, m] : metrics) {
      const auto n = static_cast<std::int64_t>(m.at("samples").as_array().size());
      EXPECT_EQ(n % repeats, 0) << "metrics." << name << ": " << n
                                << " samples not a multiple of repeats=" << repeats;
    }

    if (doc.contains("acceptance")) {
      ASSERT_TRUE(doc.at("acceptance").is_object());
      EXPECT_TRUE(doc.at("acceptance").contains("passed") &&
                  doc.at("acceptance").at("passed").is_bool());
    }
  }
}

// --scale paper trains at the paper's learning rates (Sec. VI-A: 1e-2 for the
// CIFAR CNN, 1e-3 for the MNIST one); the reduced scales keep 0.05, and
// --gamma overrides every scale.
TEST(BenchHarness, PaperScaleUsesThePapersLearningRates) {
  const std::pair<const char*, double> paper[] = {{"cifar_like", 1e-2}, {"mnist_like", 1e-3}};
  for (const auto& [dataset, gamma] : paper) {
    bench::SweepSpec spec;
    spec.dataset = dataset;
    const bench::ScaleParams sp = bench::scale_params("paper", dataset);
    EXPECT_EQ(sp.gamma, gamma) << dataset;
    EXPECT_EQ(bench::make_config(spec, sp, 10, 0.5, 1).hp.gamma, gamma) << dataset;
    spec.gamma = 0.2;
    EXPECT_EQ(bench::make_config(spec, sp, 10, 0.5, 1).hp.gamma, 0.2) << dataset;
  }
  for (const char* scale : {"quick", "medium"}) {
    for (const char* dataset : {"cifar_like", "mnist_like"}) {
      bench::SweepSpec spec;
      spec.dataset = dataset;
      const bench::ScaleParams sp = bench::scale_params(scale, dataset);
      EXPECT_EQ(bench::make_config(spec, sp, 6, 0.5, 1).hp.gamma, 0.05) << scale << " " << dataset;
      spec.gamma = 0.2;
      EXPECT_EQ(bench::make_config(spec, sp, 6, 0.5, 1).hp.gamma, 0.2) << scale << " " << dataset;
    }
  }
}
