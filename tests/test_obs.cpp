// Observability subsystem (S-OBS): trace recorder + scoped spans, metrics
// registry instruments, phase timing accumulators and their renderings.
//
// The recorder and registry are process-global singletons, so every test
// that touches them clears/reset()s first; tests in this binary run
// sequentially (gtest default), so that is race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "sim/metrics.hpp"

using namespace pdsl;
using namespace pdsl::obs;

namespace {

/// Fresh global recorder state for a test; disables tracing on scope exit.
struct TraceFixture {
  TraceFixture() {
    TraceRecorder::global().clear();
    TraceRecorder::global().enable(true);
  }
  ~TraceFixture() {
    TraceRecorder::global().enable(false);
    TraceRecorder::global().clear();
  }
};

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceRecorder / ScopedSpan

TEST(Trace, DisabledSpanRecordsNothing) {
  TraceRecorder::global().clear();
  TraceRecorder::global().enable(false);
  {
    PDSL_SPAN("outer");
    PDSL_SPAN("inner", std::int64_t{3});
  }
  EXPECT_EQ(TraceRecorder::global().size(), 0u);
}

TEST(Trace, SpanNestingRecordsContainedIntervals) {
  TraceFixture fx;
  {
    ScopedSpan outer("outer");
    {
      ScopedSpan inner("inner", std::int64_t{7});
    }
  }
  auto v = TraceRecorder::global().to_json();
  const auto& events = v.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  // Spans close inner-first, so the inner event lands before the outer one.
  const auto& inner = events[0];
  const auto& outer = events[1];
  EXPECT_EQ(inner.at("name").as_string(), "inner");
  EXPECT_EQ(outer.at("name").as_string(), "outer");
  EXPECT_EQ(inner.at("ph").as_string(), "X");
  // Temporal containment: outer starts no later and ends no earlier.
  const double i0 = inner.at("ts").as_number();
  const double i1 = i0 + inner.at("dur").as_number();
  const double o0 = outer.at("ts").as_number();
  const double o1 = o0 + outer.at("dur").as_number();
  EXPECT_LE(o0, i0);
  EXPECT_GE(o1, i1);
  EXPECT_EQ(inner.at("args").at("id").as_int(), 7);
}

TEST(Trace, MidScopeEnableDoesNotAffectLiveSpans) {
  TraceRecorder::global().clear();
  TraceRecorder::global().enable(false);
  {
    ScopedSpan s("late");  // inert: tracing was off at construction
    TraceRecorder::global().enable(true);
  }
  EXPECT_EQ(TraceRecorder::global().size(), 0u);
  TraceRecorder::global().enable(false);
}

TEST(Trace, WrittenFileIsValidChromeTraceJson) {
  TraceFixture fx;
  { PDSL_SPAN("shapley_eval", std::int64_t{2}, "shapley"); }
  { PDSL_SPAN("gossip"); }
  const std::string path = temp_path("pdsl_test_trace.json");
  TraceRecorder::global().write(path);
  const auto v = json::parse_file(path);
  ASSERT_TRUE(v.contains("traceEvents"));
  EXPECT_EQ(v.at("displayTimeUnit").as_string(), "ms");
  const auto& events = v.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  for (const auto& ev : events) {
    EXPECT_EQ(ev.at("ph").as_string(), "X");
    EXPECT_GE(ev.at("dur").as_number(), 0.0);
    EXPECT_TRUE(ev.contains("pid"));
    EXPECT_TRUE(ev.contains("tid"));
  }
  EXPECT_EQ(events[0].at("cat").as_string(), "shapley");
  std::remove(path.c_str());
}

TEST(Trace, ThreadIdsAreStablePerThread) {
  const auto here = TraceRecorder::thread_id();
  EXPECT_EQ(TraceRecorder::thread_id(), here);
  std::uint32_t other = here;
  std::thread([&] { other = TraceRecorder::thread_id(); }).join();
  EXPECT_NE(other, here);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(Metrics, CounterGaugeBasics) {
  MetricsRegistry reg;
  reg.counter("c").add();
  reg.counter("c").add(4);
  EXPECT_EQ(reg.counter("c").value(), 5u);
  reg.gauge("g").set(2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 2.5);
  EXPECT_EQ(reg.size(), 2u);
  reg.reset();
  EXPECT_EQ(reg.counter("c").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
  EXPECT_EQ(reg.size(), 2u);  // registrations survive reset
}

TEST(Metrics, HistogramBucketing) {
  Histogram h({1.0, 2.0, 4.0});
  // One observation per region: <=1, <=2, <=4, overflow. Edges are inclusive.
  h.observe(0.5);
  h.observe(1.0);   // exactly on the first edge -> first bucket
  h.observe(3.0);
  h.observe(100.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 0u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);  // overflow
}

TEST(Metrics, HistogramBoundsFixedAtCreation) {
  MetricsRegistry reg;
  reg.histogram("h", {1.0, 2.0}).observe(0.5);
  // Second lookup with different bounds returns the existing instrument.
  auto& same = reg.histogram("h", {10.0});
  EXPECT_EQ(same.bounds().size(), 2u);
  EXPECT_EQ(same.count(), 1u);
}

TEST(Metrics, RegistryIsThreadSafe) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kIters; ++i) {
        reg.counter("shared").add();
        reg.histogram("lat", {0.5, 1.0}).observe(0.25);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.counter("shared").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.histogram("lat", {}).count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Metrics, JsonAndCsvSnapshots) {
  MetricsRegistry reg;
  reg.counter("net.msgs").add(3);
  reg.gauge("dp.sigma").set(0.7);
  reg.histogram("grad.l2", {1.0}).observe(0.5);
  const auto v = reg.to_json();
  EXPECT_EQ(v.at("counters").at("net.msgs").as_int(), 3);
  EXPECT_DOUBLE_EQ(v.at("gauges").at("dp.sigma").as_number(), 0.7);
  EXPECT_EQ(v.at("histograms").at("grad.l2").at("count").as_int(), 1);

  const std::string path = temp_path("pdsl_test_metrics.csv");
  reg.write_csv(path);
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, "kind,name,value,count,sum");
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, 3u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// PhaseTimings / PhaseScope

TEST(Phase, NamesAndAccessorsAgree) {
  EXPECT_STREQ(phase_name(Phase::kLocalGrad), "local_grad");
  EXPECT_STREQ(phase_name(Phase::kCrossGrad), "crossgrad");
  EXPECT_STREQ(phase_name(Phase::kShapley), "shapley");
  EXPECT_STREQ(phase_name(Phase::kAggregate), "aggregate");
  EXPECT_STREQ(phase_name(Phase::kGossip), "gossip");
  PhaseTimings t;
  t.at(Phase::kShapley) = 2.0;
  t.at(Phase::kGossip) = 1.0;
  EXPECT_DOUBLE_EQ(t.shapley_s, 2.0);
  EXPECT_DOUBLE_EQ(t.total(), 3.0);
  PhaseTimings u;
  u.at(Phase::kShapley) = 0.5;
  t += u;
  EXPECT_DOUBLE_EQ(t.shapley_s, 2.5);
}

TEST(Phase, ScopeAccumulatesEvenWithTracingDisabled) {
  TraceRecorder::global().enable(false);
  PhaseTimings t;
  {
    PhaseScope scope(t, Phase::kAggregate);
    std::atomic<int> sink{0};
    for (int i = 0; i < 1000; ++i) sink.fetch_add(i);
  }
  EXPECT_GT(t.aggregate_s, 0.0);
  EXPECT_DOUBLE_EQ(t.total(), t.aggregate_s);
}

TEST(Phase, FormatTableListsEveryPhaseAndTotal) {
  PhaseTimings t;
  t.local_grad_s = 0.5;
  t.shapley_s = 1.5;
  const std::string table = format_phase_table(t, 10);
  for (const char* name : {"local_grad", "crossgrad", "shapley", "aggregate", "gossip"}) {
    EXPECT_NE(table.find(name), std::string::npos) << name;
  }
  EXPECT_NE(table.find("total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// RunLedger (S-BENCH360 run-ledger export)

#include "core/experiment.hpp"
#include "obs/ledger.hpp"

namespace {

/// Read a JSONL file into one parsed value per line (skipping none; a blank
/// trailing line would be a format bug and fails the parse).
std::vector<json::Value> read_ledger(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<json::Value> events;
  std::string line;
  while (std::getline(in, line)) events.push_back(json::parse(line));
  return events;
}

/// Ledger file contents with the volatile event lines removed — the part of
/// the ledger covered by the bit-identity contract.
std::string stable_ledger_text(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    // json::Object dumps compactly ("key":value), so match without spaces.
    if (line.find("\"type\":\"phase_timing\"") != std::string::npos) continue;
    if (line.find("\"type\":\"run_env\"") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

core::ExperimentConfig ledger_config(const std::string& path, std::size_t threads) {
  core::ExperimentConfig cfg;
  cfg.algorithm = "pdsl";
  cfg.dataset = "gaussian";
  cfg.model = "logistic";
  cfg.topology = "ring";
  cfg.agents = 4;
  cfg.rounds = 3;
  cfg.train_samples = 240;
  cfg.test_samples = 60;
  cfg.validation_samples = 40;
  cfg.image = 3;
  cfg.hp.batch = 8;
  cfg.hp.gamma = 0.05;
  cfg.hp.shapley_permutations = 2;
  cfg.hp.validation_batch = 16;
  cfg.sigma_mode = "fixed";
  cfg.hp.sigma = 0.05;
  cfg.metrics.test_subsample = 40;
  cfg.metrics.eval_every = 3;
  cfg.threads = threads;
  cfg.ledger_out = path;
  return cfg;
}

}  // namespace

TEST(RunLedger, DisabledLedgerIsANoOp) {
  RunLedger ledger;
  EXPECT_FALSE(ledger.enabled());
  json::Object fields;
  fields["x"] = 1;
  ledger.event("anything", std::move(fields));  // must not throw or write
  EXPECT_EQ(ledger.events_written(), 0u);
  ledger.close();
}

TEST(RunLedger, WritesValidJsonlWithStrictSeqOrdering) {
  const std::string path = temp_path("pdsl_ledger_unit.jsonl");
  {
    RunLedger ledger;
    ledger.open(path);
    ASSERT_TRUE(ledger.enabled());
    for (int i = 0; i < 5; ++i) {
      json::Object fields;
      fields["round"] = i;
      ledger.event(i == 0 ? "run_start" : "round", std::move(fields));
    }
    EXPECT_EQ(ledger.events_written(), 5u);
    ledger.close();
    EXPECT_FALSE(ledger.enabled());
  }
  const auto events = read_ledger(path);
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(events[i].is_object());
    EXPECT_EQ(events[i].at("seq").as_int(), static_cast<std::int64_t>(i));
    ASSERT_TRUE(events[i].contains("type"));
  }
  EXPECT_EQ(events.front().at("type").as_string(), "run_start");
  std::remove(path.c_str());
}

TEST(RunLedger, EmptyRunProducesAnEmptyFileNotAMissingOne) {
  const std::string path = temp_path("pdsl_ledger_empty.jsonl");
  {
    RunLedger ledger;
    ledger.open(path);
    ledger.close();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  EXPECT_FALSE(std::getline(in, line)) << "expected zero events, got: " << line;
  std::remove(path.c_str());
}

TEST(RunLedger, ExperimentLedgerHasTheContractedEventSequence) {
  const std::string path = temp_path("pdsl_ledger_run.jsonl");
  const auto res = core::run_experiment(ledger_config(path, 1));
  const auto events = read_ledger(path);
  ASSERT_GE(events.size(), 4u);

  // Bookends: run_start first (after which run_env), run_end last.
  EXPECT_EQ(events.front().at("type").as_string(), "run_start");
  EXPECT_EQ(events[1].at("type").as_string(), RunLedger::kEnvEvent);
  EXPECT_EQ(events.back().at("type").as_string(), "run_end");

  // Per-round events carry the DP spend, Shapley vectors and phase timings.
  // `round` holds exactly the deterministic columns of the per-round record,
  // `phase_timing` one *_ms cell per phase, each plus the envelope.
  const auto keys_of = [](const json::Value& ev) {
    std::set<std::string> keys;
    for (const auto& [key, value] : ev.as_object()) keys.insert(key);
    return keys;
  };
  std::set<std::string> round_keys{"seq", "type"};
  sim::for_each_column([&](const sim::MetricColumn& c) {
    if (!c.wall_clock) round_keys.insert(c.name);
  });
  std::set<std::string> timing_keys{"seq", "type", "round", "round_ms", "metrics_eval_ms"};
  for (const Phase p : kPhases) timing_keys.insert(std::string(phase_name(p)) + "_ms");
  std::size_t rounds = 0, shapley = 0, timing = 0;
  double prev_eps = 0.0;
  for (const auto& ev : events) {
    const std::string type = ev.at("type").as_string();
    if (type == "round") {
      ++rounds;
      EXPECT_EQ(keys_of(ev), round_keys);
      const double eps = ev.at("epsilon_spent").as_number();
      EXPECT_GE(eps, prev_eps) << "epsilon_spent must be non-decreasing";
      prev_eps = eps;
    } else if (type == "shapley") {
      ++shapley;
      EXPECT_TRUE(ev.contains("pi"));
      EXPECT_TRUE(ev.contains("phi"));
    } else if (type == RunLedger::kTimingEvent) {
      ++timing;
      EXPECT_EQ(keys_of(ev), timing_keys);
      // The metrics evaluation after run_round is timed next to its phases.
      EXPECT_GE(ev.at("metrics_eval_ms").as_number(), 0.0);
    }
  }
  EXPECT_EQ(rounds, 3u);
  EXPECT_EQ(shapley, 3u);
  EXPECT_EQ(timing, 3u);
  EXPECT_GT(prev_eps, 0.0);
  EXPECT_DOUBLE_EQ(events.back().at("epsilon_spent").as_number(), res.epsilon_spent);
  std::remove(path.c_str());
}

TEST(RunLedger, BitIdenticalAcrossThreadWidthsModuloVolatileEvents) {
  const std::string p1 = temp_path("pdsl_ledger_t1.jsonl");
  const std::string p4 = temp_path("pdsl_ledger_t4.jsonl");
  core::run_experiment(ledger_config(p1, 1));
  core::run_experiment(ledger_config(p4, 4));
  const std::string a = stable_ledger_text(p1);
  const std::string b = stable_ledger_text(p4);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "ledger must be bit-identical across --threads widths "
                     "once phase_timing/run_env lines are stripped";
  std::remove(p1.c_str());
  std::remove(p4.c_str());
}
