// Simulation runtime: network semantics (edges, mailboxes, fault injection),
// the local worker gradient oracle, evaluation helpers and metrics.

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "nn/model_zoo.hpp"
#include "runtime/parallel_for.hpp"
#include "sim/evaluate.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/worker.hpp"

using namespace pdsl;
using namespace pdsl::sim;

namespace {
graph::Graph ring(std::size_t n) { return graph::Graph::ring(n); }
}  // namespace

TEST(Network, DeliversFifoPerChannel) {
  const auto topo = ring(4);
  Network net(topo);
  net.send(0, 1, "a", {1.0f});
  net.send(0, 1, "a", {2.0f});
  auto first = net.receive(1, 0, "a");
  auto second = net.receive(1, 0, "a");
  ASSERT_TRUE(first && second);
  EXPECT_FLOAT_EQ((*first)[0], 1.0f);
  EXPECT_FLOAT_EQ((*second)[0], 2.0f);
  EXPECT_FALSE(net.receive(1, 0, "a").has_value());
}

TEST(Network, TagsAreIsolated) {
  Network net(ring(4));
  net.send(0, 1, "x", {1.0f});
  EXPECT_FALSE(net.receive(1, 0, "y").has_value());
  EXPECT_TRUE(net.receive(1, 0, "x").has_value());
}

TEST(Network, EnforcesTopology) {
  Network net(ring(5));
  EXPECT_THROW(net.send(0, 2, "a", {1.0f}), std::invalid_argument);  // not an edge
  EXPECT_THROW(net.send(0, 9, "a", {1.0f}), std::out_of_range);
  EXPECT_NO_THROW(net.send(0, 1, "a", {1.0f}));
  EXPECT_NO_THROW(net.send(0, 0, "a", {1.0f}));  // self allowed by default
}

TEST(Network, CountsMessagesAndBytes) {
  Network net(ring(4));
  net.send(0, 1, "a", std::vector<float>(10, 0.0f));
  net.send(1, 2, "a", std::vector<float>(5, 0.0f));
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.bytes_sent(), 15u * sizeof(float));
}

TEST(Network, DropInjectionLosesRoughlyTheRequestedFraction) {
  Network::Options opts;
  opts.faults.drop_prob = 0.3;
  opts.seed = 5;
  Network net(ring(4), opts);
  int delivered = 0;
  const int total = 2000;
  for (int i = 0; i < total; ++i) {
    if (net.send(0, 1, "a", {1.0f})) ++delivered;
  }
  EXPECT_EQ(net.messages_dropped(), static_cast<std::size_t>(total - delivered));
  EXPECT_NEAR(static_cast<double>(delivered) / total, 0.7, 0.05);
}

TEST(Network, SelfSendsAreNeverDropped) {
  Network::Options opts;
  opts.faults.drop_prob = 0.9;
  Network net(ring(4), opts);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(net.send(2, 2, "s", {1.0f}));
}

TEST(Network, ClearReportsLeftovers) {
  Network net(ring(4));
  net.send(0, 1, "a", {1.0f});
  net.send(1, 2, "b", {1.0f});
  EXPECT_EQ(net.clear(), 2u);
  EXPECT_FALSE(net.has_message(1, 0, "a"));
}

namespace {

// What one run of concurrent traffic leaves observable: every payload in the
// order receivers read it (matured late messages first each round, then the
// mailboxes in (dst, src, tag) order), and every counter.
struct TrafficTrace {
  std::vector<std::vector<float>> received;
  std::vector<std::size_t> counters;
};

TrafficTrace run_concurrent_traffic(std::size_t threads) {
  runtime::set_global_threads(threads);
  const auto topo = graph::Graph::regular(12, 4);
  Network::Options opts;
  opts.seed = 11;
  opts.faults.drop_prob = 0.05;
  opts.channel.corrupt_prob = 0.3;
  opts.channel.duplicate_prob = 0.25;
  opts.channel.reorder_prob = 0.25;
  opts.channel.max_retries = 2;  // the third attempt backs off one round
  Network net(topo, opts);
  const std::vector<std::string> kinds = {"model", "xgrad", "mom"};
  TrafficTrace trace;
  for (std::size_t t = 1; t <= 4; ++t) {
    for (auto& late : net.begin_round(t)) trace.received.push_back(std::move(late.payload));
    const auto tag = [t](const std::string& kind) { return kind + "@" + std::to_string(t); };
    // Every agent sends only on its own out-edges, as every round phase does.
    runtime::parallel_for(0, topo.size(), 1, [&](std::size_t i) {
      for (const auto& kind : kinds) {
        for (const std::size_t j : topo.neighbors(i)) {
          for (std::size_t k = 0; k < 3; ++k) {
            std::vector<float> payload(40, 0.5f);
            payload[0] = static_cast<float>(i);
            payload[1] = static_cast<float>(j);
            payload[2] = static_cast<float>(k);
            payload[3] = static_cast<float>(t);
            net.send(i, j, tag(kind), std::move(payload));
          }
        }
      }
    });
    for (std::size_t dst = 0; dst < topo.size(); ++dst) {
      for (const std::size_t src : topo.neighbors(dst)) {
        for (const auto& kind : kinds) {
          while (auto p = net.receive(dst, src, tag(kind))) trace.received.push_back(std::move(*p));
        }
      }
    }
    EXPECT_EQ(net.clear(), 0u);
  }
  trace.counters = {net.messages_sent(),   net.messages_dropped(),   net.messages_delayed(),
                    net.in_flight(),       net.bytes_sent(),         net.wire_messages(),
                    net.wire_bytes(),      net.retransmits(),        net.corruptions_detected(),
                    net.retry_exhausted(), net.duplicates_dropped(), net.reorders()};
  runtime::set_global_threads(1);
  return trace;
}

}  // namespace

TEST(Network, ConcurrentLossyTrafficIsIdenticalAtEveryWidth) {
  // Senders run the encode/corrupt/retransmit loop outside the network's
  // lock; with one sender per directed edge per phase, mailbox order and
  // every counter must not depend on how the senders interleave.
  const TrafficTrace serial = run_concurrent_traffic(1);
  const TrafficTrace wide = run_concurrent_traffic(4);
  EXPECT_EQ(wide.received, serial.received);
  EXPECT_EQ(wide.counters, serial.counters);
  // The plan exercised every impairment, the recovery identity holds, and
  // the backed-off retransmissions reached receivers through begin_round().
  ASSERT_EQ(serial.counters.size(), 12u);
  EXPECT_GT(serial.counters[1], 0u);   // dropped
  EXPECT_GT(serial.counters[2], 0u);   // delayed
  EXPECT_GT(serial.counters[7], 0u);   // retransmits
  EXPECT_GT(serial.counters[9], 0u);   // retry_exhausted
  EXPECT_GT(serial.counters[10], 0u);  // duplicates_dropped
  EXPECT_GT(serial.counters[11], 0u);  // reorders
  EXPECT_EQ(serial.counters[8], serial.counters[7] + serial.counters[9]);
}

TEST(Worker, GradientMatchesDirectModelComputation) {
  const auto ds = data::make_gaussian_mixture(60, 3, 4, 2.0, 0.5, 1);
  Rng rng(2);
  nn::Model model = nn::make_logistic(4, 3);
  model.init(rng);
  std::vector<std::size_t> shard = {0, 1, 2, 3, 4, 5, 6, 7};
  LocalWorker worker(model, ds, shard, 4, Rng(3));
  worker.draw_batch();
  const auto params = model.flat_params();
  const auto g1 = worker.gradient(params);
  const auto g2 = worker.gradient(params);  // same batch -> identical gradient
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(g1.size(), model.num_params());

  worker.draw_batch();  // new batch -> (almost surely) different gradient
  const auto g3 = worker.gradient(params);
  EXPECT_NE(g1, g3);
}

TEST(Worker, RequiresBatchBeforeGradient) {
  const auto ds = data::make_gaussian_mixture(20, 2, 3, 1.0, 0.5, 4);
  Rng rng(5);
  nn::Model model = nn::make_logistic(3, 2);
  model.init(rng);
  LocalWorker worker(model, ds, {0, 1, 2}, 2, Rng(6));
  EXPECT_THROW(worker.gradient(model.flat_params()), std::logic_error);
}

TEST(Worker, EvalLossIsDeterministic) {
  const auto ds = data::make_gaussian_mixture(100, 4, 3, 2.0, 0.3, 7);
  Rng rng(8);
  nn::Model model = nn::make_logistic(3, 4);
  model.init(rng);
  std::vector<std::size_t> shard(30);
  for (std::size_t i = 0; i < 30; ++i) shard[i] = i;
  LocalWorker worker(model, ds, shard, 8, Rng(9));
  const auto params = model.flat_params();
  EXPECT_DOUBLE_EQ(worker.local_eval_loss(params), worker.local_eval_loss(params));
}

TEST(Evaluate, FullVsSubsample) {
  const auto ds = data::make_gaussian_mixture(200, 4, 3, 2.0, 0.3, 10);
  Rng rng(11);
  nn::Model ws = nn::make_logistic(3, 4);
  ws.init(rng);
  const auto params = ws.flat_params();
  const auto full = evaluate(ws, params, ds);
  EXPECT_EQ(full.samples, 200u);
  const auto sub = evaluate(ws, params, ds, 50);
  EXPECT_EQ(sub.samples, 50u);
  EXPECT_GE(full.accuracy, 0.0);
  EXPECT_LE(full.accuracy, 1.0);
}

namespace {
/// evaluate() scores each batch from one forward pass; its loss and accuracy
/// must equal what separate Model::loss and Model::accuracy calls give.
void expect_fused_eval_matches_separate(nn::Model ws, const data::Dataset& ds,
                                        std::size_t batch) {
  Rng rng(14);
  ws.init(rng);
  const auto params = ws.flat_params();
  const auto fused = evaluate(ws, params, ds, 0, batch);
  double loss = 0.0, hits = 0.0;
  for (std::size_t off = 0; off < ds.size(); off += batch) {
    const std::size_t take = std::min(batch, ds.size() - off);
    std::vector<std::size_t> idx(take);
    for (std::size_t k = 0; k < take; ++k) idx[k] = off + k;
    const Tensor x = ds.batch_features(idx);
    const auto y = ds.batch_labels(idx);
    loss += ws.loss(x, y) * static_cast<double>(take);
    hits += ws.accuracy(x, y) * static_cast<double>(take);
  }
  EXPECT_EQ(fused.samples, ds.size());
  EXPECT_EQ(fused.loss, loss / static_cast<double>(ds.size()));
  EXPECT_EQ(fused.accuracy, hits / static_cast<double>(ds.size()));
}
}  // namespace

TEST(Evaluate, OneForwardPassMatchesSeparateLossAndAccuracyMlp) {
  const auto ds = data::make_synthetic_images(data::mnist_like_spec(70, 8, 15));
  expect_fused_eval_matches_separate(nn::make_mlp(64, 16, 10), ds, 32);
}

TEST(Evaluate, OneForwardPassMatchesSeparateLossAndAccuracyCnn) {
  const auto ds = data::make_synthetic_images(data::cifar_like_spec(45, 8, 16));
  expect_fused_eval_matches_separate(nn::make_cifar_cnn(8, 3, 10), ds, 16);
}

TEST(Evaluate, FixedBatchScoring) {
  const auto ds = data::make_gaussian_mixture(50, 2, 3, 3.0, 0.2, 12);
  Rng rng(13);
  nn::Model ws = nn::make_logistic(3, 2);
  ws.init(rng);
  const auto batch = FixedBatch::from(ds, {0, 1, 2, 3, 4});
  const auto params = ws.flat_params();
  const double acc = accuracy_on(ws, params, batch);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
  EXPECT_GT(loss_on(ws, params, batch), 0.0);
}

TEST(Metrics, ConsensusDistance) {
  const std::vector<std::vector<float>> same = {{1.0f, 0.0f}, {1.0f, 0.0f}};
  EXPECT_DOUBLE_EQ(consensus_distance(same), 0.0);
  // Two models at distance 2 from each other: each is 1 from the mean.
  const std::vector<std::vector<float>> split = {{1.0f, 0.0f}, {-1.0f, 0.0f}};
  EXPECT_NEAR(consensus_distance(split), 1.0, 1e-6);
}

TEST(Metrics, AverageModel) {
  const std::vector<std::vector<float>> models = {{2.0f, 0.0f}, {0.0f, 2.0f}};
  const auto avg = average_model(models);
  EXPECT_FLOAT_EQ(avg[0], 1.0f);
  EXPECT_FLOAT_EQ(avg[1], 1.0f);
  EXPECT_THROW(average_model(std::vector<std::vector<float>>{}), std::invalid_argument);
}

TEST(Metrics, CsvRoundTrip) {
  const std::string path = "/tmp/pdsl_metrics_test.csv";
  std::vector<RoundMetrics> series(2);
  series[0].round = 1;
  series[0].avg_loss = 2.5;
  series[1].round = 2;
  series[1].test_accuracy = 0.75;
  write_metrics_csv(path, "unit", series);
  const auto rows = pdsl::read_csv(path);
  ASSERT_EQ(rows.size(), 3u);  // header + 2
  EXPECT_EQ(rows[0][0], "run");
  EXPECT_EQ(rows[1][1], "1");
  EXPECT_EQ(rows[2][0], "unit");
}
