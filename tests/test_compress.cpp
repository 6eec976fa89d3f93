// Communication compression: TopK / quantization semantics, wire byte
// accounting, factory parsing, and the Network channel integration.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/vec_math.hpp"
#include "compress/compressor.hpp"
#include "sim/network.hpp"

using namespace pdsl;
using namespace pdsl::compress;

TEST(TopK, KeepsLargestMagnitudes) {
  TopKCompressor c(0.5);
  const auto out = c.apply({5.0f, -0.1f, -7.0f, 0.2f});
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], -7.0f);
  EXPECT_FLOAT_EQ(out[3], 0.0f);
}

TEST(TopK, FullFractionIsIdentity) {
  TopKCompressor c(1.0);
  const std::vector<float> v = {1.0f, 2.0f, 3.0f};
  EXPECT_EQ(c.apply(v), v);
}

TEST(TopK, KeepCountAndWireBytes) {
  TopKCompressor c(0.1);
  EXPECT_EQ(c.keep_count(100), 10u);
  EXPECT_EQ(c.keep_count(5), 1u);  // at least one survives
  EXPECT_EQ(c.wire_bytes(std::vector<float>(100)), 10u * 8u);
}

TEST(TopK, PreservesEnergyOrdering) {
  // Top-k keeps at least k/n of the L2 energy (it keeps the largest coords).
  Rng rng(1);
  std::vector<float> v(200);
  rng.fill_normal(v, 0.0, 1.0);
  TopKCompressor c(0.25);
  const auto out = c.apply(v);
  EXPECT_GT(l2_norm(out), 0.25 * l2_norm(v));
  EXPECT_LE(l2_norm(out), l2_norm(v) + 1e-6);
}

TEST(TopK, RejectsBadFraction) {
  EXPECT_THROW(TopKCompressor(0.0), std::invalid_argument);
  EXPECT_THROW(TopKCompressor(1.5), std::invalid_argument);
}

TEST(Quantize, ErrorBoundedByHalfStep) {
  Rng rng(2);
  std::vector<float> v(500);
  rng.fill_normal(v, 0.0, 2.0);
  float mx = 0.0f;
  for (float x : v) mx = std::max(mx, std::abs(x));
  QuantizeCompressor c(8);
  const auto out = c.apply(v);
  const double step = mx / (127.5);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_LE(std::abs(out[i] - v[i]), step / 2 + 1e-6);
  }
}

TEST(Quantize, FewerBitsMoreError) {
  Rng rng(3);
  std::vector<float> v(500);
  rng.fill_normal(v, 0.0, 1.0);
  auto err = [&](unsigned bits) {
    QuantizeCompressor c(bits);
    const auto out = c.apply(v);
    return l2_distance(out, v);
  };
  EXPECT_GT(err(2), err(4));
  EXPECT_GT(err(4), err(8));
}

TEST(Quantize, WireBytes) {
  QuantizeCompressor c4(4);
  EXPECT_EQ(c4.wire_bytes(std::vector<float>(100)), 50u + 4u);  // 4 bits each + scale
  QuantizeCompressor c8(8);
  EXPECT_EQ(c8.wire_bytes(std::vector<float>(100)), 100u + 4u);
}

TEST(Quantize, ZeroVectorUntouched) {
  QuantizeCompressor c(4);
  const std::vector<float> z(10, 0.0f);
  EXPECT_EQ(c.apply(z), z);
}

TEST(Quantize, RejectsBadBits) {
  EXPECT_THROW(QuantizeCompressor(0), std::invalid_argument);
  EXPECT_THROW(QuantizeCompressor(17), std::invalid_argument);
}

TEST(Factory, ParsesSpecs) {
  EXPECT_EQ(make_compressor("none")->name(), "identity");
  EXPECT_EQ(make_compressor("")->name(), "identity");
  EXPECT_EQ(make_compressor("quant:8")->name(), "quant:8");
  EXPECT_EQ(make_compressor("topk:0.1")->name().substr(0, 5), "topk:");
  EXPECT_THROW(make_compressor("gzip"), std::invalid_argument);
  EXPECT_THROW(make_compressor("topk"), std::invalid_argument);
}

TEST(NetworkChannel, CompressorIsAppliedAndBytesShrink) {
  const auto topo = graph::Graph::ring(4);
  TopKCompressor comp(0.1);
  sim::Network::Options opts;
  opts.compressor = &comp;
  sim::Network net(topo, opts);

  std::vector<float> payload(100, 1.0f);
  payload[7] = 50.0f;  // the clear winner coordinate
  net.send(0, 1, "t", payload);
  const auto got = net.receive(1, 0, "t");
  ASSERT_TRUE(got.has_value());
  EXPECT_FLOAT_EQ((*got)[7], 50.0f);
  std::size_t nonzero = 0;
  for (float v : *got) nonzero += (v != 0.0f);
  EXPECT_EQ(nonzero, 10u);
  EXPECT_EQ(net.counters().bytes, 10u * 8u);  // wire bytes, not dense bytes
}

TEST(NetworkChannel, SelfSendsBypassCompression) {
  const auto topo = graph::Graph::ring(4);
  TopKCompressor comp(0.01);
  sim::Network::Options opts;
  opts.compressor = &comp;
  sim::Network net(topo, opts);
  const std::vector<float> payload(100, 1.0f);
  net.send(2, 2, "s", payload);
  EXPECT_EQ(*net.receive(2, 2, "s"), payload);
}
