// Dataset, synthetic generators, Dirichlet partitioner and samplers.

#include <gtest/gtest.h>

#include <set>

#include "data/partition.hpp"
#include "data/sampler.hpp"
#include "data/synthetic.hpp"

using namespace pdsl;
using namespace pdsl::data;

TEST(Dataset, BasicAccessors) {
  Dataset ds(Shape{2, 1, 1}, {1, 2, 3, 4, 5, 6}, {0, 1, 2});
  EXPECT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds.sample_numel(), 2u);
  EXPECT_EQ(ds.num_classes(), 3u);
  EXPECT_FLOAT_EQ(ds.sample(1)[0], 3.0f);
  EXPECT_THROW((void)ds.sample(3), std::out_of_range);
}

TEST(Dataset, BatchMaterialization) {
  Dataset ds(Shape{2, 1, 1}, {1, 2, 3, 4, 5, 6}, {0, 1, 0});
  const Tensor b = ds.batch_features({2, 0});
  EXPECT_EQ(b.shape(), (Shape{2, 2, 1, 1}));
  EXPECT_FLOAT_EQ(b[0], 5.0f);
  EXPECT_FLOAT_EQ(b[2], 1.0f);
  EXPECT_EQ(ds.batch_labels({2, 0}), (std::vector<int>{0, 0}));
}

TEST(Dataset, Subset) {
  Dataset ds(Shape{1, 1, 1}, {0, 1, 2, 3}, {0, 1, 1, 1});
  const Dataset sub = ds.subset({1, 3});
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.label(0), 1);
  EXPECT_FLOAT_EQ(*sub.sample(1), 3.0f);
}

TEST(Dataset, SplitOffIsAPartition) {
  const Dataset ds = make_gaussian_mixture(100, 4, 3, 1.0, 0.5, 1);
  Rng rng(2);
  auto [rest, held] = split_off(ds, 30, rng);
  EXPECT_EQ(rest.size(), 70u);
  EXPECT_EQ(held.size(), 30u);
  EXPECT_THROW(split_off(ds, 101, rng), std::invalid_argument);
}

TEST(Synthetic, ImagesHaveRequestedShapeAndLabels) {
  SyntheticSpec spec;
  spec.num_samples = 120;
  spec.classes = 10;
  spec.image = 8;
  spec.channels = 1;
  const Dataset ds = make_synthetic_images(spec);
  EXPECT_EQ(ds.size(), 120u);
  EXPECT_EQ(ds.sample_shape(), (Shape{1, 8, 8}));
  EXPECT_EQ(ds.num_classes(), 10u);
}

TEST(Synthetic, DeterministicInSeed) {
  const auto a = make_synthetic_images(mnist_like_spec(50, 8, 3));
  const auto b = make_synthetic_images(mnist_like_spec(50, 8, 3));
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
    EXPECT_FLOAT_EQ(a.sample(i)[0], b.sample(i)[0]);
  }
}

TEST(Synthetic, ClassesAreSeparable) {
  // Same-class samples must be closer than cross-class samples on average,
  // otherwise nothing downstream can learn.
  const auto ds = make_synthetic_images(mnist_like_spec(200, 10, 5));
  double intra = 0.0, inter = 0.0;
  std::size_t n_intra = 0, n_inter = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    for (std::size_t j = i + 1; j < 60; ++j) {
      double d2 = 0.0;
      for (std::size_t k = 0; k < ds.sample_numel(); ++k) {
        const double diff = ds.sample(i)[k] - ds.sample(j)[k];
        d2 += diff * diff;
      }
      if (ds.label(i) == ds.label(j)) {
        intra += d2;
        ++n_intra;
      } else {
        inter += d2;
        ++n_inter;
      }
    }
  }
  ASSERT_GT(n_intra, 0u);
  ASSERT_GT(n_inter, 0u);
  EXPECT_LT(intra / n_intra, 0.8 * inter / n_inter);
}

TEST(Synthetic, CifarLikeIsThreeChannel) {
  const auto ds = make_synthetic_images(cifar_like_spec(20, 8, 1));
  EXPECT_EQ(ds.sample_shape(), (Shape{3, 8, 8}));
}

TEST(Partition, IidCoversAllSamplesOnce) {
  const auto ds = make_gaussian_mixture(101, 5, 2, 1.0, 0.5, 3);
  Rng rng(4);
  const auto parts = iid_partition(ds, 4, rng);
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (const auto& p : parts) {
    total += p.size();
    seen.insert(p.begin(), p.end());
  }
  EXPECT_EQ(total, 101u);
  EXPECT_EQ(seen.size(), 101u);
}

TEST(Partition, DirichletIsAPartition) {
  const auto ds = make_synthetic_images(mnist_like_spec(400, 6, 5));
  Rng rng(5);
  PartitionOptions opts;
  opts.mu = 0.25;
  const auto parts = dirichlet_partition(ds, 8, opts, rng);
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (const auto& p : parts) {
    EXPECT_GE(p.size(), opts.min_per_agent);
    total += p.size();
    seen.insert(p.begin(), p.end());
  }
  EXPECT_EQ(total, 400u);
  EXPECT_EQ(seen.size(), 400u);
}

class PartitionHeterogeneity : public ::testing::TestWithParam<double> {};

TEST_P(PartitionHeterogeneity, SmallerMuMoreHeterogeneous) {
  const double mu = GetParam();
  const auto ds = make_synthetic_images(mnist_like_spec(600, 6, 6));
  Rng rng(6);
  PartitionOptions opts;
  opts.mu = mu;
  const auto parts = dirichlet_partition(ds, 6, opts, rng);
  const auto dists = label_distributions(ds, parts, ds.num_classes());
  const double h = heterogeneity_index(dists);
  // All Dirichlet splits are more heterogeneous than IID...
  Rng rng2(7);
  const auto iid = iid_partition(ds, 6, rng2);
  const double h_iid = heterogeneity_index(label_distributions(ds, iid, ds.num_classes()));
  EXPECT_GT(h, h_iid);
  // ...and strongly-skewed ones (mu <= 0.25) are very heterogeneous.
  if (mu <= 0.25) { EXPECT_GT(h, 0.4); }
}

INSTANTIATE_TEST_SUITE_P(MuSweep, PartitionHeterogeneity,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5, 1.0));

TEST(Partition, HeterogeneityMonotoneInMuOnAverage) {
  const auto ds = make_synthetic_images(mnist_like_spec(600, 6, 8));
  auto h_for = [&](double mu, std::uint64_t seed) {
    Rng rng(seed);
    PartitionOptions opts;
    opts.mu = mu;
    const auto parts = dirichlet_partition(ds, 6, opts, rng);
    return heterogeneity_index(label_distributions(ds, parts, ds.num_classes()));
  };
  double low = 0.0, high = 0.0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    low += h_for(0.05, 10 + s);
    high += h_for(5.0, 10 + s);
  }
  EXPECT_GT(low, high);
}

TEST(Partition, ShardsArePartitionAndPathological) {
  const auto ds = make_synthetic_images(mnist_like_spec(500, 6, 9));
  Rng rng(19);
  const auto parts = shard_partition(ds, 5, 2, rng);
  std::set<std::size_t> seen;
  std::size_t total = 0;
  std::size_t max_labels = 0;
  for (const auto& p : parts) {
    total += p.size();
    seen.insert(p.begin(), p.end());
    std::set<int> labels;
    for (std::size_t i : p) labels.insert(ds.label(i));
    max_labels = std::max(max_labels, labels.size());
  }
  EXPECT_EQ(total, 500u);
  EXPECT_EQ(seen.size(), 500u);
  // 2 shards per agent: at most ~4 labels visible (shard boundaries can
  // straddle two labels).
  EXPECT_LE(max_labels, 4u);

  // Pathological split is more heterogeneous than Dirichlet(0.5).
  const auto shard_h = heterogeneity_index(label_distributions(ds, parts, ds.num_classes()));
  Rng rng2(20);
  PartitionOptions opts;
  opts.mu = 0.5;
  const auto dir = dirichlet_partition(ds, 5, opts, rng2);
  const auto dir_h = heterogeneity_index(label_distributions(ds, dir, ds.num_classes()));
  EXPECT_GT(shard_h, dir_h);
}

TEST(Partition, ShardValidation) {
  const auto ds = make_gaussian_mixture(10, 2, 2, 1.0, 0.5, 21);
  Rng rng(22);
  EXPECT_THROW(shard_partition(ds, 0, 2, rng), std::invalid_argument);
  EXPECT_THROW(shard_partition(ds, 6, 2, rng), std::invalid_argument);
}

TEST(Partition, RejectsDegenerateInputs) {
  const auto ds = make_gaussian_mixture(10, 2, 2, 1.0, 0.5, 9);
  Rng rng(9);
  PartitionOptions opts;
  EXPECT_THROW(dirichlet_partition(ds, 0, opts, rng), std::invalid_argument);
  EXPECT_THROW(dirichlet_partition(ds, 10, opts, rng), std::invalid_argument);
}

TEST(Sampler, WithReplacementDrawsFromOwnShardOnly) {
  const auto ds = make_gaussian_mixture(50, 5, 2, 1.0, 0.5, 10);
  std::vector<std::size_t> shard = {3, 7, 11};
  BatchSampler sampler(ds, shard, 8, Rng(11));
  for (int rep = 0; rep < 5; ++rep) {
    auto [x, y] = sampler.sample();
    EXPECT_EQ(x.dim(0), 8u);
    for (int label : y) {
      bool found = false;
      for (std::size_t idx : shard) found |= (ds.label(idx) == label);
      EXPECT_TRUE(found);
    }
  }
}

TEST(Sampler, RejectsEmptyShard) {
  const auto ds = make_gaussian_mixture(10, 2, 2, 1.0, 0.5, 14);
  EXPECT_THROW(BatchSampler(ds, {}, 4, Rng(1)), std::invalid_argument);
}
