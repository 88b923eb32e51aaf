// Property-based tests for the cluster primitives: random staged
// clusterings, randomized primitive sequences, and the invariants that must
// survive them (paper Section 3.1's partition structure).
//
// Invariants checked after every step:
//   P1  partition: every alive node is unclustered or attributes to exactly
//       one cluster (trivially true by construction of follow; checked via
//       stats consistency: clustered + unclustered == alive);
//   P2  leader self-reference: a leader's follow is its own ID;
//   P3  size conservation: primitives that never dissolve keep the
//       clustered-node count constant (merges move nodes, never drop them);
//   P4  flatness restoration: after merges + enough settle rounds the
//       clustering is flat again;
//   P5  activation coherence: after ClusterActivate, all members of a flat
//       cluster agree with their leader.
#include <gtest/gtest.h>

#include "cluster/driver.hpp"
#include "common/rng.hpp"

namespace gossip::cluster {
namespace {

struct PropertyFixture {
  PropertyFixture(std::uint32_t n, std::uint64_t seed)
      : net(make_opts(n, seed)), engine(net), driver(engine), rng(seed * 2654435761ULL) {}

  static sim::NetworkOptions make_opts(std::uint32_t n, std::uint64_t seed) {
    sim::NetworkOptions o;
    o.n = n;
    o.seed = seed;
    return o;
  }

  /// Random flat clustering: each node joins one of k random leaders with
  /// probability p_clustered.
  void stage_random_clustering(std::uint32_t k, double p_clustered) {
    auto& cl = driver.clustering();
    cl.reset();
    std::vector<std::uint32_t> leaders;
    for (std::uint32_t i = 0; i < k; ++i) {
      leaders.push_back(static_cast<std::uint32_t>(rng.uniform_below(net.n())));
      cl.make_leader(leaders.back());
    }
    for (std::uint32_t v = 0; v < net.n(); ++v) {
      if (cl.is_leader(v) || !rng.bernoulli(p_clustered)) continue;
      cl.set_follow(v, net.id_of(leaders[rng.uniform_below(leaders.size())]));
    }
  }

  void check_partition(const char* where) const {
    const auto stats = driver.clustering().stats();
    EXPECT_EQ(stats.clustered_nodes + stats.unclustered_nodes, net.alive_count())
        << where;
  }

  void check_leader_self_reference(const char* where) const {
    const auto& cl = driver.clustering();
    for (std::uint32_t v = 0; v < net.n(); ++v) {
      if (cl.is_leader(v)) EXPECT_EQ(cl.follow(v), net.id_of(v)) << where << " v=" << v;
    }
  }

  sim::Network net;
  sim::Engine engine;
  Driver driver;
  Rng rng;
};

struct Params {
  // 64-bit so the struct has no padding: gtest prints the param's raw bytes
  // into the ctest name, and uninitialised padding made it vary from run to run.
  std::uint64_t n;
  std::uint64_t seed;
};

class DriverPropertySweep : public ::testing::TestWithParam<Params> {};

TEST_P(DriverPropertySweep, ResizePreservesPartitionAndMembership) {
  PropertyFixture fx(GetParam().n, GetParam().seed);
  fx.stage_random_clustering(8, 0.8);
  const auto before = fx.driver.clustering().stats();
  for (const std::uint64_t target : {4ull, 16ull, 64ull, 7ull, 3ull}) {
    fx.driver.resize(target, false);
    const auto after = fx.driver.clustering().stats();
    EXPECT_EQ(after.clustered_nodes, before.clustered_nodes) << "target=" << target;
    EXPECT_TRUE(fx.driver.clustering().is_flat()) << "target=" << target;
    EXPECT_LT(after.max_size, 2 * target) << "target=" << target;
    fx.check_partition("resize");
    fx.check_leader_self_reference("resize");
  }
}

TEST_P(DriverPropertySweep, RandomPrimitiveSequenceKeepsInvariants) {
  PropertyFixture fx(GetParam().n, GetParam().seed);
  fx.stage_random_clustering(12, 0.7);
  for (int step = 0; step < 30; ++step) {
    switch (fx.rng.uniform_below(6)) {
      case 0:
        fx.driver.activate(fx.rng.uniform01());
        break;
      case 1:
        fx.driver.compute_sizes(false);
        break;
      case 2:
        fx.driver.resize(2 + fx.rng.uniform_below(32), false);
        break;
      case 3:
        fx.driver.push_cluster_id(false, fx.rng.bernoulli(0.5), RelayPolicy::kSmallest);
        break;
      case 4:
        fx.driver.relay_candidates(RelayPolicy::kSmallest, false);
        fx.driver.merge_from_inbox(RelayPolicy::kSmallest, false);
        fx.driver.settle(2);
        break;
      case 5:
        fx.driver.unclustered_pull_round();
        break;
    }
    fx.check_partition("sequence");
    fx.check_leader_self_reference("sequence");
  }
  // After settling, the clustering must be flat again (P4).
  fx.driver.settle(4);
  EXPECT_TRUE(fx.driver.clustering().is_flat());
}

TEST_P(DriverPropertySweep, MergeNeverLosesClusteredNodes) {
  PropertyFixture fx(GetParam().n, GetParam().seed);
  fx.stage_random_clustering(16, 0.9);
  const auto before = fx.driver.clustering().stats().clustered_nodes;
  for (int rep = 0; rep < 4; ++rep) {
    fx.driver.push_cluster_id(false, false, RelayPolicy::kSmallest);
    fx.driver.relay_candidates(RelayPolicy::kSmallest, false);
    fx.driver.merge_from_inbox(RelayPolicy::kSmallest, false);
  }
  fx.driver.settle(4);
  const auto after = fx.driver.clustering().stats();
  EXPECT_EQ(after.clustered_nodes, before);
  EXPECT_TRUE(fx.driver.clustering().is_flat());
  // Merging to smallest can only reduce the number of clusters.
  EXPECT_LE(after.clusters, 16u);
}

TEST_P(DriverPropertySweep, ActivationCoherence) {
  PropertyFixture fx(GetParam().n, GetParam().seed);
  fx.stage_random_clustering(10, 0.8);
  for (const double p : {0.0, 0.3, 0.7, 1.0}) {
    fx.driver.activate(p);
    const auto& cl = fx.driver.clustering();
    for (std::uint32_t v = 0; v < fx.net.n(); ++v) {
      if (!cl.is_follower(v)) continue;
      const auto leader = fx.net.find(cl.follow(v));
      ASSERT_TRUE(leader.has_value());
      EXPECT_EQ(cl.active(v), cl.active(*leader)) << "p=" << p << " v=" << v;
    }
  }
}

TEST_P(DriverPropertySweep, DissolveExactlyRemovesSmallClusters) {
  PropertyFixture fx(GetParam().n, GetParam().seed);
  fx.stage_random_clustering(20, 0.6);
  const auto sizes_before = fx.driver.clustering().cluster_sizes();
  const std::uint64_t cutoff = 1 + fx.rng.uniform_below(10);
  fx.driver.dissolve_below(cutoff);
  const auto sizes_after = fx.driver.clustering().cluster_sizes();
  std::uint64_t expected_survivors = 0;
  for (const auto& [leader, size] : sizes_before) {
    if (size >= cutoff) ++expected_survivors;
  }
  EXPECT_EQ(sizes_after.size(), expected_survivors) << "cutoff=" << cutoff;
  for (const auto& [leader, size] : sizes_after) EXPECT_GE(size, cutoff);
  fx.check_partition("dissolve");
}

INSTANTIATE_TEST_SUITE_P(Sweep, DriverPropertySweep,
                         ::testing::Values(Params{128, 1}, Params{128, 2}, Params{512, 1},
                                           Params{512, 3}, Params{2048, 1},
                                           Params{2048, 5}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n) + "_s" +
                                  std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace gossip::cluster
