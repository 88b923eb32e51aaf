// Tests for Cluster3(Delta) (paper Algorithm 4, Theorem 18): the
// Delta-clustering postconditions - every node clustered, sizes Theta(D),
// and no node involved in more than Delta communications per round.
#include "core/cluster3.hpp"

#include <gtest/gtest.h>

#include "common/math.hpp"
#include "sim/engine.hpp"

namespace gossip::core {
namespace {

struct Case {
  // 64-bit so the struct has no padding: gtest prints the param's raw bytes
  // into the ctest name, and uninitialised padding made it vary from run to run.
  std::uint64_t n;
  std::uint64_t delta;
  std::uint64_t seed;
};

class Cluster3Sweep : public ::testing::TestWithParam<Case> {};

TEST_P(Cluster3Sweep, ProducesAThetaDeltaClustering) {
  const auto [n, delta, seed] = GetParam();
  sim::NetworkOptions o;
  o.n = n;
  o.seed = seed;
  sim::Network net(o);
  sim::Engine engine(net);
  cluster::DriverOptions d;
  d.validate = true;
  Cluster3 algo(engine, delta, Cluster3Options{}, d);
  const auto report = algo.run();

  auto& cl = algo.driver().clustering();
  EXPECT_TRUE(cl.is_flat());
  const auto stats = cl.stats();
  // Theorem 18: a clustering of (nearly) all nodes...
  EXPECT_LE(stats.unclustered_nodes, n / 200 + 1) << "too many unclustered nodes";
  // ...with cluster sizes within a constant band around D...
  const std::uint64_t D = algo.cluster_target();
  EXPECT_GE(D, 4u);
  EXPECT_LE(stats.max_size, 2 * D) << "a cluster outgrew the resize bound";
  // (the final ClusterResize guarantees the upper bound; stragglers joining
  // in the last pull rounds can undercut D, but the mass must sit in
  // Theta(D) clusters:)
  EXPECT_GE(stats.mean_size, static_cast<double>(D) / 4.0);
  // ...and no node ever handled more than Delta communications in a round.
  EXPECT_LE(report.max_delta(), delta) << "Delta bound violated during construction";
  (void)report;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Cluster3Sweep,
    ::testing::Values(Case{1024, 64, 1}, Case{1024, 128, 2}, Case{4096, 64, 1},
                      Case{4096, 256, 1}, Case{4096, 256, 2}, Case{16384, 128, 1},
                      Case{16384, 512, 1}, Case{65536, 256, 1}, Case{65536, 1024, 1}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_d" + std::to_string(info.param.delta) +
             "_s" + std::to_string(info.param.seed);
    });

TEST(Cluster3, RoundComplexityScalesAsLogLog) {
  // Theorem 18: O(log log n) rounds to build the clustering, with one
  // constant across the range.
  for (std::uint32_t n : {4096u, 65536u, 262144u}) {
    sim::NetworkOptions o;
    o.n = n;
    o.seed = 3;
    sim::Network net(o);
    sim::Engine engine(net);
    Cluster3 algo(engine, /*delta=*/256);
    const auto report = algo.run();
    EXPECT_LE(report.rounds, 30.0 * loglog2d(n)) << "n=" << n;
  }
}

TEST(Cluster3, MessagesStayLinear) {
  // Theorem 18: O(n) messages.
  for (std::uint32_t n : {4096u, 65536u, 262144u}) {
    sim::NetworkOptions o;
    o.n = n;
    o.seed = 5;
    sim::Network net(o);
    sim::Engine engine(net);
    Cluster3 algo(engine, /*delta=*/256);
    const auto report = algo.run();
    EXPECT_LT(report.payload_messages_per_node(), 30.0) << "n=" << n;
  }
}

TEST(Cluster3, LargerDeltaMeansLargerClusters) {
  sim::NetworkOptions o;
  o.n = 16384;
  o.seed = 7;
  double prev_mean = 0;
  for (std::uint64_t delta : {64ull, 256ull, 1024ull}) {
    sim::Network net(o);
    sim::Engine engine(net);
    Cluster3 algo(engine, delta);
    (void)algo.run();
    const auto stats = algo.driver().clustering().stats();
    EXPECT_GT(stats.mean_size, prev_mean) << "delta=" << delta;
    prev_mean = stats.mean_size;
  }
}

TEST(Cluster3, ReportsCleanPhaseBreakdown) {
  sim::NetworkOptions o;
  o.n = 4096;
  o.seed = 11;
  sim::Network net(o);
  sim::Engine engine(net);
  Cluster3 algo(engine, 128);
  const auto report = algo.run();
  std::uint64_t sum = 0;
  for (const auto& p : report.phases) sum += p.rounds;
  EXPECT_EQ(sum, report.rounds);
  ASSERT_GE(report.phases.size(), 5u);
  EXPECT_EQ(report.phases.front().name, "grow");
  EXPECT_EQ(report.phases.back().name, "pull_resize");
}

TEST(Cluster3, HonestUnderKnowledgeEnforcement) {
  sim::NetworkOptions o;
  o.n = 2048;
  o.seed = 13;
  o.track_knowledge = true;
  sim::Network net(o);
  sim::Engine engine(net);
  cluster::DriverOptions d;
  d.validate = true;
  Cluster3 algo(engine, 64, Cluster3Options{}, d);
  EXPECT_NO_THROW((void)algo.run());
}

}  // namespace
}  // namespace gossip::core
