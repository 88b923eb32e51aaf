// Tests for Cluster2 (paper Algorithm 2, Theorem 2): correctness sweep plus
// the message- and bit-complexity bounds that make it the main result.
#include "core/cluster2.hpp"

#include <gtest/gtest.h>

#include "common/math.hpp"
#include "core/cluster1.hpp"
#include "sim/engine.hpp"

namespace gossip::core {
namespace {

struct Case {
  // 64-bit so the struct has no padding: gtest prints the param's raw bytes
  // into the ctest name, and uninitialised padding made it vary from run to run.
  std::uint64_t n;
  std::uint64_t seed;
};

class Cluster2Sweep : public ::testing::TestWithParam<Case> {};

TEST_P(Cluster2Sweep, InformsEveryNode) {
  const auto [n, seed] = GetParam();
  sim::NetworkOptions o;
  o.n = n;
  o.seed = seed;
  o.track_knowledge = n <= 4096;
  sim::Network net(o);
  sim::Engine engine(net);
  cluster::DriverOptions d;
  d.validate = true;
  Cluster2 algo(engine, Cluster2Options{}, d);
  const auto report = algo.run(/*source=*/seed % n);
  EXPECT_TRUE(report.all_informed) << report.informed << "/" << report.alive;
  EXPECT_TRUE(algo.driver().clustering().is_flat());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Cluster2Sweep,
    ::testing::Values(Case{64, 1}, Case{256, 1}, Case{256, 2}, Case{1024, 1},
                      Case{1024, 2}, Case{1024, 3}, Case{4096, 1}, Case{4096, 2},
                      Case{16384, 1}, Case{65536, 1}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_s" + std::to_string(info.param.seed);
    });

TEST(Cluster2, MessageComplexityStaysBoundedAcrossScale) {
  // Theorem 2: O(1) messages per node on average. The per-node payload
  // count must stay below one constant across three orders of magnitude
  // (any log n term would push it past the bound at the top end).
  for (std::uint32_t n : {1024u, 8192u, 65536u, 262144u}) {
    sim::NetworkOptions o;
    o.n = n;
    o.seed = 21;
    sim::Network net(o);
    sim::Engine engine(net);
    Cluster2 algo(engine);
    const auto report = algo.run(0);
    ASSERT_TRUE(report.all_informed) << "n=" << n;
    EXPECT_LT(report.payload_messages_per_node(), 25.0) << "n=" << n;
  }
}

TEST(Cluster2, BitComplexityIsLinearInRumorSize) {
  // Theorem 2: O(nb) bits total. Per node: O(b) once b dominates log n.
  for (std::uint32_t b : {256u, 1024u, 4096u}) {
    sim::NetworkOptions o;
    o.n = 16384;
    o.seed = 4;
    o.rumor_bits = b;
    sim::Network net(o);
    sim::Engine engine(net);
    Cluster2 algo(engine);
    const auto report = algo.run(0);
    ASSERT_TRUE(report.all_informed);
    // Every node receives the rumor at least once => >= b bits/node; the
    // O(nb) bound allows a small constant multiple plus O(log n) ID traffic.
    EXPECT_GE(report.bits_per_node(), static_cast<double>(b));
    EXPECT_LT(report.bits_per_node(), 4.0 * b + 2000.0) << "b=" << b;
  }
}

TEST(Cluster2, RoundComplexityScalesAsLogLog) {
  for (std::uint32_t n : {256u, 4096u, 65536u, 262144u}) {
    sim::NetworkOptions o;
    o.n = n;
    o.seed = 8;
    sim::Network net(o);
    sim::Engine engine(net);
    Cluster2 algo(engine);
    const auto report = algo.run(0);
    ASSERT_TRUE(report.all_informed) << "n=" << n;
    EXPECT_LE(report.rounds, 30.0 * loglog2d(n)) << "n=" << n;
  }
}

TEST(Cluster2, OnlyAFractionOfNodesClusteredMidway) {
  // Lemma 11/12: through grow and square, only Theta(n / log n) nodes are
  // clustered (within the calibration's constant). Observed via the phase
  // observer's clustering statistics.
  sim::NetworkOptions o;
  o.n = 65536;
  o.seed = 2;
  sim::Network net(o);
  sim::Engine engine(net);
  std::uint64_t max_clustered_during_square = 0;
  Cluster2 algo(engine, Cluster2Options{}, cluster::DriverOptions{},
                [&](const PhaseSnapshot& s) {
                  if (s.phase == "square" || s.phase == "grow") {
                    max_clustered_during_square =
                        std::max(max_clustered_during_square, s.clustering.clustered_nodes);
                  }
                });
  ASSERT_TRUE(algo.run(0).all_informed);
  EXPECT_LT(max_clustered_during_square, 65536u / 4) << "clustered mass out of control";
  EXPECT_GT(max_clustered_during_square, 65536u / 200) << "clustered mass collapsed";
}

TEST(Cluster2, PhaseBreakdownNamesAndCoverage) {
  sim::NetworkOptions o;
  o.n = 4096;
  o.seed = 10;
  sim::Network net(o);
  sim::Engine engine(net);
  Cluster2 algo(engine);
  const auto report = algo.run(0);
  std::vector<std::string> names;
  std::uint64_t sum = 0;
  for (const auto& p : report.phases) {
    names.push_back(p.name);
    sum += p.rounds;
  }
  EXPECT_EQ(names, (std::vector<std::string>{"grow", "square", "merge_all", "bounded_push",
                                             "pull", "share"}));
  EXPECT_EQ(sum, report.rounds);
}

TEST(Cluster2, DeterministicInSeed) {
  auto run_once = [] {
    sim::NetworkOptions o;
    o.n = 4096;
    o.seed = 31;
    sim::Network net(o);
    sim::Engine engine(net);
    Cluster2 algo(engine);
    return algo.run(7);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.stats.total.bits, b.stats.total.bits);
}

TEST(Cluster2, FewerMessagesThanCluster1AtScale) {
  // The whole point of Cluster2 over Cluster1 (paper Section 5).
  sim::NetworkOptions o;
  o.n = 262144;
  o.seed = 6;
  sim::Network net1(o);
  sim::Engine e1(net1);
  Cluster1 c1(e1);
  const auto r1 = c1.run(0);

  sim::Network net2(o);
  sim::Engine e2(net2);
  Cluster2 c2(e2);
  const auto r2 = c2.run(0);

  ASSERT_TRUE(r1.all_informed);
  ASSERT_TRUE(r2.all_informed);
  EXPECT_LT(r2.payload_messages_per_node(), r1.payload_messages_per_node());
}

}  // namespace
}  // namespace gossip::core
