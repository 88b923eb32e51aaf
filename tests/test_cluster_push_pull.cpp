// Tests for ClusterPushPull (paper Algorithm 3, Lemma 17): broadcast over a
// Delta-clustering in O(log n / log Delta) rounds with O(n) payload
// messages, respecting the Delta communication bound end to end.
#include "core/cluster_push_pull.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/math.hpp"
#include "core/cluster3.hpp"
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

class ClusterPushPullSweep : public ::testing::TestWithParam<Case> {};

TEST_P(ClusterPushPullSweep, BroadcastsOverTheClustering) {
  const auto [n, delta, seed] = GetParam();
  sim::NetworkOptions o;
  o.n = n;
  o.seed = seed;
  sim::Network net(o);
  sim::Engine engine(net);
  Cluster3 builder(engine, delta);
  (void)builder.run();

  ClusterPushPull spread(builder.driver());
  const auto report =
      spread.run(/*source=*/n / 3, builder.cluster_target(), /*reset_metrics=*/true);
  EXPECT_TRUE(report.all_informed) << report.informed << "/" << report.alive;
  // The Delta bound holds during the broadcast too (Theorem 4).
  EXPECT_LE(report.max_delta(), delta);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusterPushPullSweep,
    ::testing::Values(Case{1024, 64, 1}, Case{1024, 128, 2}, Case{4096, 64, 1},
                      Case{4096, 256, 2}, Case{16384, 256, 1}, Case{65536, 512, 1},
                      Case{65536, 4096, 1}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_d" + std::to_string(info.param.delta) +
             "_s" + std::to_string(info.param.seed);
    });

TEST(ClusterPushPull, RoundsTrackLogNOverLogDelta) {
  // Lemma 17: O(log n / log Delta) rounds once the clustering exists.
  // With 3 rounds per spread iteration plus the constant final phase, the
  // measured rounds must be within a constant of the bound.
  sim::NetworkOptions o;
  o.n = 65536;
  o.seed = 17;
  for (std::uint64_t delta : {64ull, 1024ull, 16384ull}) {
    sim::Network net(o);
    sim::Engine engine(net);
    Cluster3 builder(engine, delta);
    (void)builder.run();
    ClusterPushPull spread(builder.driver());
    const auto report = spread.run(0, builder.cluster_target(), /*reset_metrics=*/true);
    ASSERT_TRUE(report.all_informed) << "delta=" << delta;
    const double d = static_cast<double>(builder.cluster_target());
    const double bound = 3.0 * std::ceil(log2d(o.n) / std::log2(std::max(2.0, d))) + 20.0;
    EXPECT_LE(static_cast<double>(report.rounds), bound) << "delta=" << delta;
  }
}

TEST(ClusterPushPull, PayloadMessagesAreLinear) {
  // Lemma 17: O(n) messages (payload accounting; the polling pulls are
  // connections - see the metering convention).
  for (std::uint32_t n : {4096u, 65536u}) {
    sim::NetworkOptions o;
    o.n = n;
    o.seed = 19;
    sim::Network net(o);
    sim::Engine engine(net);
    Cluster3 builder(engine, 256);
    (void)builder.run();
    ClusterPushPull spread(builder.driver());
    const auto report = spread.run(0, builder.cluster_target(), /*reset_metrics=*/true);
    ASSERT_TRUE(report.all_informed);
    EXPECT_LT(report.payload_messages_per_node(), 6.0) << "n=" << n;
  }
}

TEST(ClusterPushPull, LargerDeltaFewerRounds) {
  // The Section 7 trade-off: more communication per node, fewer rounds.
  sim::NetworkOptions o;
  o.n = 65536;
  o.seed = 23;
  std::uint64_t rounds_small = 0, rounds_large = 0;
  {
    sim::Network net(o);
    sim::Engine engine(net);
    Cluster3 builder(engine, 64);
    (void)builder.run();
    ClusterPushPull spread(builder.driver());
    const auto r = spread.run(0, builder.cluster_target(), true);
    ASSERT_TRUE(r.all_informed);
    rounds_small = r.rounds;
  }
  {
    sim::Network net(o);
    sim::Engine engine(net);
    Cluster3 builder(engine, 8192);
    (void)builder.run();
    ClusterPushPull spread(builder.driver());
    const auto r = spread.run(0, builder.cluster_target(), true);
    ASSERT_TRUE(r.all_informed);
    rounds_large = r.rounds;
  }
  EXPECT_LT(rounds_large, rounds_small);
}

TEST(ClusterPushPull, MetricsResetIsolatesTheBroadcast) {
  sim::NetworkOptions o;
  o.n = 4096;
  o.seed = 29;
  sim::Network net(o);
  sim::Engine engine(net);
  Cluster3 builder(engine, 128);
  (void)builder.run();
  const std::uint64_t construction_rounds = engine.rounds();
  ClusterPushPull spread(builder.driver());
  const auto report = spread.run(0, builder.cluster_target(), /*reset_metrics=*/true);
  EXPECT_LT(report.rounds, construction_rounds + 60);
  EXPECT_EQ(report.rounds, report.stats.rounds);  // reset => stats cover run only
}

TEST(ClusterPushPull, SourceInsideAnyClusterWorks) {
  sim::NetworkOptions o;
  o.n = 4096;
  o.seed = 31;
  for (std::uint32_t source : {0u, 1u, 4095u, 2048u}) {
    sim::Network net(o);
    sim::Engine engine(net);
    Cluster3 builder(engine, 128);
    (void)builder.run();
    ClusterPushPull spread(builder.driver());
    EXPECT_TRUE(spread.run(source, builder.cluster_target(), true).all_informed)
        << "source=" << source;
  }
}

}  // namespace
}  // namespace gossip::core
