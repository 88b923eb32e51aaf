// Tests for Cluster1 (paper Algorithm 1, Theorem 9): parameterized
// correctness sweep, round-complexity shape, and structural postconditions.
#include "core/cluster1.hpp"

#include <gtest/gtest.h>

#include "common/math.hpp"
#include "sim/engine.hpp"

namespace gossip::core {
namespace {

struct Case {
  // 64-bit so the struct has no padding: gtest prints the param's raw bytes
  // into the ctest name, and uninitialised padding made it vary from run to run.
  std::uint64_t n;
  std::uint64_t seed;
};

class Cluster1Sweep : public ::testing::TestWithParam<Case> {};

TEST_P(Cluster1Sweep, InformsEveryNode) {
  const auto [n, seed] = GetParam();
  sim::NetworkOptions o;
  o.n = n;
  o.seed = seed;
  o.track_knowledge = n <= 4096;  // honesty enforcement where affordable
  sim::Network net(o);
  sim::Engine engine(net);
  cluster::DriverOptions d;
  d.validate = true;
  Cluster1 algo(engine, Cluster1Options{}, d);
  const auto report = algo.run(/*source=*/n / 2);

  EXPECT_TRUE(report.all_informed) << report.informed << "/" << report.alive;
  EXPECT_EQ(report.n, n);
  EXPECT_EQ(report.rounds, report.stats.rounds);
  // Final structure: one flat cluster holding everyone.
  EXPECT_TRUE(algo.driver().clustering().is_flat());
  const auto stats = algo.driver().clustering().stats();
  EXPECT_EQ(stats.clusters, 1u);
  EXPECT_EQ(stats.unclustered_nodes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Cluster1Sweep,
    ::testing::Values(Case{64, 1}, Case{64, 2}, Case{256, 1}, Case{256, 2}, Case{256, 3},
                      Case{1024, 1}, Case{1024, 2}, Case{4096, 1}, Case{4096, 2},
                      Case{16384, 1}, Case{65536, 1}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_s" + std::to_string(info.param.seed);
    });

TEST(Cluster1, RoundComplexityScalesAsLogLog) {
  // Rounds must be bounded by c * log log n with one constant across the
  // whole range - the Theorem 9 shape (a log n-round algorithm would blow
  // through this bound at the top of the range).
  for (std::uint32_t n : {256u, 4096u, 65536u, 262144u}) {
    sim::NetworkOptions o;
    o.n = n;
    o.seed = 42;
    sim::Network net(o);
    sim::Engine engine(net);
    Cluster1 algo(engine);
    const auto report = algo.run(0);
    ASSERT_TRUE(report.all_informed) << "n=" << n;
    EXPECT_LE(report.rounds, 16.0 * loglog2d(n)) << "n=" << n;
  }
}

TEST(Cluster1, PhaseBreakdownCoversAllRounds) {
  sim::NetworkOptions o;
  o.n = 1024;
  o.seed = 5;
  sim::Network net(o);
  sim::Engine engine(net);
  Cluster1 algo(engine);
  const auto report = algo.run(0);
  std::uint64_t sum = 0;
  std::vector<std::string> names;
  for (const auto& p : report.phases) {
    sum += p.rounds;
    names.push_back(p.name);
  }
  EXPECT_EQ(sum, report.rounds);
  EXPECT_EQ(names, (std::vector<std::string>{"grow", "square", "merge_all", "pull", "share"}));
}

TEST(Cluster1, DeterministicInSeed) {
  auto run_once = [] {
    sim::NetworkOptions o;
    o.n = 2048;
    o.seed = 77;
    sim::Network net(o);
    sim::Engine engine(net);
    Cluster1 algo(engine);
    return algo.run(3);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.stats.total.payload_messages, b.stats.total.payload_messages);
  EXPECT_EQ(a.stats.total.bits, b.stats.total.bits);
  EXPECT_EQ(a.informed, b.informed);
}

TEST(Cluster1, ObserverSeesPhases) {
  sim::NetworkOptions o;
  o.n = 1024;
  o.seed = 9;
  sim::Network net(o);
  sim::Engine engine(net);
  std::vector<std::string> seen;
  Cluster1 algo(engine, Cluster1Options{}, cluster::DriverOptions{},
                [&](const PhaseSnapshot& s) { seen.emplace_back(s.phase); });
  (void)algo.run(0);
  EXPECT_FALSE(seen.empty());
  // Snapshots from the recruiting and pull phases must be present.
  EXPECT_NE(std::find(seen.begin(), seen.end(), "grow"), seen.end());
  EXPECT_NE(std::find(seen.begin(), seen.end(), "pull"), seen.end());
}

TEST(Cluster1, InvalidSourceThrows) {
  sim::NetworkOptions o;
  o.n = 64;
  sim::Network net(o);
  sim::Engine engine(net);
  Cluster1 algo(engine);
  EXPECT_THROW((void)algo.run(64), ContractViolation);
}

TEST(Cluster1, AnySourceWorks) {
  for (std::uint32_t source : {0u, 1u, 511u, 1023u}) {
    sim::NetworkOptions o;
    o.n = 1024;
    o.seed = 13;
    sim::Network net(o);
    sim::Engine engine(net);
    Cluster1 algo(engine);
    EXPECT_TRUE(algo.run(source).all_informed) << "source=" << source;
  }
}

}  // namespace
}  // namespace gossip::core
