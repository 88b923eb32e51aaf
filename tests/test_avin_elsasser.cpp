// Tests for the Avin-Elsasser reconstruction (baselines/avin_elsasser.hpp):
// correctness plus the Theorem 1 complexity shapes (O(sqrt(log n)) rounds
// and messages per node).
#include "baselines/avin_elsasser.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/math.hpp"
#include "sim/engine.hpp"

namespace gossip::baselines {
namespace {

sim::NetworkOptions opts(std::uint32_t n, std::uint64_t seed = 1) {
  sim::NetworkOptions o;
  o.n = n;
  o.seed = seed;
  return o;
}

struct Case {
  // 64-bit so the struct has no padding: gtest prints the param's raw bytes
  // into the ctest name, and uninitialised padding made it vary from run to run.
  std::uint64_t n;
  std::uint64_t seed;
};

class AvinElsasserSweep : public ::testing::TestWithParam<Case> {};

TEST_P(AvinElsasserSweep, InformsEveryone) {
  const auto [n, seed] = GetParam();
  sim::Network net(opts(n, seed));
  sim::Engine engine(net);
  cluster::DriverOptions d;
  d.validate = true;
  AvinElsasser algo(engine, AvinElsasserOptions{}, d);
  const auto report = algo.run(0);
  EXPECT_TRUE(report.all_informed) << report.informed << "/" << report.alive;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AvinElsasserSweep,
                         ::testing::Values(Case{256, 1}, Case{1024, 1}, Case{1024, 2},
                                           Case{4096, 1}, Case{16384, 1}, Case{65536, 1}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n) + "_s" +
                                  std::to_string(info.param.seed);
                         });

TEST(AvinElsasser, RoundsScaleAsSqrtLog) {
  // Theorem 1 shape: O(sqrt(log n)) rounds with one constant across scale.
  for (std::uint32_t n : {1024u, 16384u, 262144u}) {
    sim::Network net(opts(n, 3));
    sim::Engine engine(net);
    AvinElsasser algo(engine);
    const auto report = algo.run(0);
    ASSERT_TRUE(report.all_informed) << "n=" << n;
    EXPECT_LE(static_cast<double>(report.rounds),
              22.0 * std::sqrt(log2d(n)) + 30.0)
        << "n=" << n;
  }
}

TEST(AvinElsasser, MessagesPerNodeScaleAsSqrtLog) {
  for (std::uint32_t n : {4096u, 65536u}) {
    sim::Network net(opts(n, 5));
    sim::Engine engine(net);
    AvinElsasser algo(engine);
    const auto report = algo.run(0);
    ASSERT_TRUE(report.all_informed) << "n=" << n;
    EXPECT_LE(report.payload_messages_per_node(), 12.0 * std::sqrt(log2d(n)))
        << "n=" << n;
  }
}

TEST(AvinElsasser, PhaseBreakdownCoversRun) {
  sim::Network net(opts(4096, 7));
  sim::Engine engine(net);
  AvinElsasser algo(engine);
  const auto report = algo.run(0);
  std::uint64_t sum = 0;
  for (const auto& p : report.phases) sum += p.rounds;
  EXPECT_EQ(sum, report.rounds);
  ASSERT_EQ(report.phases.size(), 5u);
  EXPECT_EQ(report.phases[1].name, "merge_phases");
}

TEST(AvinElsasser, DeterministicInSeed) {
  auto once = [] {
    sim::Network net(opts(4096, 9));
    sim::Engine engine(net);
    AvinElsasser algo(engine);
    return algo.run(0);
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.stats.total.payload_messages, b.stats.total.payload_messages);
}

}  // namespace
}  // namespace gossip::baselines
