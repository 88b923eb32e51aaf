// Tests for leader election (core/leader_election.hpp) - the reduction the
// paper invokes in the Theorem 15 proof.
#include "core/leader_election.hpp"

#include <gtest/gtest.h>

#include "common/math.hpp"
#include "sim/fault.hpp"

namespace gossip::core {
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

class LeaderElectionSweep : public ::testing::TestWithParam<Case> {};

TEST_P(LeaderElectionSweep, Unanimous) {
  const auto [n, seed] = GetParam();
  sim::Network net(opts(n, seed));
  const auto result = elect_leader(net);
  EXPECT_TRUE(result.unanimous) << result.agreeing << "/" << net.alive_count();
  EXPECT_TRUE(result.leader.is_node());
  EXPECT_EQ(net.id_of(result.leader_index), result.leader);
  EXPECT_TRUE(result.report.all_informed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LeaderElectionSweep,
                         ::testing::Values(Case{256, 1}, Case{1024, 1}, Case{1024, 2},
                                           Case{4096, 1}, Case{16384, 1}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n) + "_s" +
                                  std::to_string(info.param.seed);
                         });

TEST(LeaderElection, RoundsAreLogLogShaped) {
  for (std::uint32_t n : {1024u, 65536u}) {
    sim::Network net(opts(n, 3));
    const auto result = elect_leader(net);
    ASSERT_TRUE(result.unanimous);
    EXPECT_LE(result.report.rounds, 30.0 * loglog2d(n)) << "n=" << n;
  }
}

TEST(LeaderElection, SurvivesFailures) {
  sim::Network net(opts(4096, 5));
  Rng adversary(123);
  for (std::uint32_t v :
       sim::choose_failures(net, 409, sim::FaultStrategy::kRandomSubset, adversary)) {
    net.fail(v);
  }
  const auto result = elect_leader(net);
  // All but o(F) survivors agree on one surviving node (Theorem 19 carried
  // over to the election task).
  EXPECT_TRUE(net.alive(result.leader_index));
  EXPECT_GT(static_cast<double>(result.agreeing),
            0.98 * static_cast<double>(net.alive_count()));
}

TEST(LeaderElection, AllNodesFailedThrows) {
  sim::Network net(opts(4));
  net.fail(0);
  net.fail(1);
  net.fail(2);
  net.fail(3);
  EXPECT_THROW((void)elect_leader(net), ContractViolation);
}

TEST(LeaderElection, DeterministicInSeed) {
  sim::Network a(opts(1024, 11)), b(opts(1024, 11));
  EXPECT_EQ(elect_leader(a).leader, elect_leader(b).leader);
}

}  // namespace
}  // namespace gossip::core
