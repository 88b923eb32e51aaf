// Tests for the Karp et al. counter baseline (baselines/rrs.hpp).
#include "baselines/rrs.hpp"

#include <gtest/gtest.h>

#include "common/math.hpp"

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

class RrsSweep : public ::testing::TestWithParam<Case> {};

TEST_P(RrsSweep, InformsEveryone) {
  const auto [n, seed] = GetParam();
  sim::Network net(opts(n, seed));
  const auto report = run_rrs(net, 0);
  EXPECT_TRUE(report.all_informed) << report.informed << "/" << report.alive;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RrsSweep,
                         ::testing::Values(Case{64, 1}, Case{256, 1}, Case{1024, 1},
                                           Case{1024, 2}, Case{4096, 1}, Case{16384, 1},
                                           Case{65536, 1}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n) + "_s" +
                                  std::to_string(info.param.seed);
                         });

TEST(Rrs, RoundsAreThetaLogN) {
  sim::Network net(opts(65536, 3));
  const auto report = run_rrs(net, 0);
  ASSERT_TRUE(report.all_informed);
  EXPECT_GE(static_cast<double>(report.rounds), log2d(65536) / 2.0);
  EXPECT_LE(static_cast<double>(report.rounds), 6.0 * log2d(65536));
}

TEST(Rrs, TransmissionsPerNodeGrowSlowly) {
  // [10]: O(log log n) rumor transmissions per node - the counter makes
  // informed nodes stop quickly, unlike plain PUSH.
  double prev = 0;
  for (std::uint32_t n : {1024u, 16384u, 262144u}) {
    sim::Network net(opts(n, 5));
    const auto report = run_rrs(net, 0);
    ASSERT_TRUE(report.all_informed) << "n=" << n;
    EXPECT_LT(report.payload_messages_per_node(), 4.0 * loglog2d(n) + 8.0) << "n=" << n;
    prev = report.payload_messages_per_node();
  }
  (void)prev;
}

TEST(Rrs, CheaperThanPlainPushAtScale) {
  sim::Network a(opts(262144, 7));
  const auto rrs = run_rrs(a, 0);
  ASSERT_TRUE(rrs.all_informed);
  // Plain PUSH at this size costs ~log n ~ 18+ payload messages per node;
  // the counter algorithm must undercut it clearly.
  EXPECT_LT(rrs.payload_messages_per_node(), 12.0);
}

TEST(Rrs, CustomCounterCapRespected) {
  sim::Network net(opts(4096, 9));
  RrsOptions o;
  o.ctr_max = 1;  // nodes stop almost immediately: spreading slows but pulls finish it
  const auto report = run_rrs(net, 0, o);
  // With an aggressive cap the uninformed nodes' own calls (pull half of the
  // exchange) still complete the broadcast within the round cap.
  EXPECT_TRUE(report.all_informed);
}

TEST(Rrs, RoundCap) {
  sim::Network net(opts(4096, 11));
  RrsOptions o;
  o.max_rounds = 2;
  const auto report = run_rrs(net, 0, o);
  EXPECT_FALSE(report.all_informed);
  EXPECT_EQ(report.rounds, 2u);
}

TEST(Rrs, DeterministicInSeed) {
  sim::Network a(opts(4096, 13)), b(opts(4096, 13));
  const auto ra = run_rrs(a, 0);
  const auto rb = run_rrs(b, 0);
  EXPECT_EQ(ra.rounds, rb.rounds);
  EXPECT_EQ(ra.stats.total.payload_messages, rb.stats.total.payload_messages);
}

}  // namespace
}  // namespace gossip::baselines
