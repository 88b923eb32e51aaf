// Tests for the uniform gossip baselines (baselines/uniform.hpp):
// correctness and the classical complexity shapes used as comparison points.
#include "baselines/uniform.hpp"

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

using Runner = core::BroadcastReport (*)(sim::Network&, std::uint32_t, UniformOptions);

struct Case {
  const char* name;
  Runner runner;
};

// The default printer dumps the two pointers, which ASLR moves on every run,
// into the ctest name; print the variant instead.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class UniformBaselines : public ::testing::TestWithParam<Case> {};

TEST_P(UniformBaselines, InformsEveryone) {
  for (std::uint32_t n : {64u, 1024u, 16384u}) {
    for (std::uint64_t seed : {1ull, 2ull}) {
      sim::Network net(opts(n, seed));
      const auto report = GetParam().runner(net, 0, UniformOptions{});
      EXPECT_TRUE(report.all_informed) << GetParam().name << " n=" << n << " seed=" << seed;
      EXPECT_EQ(report.rounds, report.stats.rounds);
    }
  }
}

TEST_P(UniformBaselines, RoundsAreThetaLogN) {
  // Classical: log n up to constants - and at least log_3 n (informed count
  // can at most triple per round via one push and all pulls... conservatively
  // we assert >= log_4 n and <= 8 log n).
  sim::Network net(opts(65536, 3));
  const auto report = GetParam().runner(net, 0, UniformOptions{});
  ASSERT_TRUE(report.all_informed);
  const double log_n = log2d(65536);
  EXPECT_GE(static_cast<double>(report.rounds), log_n / 2.0) << GetParam().name;
  EXPECT_LE(static_cast<double>(report.rounds), 8.0 * log_n) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(All, UniformBaselines,
                         ::testing::Values(Case{"push", &run_push}, Case{"pull", &run_pull},
                                           Case{"push_pull", &run_push_pull}),
                         [](const auto& info) { return info.param.name; });

TEST(UniformBaselines, PushMessagesAreSuperlinear) {
  // PUSH keeps every informed node transmitting: Theta(n log n) payload
  // messages, i.e. messages/node grows with n (what [10] improves on).
  sim::Network small(opts(1024, 5));
  const auto rs = run_push(small, 0, {});
  sim::Network big(opts(262144, 5));
  const auto rb = run_push(big, 0, {});
  ASSERT_TRUE(rs.all_informed);
  ASSERT_TRUE(rb.all_informed);
  EXPECT_GT(rb.payload_messages_per_node(), rs.payload_messages_per_node() + 2.0);
}

TEST(UniformBaselines, PushPullCheaperThanPush) {
  sim::Network a(opts(65536, 7));
  const auto push = run_push(a, 0, {});
  sim::Network b(opts(65536, 7));
  const auto pp = run_push_pull(b, 0, {});
  ASSERT_TRUE(push.all_informed);
  ASSERT_TRUE(pp.all_informed);
  EXPECT_LT(pp.rounds, push.rounds);
  EXPECT_LT(pp.payload_messages_per_node(), push.payload_messages_per_node());
}

TEST(UniformBaselines, RoundCapRespected) {
  sim::Network net(opts(4096, 9));
  UniformOptions o;
  o.max_rounds = 3;  // way too few to finish
  const auto report = run_push(net, 0, o);
  EXPECT_FALSE(report.all_informed);
  EXPECT_EQ(report.rounds, 3u);
}

TEST(UniformBaselines, DeadSourceRejected) {
  sim::Network net(opts(64));
  net.fail(0);
  EXPECT_THROW((void)run_push(net, 0, {}), ContractViolation);
}

TEST(UniformBaselines, SurvivesFailures) {
  // With 10% oblivious failures the protocols still inform all survivors
  // (complete graph: failures only slow things down).
  sim::Network net(opts(4096, 11));
  for (std::uint32_t v = 0; v < 4096; v += 10) net.fail(v);
  const auto report = run_push_pull(net, 1, {});
  EXPECT_TRUE(report.all_informed);
  EXPECT_EQ(report.alive, net.alive_count());
}

TEST(UniformBaselines, SmallDeltaForUniformGossip) {
  // Uniform gossip needs no fan-in: max involvement is the balls-in-bins
  // maximum, far below n (contrast with Cluster1/2 - paper Section 7).
  sim::Network net(opts(65536, 13));
  const auto report = run_push_pull(net, 0, {});
  ASSERT_TRUE(report.all_informed);
  EXPECT_LE(report.max_delta(), 40u);
}

}  // namespace
}  // namespace gossip::baselines
