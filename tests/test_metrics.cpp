// Unit tests for the complexity metering (sim/metrics.hpp), including the
// payload-vs-connection distinction and Delta (involvement) tracking.
#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"

namespace gossip::sim {
namespace {

TEST(Metrics, RoundLifecycle) {
  MetricsCollector m(4, /*keep_history=*/false);
  m.begin_round();
  m.end_round();
  EXPECT_EQ(m.run().rounds, 1u);
  m.begin_round();
  m.end_round();
  EXPECT_EQ(m.run().rounds, 2u);
}

TEST(Metrics, DoubleBeginThrows) {
  MetricsCollector m(4, false);
  m.begin_round();
  EXPECT_THROW(m.begin_round(), ContractViolation);
}

TEST(Metrics, EndWithoutBeginThrows) {
  MetricsCollector m(4, false);
  EXPECT_THROW(m.end_round(), ContractViolation);
}

TEST(Metrics, PushCountsPayloadAndConnection) {
  MetricsCollector m(4, false);
  m.begin_round();
  m.record_push(0, 1, 100, /*has_payload=*/true);
  m.record_push(1, 2, 3, /*has_payload=*/false);  // empty push: connection only
  m.end_round();
  const auto& t = m.run().total;
  EXPECT_EQ(t.pushes, 2u);
  EXPECT_EQ(t.connections, 2u);
  EXPECT_EQ(t.payload_messages, 1u);
  EXPECT_EQ(t.bits, 100u);
}

TEST(Metrics, PullRequestIsConnectionOnly) {
  MetricsCollector m(4, false);
  m.begin_round();
  m.record_pull_request(0, 1);
  m.record_pull_response(50, /*has_payload=*/true);
  m.record_pull_response(0, /*has_payload=*/false);  // empty response: free
  m.end_round();
  const auto& t = m.run().total;
  EXPECT_EQ(t.pull_requests, 1u);
  EXPECT_EQ(t.connections, 1u);
  EXPECT_EQ(t.pull_responses, 1u);
  EXPECT_EQ(t.payload_messages, 1u);
  EXPECT_EQ(t.bits, 50u);
}

TEST(Metrics, InvolvementTracksBothEndpoints) {
  MetricsCollector m(4, false);
  m.begin_round();
  // Node 1 receives three communications; everyone else at most two.
  m.record_push(0, 1, 1, true);
  m.record_push(2, 1, 1, true);
  m.record_pull_request(3, 1);
  m.end_round();
  EXPECT_EQ(m.run().total.max_involvement, 3u);
}

TEST(Metrics, InvolvementResetsBetweenRounds) {
  MetricsCollector m(4, false);
  m.begin_round();
  m.record_push(0, 1, 1, true);
  m.record_push(2, 1, 1, true);
  m.end_round();
  m.begin_round();
  m.record_push(0, 1, 1, true);
  m.end_round();
  // Max over rounds is 2 (not 3 accumulated across rounds).
  EXPECT_EQ(m.run().total.max_involvement, 2u);
}

TEST(Metrics, InitiatorCount) {
  MetricsCollector m(4, false);
  m.begin_round();
  m.record_initiator();
  m.record_initiator();
  m.end_round();
  EXPECT_EQ(m.run().total.initiators, 2u);
}

TEST(Metrics, HistoryKeptWhenEnabled) {
  MetricsCollector m(4, /*keep_history=*/true);
  m.begin_round();
  m.record_push(0, 1, 7, true);
  m.end_round();
  m.begin_round();
  m.end_round();
  ASSERT_EQ(m.run().per_round.size(), 2u);
  EXPECT_EQ(m.run().per_round[0].bits, 7u);
  EXPECT_EQ(m.run().per_round[1].bits, 0u);
}

TEST(Metrics, NoHistoryByDefault) {
  MetricsCollector m(4, false);
  m.begin_round();
  m.end_round();
  EXPECT_TRUE(m.run().per_round.empty());
}

TEST(Metrics, ResetClearsEverything) {
  MetricsCollector m(4, true);
  m.begin_round();
  m.record_push(0, 1, 7, true);
  m.end_round();
  m.reset();
  EXPECT_EQ(m.run().rounds, 0u);
  EXPECT_EQ(m.run().total.payload_messages, 0u);
  EXPECT_TRUE(m.run().per_round.empty());
}

TEST(RunStats, PerNodeAverages) {
  RunStats s;
  s.total.payload_messages = 100;
  s.total.connections = 300;
  s.total.bits = 1000;
  EXPECT_DOUBLE_EQ(s.payload_messages_per_node(50), 2.0);
  EXPECT_DOUBLE_EQ(s.connections_per_node(50), 6.0);
  EXPECT_DOUBLE_EQ(s.bits_per_node(50), 20.0);
  EXPECT_DOUBLE_EQ(s.payload_messages_per_node(0), 0.0);
}

// Sharded metering: per-shard count deltas merged via merge_round_delta plus
// endpoint replay through record_involvement must reproduce exactly
// what inline record_push/record_pull_request calls produce.
TEST(Metrics, ShardDeltaMergeMatchesInlineMetering) {
  MetricsCollector inline_m(8, /*keep_history=*/false);
  MetricsCollector merged_m(8, /*keep_history=*/false);
  // Contacts: (initiator, target, bits, has_payload, is_push).
  struct C {
    std::uint32_t from, to;
    std::uint64_t bits;
    bool payload, push;
  };
  const C contacts[] = {
      {0, 3, 100, true, true},  {1, 3, 0, false, true}, {2, 5, 0, false, false},
      {3, 5, 40, true, true},   {4, 3, 0, false, false}, {5, 0, 259, true, true},
  };

  inline_m.begin_round();
  for (const C& c : contacts) {
    inline_m.record_initiator();
    if (c.push) {
      inline_m.record_push(c.from, c.to, c.bits, c.payload);
    } else {
      inline_m.record_pull_request(c.from, c.to);
    }
  }
  inline_m.end_round();

  // Same contacts split across two "shards", counts accumulated offline.
  merged_m.begin_round();
  for (int shard = 0; shard < 2; ++shard) {
    RoundStats delta;
    for (int i = shard * 3; i < shard * 3 + 3; ++i) {
      const C& c = contacts[i];
      ++delta.initiators;
      ++delta.connections;
      if (c.push) {
        ++delta.pushes;
        if (c.payload) {
          ++delta.payload_messages;
          delta.bits += c.bits;
        }
      } else {
        ++delta.pull_requests;
      }
    }
    merged_m.merge_round_delta(delta);
    // Initiator side in shard order; target side deferred to a separate
    // pass (order cannot matter: monotone counters).
    for (int i = shard * 3; i < shard * 3 + 3; ++i) {
      merged_m.record_involvement(contacts[i].from);
    }
  }
  for (const C& c : contacts) merged_m.record_involvement(c.to);
  merged_m.end_round();

  const RoundStats& a = inline_m.run().total;
  const RoundStats& b = merged_m.run().total;
  EXPECT_EQ(a.pushes, b.pushes);
  EXPECT_EQ(a.pull_requests, b.pull_requests);
  EXPECT_EQ(a.payload_messages, b.payload_messages);
  EXPECT_EQ(a.connections, b.connections);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.initiators, b.initiators);
  EXPECT_EQ(a.max_involvement, b.max_involvement);
  EXPECT_EQ(a.max_involvement, 4u);  // node 3: two pushes + one pull + initiating
}

TEST(RoundStats, AccumulateTakesMaxInvolvement) {
  RoundStats a, b;
  a.max_involvement = 5;
  a.pushes = 1;
  b.max_involvement = 3;
  b.pushes = 2;
  a.accumulate(b);
  EXPECT_EQ(a.max_involvement, 5u);
  EXPECT_EQ(a.pushes, 3u);
}

}  // namespace
}  // namespace gossip::sim
