// Parity and determinism suite for the sharded parallel executor
// (sim/parallel): for a fixed seed and shard size, ParallelEngine must be
// bit-identical to itself for every thread count >= 1 - metrics, knowledge
// graphs and every hook-observed delivery - and bit-identical to the serial
// Engine on rounds that consume no engine randomness (direct addressing
// only). Uniform rounds intentionally diverge from the serial stream; that
// divergence is documented in CHANGES.md, not tested here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/uniform.hpp"
#include "cluster/driver.hpp"
#include "sim/fault.hpp"
#include "sim/parallel/parallel_engine.hpp"
#include "sim/parallel/thread_pool.hpp"

namespace gossip::sim {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool unit tests.
// ---------------------------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  parallel::ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<std::uint32_t>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1u);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  parallel::ThreadPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  for (int job = 0; job < 50; ++job) {
    pool.parallel_for(17, [&](std::size_t i) { sum.fetch_add(i + 1); });
  }
  EXPECT_EQ(sum.load(), 50u * (17u * 18u / 2u));
}

TEST(ThreadPool, ZeroAndSingleItemJobs) {
  parallel::ThreadPool pool(8);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "no items to run"; });
  int ran = 0;
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++ran;
  });
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPool, MoreThreadsThanItems) {
  parallel::ThreadPool pool(16);
  std::vector<std::atomic<std::uint32_t>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1u);
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder) {
  parallel::ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, SizeCountsCallerAndNormalisesZero) {
  EXPECT_EQ(parallel::ThreadPool(4).size(), 4u);
  EXPECT_EQ(parallel::ThreadPool(1).size(), 1u);
  EXPECT_EQ(parallel::ThreadPool(0).size(), 1u);  // 0 normalised to inline
}

TEST(ThreadPool, PropagatesLowestIndexExceptionDeterministically) {
  // Many items throw concurrently; the pool must always rethrow the
  // LOWEST-index exception AND still run every item, independent of both
  // the thread schedule and the worker count (the inline single-thread
  // path shares the contract). Repeat to give a schedule-dependent
  // implementation a chance to fail.
  for (const unsigned threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    for (int rep = 0; rep < (threads == 1 ? 1 : 25); ++rep) {
      std::atomic<std::uint32_t> executed{0};
      std::string caught;
      try {
        pool.parallel_for(200, [&](std::size_t i) {
          executed.fetch_add(1);
          if (i >= 7) throw std::runtime_error(std::to_string(i));
        });
        FAIL() << "expected an exception";
      } catch (const std::runtime_error& e) {
        caught = e.what();
      }
      EXPECT_EQ(caught, "7") << "threads " << threads << " rep " << rep;
      EXPECT_EQ(executed.load(), 200u) << "threads " << threads << " rep " << rep;
    }
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  parallel::ThreadPool pool(4);
  std::atomic<std::uint32_t> executed{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          executed.fetch_add(1);
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Every item still ran (no cancellation) - the pool stays usable.
  EXPECT_EQ(executed.load(), 64u);
  std::atomic<std::uint32_t> after{0};
  pool.parallel_for(8, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8u);
}

// ---------------------------------------------------------------------------
// Shared comparison helpers (mirrors test_engine_parity.cpp).
// ---------------------------------------------------------------------------

NetworkOptions opts(std::uint32_t n, std::uint64_t seed, bool track = true) {
  NetworkOptions o;
  o.n = n;
  o.seed = seed;
  o.track_knowledge = track;
  return o;
}

void expect_round_stats_equal(const RoundStats& a, const RoundStats& b,
                              const char* where) {
  EXPECT_EQ(a.pushes, b.pushes) << where;
  EXPECT_EQ(a.pull_requests, b.pull_requests) << where;
  EXPECT_EQ(a.pull_responses, b.pull_responses) << where;
  EXPECT_EQ(a.payload_messages, b.payload_messages) << where;
  EXPECT_EQ(a.connections, b.connections) << where;
  EXPECT_EQ(a.bits, b.bits) << where;
  EXPECT_EQ(a.initiators, b.initiators) << where;
  EXPECT_EQ(a.max_involvement, b.max_involvement) << where;
}

void expect_runs_equal(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  expect_round_stats_equal(a.total, b.total, "totals");
  ASSERT_EQ(a.per_round.size(), b.per_round.size());
  for (std::size_t r = 0; r < a.per_round.size(); ++r) {
    expect_round_stats_equal(a.per_round[r], b.per_round[r], "per-round");
  }
}

void expect_knowledge_equal(const Network& a, const Network& b) {
  ASSERT_NE(a.knowledge(), nullptr);
  ASSERT_NE(b.knowledge(), nullptr);
  EXPECT_EQ(a.knowledge()->total_knowledge(), b.knowledge()->total_knowledge());
  for (std::uint32_t v = 0; v < a.n(); ++v) {
    EXPECT_EQ(a.knowledge()->known_ids(v), b.knowledge()->known_ids(v))
        << "knowledge of node " << v << " diverged";
  }
}

// Mixed-kind workload driven purely by hook-visible state (tokens), so any
// trajectory difference between runs compounds and becomes visible. initiate
// is read-only over shared state, as the sharded executor requires. Unlike
// the serial-parity Workload in test_engine_parity.cpp it does NOT read the
// knowledge tracker inside initiate: mid-phase-1 knowledge reads are exactly
// where sharded and serial semantics legitimately differ (see the Threading
// model notes in sim/engine.hpp), and direct addressing is covered by the
// direct-only suites below.
struct MixedWorkload {
  Network& net;
  std::vector<std::uint32_t> tokens;

  explicit MixedWorkload(Network& n) : net(n), tokens(n.n(), 0) { tokens[0] = 1; }

  std::optional<Contact> initiate(std::uint32_t v) {
    switch ((tokens[v] + v) % 4) {
      case 0:
        return std::nullopt;
      case 1:
        return Contact::push_random(Message::rumor().and_id(net.id_of(v)));
      case 2:
        return Contact::pull_random();
      default:
        return Contact::exchange_random(Message::count(tokens[v]).and_id(net.id_of(v)));
    }
  }
  Message respond(std::uint32_t v) {
    if (tokens[v] == 0) return Message::empty();
    return Message::count(tokens[v]).and_id(net.id_of(v));
  }
  void on_push(std::uint32_t r, const Message& m) {
    tokens[r] += 1 + static_cast<std::uint32_t>(m.ids().size());
  }
  void on_pull_reply(std::uint32_t q, const Message& m) {
    if (m.has_count()) tokens[q] += static_cast<std::uint32_t>(m.count_value() % 7);
  }
};

struct MixedRunResult {
  RunStats stats;
  std::vector<std::uint32_t> tokens;
};

MixedRunResult run_mixed(Network& net, Engine& eng, unsigned rounds) {
  MixedWorkload w(net);
  for (unsigned r = 0; r < rounds; ++r) eng.run_round(w);
  return MixedRunResult{eng.metrics().run(), std::move(w.tokens)};
}

// ---------------------------------------------------------------------------
// Thread-count determinism: the tentpole acceptance criterion.
// ---------------------------------------------------------------------------

class ParallelDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelDeterminism, MixedWorkloadBitIdenticalAcrossThreadCounts) {
  const std::uint64_t seed = GetParam();
  constexpr std::uint32_t kN = 512;
  constexpr unsigned kRounds = 25;
  // Small shards force a multi-shard decomposition (8 shards at n=512) so
  // the merge order actually matters.
  constexpr std::uint32_t kShard = 64;

  Network reference_net(opts(kN, seed));
  parallel::ParallelEngine reference_eng(
      reference_net, {.threads = 1, .shard_size = kShard, .keep_history = true});
  const MixedRunResult reference = run_mixed(reference_net, reference_eng, kRounds);

  for (const unsigned threads : {2u, 8u}) {
    Network net(opts(kN, seed));
    parallel::ParallelEngine eng(net,
                                 {.threads = threads, .shard_size = kShard,
                                  .keep_history = true});
    const MixedRunResult result = run_mixed(net, eng, kRounds);
    expect_runs_equal(reference.stats, result.stats);
    EXPECT_EQ(reference.tokens, result.tokens) << "threads=" << threads;
    expect_knowledge_equal(reference_net, net);
  }
}

TEST_P(ParallelDeterminism, WithFailedNodesAcrossThreadCounts) {
  const std::uint64_t seed = GetParam();
  constexpr std::uint32_t kN = 384;

  const auto run = [&](unsigned threads) {
    Network net(opts(kN, seed));
    for (std::uint32_t v = 5; v < kN; v += 9) net.fail(v);
    parallel::ParallelEngine eng(net,
                                 {.threads = threads, .shard_size = 48,
                                  .keep_history = true});
    MixedRunResult r = run_mixed(net, eng, 20);
    std::uint64_t know = net.knowledge()->total_knowledge();
    return std::tuple<RunStats, std::vector<std::uint32_t>, std::uint64_t>(
        std::move(r.stats), std::move(r.tokens), know);
  };

  auto [stats_1, tokens_1, know_1] = run(1);
  auto [stats_2, tokens_2, know_2] = run(2);
  auto [stats_8, tokens_8, know_8] = run(8);
  expect_runs_equal(stats_1, stats_2);
  expect_runs_equal(stats_1, stats_8);
  EXPECT_EQ(tokens_1, tokens_2);
  EXPECT_EQ(tokens_1, tokens_8);
  EXPECT_EQ(know_1, know_2);
  EXPECT_EQ(know_1, know_8);
}

// Payloads longer than PushQueue::kInlineIds exercise the per-shard spill
// vectors (ClusterResize-style lists) and the bulk learn_all merge path.
TEST_P(ParallelDeterminism, SpilledPayloadsAcrossThreadCounts) {
  const std::uint64_t seed = GetParam();
  constexpr std::uint32_t kN = 256;
  constexpr std::size_t kListLen = PushQueue::kInlineIds + 5;

  const auto run = [&](unsigned threads) {
    Network net(opts(kN, seed));
    parallel::ParallelEngine eng(net,
                                 {.threads = threads, .shard_size = 32,
                                  .keep_history = true});
    std::vector<std::uint64_t> received(kN, 0);
    auto hooks = make_hooks(
        [&net](std::uint32_t v) -> std::optional<Contact> {
          Message::IdList ids;
          for (std::size_t i = 0; i < kListLen; ++i) {
            ids.push_back(net.id_of((v + static_cast<std::uint32_t>(i) + 1) % net.n()));
          }
          return Contact::push_random(Message::id_list(std::move(ids)));
        },
        no_hook,
        [&received](std::uint32_t r, const Message& m) {
          received[r] += m.ids().size();
        });
    for (unsigned r = 0; r < 8; ++r) eng.run_round(hooks);
    return std::tuple<RunStats, std::vector<std::uint64_t>, std::uint64_t>(
        eng.metrics().run(), received, net.knowledge()->total_knowledge());
  };

  auto [stats_1, recv_1, know_1] = run(1);
  auto [stats_8, recv_8, know_8] = run(8);
  expect_runs_equal(stats_1, stats_8);
  EXPECT_EQ(recv_1, recv_8);
  EXPECT_EQ(know_1, know_8);
}

// The legacy std::function surface must ride the sharded path unchanged.
TEST_P(ParallelDeterminism, LegacyRoundHooksAcrossThreadCounts) {
  const std::uint64_t seed = GetParam();
  constexpr std::uint32_t kN = 200;

  const auto run = [&](unsigned threads) {
    Network net(opts(kN, seed, /*track=*/false));
    parallel::ParallelEngine eng(net,
                                 {.threads = threads, .shard_size = 32,
                                  .keep_history = true});
    std::vector<std::uint32_t> hits(kN, 0);
    RoundHooks h;
    h.initiate = [](std::uint32_t v) -> std::optional<Contact> {
      if (v % 3 == 0) return Contact::pull_random();
      return Contact::push_random(Message::rumor());
    };
    h.respond = [](std::uint32_t v) { return Message::count(v); };
    h.on_push = [&hits](std::uint32_t r, const Message&) { ++hits[r]; };
    h.on_pull_reply = [&hits](std::uint32_t q, const Message&) { ++hits[q]; };
    for (unsigned r = 0; r < 15; ++r) eng.run_round(h);
    return std::pair<RunStats, std::vector<std::uint32_t>>(eng.metrics().run(), hits);
  };

  auto [stats_1, hits_1] = run(1);
  auto [stats_2, hits_2] = run(2);
  expect_runs_equal(stats_1, stats_2);
  EXPECT_EQ(hits_1, hits_2);
}

TEST_P(ParallelDeterminism, InitiatorSubsetAcrossThreadCounts) {
  const std::uint64_t seed = GetParam();
  constexpr std::uint32_t kN = 300;
  std::vector<std::uint32_t> subset;
  for (std::uint32_t v = 0; v < kN; v += 3) subset.push_back(v);

  const auto run = [&](unsigned threads) {
    Network net(opts(kN, seed, /*track=*/false));
    parallel::ParallelEngine eng(net,
                                 {.threads = threads, .shard_size = 16,
                                  .keep_history = true});
    std::vector<std::uint32_t> hits(kN, 0);
    auto hooks = make_hooks(
        [](std::uint32_t v) -> std::optional<Contact> {
          return Contact::push_random(Message::count(v));
        },
        no_hook, [&hits](std::uint32_t t, const Message&) { ++hits[t]; });
    for (unsigned r = 0; r < 12; ++r) eng.run_round(hooks, subset);
    return std::pair<RunStats, std::vector<std::uint32_t>>(eng.metrics().run(), hits);
  };

  auto [stats_1, hits_1] = run(1);
  auto [stats_8, hits_8] = run(8);
  expect_runs_equal(stats_1, stats_8);
  EXPECT_EQ(hits_1, hits_8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminism, ::testing::Values(1u, 7u, 1234u));

// ---------------------------------------------------------------------------
// Serial parity where trajectories are shared: rounds that consume no
// engine randomness (direct addressing only) must match the serial Engine
// bit for bit - same metrics, same knowledge graph, same deliveries.
// ---------------------------------------------------------------------------

// Star workload: every non-hub node direct-pushes its ID to the hub or
// direct-pulls the hub's state, alternating by round parity; the hub
// responds with a count. All addressing is via IDs learned at setup.
struct StarRunResult {
  RunStats stats;
  std::vector<std::uint64_t> state;
  std::uint64_t knowledge;
};

StarRunResult run_star(Network& net, Engine& eng, unsigned rounds) {
  const NodeId hub_id = net.id_of(0);
  // Teach everyone the hub (and the hub everyone) so direct contacts are
  // legal from round one.
  if (auto* k = net.knowledge()) {
    for (std::uint32_t v = 1; v < net.n(); ++v) {
      k->learn(v, hub_id, net.id_of(v));
      k->learn(0, net.id_of(v), hub_id);
    }
  }
  std::vector<std::uint64_t> state(net.n(), 0);
  unsigned round = 0;
  auto hooks = make_hooks(
      [&](std::uint32_t v) -> std::optional<Contact> {
        if (v == 0) return std::nullopt;
        if (round % 2 == 0) {
          return Contact::push_direct(hub_id, Message::single_id(net.id_of(v)));
        }
        return Contact::pull_direct(hub_id);
      },
      [&](std::uint32_t v) { return Message::count(state[v]); },
      [&](std::uint32_t r, const Message& m) { state[r] += m.ids().size(); },
      [&](std::uint32_t q, const Message& m) {
        if (m.has_count()) state[q] += m.count_value() % 11;
      });
  for (; round < rounds; ++round) eng.run_round(hooks);
  return StarRunResult{eng.metrics().run(), std::move(state),
                       net.knowledge() ? net.knowledge()->total_knowledge() : 0};
}

TEST(ParallelSerialParity, DirectOnlyRoundsMatchSerialEngine) {
  constexpr std::uint32_t kN = 320;
  constexpr unsigned kRounds = 12;

  Network net_serial(opts(kN, 99));
  Engine serial(net_serial, /*keep_history=*/true);
  const StarRunResult serial_result = run_star(net_serial, serial, kRounds);

  for (const unsigned threads : {1u, 3u}) {
    Network net_par(opts(kN, 99));
    parallel::ParallelEngine par(net_par,
                                 {.threads = threads, .shard_size = 64,
                                  .keep_history = true});
    const StarRunResult par_result = run_star(net_par, par, kRounds);
    expect_runs_equal(serial_result.stats, par_result.stats);
    EXPECT_EQ(serial_result.state, par_result.state) << "threads=" << threads;
    EXPECT_EQ(serial_result.knowledge, par_result.knowledge);
    expect_knowledge_equal(net_serial, net_par);
  }
}

// The model's honesty rules still fire from worker threads: a direct
// contact to an unlearned ID is rejected (the pool propagates the
// ContractViolation to the caller).
TEST(ParallelSerialParity, DirectAddressingViolationPropagates) {
  constexpr std::uint32_t kN = 64;
  Network net(opts(kN, 4));
  parallel::ParallelEngine eng(net, {.threads = 4, .shard_size = 8});
  const NodeId stranger = net.id_of(kN - 1);
  auto hooks = make_hooks([&](std::uint32_t v) -> std::optional<Contact> {
    if (v == 7) return Contact::push_direct(stranger, Message::rumor());
    return std::nullopt;
  });
  EXPECT_THROW(eng.run_round(hooks), ContractViolation);
}

// ---------------------------------------------------------------------------
// Opt-in surfaces: run-option threads fields.
// ---------------------------------------------------------------------------

TEST(ParallelOptIn, UniformBaselineThreadsFieldIsDeterministic) {
  const auto run = [](unsigned threads) {
    NetworkOptions o;
    o.n = 4096;
    o.seed = 21;
    Network net(o);
    baselines::UniformOptions uo;
    uo.threads = threads;
    return baselines::run_push_pull(net, 0, uo);
  };
  const auto a = run(1);
  const auto b = run(2);
  const auto c = run(8);
  EXPECT_TRUE(a.all_informed);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.rounds, c.rounds);
  EXPECT_EQ(a.stats.total.connections, b.stats.total.connections);
  EXPECT_EQ(a.stats.total.connections, c.stats.total.connections);
  EXPECT_EQ(a.stats.total.payload_messages, b.stats.total.payload_messages);
  EXPECT_EQ(a.stats.total.bits, c.stats.total.bits);
  EXPECT_EQ(a.stats.total.max_involvement, c.stats.total.max_involvement);
}

TEST(ParallelOptIn, DriverThreadsFieldIsDeterministic) {
  const auto run = [](unsigned threads) {
    NetworkOptions o;
    o.n = 512;
    o.seed = 13;
    Network net(o);
    Engine eng(net, /*keep_history=*/true);
    cluster::DriverOptions d;
    d.validate = true;
    d.threads = threads;
    cluster::Driver driver(eng, d);
    // Elect every 16th node a leader, then run uniform-heavy primitives.
    for (std::uint32_t v = 0; v < net.n(); ++v) {
      if (v % 16 == 0) {
        driver.clustering().make_leader(v);
      } else {
        driver.clustering().set_follow(v, net.id_of((v / 16) * 16));
      }
    }
    driver.set_all_active(true);
    driver.push_cluster_id(/*only_active=*/true, /*recruit_unclustered=*/true,
                           cluster::RelayPolicy::kSmallest);
    driver.relay_candidates(cluster::RelayPolicy::kSmallest,
                            /*only_inactive_relayers=*/false);
    driver.compute_sizes(/*only_active=*/false);
    (void)driver.unclustered_pull_round();
    std::vector<NodeId> follows;
    follows.reserve(net.n());
    for (std::uint32_t v = 0; v < net.n(); ++v) follows.push_back(driver.clustering().follow(v));
    return std::pair<RunStats, std::vector<NodeId>>(eng.metrics().run(), follows);
  };
  auto [stats_1, follows_1] = run(1);
  auto [stats_4, follows_4] = run(4);
  expect_runs_equal(stats_1, stats_4);
  EXPECT_EQ(follows_1, follows_4);
}

// Consecutive sharded engines over ONE network must run independent
// trajectories (each enable consumes a master-stream draw to seed its shard
// streams), mirroring how consecutive serial engines advance the shared
// master stream. A replayed contact graph would silently correlate
// "independent" phases and trials.
TEST(ParallelOptIn, ConsecutiveShardedEnginesAreIndependent) {
  constexpr std::uint32_t kN = 2048;
  Network net(opts(kN, 5, /*track=*/false));
  const auto hit_pattern = [&net] {
    parallel::ParallelEngine eng(net, {.threads = 2});
    std::vector<std::uint32_t> hits(net.n(), 0);
    auto hooks = make_hooks(
        [](std::uint32_t) -> std::optional<Contact> {
          return Contact::push_random(Message::rumor());
        },
        no_hook, [&hits](std::uint32_t r, const Message&) { ++hits[r]; });
    for (unsigned r = 0; r < 3; ++r) eng.run_round(hooks);
    return hits;
  };
  const auto first = hit_pattern();
  const auto second = hit_pattern();
  EXPECT_NE(first, second);

  // Determinism is unharmed: a fresh same-seed network reproduces both.
  Network net2(opts(kN, 5, /*track=*/false));
  const auto replay = [&net2] {
    parallel::ParallelEngine eng(net2, {.threads = 8});
    std::vector<std::uint32_t> hits(net2.n(), 0);
    auto hooks = make_hooks(
        [](std::uint32_t) -> std::optional<Contact> {
          return Contact::push_random(Message::rumor());
        },
        no_hook, [&hits](std::uint32_t r, const Message&) { ++hits[r]; });
    for (unsigned r = 0; r < 3; ++r) eng.run_round(hooks);
    return hits;
  };
  EXPECT_EQ(first, replay());
  EXPECT_EQ(second, replay());
}

// ---------------------------------------------------------------------------
// Fault rounds: a mid-run crash plus a lossy channel drop the same payloads,
// contact for contact. Drop decisions are keyed by (seed, round, initiator),
// never by the draw path, so every sharded thread count agrees, and on
// direct-addressed rounds the serial executor agrees too.
// ---------------------------------------------------------------------------

struct FaultRunResult {
  RunStats stats;
  std::vector<std::uint64_t> pushes_seen, replies_seen;
  std::uint64_t deliveries = 0;  ///< on_push calls
};

FaultRunResult run_faulted_exchanges(unsigned threads, bool direct) {
  constexpr std::uint32_t kN = 900;
  constexpr unsigned kRounds = 12;
  Network net(opts(kN, 31, /*track=*/false));
  auto fault = std::make_unique<CompositeFault>();
  fault->add(std::make_unique<ScheduledCrash>(/*crash_round=*/3, /*count=*/90,
                                              FaultStrategy::kRandomSubset))
      .add(std::make_unique<LossyChannel>(0.25));
  Rng adversary(net.rng().fork(0xadbead));
  fault->on_run_begin(net, adversary);
  std::unique_ptr<Engine> eng;
  if (threads == 0) {
    eng = std::make_unique<Engine>(net, /*keep_history=*/true);
  } else {
    eng = std::make_unique<parallel::ParallelEngine>(
        net, parallel::ParallelOptions{
                 .threads = threads, .shard_size = 64, .keep_history = true});
  }
  eng->set_fault_model(fault.get());

  FaultRunResult res;
  res.pushes_seen.assign(kN, 0);
  res.replies_seen.assign(kN, 0);
  unsigned round = 0;
  auto hooks = make_hooks(
      [&](std::uint32_t v) -> std::optional<Contact> {
        if (!direct) return Contact::exchange_random(Message::count(v));
        const std::uint32_t partner = (v + 1 + round % (kN - 1)) % kN;
        return Contact::exchange_direct(net.id_of(partner), Message::count(v));
      },
      [&](std::uint32_t v) { return Message::count(res.pushes_seen[v]); },
      [&](std::uint32_t r, const Message& m) {
        ++res.deliveries;
        res.pushes_seen[r] += 1 + m.count_value() % 5;
      },
      [&](std::uint32_t q, const Message& m) { res.replies_seen[q] += m.count_value() % 97; });
  for (; round < kRounds; ++round) eng->run_round(hooks);
  res.stats = eng->metrics().run();
  return res;
}

void expect_fault_runs_equal(const FaultRunResult& a, const FaultRunResult& b,
                             const char* what) {
  expect_runs_equal(a.stats, b.stats);
  EXPECT_EQ(a.pushes_seen, b.pushes_seen) << what;
  EXPECT_EQ(a.replies_seen, b.replies_seen) << what;
  EXPECT_EQ(a.deliveries, b.deliveries) << what;
}

TEST(ParallelFaults, LossyScheduledCrashDropsAgreePerContact) {
  for (const bool direct : {false, true}) {
    const FaultRunResult reference = run_faulted_exchanges(1, direct);
    // The faults really bite: some metered pushes were never delivered.
    EXPECT_GT(reference.deliveries, 0u);
    EXPECT_LT(reference.deliveries, reference.stats.total.pushes);
    for (const unsigned threads : {2u, 8u}) {
      expect_fault_runs_equal(reference, run_faulted_exchanges(threads, direct),
                              direct ? "sharded direct" : "sharded random");
    }
    if (direct) {
      expect_fault_runs_equal(reference, run_faulted_exchanges(0, direct),
                              "serial direct");
    }
  }
}

// Serial default stays serial: threads=0 leaves the engine untouched, so the
// baselines' default trajectories are unchanged from PR 1.
TEST(ParallelOptIn, DefaultRemainsSerialTrajectory) {
  const auto run = [](unsigned threads) {
    NetworkOptions o;
    o.n = 2048;
    o.seed = 77;
    Network net(o);
    baselines::UniformOptions uo;
    uo.threads = threads;
    return baselines::run_push(net, 0, uo);
  };
  const auto serial_a = run(0);
  const auto serial_b = run(0);
  EXPECT_EQ(serial_a.rounds, serial_b.rounds);
  EXPECT_EQ(serial_a.stats.total.connections, serial_b.stats.total.connections);
}

}  // namespace
}  // namespace gossip::sim
