// Recovery supervisor + PartitionFault (PR 10): the self-healing layer must
// (a) actually heal - supervised decapitation + partition runs reach
// informed_fraction 1.0 where the brittle baseline strands ~80% of the
// network - and (b) heal DETERMINISTICALLY: recovery trajectories and the
// re-election/fallback EventLog entries are bit-identical across TrialRunner
// workers {1,2,8} x sharded engine threads {1,2,8}. Plus unit coverage for the PartitionFault window/component
// semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "runner/trial_runner.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"

namespace gossip::runner {
namespace {

// Decapitation (smallest-ID crash wave at round 4 beheads the merge
// leaders) + a partition window across the whole primary run. Seed 507 is
// chosen so the source survives the crash set on both trials: recovery is
// then information-theoretically possible, and the supervisor must deliver
// re-election (epoch 1) AND the push-pull fallback (budget 1 exhausts while
// the partition still stands; the fallback outlives the heal at round 80).
ScenarioSpec recovery_spec() {
  ScenarioSpec spec;
  spec.name = "recovery-golden";
  spec.algorithm = "cluster1";
  spec.n = 256;
  spec.trials = 2;
  spec.seed = 507;
  spec.fault_fraction = 0.2;
  spec.fault_strategy = sim::FaultStrategy::kSmallestIds;
  spec.crash_round = 4;
  spec.partition_round = 0;
  spec.heal_round = 80;
  spec.recovery = true;
  spec.retry_budget = 1;
  spec.events = "armed";  // any non-empty path arms EventLog collection
  return spec;
}

/// The determinism-covered serialisation: a per-trial report digest plus
/// the full event log (which carries every kReelect/kFallback handoff).
/// The scenario echo is deliberately excluded - `engine_threads` is part
/// of the experiment identity and differs across the matrix by design.
std::string golden(const ScenarioResult& result) {
  std::ostringstream os;
  for (const core::BroadcastReport& r : result.reports) {
    os << r.rounds << ' ' << r.informed << ' ' << r.alive << ' '
       << r.stats.total.bits << ' ' << r.stats.total.payload_messages << '\n';
  }
  obs::ExportOptions opt;
  opt.timing = false;
  obs::write_events_jsonl(os, result.telemetry_views(), opt);
  return os.str();
}

std::map<obs::EventKind, std::size_t> event_counts(const ScenarioResult& result) {
  std::map<obs::EventKind, std::size_t> kinds;
  for (const auto& telemetry : result.telemetry) {
    for (const obs::Event& e : telemetry->events.events()) ++kinds[e.kind];
  }
  return kinds;
}

TEST(RecoverySupervisor, HealsWhatStrandsTheBrittleBaseline) {
  ScenarioSpec brittle = recovery_spec();
  brittle.recovery = false;
  brittle.retry_budget = 0;
  const ScenarioResult stranded = TrialRunner(1).run(brittle);
  // The crash wave beheads the merge leaders and the partition blocks the
  // survivors: without a supervisor most of the network never hears the
  // rumor (seed 507: ~20% mean informed fraction).
  EXPECT_LT(stranded.aggregate.informed_fraction.mean(), 0.5);

  const ScenarioResult healed = TrialRunner(1).run(recovery_spec());
  EXPECT_EQ(healed.aggregate.failures, 0u);
  EXPECT_DOUBLE_EQ(healed.aggregate.informed_fraction.min(), 1.0);

  // Both recovery paths actually ran: re-election in epoch 1, then the
  // budget-exhausted fallback to plain PUSH-PULL.
  const auto kinds = event_counts(healed);
  EXPECT_GT(kinds.at(obs::EventKind::kReelect), 0u);
  EXPECT_GT(kinds.at(obs::EventKind::kFallback), 0u);
}

TEST(RecoverySupervisor, GoldenAcrossWorkers) {
  // Serial-engine universe: the TrialRunner worker count is a pure
  // scheduling choice - reports AND the event log must be bit-identical.
  const std::string base = golden(TrialRunner(1).run(recovery_spec()));
  ASSERT_FALSE(base.empty());
  EXPECT_NE(base.find("\"kind\":\"reelect\""), std::string::npos);
  EXPECT_NE(base.find("\"kind\":\"fallback\""), std::string::npos);
  for (const unsigned workers : {2u, 8u}) {
    EXPECT_EQ(golden(TrialRunner(workers).run(recovery_spec())), base)
        << "workers=" << workers;
  }
}

TEST(RecoverySupervisor, GoldenAcrossEngineThreads) {
  // Sharded-engine universe (a different trajectory family than serial - the
  // shard draw streams re-key): with shard_size pinned, the engine thread
  // count is pure scheduling and must not move a single bit.
  const auto sharded_spec = [](unsigned engine_threads) {
    ScenarioSpec spec = recovery_spec();
    spec.engine_threads = engine_threads;
    spec.shard_size = 64;  // pinned: shard geometry is identity, threads are not
    return spec;
  };
  const std::string base = golden(TrialRunner(1).run(sharded_spec(1)));
  ASSERT_FALSE(base.empty());
  EXPECT_NE(base.find("\"kind\":\"fallback\""), std::string::npos);
  for (const unsigned engine_threads : {1u, 2u, 8u}) {
    EXPECT_EQ(golden(TrialRunner(2).run(sharded_spec(engine_threads))), base)
        << "engine_threads=" << engine_threads;
  }
}

TEST(RecoverySupervisor, RecoveryOffIsUntouchedByTheNewKnobs) {
  // The acceptance bar for PR 9 compatibility: recovery=false must not
  // consume any randomness or rounds - two identical brittle runs and a
  // brittle run from a spec that never heard of recovery keys agree bit
  // for bit.
  ScenarioSpec plain;
  plain.name = "recovery-off";
  plain.algorithm = "cluster1";
  plain.n = 256;
  plain.trials = 2;
  plain.seed = 507;
  plain.fault_fraction = 0.2;
  plain.fault_strategy = sim::FaultStrategy::kSmallestIds;
  plain.crash_round = 4;
  ScenarioSpec with_defaults = plain;
  with_defaults.recovery = false;
  with_defaults.retry_budget = 0;
  const ScenarioResult a = TrialRunner(1).run(plain);
  const ScenarioResult b = TrialRunner(1).run(with_defaults);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t t = 0; t < a.reports.size(); ++t) {
    EXPECT_EQ(a.reports[t].rounds, b.reports[t].rounds);
    EXPECT_EQ(a.reports[t].informed, b.reports[t].informed);
    EXPECT_EQ(a.reports[t].stats.total.bits, b.reports[t].stats.total.bits);
  }
}

TEST(RecoverySupervisor, ReportsTheRecoveryPhase) {
  const ScenarioResult healed = TrialRunner(1).run(recovery_spec());
  for (const core::BroadcastReport& r : healed.reports) {
    bool saw_recovery = false;
    for (const core::PhaseBreakdown& p : r.phases) {
      if (p.name == "recovery") {
        saw_recovery = true;
        EXPECT_GT(p.rounds, 0u);
      }
    }
    EXPECT_TRUE(saw_recovery) << "supervised run missing the recovery phase";
  }
}

// ---------------------------------------------------------------------------
// PartitionFault unit semantics
// ---------------------------------------------------------------------------

sim::Network partition_net(std::uint32_t n = 128, std::uint64_t seed = 21) {
  sim::NetworkOptions o;
  o.n = n;
  o.seed = seed;
  return sim::Network(o);
}

TEST(PartitionFault, WindowGatesTheComponentView) {
  sim::Network net = partition_net();
  Rng adversary(3);
  sim::PartitionFault fault(5, 10, 4);
  fault.on_run_begin(net, adversary);
  EXPECT_EQ(fault.partition_components(4), nullptr);   // before the split
  EXPECT_EQ(fault.partition_components(10), nullptr);  // healed (half-open)
  const std::uint32_t* labels = fault.partition_components(5);
  ASSERT_NE(labels, nullptr);
  EXPECT_EQ(labels, fault.partition_components(9));  // stable across the window
  std::map<std::uint32_t, std::uint32_t> sizes;
  for (std::uint32_t v = 0; v < net.n(); ++v) {
    ASSERT_LT(labels[v], 4u);
    ++sizes[labels[v]];
  }
  // Uniform labels over n=128, 4 parts: every component is non-empty with
  // overwhelming probability - an empty one would make the "split" vacuous.
  EXPECT_EQ(sizes.size(), 4u);
}

TEST(PartitionFault, ComponentsAreAPureFunctionOfTheNetworkSeed) {
  // The labels must NOT depend on the adversary stream (its consumption
  // order varies with the fault-model composition): same network seed =>
  // same components, different adversary seeds notwithstanding.
  sim::Network net_a = partition_net(128, 21);
  sim::Network net_b = partition_net(128, 21);
  Rng adv_a(3), adv_b(999);
  sim::PartitionFault fault_a(0, 8, 3), fault_b(0, 8, 3);
  fault_a.on_run_begin(net_a, adv_a);
  fault_b.on_run_begin(net_b, adv_b);
  for (std::uint32_t v = 0; v < net_a.n(); ++v) {
    EXPECT_EQ(fault_a.component_of(v), fault_b.component_of(v)) << "node " << v;
  }
  // ... and a different network seed re-deals them.
  sim::Network net_c = partition_net(128, 22);
  sim::PartitionFault fault_c(0, 8, 3);
  fault_c.on_run_begin(net_c, adv_a);
  bool any_differ = false;
  for (std::uint32_t v = 0; v < net_c.n(); ++v) {
    any_differ |= fault_c.component_of(v) != fault_a.component_of(v);
  }
  EXPECT_TRUE(any_differ);
}

TEST(PartitionFault, RejectsDegenerateShapes) {
  EXPECT_THROW(sim::PartitionFault(10, 10, 2), ContractViolation);  // empty window
  EXPECT_THROW(sim::PartitionFault(12, 10, 2), ContractViolation);  // inverted
  EXPECT_THROW(sim::PartitionFault(0, 10, 1), ContractViolation);   // one "part"
}

TEST(PartitionFault, CompositeForwardsThePartitionView) {
  sim::CompositeFault composite;
  composite.add(std::make_unique<sim::PartitionFault>(2, 6, 2));
  sim::Network net = partition_net();
  Rng adversary(3);
  composite.on_run_begin(net, adversary);
  EXPECT_EQ(composite.partition_components(1), nullptr);
  EXPECT_NE(composite.partition_components(2), nullptr);
  EXPECT_NE(composite.describe().find("partition"), std::string::npos);
}

TEST(PartitionFault, CrossComponentContactsDropAsLoss) {
  // Scenario-level check of the engine wiring: a partition with no heal
  // before the round cap pins push_pull below full spread (only the
  // source's component can hear the rumor), and the blocked contacts land
  // in the EventLog as loss drops even though loss_prob = 0.
  ScenarioSpec walled;
  walled.name = "walled";
  walled.algorithm = "push_pull";
  walled.n = 256;
  walled.trials = 2;
  walled.seed = 13;
  walled.max_rounds = 30;
  walled.partition_round = 0;
  walled.heal_round = 29;  // heals with one round left: too late to finish
  walled.events = "armed";
  const ScenarioResult blocked = TrialRunner(1).run(walled);
  EXPECT_LT(blocked.aggregate.informed_fraction.max(), 1.0);
  EXPECT_GT(event_counts(blocked)[obs::EventKind::kLossDrop], 0u);

  ScenarioSpec healed = walled;
  healed.max_rounds = 0;  // auto horizon: the heal at 29 leaves time to finish
  const ScenarioResult done = TrialRunner(1).run(healed);
  EXPECT_DOUBLE_EQ(done.aggregate.informed_fraction.min(), 1.0);
}

}  // namespace
}  // namespace gossip::runner
