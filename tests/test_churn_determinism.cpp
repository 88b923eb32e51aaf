// Churn determinism under parallelism (PR 6): a scenario with Poisson
// joins/crashes, a loss burst AND byzantine responders must produce
// bit-identical trajectories across TrialRunner worker counts {1, 2, 8} and
// engine thread counts {1, 2, 8}.
// Join order is part of the round timeline (sync points at round begin),
// arrival counts and crash victims come from (network seed, round) counter
// streams, and response corruption is pure per (seed, round, responder) -
// so none of it may depend on who executes what (mirrors
// test_fault_model_determinism.cpp; CI additionally diffs gossip_run JSON
// on scenarios/churn.scn).
#include <gtest/gtest.h>

#include <vector>

#include "runner/trial_runner.hpp"

namespace gossip::runner {
namespace {

ScenarioSpec churn_spec() {
  ScenarioSpec spec;
  spec.name = "churn-determinism";
  spec.algorithm = "push_pull";
  spec.n = 256;
  spec.trials = 6;
  spec.seed = 11;
  spec.rumor_bits = 128;
  spec.join_rate = 0.8;               // fresh arrivals most rounds
  spec.crash_rate = 0.4;              // mid-run departures
  spec.loss_schedule = "burst:0.2:2:6";  // on a flaky fabric
  spec.byzantine_fraction = 0.05;     // with poisoned pull responses
  return spec;
}

void expect_reports_identical(const std::vector<core::BroadcastReport>& a,
                              const std::vector<core::BroadcastReport>& b,
                              const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].n, b[t].n) << what << " trial " << t;  // joins included
    EXPECT_EQ(a[t].rounds, b[t].rounds) << what << " trial " << t;
    EXPECT_EQ(a[t].informed, b[t].informed) << what << " trial " << t;
    EXPECT_EQ(a[t].alive, b[t].alive) << what << " trial " << t;
    EXPECT_EQ(a[t].stats.total.bits, b[t].stats.total.bits) << what << " trial " << t;
    EXPECT_EQ(a[t].stats.total.payload_messages, b[t].stats.total.payload_messages)
        << what << " trial " << t;
    EXPECT_EQ(a[t].stats.total.connections, b[t].stats.total.connections)
        << what << " trial " << t;
    EXPECT_EQ(a[t].stats.total.max_involvement, b[t].stats.total.max_involvement)
        << what << " trial " << t;
  }
}

void expect_aggregates_identical(const analysis::ReportAggregate& a,
                                 const analysis::ReportAggregate& b,
                                 const char* what) {
  EXPECT_EQ(a.runs, b.runs) << what;
  EXPECT_EQ(a.failures, b.failures) << what;
  EXPECT_EQ(a.rounds.samples(), b.rounds.samples()) << what;
  EXPECT_EQ(a.uninformed.samples(), b.uninformed.samples()) << what;
  EXPECT_EQ(a.total_bits.samples(), b.total_bits.samples()) << what;
  EXPECT_EQ(a.informed_fraction.samples(), b.informed_fraction.samples()) << what;
  EXPECT_EQ(a.estimate_error.samples(), b.estimate_error.samples()) << what;
}

TEST(ChurnDeterminism, ChurnActuallyEngages) {
  const ScenarioResult base = TrialRunner(1).run(churn_spec());
  // The spec's churn must actually move the population, otherwise this
  // suite pins nothing interesting: some trial ends with n above the
  // initial size (joins landed) and some trial loses nodes (crashes fired).
  bool grew = false, shrank = false;
  for (const core::BroadcastReport& r : base.reports) {
    grew = grew || r.n > 256;
    shrank = shrank || r.alive < r.n;
  }
  EXPECT_TRUE(grew);
  EXPECT_TRUE(shrank);
}

TEST(ChurnDeterminism, TrialWorkerCountsAreBitIdentical) {
  const ScenarioSpec spec = churn_spec();
  const ScenarioResult base = TrialRunner(1).run(spec);
  for (const unsigned workers : {2u, 8u}) {
    const ScenarioResult result = TrialRunner(workers).run(spec);
    expect_reports_identical(base.reports, result.reports, "workers");
    expect_aggregates_identical(base.aggregate, result.aggregate, "workers");
  }
}

TEST(ChurnDeterminism, EngineThreadCountsAreBitIdentical) {
  ScenarioSpec spec = churn_spec();
  spec.engine_threads = 1;
  const ScenarioResult base = TrialRunner(1).run(spec);
  for (const unsigned engine_threads : {2u, 8u}) {
    spec.engine_threads = engine_threads;
    const ScenarioResult result = TrialRunner(1).run(spec);
    expect_reports_identical(base.reports, result.reports, "engine_threads");
    expect_aggregates_identical(base.aggregate, result.aggregate, "engine_threads");
  }
}

TEST(ChurnDeterminism, NestedEngineAndTrialParallelism) {
  ScenarioSpec spec = churn_spec();
  spec.engine_threads = 2;
  const ScenarioResult base = TrialRunner(1).run(spec);
  for (const unsigned workers : {2u, 8u}) {
    const ScenarioResult result = TrialRunner(workers).run(spec);
    expect_reports_identical(base.reports, result.reports, "nested");
    expect_aggregates_identical(base.aggregate, result.aggregate, "nested");
  }
}

TEST(ChurnDeterminism, MembershipServiceIsExecutorInvariant) {
  // The membership algorithm mutates per-listener state in delivery hooks
  // and samples digests from per-(node, round) streams; its trajectories -
  // estimate errors included - must survive every executor shape.
  ScenarioSpec spec;
  spec.name = "membership-determinism";
  spec.algorithm = "membership";
  spec.n = 128;
  spec.trials = 3;
  spec.seed = 21;
  spec.join_rate = 0.5;
  spec.crash_rate = 0.3;
  spec.byzantine_fraction = 0.1;
  const ScenarioResult base = TrialRunner(1).run(spec);
  {
    const ScenarioResult result = TrialRunner(2).run(spec);
    expect_reports_identical(base.reports, result.reports, "membership workers=2");
    expect_aggregates_identical(base.aggregate, result.aggregate,
                                "membership workers=2");
  }
  {
    ScenarioSpec alt = spec;
    alt.engine_threads = 0;  // serial engine is the same trajectory universe
    const ScenarioResult result = TrialRunner(8).run(alt);
    expect_reports_identical(base.reports, result.reports, "membership workers");
    expect_aggregates_identical(base.aggregate, result.aggregate,
                                "membership workers");
  }
}

}  // namespace
}  // namespace gossip::runner
