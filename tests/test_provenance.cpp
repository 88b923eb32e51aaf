// Spread provenance tracing (PR 8): the per-node first-inform trace - as
// serialised by obs::write_provenance_jsonl - must be BIT-IDENTICAL across
// TrialRunner worker counts {1, 2, 8} x sharded engine thread counts
// {1, 2, 8} on a churn + loss burst + byzantine scenario, including mid-run joiners. Plus: the tracer's
// first-write-wins/bitmap semantics, the dispersion-tree metrics, the
// spread_depth/direct_share report metrics, and the event_sample_cap
// scenario key.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/provenance.hpp"
#include "runner/json_report.hpp"
#include "runner/trial_runner.hpp"

namespace gossip::runner {
namespace {

using obs::ProvenanceTracer;

ScenarioSpec provenance_spec() {
  ScenarioSpec spec;
  spec.name = "prov-golden";
  spec.algorithm = "push_pull";
  spec.n = 256;
  spec.trials = 4;
  spec.seed = 11;
  spec.rumor_bits = 128;
  spec.join_rate = 0.8;                  // fresh arrivals most rounds
  spec.crash_rate = 0.4;                 // mid-run departures
  spec.loss_schedule = "burst:0.2:2:6";  // on a flaky fabric
  spec.byzantine_fraction = 0.05;        // with poisoned pull responses
  spec.provenance = "armed";  // any non-empty path arms collection
  return spec;
}

std::string golden(const ScenarioResult& result) {
  std::ostringstream os;
  obs::write_provenance_jsonl(os, result.telemetry_views());
  return os.str();
}

// ---------------------------------------------------------------------------
// Tracer unit semantics.

TEST(ProvenanceTracer, FirstWriteWinsAndSeedsSitAtRoundMinusOne) {
  ProvenanceTracer tracer;
  EXPECT_FALSE(tracer.enabled());
  EXPECT_FALSE(tracer.active());
  tracer.arm(8);
  EXPECT_TRUE(tracer.active());

  tracer.note_seed(3);
  EXPECT_TRUE(tracer.informed(3));
  EXPECT_EQ(tracer.entries()[3].round, ProvenanceTracer::kSeedRound);
  EXPECT_EQ(tracer.entries()[3].channel, ProvenanceTracer::kChanSeed);
  EXPECT_EQ(tracer.entries()[3].informer, 3u);

  tracer.note_first_inform(5, 3, 0, ProvenanceTracer::kChanPush);
  tracer.note_first_inform(5, 7, 1, ProvenanceTracer::kChanExchange);  // loses
  EXPECT_EQ(tracer.entries()[5].informer, 3u);
  EXPECT_EQ(tracer.entries()[5].round, 0);
  EXPECT_EQ(tracer.entries()[5].channel, ProvenanceTracer::kChanPush);

  // Out-of-range nodes are ignored, never recorded.
  tracer.note_first_inform(8, 0, 0, ProvenanceTracer::kChanPush);
  EXPECT_FALSE(tracer.informed(8));
  EXPECT_EQ(tracer.informed_count(), 2u);

  // Once every slot is informed, active() turns false (the engine's cue to
  // drop back to the untraced delivery loops).
  for (std::uint32_t v = 0; v < 8; ++v) {
    tracer.note_first_inform(v, 3, 2, ProvenanceTracer::kChanPullResponse);
  }
  EXPECT_EQ(tracer.informed_count(), 8u);
  EXPECT_TRUE(tracer.enabled());
  EXPECT_FALSE(tracer.active());
}

TEST(ProvenanceTracer, SpreadMetricsOnHandBuiltTree) {
  // seed 0 -> {1 (push), 2 (direct pull)} ; 1 -> 3 ; uninformed 4.
  ProvenanceTracer tracer;
  tracer.arm(5);
  tracer.note_seed(0);
  tracer.note_first_inform(1, 0, 0, ProvenanceTracer::kChanPush);
  tracer.note_first_inform(
      2, 0, 0,
      ProvenanceTracer::kChanPullResponse | ProvenanceTracer::kDirectBit);
  tracer.note_first_inform(3, 1, 1, ProvenanceTracer::kChanPush);

  const std::vector<std::uint32_t> depths = obs::spread_depths(tracer);
  EXPECT_EQ(depths[0], 0u);
  EXPECT_EQ(depths[1], 1u);
  EXPECT_EQ(depths[2], 1u);
  EXPECT_EQ(depths[3], 2u);
  EXPECT_EQ(depths[4], obs::kNoDepth);

  const obs::SpreadMetrics m = obs::spread_metrics(tracer);
  EXPECT_EQ(m.informed, 4u);
  EXPECT_EQ(m.depth, 2u);
  EXPECT_EQ(m.max_branching, 2u);   // the seed informed two nodes
  EXPECT_DOUBLE_EQ(m.mean_branching, 1.5);  // internal nodes 0 and 1
  EXPECT_DOUBLE_EQ(m.direct_share, 1.0 / 3.0);  // one of three non-seed
}

// ---------------------------------------------------------------------------
// The golden determinism contract.

TEST(ProvenanceGolden, BitIdenticalAcrossWorkersAndThreads) {
  ScenarioSpec spec = provenance_spec();
  spec.engine_threads = 1;
  const std::string base = golden(TrialRunner(1).run(spec));
  ASSERT_FALSE(base.empty());
  for (const unsigned workers : {1u, 2u, 8u}) {
    for (const unsigned engine_threads : {1u, 2u, 8u}) {
      ScenarioSpec alt = provenance_spec();
      alt.engine_threads = engine_threads;
      EXPECT_EQ(golden(TrialRunner(workers).run(alt)), base)
          << "workers=" << workers << " engine_threads=" << engine_threads;
    }
  }
}

TEST(ProvenanceGolden, TracesSeedsAndMidRunJoiners) {
  const ScenarioSpec spec = provenance_spec();
  const ScenarioResult result = TrialRunner(2).run(spec);
  ASSERT_EQ(result.telemetry.size(), spec.trials);
  bool joiner_informed = false;
  for (unsigned t = 0; t < spec.trials; ++t) {
    const ProvenanceTracer& tracer = result.telemetry[t]->provenance;
    ASSERT_TRUE(tracer.enabled()) << "trial " << t;
    // Exactly one seed, at round -1, crediting itself.
    std::size_t seeds = 0;
    for (std::uint32_t v = 0; v < tracer.capacity(); ++v) {
      if (!tracer.informed(v)) continue;
      const ProvenanceTracer::Entry& e = tracer.entries()[v];
      if (e.channel == ProvenanceTracer::kChanSeed) {
        ++seeds;
        EXPECT_EQ(e.round, ProvenanceTracer::kSeedRound);
        EXPECT_EQ(e.informer, v);
      } else {
        EXPECT_GE(e.round, 0) << "trial " << t << " node " << v;
        // A mid-run joiner (index >= n) got the rumor: its ID can only
        // have been learned from gossiped membership, then dialled or
        // drawn - either way the trace must cover it.
        if (v >= spec.n) joiner_informed = true;
      }
    }
    EXPECT_EQ(seeds, 1u) << "trial " << t;
    // The tracer saw at least as many informs as the report's alive-only
    // count (crashed-after-inform nodes stay in the trace).
    EXPECT_GE(tracer.informed_count(), result.reports[t].informed)
        << "trial " << t;
  }
  EXPECT_TRUE(joiner_informed)
      << "no trial informed any joined node (index >= n)";
}

// ---------------------------------------------------------------------------
// Report metrics.

TEST(ProvenanceReport, SpreadMetricsAppearInAggregateAndJson) {
  // push_pull draws every contact uniformly, so its first-informs can never
  // carry the direct bit; cluster2 dials learned IDs.
  ScenarioSpec spec;
  spec.name = "prov-report";
  spec.algorithm = "push_pull";
  spec.n = 256;
  spec.trials = 3;
  spec.seed = 9;
  const ScenarioResult uniform = TrialRunner(2).run(spec);
  EXPECT_GT(uniform.aggregate.spread_depth.mean(), 0.0);
  EXPECT_EQ(uniform.aggregate.direct_share.mean(), 0.0);
  EXPECT_EQ(uniform.aggregate.spread_depth.count(), spec.trials);
  for (const core::BroadcastReport& r : uniform.reports) {
    EXPECT_GT(r.spread_depth, 0.0);
    EXPECT_LT(r.spread_depth, static_cast<double>(spec.n));
  }
  // Telemetry was not requested, so the handles were dropped after the
  // metrics were derived.
  EXPECT_TRUE(uniform.telemetry.empty());
  EXPECT_GT(uniform.peak_rss_bytes, 0u);

  spec.algorithm = "cluster2";
  const ScenarioResult clustered = TrialRunner(2).run(spec);
  EXPECT_GT(clustered.aggregate.spread_depth.mean(), 0.0);
  EXPECT_GT(clustered.aggregate.direct_share.mean(), 0.0);

  for (const ScenarioResult* result : {&uniform, &clustered}) {
    std::ostringstream os;
    write_scenario_json(os, *result);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"spread_depth\""), std::string::npos);
    EXPECT_NE(json.find("\"direct_share\""), std::string::npos);
    EXPECT_NE(json.find("\"peak_rss_bytes\""), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// The event_sample_cap scenario key.

TEST(EventSampleCap, RejectsZeroAndGarbage) {
  ScenarioSpec spec;
  EXPECT_THROW(spec.apply("event_sample_cap", "0"), ScenarioError);
  EXPECT_THROW(spec.apply("event_sample_cap", "lots"), ScenarioError);
  EXPECT_THROW(spec.apply("event_sample_cap", "-3"), ScenarioError);
  spec.apply("event_sample_cap", "4");
  EXPECT_EQ(spec.event_sample_cap, 4u);
}

TEST(EventSampleCap, BoundsPerRoundPerKindEvents) {
  ScenarioSpec spec = provenance_spec();
  spec.events = "armed";
  spec.event_sample_cap = 2;
  const ScenarioResult result = TrialRunner(1).run(spec);
  std::map<std::pair<std::int64_t, int>, std::size_t> sampled;  // (round, kind)
  std::size_t loss_drops = 0;
  for (const auto& telemetry : result.telemetry) {
    sampled.clear();
    for (const obs::Event& e : telemetry->events.events()) {
      if (e.kind != obs::EventKind::kLossDrop &&
          e.kind != obs::EventKind::kCorruptResponse) {
        continue;  // joins/crashes are never sampled
      }
      ++sampled[{e.round, static_cast<int>(e.kind)}];
      loss_drops += e.kind == obs::EventKind::kLossDrop;
    }
    for (const auto& [key, count] : sampled) {
      EXPECT_LE(count, 2u) << "round " << key.first << " kind " << key.second;
    }
  }
  EXPECT_GT(loss_drops, 0u);  // the burst actually produced samples
}

}  // namespace
}  // namespace gossip::runner
