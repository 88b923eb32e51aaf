#include "core/broadcast.hpp"

#include "common/assert.hpp"
#include "core/cluster1.hpp"
#include "core/cluster2.hpp"
#include "core/cluster3.hpp"
#include "core/cluster_push_pull.hpp"
#include "core/recovery.hpp"
#include "sim/engine.hpp"

namespace gossip::core {

namespace {
/// Runs the recovery supervisor over a finished-but-incomplete broadcast and
/// folds its work into the report: the informed counts are recounted, the
/// totals re-read from the engine (which metered the repair rounds like any
/// others), and the delta attributed as one "recovery" phase.
void maybe_recover(BroadcastReport& report, cluster::Driver& driver,
                   std::vector<std::uint8_t>& informed, sim::Engine& engine,
                   const sim::Network& net, const BroadcastOptions& options) {
  if (!options.recovery.enabled || report.all_informed) return;
  const std::uint64_t rounds_before = engine.rounds();
  const sim::RunStats before = engine.metrics().run();
  RecoverySupervisor supervisor(driver, options.recovery);
  (void)supervisor.run(informed);
  std::uint64_t informed_count = 0;
  for (std::uint32_t v = 0; v < net.n(); ++v) {
    if (net.alive(v) && informed[v]) ++informed_count;
  }
  report.alive = net.alive_count();
  report.informed = informed_count;
  report.all_informed = report.informed == report.alive;
  report.rounds = engine.rounds();
  report.stats = engine.metrics().run();
  PhaseBreakdown pb;
  pb.name = "recovery";
  pb.rounds = report.rounds - rounds_before;
  pb.payload_messages = report.stats.total.payload_messages - before.total.payload_messages;
  pb.connections = report.stats.total.connections - before.total.connections;
  pb.bits = report.stats.total.bits - before.total.bits;
  report.phases.push_back(std::move(pb));
}
}  // namespace

const char* to_string(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kCluster1: return "Cluster1";
    case Algorithm::kCluster2: return "Cluster2";
    case Algorithm::kCluster3PushPull: return "Cluster3+PushPull";
  }
  return "?";
}

BroadcastReport broadcast(sim::Network& net, const BroadcastOptions& options) {
  sim::Engine engine(net);
  engine.set_fault_model(options.fault_model);
  cluster::DriverOptions driver_opts;
  driver_opts.validate = options.validate;
  driver_opts.threads = options.threads;
  driver_opts.shard_size = options.shard_size;
  driver_opts.telemetry = options.telemetry;

  switch (options.algorithm) {
    case Algorithm::kCluster1: {
      Cluster1 algo(engine, options.cluster1, driver_opts, options.observer);
      BroadcastReport report = algo.run(options.source);
      maybe_recover(report, algo.driver(), algo.mutable_informed(), engine, net,
                    options);
      return report;
    }
    case Algorithm::kCluster2: {
      Cluster2 algo(engine, options.cluster2, driver_opts, options.observer);
      BroadcastReport report = algo.run(options.source);
      maybe_recover(report, algo.driver(), algo.mutable_informed(), engine, net,
                    options);
      return report;
    }
    case Algorithm::kCluster3PushPull: {
      Cluster3 builder(engine, options.delta, options.cluster3, driver_opts,
                       options.observer);
      BroadcastReport clustering_report = builder.run();
      ClusterPushPull spread(builder.driver(), options.push_pull);
      BroadcastReport spread_report =
          spread.run(options.source, builder.cluster_target(), /*reset_metrics=*/false);
      // Combined end-to-end accounting (Theorem 4): the engine metered both
      // stages; report total rounds and attribute phases from both reports.
      spread_report.rounds = engine.rounds();
      spread_report.phases.insert(spread_report.phases.begin(),
                                  clustering_report.phases.begin(),
                                  clustering_report.phases.end());
      maybe_recover(spread_report, builder.driver(), spread.mutable_informed(),
                    engine, net, options);
      return spread_report;
    }
  }
  GOSSIP_CHECK_MSG(false, "unknown algorithm");
  return {};
}

}  // namespace gossip::core
