#include "runner/trial_runner.hpp"

#include <memory>

#include "common/rng.hpp"
#include "common/rss.hpp"
#include "obs/provenance.hpp"
#include "runner/registry.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"

namespace gossip::runner {

std::vector<const obs::Telemetry*> ScenarioResult::telemetry_views() const {
  std::vector<const obs::Telemetry*> views;
  views.reserve(telemetry.size());
  for (const auto& t : telemetry) views.push_back(t.get());
  return views;
}

TrialRunner::TrialRunner(unsigned workers) : pool_(workers == 0 ? 1 : workers) {}

core::BroadcastReport TrialRunner::run_trial(const ScenarioSpec& spec,
                                             unsigned trial,
                                             obs::Telemetry* telemetry) {
  const AlgorithmEntry& algo = require_algorithm(spec.algorithm);
  Rng trial_rng = Rng(spec.seed).fork(trial);
  const std::uint64_t network_seed = trial_rng.next_u64();
  const std::uint64_t adversary_seed = trial_rng.next_u64();

  sim::NetworkOptions net_opts;
  net_opts.n = spec.n;
  net_opts.seed = network_seed;
  net_opts.rumor_bits = spec.rumor_bits;
  // Join headroom for churn scenarios (== n when churn is off, so join-free
  // specs build byte-identical networks).
  net_opts.max_nodes = spec.max_nodes();
  sim::Network net(net_opts);

  // Event observer BEFORE the fault model runs: a StaticCrash fails its set
  // below, and those crashes must land at obs::kPreRunRound (the EventLog's
  // initial round). The algorithm's Engine::set_telemetry re-installs the
  // same observer later, which is idempotent. The provenance tracer is armed
  // over the full join-headroom capacity so mid-run joiners get slots too.
  if (telemetry != nullptr) {
    net.set_observer(&telemetry->events);
    telemetry->events.set_sample_cap(spec.event_sample_cap);
    telemetry->provenance.arm(net.capacity());
  }

  // Fault setup before any algorithm randomness (obliviousness): a
  // StaticCrash fails its set here; a ScheduledCrash only commits to its
  // victims and fires later on the engine's round timeline. Legacy
  // fault_fraction/fault_strategy specs map to StaticCrash and consume the
  // adversary stream exactly as the old choose_failures recipe did.
  const std::unique_ptr<sim::FaultModel> fault = spec.make_fault_model();
  if (fault) {
    Rng adversary(adversary_seed);  // oblivious: independent of the run's seed
    fault->on_run_begin(net, adversary);
  }

  auto source = static_cast<std::uint32_t>(trial_rng.uniform_below(spec.n));
  while (!net.alive(source)) source = (source + 1) % spec.n;
  if (telemetry != nullptr) telemetry->provenance.note_seed(source);

  core::BroadcastReport report = algo.run(net, source, spec, fault.get(), telemetry);
  if (telemetry != nullptr) {
    // Dispersion-tree shape of this trial's spread (obs/provenance.hpp).
    // Derived from the tracer's first-inform records, which are receiver-
    // local and delivery-order-invariant, so these two metrics inherit the
    // full workers x engine-threads determinism contract.
    const obs::SpreadMetrics sm = obs::spread_metrics(telemetry->provenance);
    report.spread_depth = static_cast<double>(sm.depth);
    report.direct_share = sm.direct_share;
  }
  return report;
}

ScenarioResult TrialRunner::run(const ScenarioSpec& spec) {
  spec.validate();
  (void)require_algorithm(spec.algorithm);  // fail fast, before any trial runs

  ScenarioResult result;
  result.spec = spec;
  result.reports.resize(spec.trials);

  // Telemetry handles are attached to EVERY trial: the spread metrics
  // (spread_depth / direct_share) ride the provenance tracer, and the report
  // carries them unconditionally. Telemetry consumes no randomness and never
  // alters trajectories, so always-attaching keeps every historical
  // trajectory bit-identical. The handles are only KEPT in the result when
  // an output path (or --progress) asked for them.
  const bool keep = spec.wants_telemetry() || spec.progress;
  std::unique_ptr<obs::ProgressMeter> meter;
  if (spec.progress) meter = std::make_unique<obs::ProgressMeter>(spec.trials);
  result.telemetry.resize(spec.trials);
  for (unsigned t = 0; t < spec.trials; ++t) {
    auto telemetry = std::make_shared<obs::Telemetry>();
    telemetry->rounds.reserve(512);
    if (meter) telemetry->rounds.set_progress(meter.get(), t);
    result.telemetry[t] = std::move(telemetry);
  }

  pool_.parallel_for(spec.trials, [&](std::size_t t) {
    result.reports[t] = run_trial(spec, static_cast<unsigned>(t),
                                  result.telemetry[t].get());
  });
  // The meter dies with this frame; recorders outlive it in the result.
  if (meter) {
    for (auto& t : result.telemetry) t->rounds.set_progress(nullptr, 0);
  }
  if (!keep) result.telemetry.clear();
  // Trial-order merge: the aggregate never sees completion order, so it is
  // bit-identical for every worker count.
  for (const core::BroadcastReport& r : result.reports) result.aggregate.add(r);
  result.peak_rss_bytes = peak_rss_bytes();
  return result;
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  return TrialRunner(spec.threads).run(spec);
}

}  // namespace gossip::runner
