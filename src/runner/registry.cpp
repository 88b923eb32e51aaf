#include "runner/registry.hpp"

#include <sstream>

#include "baselines/avin_elsasser.hpp"
#include "baselines/rrs.hpp"
#include "baselines/uniform.hpp"
#include "core/broadcast.hpp"
#include "membership/membership.hpp"
#include "sim/engine.hpp"

namespace gossip::runner {

namespace {

core::BroadcastReport run_core(sim::Network& net, std::uint32_t source,
                               const ScenarioSpec& spec, sim::FaultModel* fault,
                               obs::Telemetry* telemetry, core::Algorithm which) {
  core::BroadcastOptions o;
  o.algorithm = which;
  o.source = source;
  o.delta = spec.delta;
  o.threads = spec.engine_threads;
  o.shard_size = spec.shard_size;
  o.fault_model = fault;
  o.telemetry = telemetry;
  o.recovery.enabled = spec.recovery;
  if (spec.retry_budget != 0) o.recovery.retry_budget = spec.retry_budget;
  return core::broadcast(net, o);
}

baselines::UniformOptions uniform_opts(const ScenarioSpec& spec, sim::FaultModel* fault,
                                       obs::Telemetry* telemetry) {
  baselines::UniformOptions o;
  o.max_rounds = spec.max_rounds;
  o.threads = spec.engine_threads;
  o.shard_size = spec.shard_size;
  o.fault = fault;
  o.telemetry = telemetry;
  return o;
}

}  // namespace

const std::vector<AlgorithmEntry>& algorithms() {
  static const std::vector<AlgorithmEntry> kRegistry = {
      {"cluster1", "Cluster1",
       "Algorithm 1: round-optimal O(log log n) broadcast",
       [](sim::Network& net, std::uint32_t source, const ScenarioSpec& spec,
          sim::FaultModel* fault, obs::Telemetry* telemetry) {
         return run_core(net, source, spec, fault, telemetry,
                         core::Algorithm::kCluster1);
       }},
      {"cluster2", "Cluster2",
       "Algorithm 2: round-, message- and bit-optimal broadcast",
       [](sim::Network& net, std::uint32_t source, const ScenarioSpec& spec,
          sim::FaultModel* fault, obs::Telemetry* telemetry) {
         return run_core(net, source, spec, fault, telemetry,
                         core::Algorithm::kCluster2);
       }},
      {"cluster3_push_pull", "C3+CPP",
       "Algorithms 4+3: Delta-bounded broadcast (uses the spec's delta)",
       [](sim::Network& net, std::uint32_t source, const ScenarioSpec& spec,
          sim::FaultModel* fault, obs::Telemetry* telemetry) {
         return run_core(net, source, spec, fault, telemetry,
                         core::Algorithm::kCluster3PushPull);
       }},
      {"avin_elsasser", "AvinElsasser",
       "DISC'13 baseline: O(sqrt(log n)) rounds via geometric merge phases",
       [](sim::Network& net, std::uint32_t source, const ScenarioSpec& spec,
          sim::FaultModel* fault, obs::Telemetry* telemetry) {
         sim::Engine engine(net);
         engine.set_fault_model(fault);
         cluster::DriverOptions driver_opts;
         driver_opts.threads = spec.engine_threads;
         driver_opts.shard_size = spec.shard_size;
         driver_opts.telemetry = telemetry;
         baselines::AvinElsasser algo(engine, baselines::AvinElsasserOptions(),
                                      driver_opts);
         return algo.run(source);
       }},
      {"rrs", "RRS[10]",
       "Karp et al. min-counter push-pull: O(log n) rounds, O(log log n) "
       "transmissions per node",
       [](sim::Network& net, std::uint32_t source, const ScenarioSpec& spec,
          sim::FaultModel* fault, obs::Telemetry* telemetry) {
         baselines::RrsOptions o;
         o.max_rounds = spec.max_rounds;
         o.fault = fault;
         o.telemetry = telemetry;
         return baselines::run_rrs(net, source, o);
       }},
      {"push_pull", "PUSH-PULL",
       "uniform baseline: informed push, uninformed pull",
       [](sim::Network& net, std::uint32_t source, const ScenarioSpec& spec,
          sim::FaultModel* fault, obs::Telemetry* telemetry) {
         return baselines::run_push_pull(net, source,
                                         uniform_opts(spec, fault, telemetry));
       }},
      {"push", "PUSH", "uniform baseline: every informed node pushes",
       [](sim::Network& net, std::uint32_t source, const ScenarioSpec& spec,
          sim::FaultModel* fault, obs::Telemetry* telemetry) {
         return baselines::run_push(net, source,
                                    uniform_opts(spec, fault, telemetry));
       }},
      {"pull", "PULL", "uniform baseline: every uninformed node pulls",
       [](sim::Network& net, std::uint32_t source, const ScenarioSpec& spec,
          sim::FaultModel* fault, obs::Telemetry* telemetry) {
         return baselines::run_pull(net, source,
                                    uniform_opts(spec, fault, telemetry));
       }},
      {"membership", "Membership",
       "heartbeat/suspicion service over exchange gossip; reports estimate_n "
       "accuracy (see membership/membership.hpp)",
       [](sim::Network& net, std::uint32_t source, const ScenarioSpec& spec,
          sim::FaultModel* fault, obs::Telemetry* telemetry) {
         membership::MembershipOptions o;
         o.rounds = spec.max_rounds;  // 0 = auto horizon
         o.threads = spec.engine_threads;
         o.shard_size = spec.shard_size;
         o.fault = fault;
         o.telemetry = telemetry;
         return membership::run_membership(net, source, o);
       }},
  };
  return kRegistry;
}

const AlgorithmEntry* find_algorithm(std::string_view id) {
  for (const AlgorithmEntry& e : algorithms()) {
    if (id == e.id) return &e;
  }
  return nullptr;
}

const AlgorithmEntry& require_algorithm(std::string_view id) {
  if (const AlgorithmEntry* e = find_algorithm(id)) return *e;
  std::ostringstream os;
  os << "unknown algorithm '" << id << "' (known:";
  for (const AlgorithmEntry& e : algorithms()) os << " " << e.id;
  os << ")";
  throw ScenarioError(os.str());
}

}  // namespace gossip::runner
