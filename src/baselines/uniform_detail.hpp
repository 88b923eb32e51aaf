// Shared skeleton for the uniform gossip baselines.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "baselines/uniform.hpp"
#include "common/assert.hpp"
#include "common/math.hpp"
#include "core/report.hpp"
#include "sim/engine.hpp"

namespace gossip::baselines::detail {

/// Exact oracle stop predicate: every alive node is informed. The counter
/// comparison alone is exact only while informed nodes cannot crash (then
/// informed is a subset of alive); with a dynamic fault model the counter
/// may include crashed nodes, so once it reaches the alive count the claim
/// is verified by scanning. Fault-free runs scan at most once (the final
/// round), so trajectories and stop rounds are unchanged.
template <class IsInformed>
[[nodiscard]] bool all_alive_informed(const sim::Network& net,
                                      std::uint64_t informed_count,
                                      IsInformed&& is_informed) {
  if (informed_count < net.alive_count()) return false;  // pigeonhole: exact
  for (std::uint32_t v = 0; v < net.n(); ++v) {
    if (net.alive(v) && !is_informed(v)) return false;
  }
  return true;
}

/// Informed nodes still alive at termination (what BroadcastReport::informed
/// means; under mid-run crashes the raw counter over-counts).
template <class IsInformed>
[[nodiscard]] std::uint64_t count_informed_alive(const sim::Network& net,
                                                 IsInformed&& is_informed) {
  std::uint64_t count = 0;
  for (std::uint32_t v = 0; v < net.n(); ++v) {
    if (net.alive(v) && is_informed(v)) ++count;
  }
  return count;
}

/// Assembles the standard single-phase report after a run.
[[nodiscard]] inline core::BroadcastReport finish_report(const sim::Network& net,
                                                         const sim::Engine& engine,
                                                         std::uint64_t informed_count,
                                                         std::string phase_name) {
  core::BroadcastReport r;
  r.n = net.n();
  r.alive = net.alive_count();
  r.informed = informed_count;
  r.all_informed = r.informed == r.alive;
  r.rounds = engine.rounds();
  r.stats = engine.metrics().run();
  core::PhaseBreakdown pb;
  pb.name = std::move(phase_name);
  pb.rounds = engine.rounds();
  pb.payload_messages = r.stats.total.payload_messages;
  pb.connections = r.stats.total.connections;
  pb.bits = r.stats.total.bits;
  r.phases.push_back(std::move(pb));
  return r;
}

/// Runs a per-round behaviour until all alive nodes are informed (oracle
/// stop) or `max_rounds` elapse, and assembles the standard report.
/// `make_hooks(informed, informed_count)` returns the hooks object for the
/// whole run; it may be any static-dispatch hooks type (see sim/engine.hpp),
/// so each baseline's per-round work is resolved at compile time.
/// `options.threads` >= 1 opts the run into the sharded phase-1 executor
/// (at options.shard_size). `options.fault` (nullable) is installed on the
/// engine's round timeline; its on_run_begin is the caller's job.
template <class MakeHooks>
core::BroadcastReport run_until_informed(sim::Network& net, std::uint32_t source,
                                         unsigned max_rounds,
                                         const UniformOptions& options,
                                         std::string phase_name,
                                         MakeHooks&& make_hooks) {
  GOSSIP_CHECK_MSG(net.alive(source), "source node must be alive");
  sim::Engine engine(net);
  if (options.threads) engine.set_threads(options.threads, options.shard_size);
  engine.set_fault_model(options.fault);
  // Capacity-sized (== n for join-free networks): joiners arriving mid-run
  // are valid receivers from their join round on, and start uninformed.
  std::vector<std::uint8_t> informed(net.capacity(), 0);
  informed[source] = 1;
  std::uint64_t informed_count = 1;

  if (options.telemetry != nullptr) {
    engine.set_telemetry(options.telemetry);
    // The probe captures informed_count by reference; cleared below before
    // the counter goes out of scope.
    options.telemetry->rounds.set_probe([&informed_count] {
      return obs::RoundRecorder::Probe{.informed = informed_count};
    });
  }

  auto hooks = make_hooks(informed, informed_count);
  const auto is_informed = [&](std::uint32_t v) { return informed[v] != 0; };
  while (!all_alive_informed(net, informed_count, is_informed) &&
         engine.rounds() < max_rounds) {
    engine.run_round(hooks);
  }
  if (options.telemetry != nullptr) options.telemetry->rounds.set_probe({});
  return finish_report(net, engine, count_informed_alive(net, is_informed),
                       std::move(phase_name));
}

[[nodiscard]] inline unsigned auto_round_cap(std::uint64_t n, unsigned requested) {
  if (requested) return requested;
  return 10 * gossip::ceil_log2(n) + 50;
}

}  // namespace gossip::baselines::detail
