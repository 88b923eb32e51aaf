// Uniform random phone call gossip baselines (paper references [12], [10]):
//   PUSH      - every informed node pushes the rumor to a uniform random node;
//   PULL      - every uninformed node pulls from a uniform random node;
//   PUSH-PULL - both per round (each node initiates one contact: a push if
//               informed, a pull otherwise).
//
// Termination convention: these protocols have no local termination rule
// (that is Karp et al.'s point); we stop at the first round in which every
// alive node is informed (an oracle measurement, standard in gossip
// simulation) or at a generous O(log n) cap. The measured message counts are
// therefore *lower* bounds for deployable variants - which only strengthens
// every comparison in which the paper's algorithms win.
#pragma once

#include <cstdint>

#include "core/report.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"

namespace gossip::obs {
struct Telemetry;
}  // namespace gossip::obs

namespace gossip::baselines {

struct UniformOptions {
  /// 0 = auto: 10 * ceil(log2 n) + 50 rounds.
  unsigned max_rounds = 0;
  /// 0 = serial engine (the default, trajectory-compatible with PR 1).
  /// >= 1 = sharded phase-1 execution across this many threads; results are
  /// bit-identical for every thread count >= 1 but re-key the uniform draw
  /// streams, so they differ from the serial trajectory (see the Threading
  /// model notes in sim/engine.hpp).
  unsigned threads = 0;
  /// Initiators per phase-1 shard when threads >= 1 (0 = the default width;
  /// part of the sharded determinism contract - see sim/parallel/shard.hpp).
  std::uint32_t shard_size = 0;
  /// Fault scenario on the run's round timeline (sim/fault.hpp). Non-owning;
  /// the caller invokes on_run_begin itself. Null = fault-free. With mid-run
  /// crashes the oracle stop condition ("every alive node informed") is
  /// evaluated exactly - informed nodes that later crash no longer count.
  sim::FaultModel* fault = nullptr;
  /// Observability handle attached to the run's engine (src/obs/); the
  /// baselines install an informed-count probe so time-series records carry
  /// the informed set's size per round. Non-owning. Null = detached.
  obs::Telemetry* telemetry = nullptr;
};

[[nodiscard]] core::BroadcastReport run_push(sim::Network& net, std::uint32_t source,
                                             UniformOptions options = UniformOptions());
[[nodiscard]] core::BroadcastReport run_pull(sim::Network& net, std::uint32_t source,
                                             UniformOptions options = UniformOptions());
[[nodiscard]] core::BroadcastReport run_push_pull(sim::Network& net, std::uint32_t source,
                                                  UniformOptions options = UniformOptions());

}  // namespace gossip::baselines
