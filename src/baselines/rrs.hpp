// Randomized Rumor Spreading with counters - the min-counter variant of
// Karp, Schindelhauer, Shenker & Vocking [FOCS 2000] (paper reference [10]),
// the pre-Avin-Elsasser state of the art the paper compares against:
// O(log n) rounds with only O(log log n) rumor transmissions per node.
//
// Mechanics: every round each participating node opens one random phone call
// and exchanges {rumor, counter} both ways (push-pull). An uninformed node
// that receives the rumor enters state B with counter 1. A B-node that
// talked to a partner whose counter was >= its own increments its counter;
// when the counter exceeds ctr_max = O(log log n) the node enters state C
// and stops initiating transmissions (it still answers). Uninformed nodes
// keep placing calls (empty exchanges) until informed.
#pragma once

#include <cstdint>

#include "core/report.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"

namespace gossip::obs {
struct Telemetry;
}  // namespace gossip::obs

namespace gossip::baselines {

struct RrsOptions {
  /// 0 = auto: ceil(log2 log2 n) + 2 (the O(log log n) state-B lifetime).
  unsigned ctr_max = 0;
  /// 0 = auto: 10 * ceil(log2 n) + 50.
  unsigned max_rounds = 0;
  /// Fault scenario on the round timeline (sim/fault.hpp; nullable,
  /// non-owning; the caller invokes on_run_begin itself).
  sim::FaultModel* fault = nullptr;
  /// Observability handle attached to the run's engine (src/obs/), with an
  /// informed-count probe. Non-owning. Null = detached.
  obs::Telemetry* telemetry = nullptr;
};

[[nodiscard]] core::BroadcastReport run_rrs(sim::Network& net, std::uint32_t source,
                                            RrsOptions options = RrsOptions());

}  // namespace gossip::baselines
