// Membership/suspicion service riding the gossip payload (PR 6).
//
// Every alive node keeps a local membership table: for each peer it has
// heard of, the round it last heard a FRESH signal. Signals ride ordinary
// random phone calls (one EXCHANGE per node per round - the same budget as
// PUSH-PULL): each digest message carries the sender's own ID (its
// heartbeat) plus up to `digest_ids` member IDs sampled from the sender's
// relayable set. Freshness is one-hop:
//
//   * hearing a node FIRST-HAND - the leading digest slot, which the
//     protocol reserves for the sender's own ID - stamps it with the
//     current round (age 0, relayable);
//   * hearing a node SECOND-HAND (a later digest slot) stamps it
//     pessimistically at `round - gossip_ttl`: the information counts
//     against suspicion but is never relayed onwards, so a crashed node's
//     ID cannot circulate forever on relays alone (no gossip ghosts).
//
// Suspicion is local staleness: a peer not refreshed within
// `suspicion_after` rounds is suspected and drops out of the node's relay
// set and its network-size estimate. The headline observable is exactly
// that estimate: estimate_n(v) = 1 + unsuspected peers of v, and the run
// reports the mean relative error |estimate - alive| / alive over alive
// nodes (BroadcastReport::estimate_n_error) plus the fraction of nodes
// within kEstimateEpsilon (the report's `informed`).
//
// Under churn the table chases a moving target: joiners become visible only
// after their ID first rides a digest (they start knowing nobody and dial
// uniformly - allowed by the random phone call model, which needs no
// addresses for random contacts); crashed nodes linger until suspicion
// catches up, ~suspicion_after rounds of over-count. ByzantineResponder
// poisons the response path with stale/garbage IDs that the receiver
// CANNOT distinguish from honest digests - garbage never refreshes, so it
// inflates estimates for up to suspicion_after rounds per injection.
//
// Determinism: digests are sampled from per-(node, round) forked streams,
// state mutations in delivery hooks touch only the receiving node's own
// row, and respond() is pure per (responder, round) - so membership
// trajectories are bit-identical across engine thread counts and trial
// workers, churn included.
#pragma once

#include <cstdint>

#include "core/report.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"

namespace gossip::obs {
struct Telemetry;
}  // namespace gossip::obs

namespace gossip::membership {

/// Relative-error threshold under which a node's estimate counts as
/// "informed" in the report.
inline constexpr double kEstimateEpsilon = 0.1;

struct MembershipOptions {
  /// Rounds to run (fixed horizon; membership is a continuous service, not
  /// a terminating broadcast). 0 = auto: 2 * suspicion_after +
  /// 4 * gossip_ttl + 8, long enough to reach the sampling steady state
  /// before estimates are read.
  unsigned rounds = 0;
  /// Relay freshness bound: only peers heard first-hand within this many
  /// rounds ride the node's digests. 0 = auto: ceil(log2 n) + 4.
  unsigned gossip_ttl = 0;
  /// Staleness after which a peer is suspected (and excluded from digests
  /// and estimates). 0 = auto: the window in which a node expects to sample
  /// (almost) the whole directory, max(3 * gossip_ttl,
  /// ceil(5 * n / samples_per_round)) with samples_per_round =
  /// 2 * (1 + digest_ids) - one-hop freshness caps how fast liveness
  /// information spreads, so the window is ~n / polylog(n) rounds. Smaller
  /// windows suspect honest-but-unsampled peers; larger ones let crashed
  /// nodes linger.
  unsigned suspicion_after = 0;
  /// Sampled member IDs per digest, on top of the sender's own ID. 0 =
  /// auto: 2 * gossip_ttl, which matches the expected relayable-set size
  /// (~2 first-hand contacts per round within the ttl window) - a wider
  /// digest would only repeat entries.
  unsigned digest_ids = 0;
  unsigned threads = 0;            ///< sharded phase-1 executor (0 = serial)
  std::uint32_t shard_size = 0;    ///< shard width when threads >= 1
  sim::FaultModel* fault = nullptr;    ///< non-owning; on_run_begin is the caller's job
  /// Observability handle attached to the run's engine (src/obs/); the
  /// service installs a per-round probe exporting the mean network-size
  /// estimate over alive nodes (`estimate_n` in time-series records; the
  /// run has no informed set, so `informed` stays null). Non-owning.
  obs::Telemetry* telemetry = nullptr;
};

/// Runs the membership service for the configured horizon and reports the
/// estimate accuracy reached. `seed_node` bootstraps nothing special - every
/// initial node starts knowing only itself - but is kept so the runner's
/// (net, source, spec) calling convention applies; it must be alive.
[[nodiscard]] core::BroadcastReport run_membership(sim::Network& net,
                                                   std::uint32_t seed_node,
                                                   const MembershipOptions& options);

}  // namespace gossip::membership
