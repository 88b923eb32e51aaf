// One-call public API: broadcast a rumor with one of the paper's algorithms.
//
//   gossip::sim::Network net({.n = 1'000'000, .seed = 7});
//   auto report = gossip::core::broadcast(net, {.algorithm =
//       gossip::core::Algorithm::kCluster2});
//
// For the Delta-bounded variant (kCluster3PushPull) the call builds the
// Delta-clustering with Cluster3 and then broadcasts with ClusterPushPull;
// the returned report covers the combined execution (Theorem 4's end-to-end
// accounting). Baseline algorithms live in gossip::baselines and return the
// same BroadcastReport type.
#pragma once

#include <cstdint>

#include "core/options.hpp"
#include "core/phase_observer.hpp"
#include "core/report.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"

namespace gossip::obs {
struct Telemetry;
}  // namespace gossip::obs

namespace gossip::core {

enum class Algorithm {
  kCluster1,          ///< Algorithm 1: round-optimal
  kCluster2,          ///< Algorithm 2: round-, message- and bit-optimal
  kCluster3PushPull,  ///< Algorithms 4+3: Delta-bounded communication
};

[[nodiscard]] const char* to_string(Algorithm a) noexcept;

struct BroadcastOptions {
  Algorithm algorithm = Algorithm::kCluster2;
  std::uint32_t source = 0;
  /// Communication bound for kCluster3PushPull (>= 16).
  std::uint64_t delta = 1024;
  /// Enable the O(n) structural invariant checks (tests/debugging).
  bool validate = false;
  /// 0 = serial engine (default). >= 1 = sharded phase-1 execution across
  /// this many threads (plumbed to DriverOptions.threads; see the Threading
  /// model notes in sim/engine.hpp for the determinism contract).
  unsigned threads = 0;
  /// Initiators per phase-1 shard when threads >= 1 (0 = default width;
  /// plumbed to DriverOptions.shard_size).
  std::uint32_t shard_size = 0;
  /// Fault scenario on the run's round timeline (scheduled crashes, lossy
  /// channels; see sim/fault.hpp). Non-owning - must outlive the call. The
  /// caller invokes on_run_begin itself (faults and seeding are harness
  /// concerns; TrialRunner does both). Null = fault-free.
  sim::FaultModel* fault_model = nullptr;
  /// Observability handle attached to the run's engine/driver (src/obs/;
  /// plumbed to DriverOptions.telemetry). Non-owning. Null = detached. The
  /// cluster algorithms keep their informed state internal, so records carry
  /// no informed count (exported as null).
  obs::Telemetry* telemetry = nullptr;
  Cluster1Options cluster1;
  Cluster2Options cluster2;
  Cluster3Options cluster3;
  ClusterPushPullOptions push_pull;
  /// Self-healing (core/recovery.hpp): when enabled and the algorithm ends
  /// with uninformed alive nodes, a recovery supervisor runs repair epochs
  /// (suspicion-driven leader re-election, watchdogged re-share, bounded
  /// backoff) and finally degrades to plain PUSH-PULL, so the run completes
  /// with a verdict. Disabled (the default) adds zero rounds and keeps
  /// trajectories bit-identical to builds without a supervisor.
  RecoveryOptions recovery;
  PhaseObserverFn observer;
};

/// Runs the selected algorithm on a fresh engine over `net`.
[[nodiscard]] BroadcastReport broadcast(sim::Network& net, const BroadcastOptions& options);

}  // namespace gossip::core
