// Deterministic parameter schedules derived from n (and Delta).
//
// Every node knows n (paper Section 2), so all loop lengths, thresholds and
// probabilities below are program constants computable locally - no
// communication is needed to agree on them. Centralising them here keeps
// Cluster2/Cluster3 in sync and makes the calibration testable.
#pragma once

#include <cstdint>

#include "core/options.hpp"

namespace gossip::core {

/// Smallest network the Cluster2 schedule (and so Cluster3's, which builds
/// on it) is defined for; compute_cluster2_schedule requires n >= this.
inline constexpr std::uint64_t kCluster2MinN = 16;

/// Smallest Delta the Cluster3 schedule accepts (paper: Delta =
/// log^omega(1) n); compute_cluster3_schedule also requires Delta <= n.
inline constexpr std::uint64_t kCluster3MinDelta = 16;

/// Concrete Cluster2 schedule for an n-node network.
struct Cluster2Schedule {
  std::uint64_t threshold = 0;   ///< grow-phase cluster size cap (paper: C' log^3 n)
  std::uint64_t seeds = 0;       ///< expected number of singleton seeds
  double seed_prob = 0.0;        ///< per-node seeding probability
  unsigned grow_rounds = 0;      ///< GrowInitialClusters iterations
  std::uint64_t s0 = 0;          ///< SquareClusters entry size
  std::uint64_t s_target = 0;    ///< SquareClusters exit threshold
  unsigned bounded_push_iters = 0;
  unsigned pull_rounds = 0;
};

[[nodiscard]] Cluster2Schedule compute_cluster2_schedule(std::uint64_t n,
                                                         const Cluster2Options& opts);

/// Concrete Cluster3(Delta) schedule.
struct Cluster3Schedule {
  std::uint64_t cluster_target = 0;  ///< D = Delta / C'': the realized cluster size
  Cluster2Schedule grow;             ///< capped grow/square schedule
  unsigned bounded_push_iters = 0;
  unsigned pull_rounds = 0;
};

[[nodiscard]] Cluster3Schedule compute_cluster3_schedule(std::uint64_t n, std::uint64_t delta,
                                                         const Cluster3Options& opts);

}  // namespace gossip::core
