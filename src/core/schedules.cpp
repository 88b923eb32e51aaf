#include "core/schedules.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/math.hpp"

namespace gossip::core {

Cluster2Schedule compute_cluster2_schedule(std::uint64_t n, const Cluster2Options& opts) {
  GOSSIP_CHECK(n >= kCluster2MinN);
  Cluster2Schedule s;
  const double log_n = std::max(2.0, log2d(n));

  // Grow-phase cluster threshold (paper: C' log^3 n, exponent calibrated to
  // the simulable regime - see options.hpp).
  s.threshold = std::max<std::uint64_t>(
      8, static_cast<std::uint64_t>(std::llround(opts.grow_size_factor * log_n * log_n / 4.0)));

  // Seeds from the mass relationship  seeds * threshold ~= n / log n, which
  // is what keeps only Theta(n / log n) nodes clustered (Lemma 11). The
  // floor of 16 protects tiny networks from the Poisson variance of
  // independent sampling (a 4-seed mean draws <= 1 seed a few percent of
  // the time); it is inactive for n >= 2^14.
  const double seeds = std::max(
      16.0, opts.mass_factor * static_cast<double>(n) /
                (static_cast<double>(s.threshold) * log_n));
  s.seeds = static_cast<std::uint64_t>(std::llround(seeds));
  s.seed_prob = std::min(1.0, seeds / static_cast<double>(n));

  // Doubling growth needs ~log2(threshold) recruiting iterations.
  s.grow_rounds = static_cast<unsigned>(std::ceil(std::log2(static_cast<double>(s.threshold)))) +
                  opts.extra_grow_rounds;

  s.s0 = std::max<std::uint64_t>(4, s.threshold / 2);
  // SquareClusters exit: (n log n)^(1/3) is the 2-repetition reachability
  // bound for MergeAllClusters (DESIGN.md section 4); the paper's
  // sqrt(n)/log^2 n sits below it in the simulable regime.
  s.s_target = std::max<std::uint64_t>(
      s.threshold,
      static_cast<std::uint64_t>(std::llround(std::cbrt(static_cast<double>(n) * log_n))));

  // BoundedClusterPush must take the clustered mass (seeds * threshold) to
  // Theta(n); growth per iteration is at least ~1.5x while a constant
  // fraction of the network is unclustered.
  const double mass = static_cast<double>(s.seeds) * static_cast<double>(s.threshold);
  s.bounded_push_iters =
      static_cast<unsigned>(std::ceil(std::log2(std::max(2.0, static_cast<double>(n) / mass)) /
                                      std::log2(1.5))) +
      opts.extra_bounded_push_rounds;
  s.pull_rounds = ceil_loglog2(n) + opts.extra_pull_rounds;
  return s;
}

Cluster3Schedule compute_cluster3_schedule(std::uint64_t n, std::uint64_t delta,
                                           const Cluster3Options& opts) {
  GOSSIP_CHECK_MSG(delta >= kCluster3MinDelta,
                   "Cluster3 needs Delta >= " << kCluster3MinDelta
                                              << " (paper: Delta = log^omega(1) n)");
  GOSSIP_CHECK_MSG(delta <= n, "Delta cannot exceed n");
  Cluster3Schedule s;
  const double log_n = std::max(2.0, log2d(n));

  s.cluster_target =
      std::max<std::uint64_t>(4, static_cast<std::uint64_t>(
                                     static_cast<double>(delta) / opts.delta_slack));

  // Grow/square phases are Cluster2's, but clusters must never outgrow the
  // Delta-scale: cap the threshold at D/4 and the squaring exit at
  // sqrt(Delta log n)/C'' (paper Algorithm 4 line 2), itself capped at D.
  s.grow = compute_cluster2_schedule(n, opts.grow);
  s.grow.threshold = std::min(s.grow.threshold,
                              std::max<std::uint64_t>(4, s.cluster_target / 4));
  // Re-derive the seed count from the (possibly capped) threshold so the
  // clustered mass stays at Theta(n / log n) - otherwise small Delta would
  // shrink the mass quadratically and starve BoundedClusterPush.
  const double seeds =
      std::max(16.0, opts.grow.mass_factor * static_cast<double>(n) /
                         (static_cast<double>(s.grow.threshold) * log_n));
  s.grow.seeds = static_cast<std::uint64_t>(std::llround(seeds));
  s.grow.seed_prob = std::min(1.0, seeds / static_cast<double>(n));
  s.grow.s0 = std::max<std::uint64_t>(4, s.grow.threshold / 2);
  const auto square_exit = static_cast<std::uint64_t>(
      std::sqrt(static_cast<double>(delta) * log_n) / opts.delta_slack);
  // Squaring with activation 1/s needs ~mass/s^2 active clusters; below ~8
  // the whole clustered mass collapses into a handful of clusters in one
  // iteration and their leaders' loads blow through Delta. Cap the exit so
  // the expected active count stays at least 8 (the loop simply skips when
  // the cap falls below s0 - the grow phase already delivers D/2-scale
  // clusters then).
  const double mass_d =
      static_cast<double>(s.grow.seeds) * static_cast<double>(s.grow.threshold);
  const auto active_floor_cap = static_cast<std::uint64_t>(std::sqrt(mass_d / 8.0));
  const std::uint64_t cap =
      std::min<std::uint64_t>(std::max<std::uint64_t>(s.grow.s0, s.cluster_target / 2),
                              std::max<std::uint64_t>(4, active_floor_cap));
  s.grow.s_target = std::min<std::uint64_t>(std::max(square_exit, s.grow.s0), cap);
  s.grow.grow_rounds =
      static_cast<unsigned>(std::ceil(std::log2(static_cast<double>(s.grow.threshold)))) +
      opts.grow.extra_grow_rounds;

  const double mass =
      static_cast<double>(s.grow.seeds) * static_cast<double>(s.grow.threshold);
  s.bounded_push_iters =
      static_cast<unsigned>(std::ceil(std::log2(std::max(2.0, static_cast<double>(n) / mass)) /
                                      std::log2(1.5))) +
      opts.extra_bounded_push_rounds;
  s.pull_rounds = ceil_loglog2(n) + opts.extra_pull_rounds;
  return s;
}

}  // namespace gossip::core
