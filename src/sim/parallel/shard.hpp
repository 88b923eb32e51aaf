// Per-shard state of the sharded phase-1 executor.
//
// Phase 1 (initiate + target draw + payload metering + queue encoding) is
// embarrassingly parallel once three kinds of shared mutation are factored
// out into thread-local buffers:
//   * uniform target draws   -> a counter-based RNG stream per (round, shard)
//                               (Rng::fork(round, shard) off one base
//                               generator), so the draw sequence depends only
//                               on the shard decomposition, never on threads;
//   * metrics                -> a plain RoundStats delta per shard, plus the
//                               contact endpoint list for the involvement
//                               counters (those need the global per-node
//                               histogram and are replayed at merge time);
//   * pending deliveries and -> one PushQueue + PendingPull vector per shard,
//     knowledge learning        replayed/merged in shard-index order, which
//                               equals global initiator order because shards
//                               are contiguous initiator ranges.
// The merge (engine side) walks shards 0..k-1, so every thread count -
// including 1 - produces bit-identical trajectories for a fixed shard size.
// Only phase 1 is sharded: phases 2-3 run on the engine's calling thread,
// replaying the shards' queues in shard order.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "obs/provenance.hpp"
#include "obs/sample.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel/thread_pool.hpp"
#include "sim/push_queue.hpp"

namespace gossip::sim::parallel {

/// Initiators per shard. Part of the determinism contract: trajectories are
/// a function of (seed, rounds run, shard size) - changing the shard size
/// re-keys the draw streams, changing the thread count never does. Small
/// enough for load balancing across oversubscribed pools, large enough that
/// per-shard setup (one two-level RNG fork, buffer resets) amortises away.
inline constexpr std::uint32_t kDefaultShardSize = 8192;

/// Uniform draws per bulk refill within a shard (capped by the shard's own
/// initiator count, since a shard can never need more draws than that).
inline constexpr std::size_t kShardDrawBatch = 1024;

struct ShardBuffer {
  RoundStats stats;  ///< additive counters only; max_involvement stays 0
  std::vector<std::pair<std::uint32_t, std::uint32_t>> endpoints;
  /// Pending pushes (sim/push_queue.hpp): phase 2 replays the shards'
  /// queues in shard order, so each receiver sees its deliveries in global
  /// initiator order.
  PushQueue pushes;
  std::vector<PendingPull> pulls;

  Rng rng{0};
  std::vector<std::uint32_t> draw_buf;
  std::size_t draw_pos = 0;
  std::size_t draw_len = 0;
  std::size_t draw_chunk = 0;

  /// Telemetry: per-shard loss-drop total plus the deterministic bottom-k
  /// candidate sample (obs/sample.hpp), folded in shard order at merge
  /// time. Keyed by the engine's sharded round key, so the sample set is a
  /// pure function of the trajectory, not of the thread count.
  std::uint64_t loss_drops = 0;
  obs::TopKSample drop_sample;
  std::uint64_t obs_round = 0;

  /// Provenance (obs/provenance.hpp): the armed tracer this round (null =
  /// untraced) and the shard's first-inform candidates, appended in
  /// initiator order and applied by the engine's serial shard-order merge.
  /// The tracer's bitmap is READ-only here - phase 1 never writes it, so
  /// the probe is race-free across shards.
  const obs::ProvenanceTracer* tracer = nullptr;
  std::vector<obs::TraceCandidate> trace_candidates;

  /// Re-arms the shard for one round: clears the buffers (capacity kept),
  /// adopts the engine's provenance tracer (null when untraced) and
  /// event-sample cap, and re-keys the draw stream from the base generator.
  void begin_round(const Rng& base, std::uint64_t round, std::uint64_t shard,
                   std::size_t initiator_count,
                   const obs::ProvenanceTracer* round_tracer,
                   std::size_t sample_cap) {
    stats = RoundStats{};
    endpoints.clear();
    pushes.clear();
    pulls.clear();
    rng = base.fork(round, shard);
    draw_pos = 0;
    draw_len = 0;
    draw_chunk = std::min(kShardDrawBatch, initiator_count);
    loss_drops = 0;
    drop_sample.set_cap(sample_cap);
    drop_sample.clear();
    obs_round = round;
    tracer = round_tracer;
    trace_candidates.clear();
  }

  /// Next uniform draw from [0, bound), bulk-refilled from the shard stream.
  // GOSSIP_HOT
  std::uint32_t next_draw(std::uint64_t bound) {
    if (draw_pos == draw_len) {
      if (draw_buf.size() < draw_chunk) draw_buf.resize(draw_chunk);
      rng.fill_uniform_below(bound,
                            std::span<std::uint32_t>(draw_buf.data(), draw_chunk));
      draw_len = draw_chunk;
      draw_pos = 0;
    }
    return draw_buf[draw_pos++];
  }
};

/// Phase-1 sink writing into one shard (see detail::run_phase1 in
/// sim/engine.hpp for the contract). Only counts are metered here; the
/// endpoint list carries what the involvement counters and the knowledge
/// tracker need for the serial, deterministic merge.
struct ShardSink {
  ShardBuffer& sb;
  std::uint64_t draw_bound;  ///< n - 1
  bool want_endpoints;

  void record_initiator() { ++sb.stats.initiators; }
  // GOSSIP_HOT
  std::uint32_t draw_other(std::uint32_t node) {
    std::uint32_t t = sb.next_draw(draw_bound);
    if (t >= node) ++t;
    // Uniform-other contract: the skip-self adjustment must keep the target
    // inside [0, n) and away from the initiator, or the draw stream and the
    // contact graph silently diverge from the model.
    GOSSIP_DCHECK_MSG(t <= draw_bound && t != node,
                      "draw_other produced an out-of-range or self target");
    return t;
  }
  void record_push(std::uint32_t, std::uint32_t, std::uint64_t bits, bool has_payload) {
    sb.stats.add_push(bits, has_payload);
  }
  void record_pull_request(std::uint32_t, std::uint32_t) {
    sb.stats.add_pull_request();
  }
  void on_contact(std::uint32_t a, std::uint32_t b) {
    if (want_endpoints) sb.endpoints.emplace_back(a, b);
  }
  // GOSSIP_HOT
  void enqueue_push(std::uint32_t to, std::uint32_t src, std::uint8_t chan,
                    Message&& msg) {
    if (msg.has_rumor() && sb.tracer != nullptr && !sb.tracer->informed(to)) {
      // gossip-lint: allow(hot-push-back) at most one candidate per uninformed
      // receiver per round; amortized across the run
      sb.trace_candidates.push_back(obs::TraceCandidate{to, src, chan});
    }
    sb.pushes.enqueue(to, std::move(msg));
  }
  // GOSSIP_HOT
  void enqueue_pull(std::uint32_t from, std::uint32_t responder, std::uint8_t chan) {
    // gossip-lint: allow(hot-push-back) shard-local pending-pull buffer;
    // capacity is retained across rounds so growth amortizes away
    sb.pulls.push_back(PendingPull{from, responder, chan});
  }
  void record_loss(std::uint32_t initiator) {
    ++sb.loss_drops;
    sb.drop_sample.offer(obs::event_priority(sb.obs_round, initiator),
                         initiator);
  }
};

/// Everything the engine owns when sharded execution is enabled.
class Phase1Sharder {
 public:
  /// `stream_seed` keys every shard stream this sharder will hand out. The
  /// engine derives it from one master-stream draw at enable time, so (a) it
  /// is deterministic in the network seed and the engine's construction
  /// order, (b) it never varies with the thread count, and (c) two engines
  /// sharded over the SAME network get independent draw streams - a second
  /// broadcast must not replay the first one's contact graph.
  Phase1Sharder(std::uint64_t stream_seed, unsigned threads, std::uint32_t shard_size)
      : pool_(threads),
        shard_size_(shard_size == 0 ? kDefaultShardSize : shard_size),
        stream_base_(mix64(stream_seed ^ 0x7a5ba11e15eedULL)) {}

  [[nodiscard]] ThreadPool& pool() noexcept { return pool_; }
  [[nodiscard]] unsigned threads() const noexcept { return pool_.threads(); }
  [[nodiscard]] std::uint32_t shard_size() const noexcept { return shard_size_; }
  [[nodiscard]] const Rng& stream_base() const noexcept { return stream_base_; }

  /// Shard count for an initiator span, fixing this round's decomposition.
  [[nodiscard]] std::size_t shard_count(std::size_t initiators) const noexcept {
    return (initiators + shard_size_ - 1) / shard_size_;
  }

  /// Buffers for `count` shards this round (existing capacity reused).
  [[nodiscard]] std::span<ShardBuffer> acquire(std::size_t count) {
    if (shards_.size() < count) shards_.resize(count);
    return std::span<ShardBuffer>(shards_.data(), count);
  }

 private:
  ThreadPool pool_;
  std::uint32_t shard_size_;
  Rng stream_base_;
  std::vector<ShardBuffer> shards_;
};

}  // namespace gossip::sim::parallel
