// Spread provenance tracing (PR 8): who informed whom, in which round, over
// which channel. The paper's bounds (Theorems 13/19) are statements about
// the SHAPE of the dispersion process - direct addressing flattens the
// depth-O(log n) blind push-pull tree into a short, wide dispersal - so the
// tracer records, at each node's FIRST-inform moment, the triple
// (informer, round, channel) into a capacity-sized flat array. One store
// per node per run; nothing per delivery after a node is informed.
//
// Determinism: first-inform is receiver-local. The engine's delivery phases
// already fix a per-receiver delivery order that is invariant across
// engine threads (README "Determinism contracts"), so the FIRST
// rumor-bearing delivery a node sees - and hence the recorded triple - is
// bit-identical across TrialRunner workers x engine threads. The tracer itself is order-insensitive only in the
// trivial sense (first write wins); it relies on the engine replaying
// deliveries in that pinned order.
//
// Cost model: the informed set lives in a separate bitmap (capacity/8
// bytes - LLC-resident even at n = 4M). Push provenance costs one bitmap
// probe per rumor-bearing ENQUEUE in phase 1 (see TraceCandidate below -
// the push wire format and phase 2 replay are untouched); pull-response
// provenance costs one probe per rumor-bearing delivery in phase 3. The
// 9-byte Entry array is touched only on the one first-inform write per
// node, and once every armed slot is informed, active() turns false and
// the engine skips tracing entirely.
//
// Dependency-light on purpose: included from the event-log header (the
// telemetry handle aggregates a tracer) and, transitively, from the sharded
// phase-1 buffers - it must not pull sim/ headers into the shard layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace gossip::obs {

/// First-inform provenance store. Detached (never armed) it is an empty
/// vector and two scalars; armed it is O(capacity) memory and O(1) per
/// rumor-bearing delivery.
class ProvenanceTracer {
 public:
  // Channel encoding: bits 0-1 = contact kind of the informing delivery,
  // bit 2 = direct addressing (the initiator dialled a learned ID instead
  // of drawing uniformly). kChanSeed marks the rumor source itself.
  static constexpr std::uint8_t kChanPush = 0;
  static constexpr std::uint8_t kChanPullResponse = 1;
  static constexpr std::uint8_t kChanExchange = 2;
  static constexpr std::uint8_t kKindMask = 3;
  static constexpr std::uint8_t kDirectBit = 4;
  static constexpr std::uint8_t kChanSeed = 0xFF;

  static constexpr std::uint32_t kNoInformer = 0xFFFFFFFFu;
  /// Seeds are informed "before round 0" - same clock convention as
  /// obs::kPreRunRound.
  static constexpr std::int32_t kSeedRound = -1;

  struct Entry {
    std::uint32_t informer = kNoInformer;
    std::int32_t round = 0;
    std::uint8_t channel = 0;
  };

  /// Arms the tracer for node indices [0, capacity). Clears any previous
  /// trace. Capacity is the network's join ceiling (Network::capacity()),
  /// not the initial n - joiners get slots too.
  void arm(std::uint32_t capacity) {
    capacity_ = capacity;
    remaining_ = capacity;
    enabled_ = capacity > 0;
    entries_.assign(capacity, Entry{});
    words_.assign((static_cast<std::size_t>(capacity) + 63) / 64, 0);
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// True while there are still uninformed slots worth tracing. The engine
  /// re-checks this per round and skips the candidate probes and traced
  /// phase-3 path once the trace is complete.
  [[nodiscard]] bool active() const noexcept { return enabled_ && remaining_ != 0; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t informed_count() const noexcept {
    return capacity_ - remaining_;
  }

  [[nodiscard]] bool informed(std::uint32_t node) const noexcept {
    return node < capacity_ &&
           (words_[node >> 6] & (1ULL << (node & 63))) != 0;
  }

  /// Per-node trace, indexed by node. Slots of never-informed nodes keep
  /// informer == kNoInformer.
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }

  /// Marks the rumor source: informed at kSeedRound by itself.
  void note_seed(std::uint32_t node) noexcept {
    note_first_inform(node, node, kSeedRound, kChanSeed);
  }

  /// First write wins; later calls for an already-informed node are a
  /// single bitmap probe.
  // GOSSIP_HOT
  void note_first_inform(std::uint32_t node, std::uint32_t informer,
                         std::int64_t round, std::uint8_t channel) noexcept {
    if (node >= capacity_) return;
    std::uint64_t& w = words_[node >> 6];
    const std::uint64_t bit = 1ULL << (node & 63);
    if ((w & bit) != 0) return;
    w |= bit;
    entries_[node] = Entry{informer, static_cast<std::int32_t>(round), channel};
    --remaining_;
  }

  /// Serial-executor fast path: claim `node`'s first-inform NOW (bitmap bit
  /// + informed count), deferring only the Entry store to the apply sweep.
  /// Returns true iff this call claimed it. Only valid where writing the
  /// bitmap is safe, i.e. the serial phase-1 sink - whose enqueue order is
  /// already global initiator order - never the parallel shards. Claiming at
  /// enqueue time dedups same-round candidates at the source, so the serial
  /// apply sweep writes exactly one Entry per claim (note_claimed_entry).
  ///
  /// Precondition: node < capacity(). The engine guarantees it by tracing a
  /// round only when the armed capacity covers the network's join ceiling
  /// (every enqueue target is < n <= Network::capacity()); this is the one
  /// per-contact call on the traced hot path, so it skips the bounds
  /// re-check that the cold entry points keep. Audit builds re-arm the check
  /// (GOSSIP_AUDIT; an unarmed tracer has capacity 0, so ANY claim fires).
  // GOSSIP_HOT
  [[nodiscard]] bool try_claim(std::uint32_t node) GOSSIP_AUDIT_NOEXCEPT {
    GOSSIP_DCHECK_MSG(node < capacity_,
                      "try_claim past the armed capacity (unarmed tracer?)");
    std::uint64_t& w = words_[node >> 6];
    const std::uint64_t bit = 1ULL << (node & 63);
    if ((w & bit) != 0) return false;
    w |= bit;
    --remaining_;
    return true;
  }

  /// Entry store for a node previously claimed via try_claim. The bitmap
  /// and count are already settled, so this is one unconditional store.
  // GOSSIP_HOT
  void note_claimed_entry(std::uint32_t node, std::uint32_t informer,
                          std::int64_t round, std::uint8_t channel) GOSSIP_AUDIT_NOEXCEPT {
    GOSSIP_DCHECK_MSG(node < capacity_ && informed(node),
                      "note_claimed_entry without a prior try_claim");
    entries_[node] = Entry{informer, static_cast<std::int32_t>(round), channel};
  }

  /// Prefetches the bitmap word for `node` - the delivery loops issue this
  /// a few entries ahead so the informed probe never stalls on DRAM.
  void prefetch(std::uint32_t node) const noexcept {
    if (node < capacity_) __builtin_prefetch(&words_[node >> 6], 1, 3);
  }

  /// Prefetches just the entry slot - for the serial apply sweep, whose
  /// candidates are pre-claimed (the bitmap is never touched again).
  void prefetch_entry_slot(std::uint32_t node) const noexcept {
    if (node < capacity_) __builtin_prefetch(&entries_[node], 1, 3);
  }

  /// Prefetches the bitmap word AND the entry slot - the candidate apply
  /// loop issues this a lookahead window ahead: unlike the phase-3 probes,
  /// almost every candidate actually writes its entry (it was uninformed at
  /// enqueue time), and the entry array is too big for L2 at large n.
  void prefetch_entry(std::uint32_t node) const noexcept {
    if (node < capacity_) {
      __builtin_prefetch(&words_[node >> 6], 1, 3);
      __builtin_prefetch(&entries_[node], 1, 3);
    }
  }

 private:
  std::vector<Entry> entries_;
  std::vector<std::uint64_t> words_;  ///< informed bitmap, 1 bit per node
  std::uint32_t capacity_ = 0;
  std::uint32_t remaining_ = 0;
  bool enabled_ = false;
};

/// One potential first-inform, recorded by the phase-1 sinks at ENQUEUE
/// time: the engine's delivery phases replay each receiver's pushes in
/// global initiator order, so the first rumor-bearing enqueue a receiver
/// gets IS its first push delivery. The serial sink claims the bitmap bit
/// on the spot (try_claim - its enqueue order is initiator order, and
/// claiming dedups same-round candidates at the source); parallel shards
/// may only READ the bitmap race-free, so they buffer candidates that the
/// engine replays in shard order - equal to initiator order - between
/// phases 1 and 2, where note_first_inform's first-write-wins settles
/// same-round duplicates to the identical result. Either way the push wire
/// format - and phase 2's replay cost - stays untouched by tracing.
struct TraceCandidate {
  std::uint32_t to;
  std::uint32_t src;
  std::uint8_t chan;
};

/// Dispersion-tree shape of one trial's trace. Every field is a pure
/// function of the trace content, so it inherits the trace's bit-identical
/// determinism across all parallelism axes.
struct SpreadMetrics {
  std::uint64_t informed = 0;       ///< nodes with a trace entry (seeds included)
  std::uint32_t depth = 0;          ///< max hops from a seed
  std::uint32_t max_branching = 0;  ///< most first-informs credited to one node
  double mean_branching = 0.0;      ///< mean children over internal nodes
  double direct_share = 0.0;        ///< non-seed entries delivered via a dialled ID
};

/// Sentinel depth for nodes that were never informed.
inline constexpr std::uint32_t kNoDepth = 0xFFFFFFFFu;

/// Hop distance from the nearest seed for every node (kNoDepth when never
/// informed). An informer that is itself uninformed - possible only for
/// byzantine-forged payloads - roots its subtree at depth 0.
[[nodiscard]] std::vector<std::uint32_t> spread_depths(const ProvenanceTracer& tracer);

[[nodiscard]] SpreadMetrics spread_metrics(const ProvenanceTracer& tracer);

/// "seed" | "push" | "pull_response" | "exchange" (direct bit ignored).
[[nodiscard]] const char* channel_name(std::uint8_t channel) noexcept;

}  // namespace gossip::obs
