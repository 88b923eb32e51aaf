// Deterministic reservoir sampling for high-volume telemetry events.
//
// Per-contact loss drops (and byzantine corruptions) can number in the
// millions per round; the event log keeps at most kEventSampleCap of them
// per round. The sample must be part of the determinism contract - the SAME
// events must survive for every engine thread count and shard
// decomposition - so a classic streaming reservoir (whose survivors depend on
// arrival order) is out. Instead each candidate gets a priority that is a
// pure function of (round key, node), and the sample is the k candidates
// with the SMALLEST priorities. Priorities are iid-uniform hashes, so the
// survivors are a uniform k-subset; selection by order statistics is
// insensitive to arrival order and merges associatively, so per-shard
// samples folded in shard order equal the serial sample bit-for-bit.
//
// This header is dependency-light on purpose: it is included from the
// sharded phase-1 buffers (sim/parallel/shard.hpp) as well as from the
// event log, and must not pull sim/ headers into the shard layer.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace gossip::obs {

/// Default sampled events of one kind kept per round (scenario key
/// `event_sample_cap` overrides). Small: the samples are for "which nodes
/// were hit" spot checks; totals ride the round record.
inline constexpr std::size_t kEventSampleCap = 8;

/// Priority of one candidate event: a pure function of the round key and
/// the node, never of execution order. Distinct (round, node) pairs give
/// independent hash values, so the k smallest form a uniform k-subset.
[[nodiscard]] inline std::uint64_t event_priority(std::uint64_t round_key,
                                                  std::uint64_t node) noexcept {
  return mix64((round_key + 1) * 0x9e3779b97f4a7c15ULL ^
               (node + 1) * 0xbf58476d1ce4e5b9ULL);
}

/// Bottom-k (by priority) candidate set with O(k) insertion. Ties break on
/// the node index, so the selection is a total order even under (vanishingly
/// unlikely) hash collisions.
struct TopKSample {
  struct Entry {
    std::uint64_t priority = 0;
    std::uint32_t node = 0;
  };

  std::vector<Entry> entries = std::vector<Entry>(kEventSampleCap);
  std::size_t count = 0;
  std::size_t cap = kEventSampleCap;

  /// Resizes the reservoir. The cap is part of the experiment identity
  /// (smaller caps keep a different k-subset), never of the execution
  /// order, so determinism is unaffected. Callers set it between rounds;
  /// an in-flight sample is cut down to the new cap's bottom-k.
  void set_cap(std::size_t new_cap) {
    cap = new_cap == 0 ? 1 : new_cap;
    if (entries.size() < cap) entries.resize(cap);
    if (count > cap) {
      std::nth_element(entries.begin(), entries.begin() + cap,
                       entries.begin() + count, before);
      count = cap;
    }
  }

  void clear() noexcept { count = 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count; }

  static bool before(const Entry& a, const Entry& b) noexcept {
    return a.priority != b.priority ? a.priority < b.priority : a.node < b.node;
  }

  void offer(std::uint64_t priority, std::uint32_t node) noexcept {
    const Entry e{priority, node};
    if (count < cap) {
      entries[count++] = e;
      return;
    }
    std::size_t worst = 0;
    for (std::size_t i = 1; i < cap; ++i) {
      if (before(entries[worst], entries[i])) worst = i;
    }
    if (before(e, entries[worst])) entries[worst] = e;
  }

  /// Folds another candidate set in. Associative and commutative (pure
  /// order statistics), so any merge order yields the same sample.
  void merge(const TopKSample& other) noexcept {
    for (std::size_t i = 0; i < other.count; ++i) {
      offer(other.entries[i].priority, other.entries[i].node);
    }
  }
};

}  // namespace gossip::obs
