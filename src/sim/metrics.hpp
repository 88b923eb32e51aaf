// Round-, message-, bit- and Delta-complexity metering (paper Sections 2, 7).
//
// Two message counts are kept, because the literature counts differently:
//  * payload messages - transmissions that carry content (a push with a
//    non-empty payload, or a non-empty pull response). This matches the
//    rumor-transmission accounting of Karp et al. [10] that the paper's O(1)
//    messages-per-node claims build on.
//  * connections - every initiated contact (all pushes and all pull
//    requests, empty or not). This is the conservative count; the paper's
//    Cluster2 bounds even the number of pulls, so we report both.
// Delta(v, r) = number of communications node v is involved in during round
// r (initiated + received pushes + received pull requests); Section 7 bounds
// its maximum. Involvement needs one counter probe per contact endpoint - a
// guaranteed random cache miss on multi-million-node networks - so it can be
// switched off for raw-throughput runs (set_track_involvement); every other
// measure is unaffected.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace gossip::sim {

/// Counters for a single synchronous round.
struct RoundStats {
  std::uint64_t pushes = 0;
  std::uint64_t pull_requests = 0;
  std::uint64_t pull_responses = 0;   ///< non-empty responses delivered
  std::uint64_t payload_messages = 0; ///< content-carrying transmissions
  std::uint64_t connections = 0;      ///< pushes + pull_requests
  std::uint64_t bits = 0;             ///< payload bits transmitted
  std::uint64_t initiators = 0;       ///< nodes that initiated a contact
  std::uint32_t max_involvement = 0;  ///< max communications of one node (Delta)

  // Counter bumps for one contact, shared by the collector's inline metering
  // and the sharded executor's per-shard deltas so the accounting cannot
  // drift between the two paths (involvement is handled separately - it
  // needs the global per-node histogram).
  void add_push(std::uint64_t push_bits, bool has_payload) noexcept {
    ++pushes;
    ++connections;
    if (has_payload) {
      ++payload_messages;
      bits += push_bits;
    }
  }
  void add_pull_request() noexcept {
    ++pull_requests;
    ++connections;
  }
  void add_pull_response(std::uint64_t response_bits, bool has_payload) noexcept {
    if (has_payload) {
      ++pull_responses;
      ++payload_messages;
      bits += response_bits;
    }
  }

  void accumulate(const RoundStats& r) noexcept;
};

/// Whole-run totals plus optional per-round history.
struct RunStats {
  std::uint64_t rounds = 0;
  RoundStats total;                    ///< max_involvement = max over rounds
  std::vector<RoundStats> per_round;   ///< filled only when history is enabled

  [[nodiscard]] double payload_messages_per_node(std::uint64_t n) const noexcept {
    return n ? static_cast<double>(total.payload_messages) / static_cast<double>(n) : 0.0;
  }
  [[nodiscard]] double connections_per_node(std::uint64_t n) const noexcept {
    return n ? static_cast<double>(total.connections) / static_cast<double>(n) : 0.0;
  }
  [[nodiscard]] double bits_per_node(std::uint64_t n) const noexcept {
    return n ? static_cast<double>(total.bits) / static_cast<double>(n) : 0.0;
  }
};

/// Accumulates statistics as the engine executes rounds. Involvement
/// counters are kept per node and reset per round via a touched-list, so a
/// round's cost is proportional to its traffic, not to n.
class MetricsCollector {
 public:
  MetricsCollector(std::uint32_t n, bool keep_history);

  void begin_round();
  void end_round();

  /// Delta metering on/off (default on). Off skips the two per-contact
  /// involvement-counter probes and reports max_involvement = 0.
  void set_track_involvement(bool on) noexcept { track_involvement_ = on; }
  [[nodiscard]] bool track_involvement() const noexcept { return track_involvement_; }

  // The record_* calls run once per contact on the engine's hot path and are
  // defined inline so the static-dispatch round executor can fold them into
  // its per-node loop.
  void record_initiator() { ++round_.initiators; }

  void record_push(std::uint32_t initiator, std::uint32_t target, std::uint64_t bits,
                   bool has_payload) {
    round_.add_push(bits, has_payload);
    if (track_involvement_) {
      bump_involvement(initiator);
      bump_involvement(target);
    }
  }

  void record_pull_request(std::uint32_t initiator, std::uint32_t target) {
    round_.add_pull_request();
    if (track_involvement_) {
      bump_involvement(initiator);
      bump_involvement(target);
    }
  }

  /// Merges a phase-1 shard's counter delta into the current round (sharded
  /// execution). Deltas are plain RoundStats accumulated thread-locally with
  /// max_involvement left 0: involvement needs the global per-node counters,
  /// so it is replayed separately through record_involvement in the
  /// deterministic merge order.
  void merge_round_delta(const RoundStats& delta) {
    GOSSIP_CHECK_MSG(in_round_, "merge_round_delta outside a round");
    round_.accumulate(delta);
  }

  /// Involvement bump for ONE contact endpoint, replayed after phase 1 by
  /// the sharded executor in shard order. Order-insensitive within a round:
  /// the counters only increase and Delta is a max over the final per-node counts, so any
  /// replay order is bit-identical to inline serial metering.
  void record_involvement(std::uint32_t node) {
    if (track_involvement_) bump_involvement(node);
  }

  void record_pull_response(std::uint64_t bits, bool has_payload) {
    round_.add_pull_response(bits, has_payload);
  }

  [[nodiscard]] const RunStats& run() const noexcept { return run_; }
  [[nodiscard]] const RoundStats& current_round() const noexcept { return round_; }
  [[nodiscard]] bool in_round() const noexcept { return in_round_; }

  /// Resets all counters (used when one Network is reused across phases that
  /// should be measured separately).
  void reset();

 private:
  void bump_involvement(std::uint32_t node) {
    GOSSIP_CHECK(node < n_);
    ++involvement_[node];
    if (involvement_[node] == 1) touched_.push_back(node);
    round_.max_involvement = std::max(round_.max_involvement, involvement_[node]);
  }

  std::uint32_t n_;
  bool keep_history_;
  bool track_involvement_ = true;
  bool in_round_ = false;
  RoundStats round_;
  RunStats run_;
  std::vector<std::uint32_t> involvement_;
  std::vector<std::uint32_t> touched_;
};

}  // namespace gossip::sim
