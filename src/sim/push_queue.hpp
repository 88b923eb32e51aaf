// Pending-delivery queues of one synchronous round, extracted from the
// engine so the sharded executor can fill one instance per shard and replay
// them in deterministic shard order.
//
// The pending-push queue is a variable-length byte stream: phase 2 streams
// it back in order, and at multi-million n that write+read traffic is the
// dominant memory cost of a round, so the common payloads are packed tight
// (6 bytes for a flag-only rumor push vs. sizeof(Message) ~ 72). Entry:
//   u32 to | u8 flags | u8 n_ids | [u64 count if flag] | n_ids * u64 ids
// ID lists longer than kInlineIds (only ClusterResize responses, paper
// footnote 2) spill the whole Message to a side vector and store its index
// in place of the count.
//
// Provenance (PR 8) never touches this stream: first-inform candidates are
// recorded at ENQUEUE time by the phase-1 sinks (see sim/engine.hpp), so
// the wire format - and phase 2's replay cost - is identical whether the
// tracer is armed or not.
//
// Every round has exactly one delivery path: phase 2 replays the queue(s)
// front to back - the serial engine's one queue, or the shards' queues in
// shard order - and phase 3 evaluates into one ResponseStore. Each receiver
// therefore sees its deliveries in global initiator order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sim/message.hpp"

namespace gossip::sim {

/// One pull request awaiting its (single, address-oblivious) response.
/// `chan` is the provenance channel byte of the eventual response
/// (obs::ProvenanceTracer encoding: kind bits + direct-addressing bit);
/// it rides along unconditionally - one byte per pending pull - so the
/// tracer needs no side table in phase 3.
struct PendingPull {
  std::uint32_t from;
  std::uint32_t responder;
  std::uint8_t chan = 0;
};

class PushQueue {
 public:
  /// ID-list payloads up to this length are encoded inline in the stream.
  static constexpr std::size_t kInlineIds = 15;

  void clear() noexcept {
    len_ = 0;
    entries_ = 0;
    spill_.clear();
  }

  [[nodiscard]] std::size_t entries() const noexcept { return entries_; }
  [[nodiscard]] bool empty() const noexcept { return entries_ == 0; }

  /// Encodes a payload addressed to `to`; oversized ID lists (rare) move
  /// into the spill vector. Geometric growth, no shrink, so steady-state
  /// rounds do not allocate.
  // GOSSIP_HOT
  void enqueue(std::uint32_t to, Message&& msg) {
    ++entries_;
    const Message::IdList& ids = msg.ids();
    const std::size_t n_ids = ids.size();
    std::uint8_t flags = static_cast<std::uint8_t>(
        (msg.has_rumor() ? kHasRumor : 0) | (msg.has_count() ? kHasCount : 0));
    if (n_ids > kInlineIds) {
      const std::uint64_t spill_index = spill_.size();
      // gossip-lint: allow(hot-push-back) rare spill path (ClusterResize-length ID lists only)
      spill_.push_back(std::move(msg));
      flags = static_cast<std::uint8_t>(flags | kSpilled);
      std::uint8_t* w = grow(6 + 8);
      std::memcpy(w, &to, 4);
      w[4] = flags;
      w[5] = 0;
      std::memcpy(w + 6, &spill_index, 8);
      return;
    }
    const bool has_count = msg.has_count();
    std::uint8_t* w = grow(6 + (has_count ? 8 : 0) + n_ids * 8);
    std::memcpy(w, &to, 4);
    w[4] = flags;
    w[5] = static_cast<std::uint8_t>(n_ids);
    w += 6;
    if (has_count) {
      const std::uint64_t count = msg.count_value();
      std::memcpy(w, &count, 8);
      w += 8;
    }
    for (std::size_t i = 0; i < n_ids; ++i) {
      const std::uint64_t raw = ids[i].raw();
      std::memcpy(w + i * 8, &raw, 8);
    }
  }

  /// Replays the queue in enqueue order: fn(to, const Message&) per entry.
  /// Inline entries are decoded into a stack-local Message; the reference
  /// must not be retained beyond the call.
  // GOSSIP_HOT
  template <class Fn>
  void for_each(Fn&& fn) const {
    const std::uint8_t* r = bytes_.data();
    std::uint64_t scratch_ids[kInlineIds];
    for (std::size_t e = 0; e < entries_; ++e) {
      // Decode cursor must stay within the encoded prefix: a drifting cursor
      // would silently mis-deliver every later entry, so audit builds bound
      // it per entry.
      GOSSIP_DCHECK_MSG(static_cast<std::size_t>(r - bytes_.data()) + 6 <= len_,
                        "push stream decode overran the encoded bytes");
      std::uint32_t to;
      std::memcpy(&to, r, 4);
      const std::uint8_t flags = r[4];
      const std::uint8_t n_ids = r[5];
      r += 6;
      if (flags & kSpilled) {
        std::uint64_t spill_index;
        std::memcpy(&spill_index, r, 8);
        r += 8;
        fn(to, spill_[spill_index]);
        continue;
      }
      if (n_ids == 0 && (flags & kHasCount) == 0) {
        // Flag-only pushes (the bare rumor, or empty) dominate large
        // uniform-gossip rounds; deliver a shared constant instead of
        // re-building a Message per entry.
        static const Message kRumorOnly = Message::rumor();
        static const Message kEmpty = Message::empty();
        fn(to, (flags & kHasRumor) != 0 ? kRumorOnly : kEmpty);
        continue;
      }
      std::uint64_t count = 0;
      if (flags & kHasCount) {
        std::memcpy(&count, r, 8);
        r += 8;
      }
      if (n_ids != 0) std::memcpy(scratch_ids, r, static_cast<std::size_t>(n_ids) * 8);
      r += static_cast<std::size_t>(n_ids) * 8;
      const Message msg = Message::from_parts(
          (flags & kHasRumor) != 0, (flags & kHasCount) != 0, count,
          std::span<const std::uint64_t>(scratch_ids, n_ids));
      fn(to, msg);
    }
  }

 private:
  static constexpr std::uint8_t kHasRumor = 1;
  static constexpr std::uint8_t kHasCount = 2;
  static constexpr std::uint8_t kSpilled = 4;

  /// Reserves `need` bytes at the tail, returning the write cursor.
  std::uint8_t* grow(std::size_t need) {
    if (len_ + need > bytes_.size()) {
      bytes_.resize(std::max(bytes_.size() * 2, len_ + need));
    }
    std::uint8_t* cursor = bytes_.data() + len_;
    len_ += need;
    return cursor;
  }

  std::vector<std::uint8_t> bytes_;  ///< encoded pending pushes
  std::size_t len_ = 0;
  std::size_t entries_ = 0;
  std::vector<Message> spill_;  ///< payloads with > kInlineIds IDs
};

/// Phase 3's per-responder response cache, packed the same way as the push
/// queue (entry: u8 flags | u8 n_ids | [u64 count] | n_ids * u64 ids;
/// oversized ID lists spill whole Messages). Storing the one address-
/// oblivious response per responder as ~2-10 wire bytes instead of a
/// ~72-byte Message object is what keeps the evaluate pass's write traffic
/// (and the deliver pass's re-reads) cache-sized at multi-million n - on the
/// bench host this is the dominant phase-3 cost, ahead of the responder
/// probes themselves. Entries are addressed by byte offset; metering needs
/// only the 2-byte header (bits are a closed formula over flags and n_ids),
/// so repeated pulls to one responder never materialise the Message again.
class ResponseStore {
 public:
  void clear() noexcept {
    len_ = 0;
    spill_.clear();
  }

  /// Encodes a response, returning its byte offset (stable until clear()).
  // GOSSIP_HOT
  std::uint32_t append(Message&& msg) {
    const std::uint32_t offset = static_cast<std::uint32_t>(len_);
    const Message::IdList& ids = msg.ids();
    const std::size_t n_ids = ids.size();
    std::uint8_t flags = static_cast<std::uint8_t>(
        (msg.has_rumor() ? kHasRumor : 0) | (msg.has_count() ? kHasCount : 0));
    if (n_ids > PushQueue::kInlineIds) {
      const std::uint64_t spill_index = spill_.size();
      // gossip-lint: allow(hot-push-back) rare spill path (ClusterResize-length ID lists only)
      spill_.push_back(std::move(msg));
      flags = static_cast<std::uint8_t>(flags | kSpilled);
      std::uint8_t* w = grow(2 + 8);
      w[0] = flags;
      w[1] = 0;
      std::memcpy(w + 2, &spill_index, 8);
      return offset;
    }
    const bool has_count = msg.has_count();
    std::uint8_t* w = grow(2 + (has_count ? 8 : 0) + n_ids * 8);
    w[0] = flags;
    w[1] = static_cast<std::uint8_t>(n_ids);
    w += 2;
    if (has_count) {
      const std::uint64_t count = msg.count_value();
      std::memcpy(w, &count, 8);
      w += 8;
    }
    for (std::size_t i = 0; i < n_ids; ++i) {
      const std::uint64_t raw = ids[i].raw();
      std::memcpy(w + i * 8, &raw, 8);
    }
    return offset;
  }

  struct Meter {
    std::uint64_t bits;
    bool has_payload;
  };

  /// Metering of the entry at `offset` from its header alone - exactly what
  /// Message::bits / Message::is_empty would report after a decode.
  // GOSSIP_HOT
  [[nodiscard]] Meter meter_at(std::uint32_t offset, const MessageCosts& costs) const {
    GOSSIP_DCHECK_MSG(offset + 2 <= len_, "ResponseStore meter past the encoded bytes");
    const std::uint8_t* r = bytes_.data() + offset;
    const std::uint8_t flags = r[0];
    if (flags & kSpilled) {
      std::uint64_t spill_index;
      std::memcpy(&spill_index, r + 2, 8);
      const Message& msg = spill_[spill_index];
      return Meter{msg.bits(costs), !msg.is_empty()};
    }
    const std::uint8_t n_ids = r[1];
    std::uint64_t bits = 3;
    if (flags & kHasRumor) bits += costs.rumor_bits;
    if (flags & kHasCount) bits += costs.count_bits;
    bits += static_cast<std::uint64_t>(n_ids) * costs.id_bits;
    return Meter{bits, flags != 0 || n_ids != 0};
  }

  /// Invokes fn(const Message&) with the entry decoded at `offset`. Inline
  /// entries decode into a stack-local Message; the reference must not be
  /// retained beyond the call.
  // GOSSIP_HOT
  template <class Fn>
  void with_message(std::uint32_t offset, Fn&& fn) const {
    GOSSIP_DCHECK_MSG(offset + 2 <= len_, "ResponseStore decode past the encoded bytes");
    const std::uint8_t* r = bytes_.data() + offset;
    const std::uint8_t flags = r[0];
    const std::uint8_t n_ids = r[1];
    if (n_ids == 0 && (flags & (kHasCount | kSpilled)) == 0) {
      // Flag-only responses (the bare rumor, or Empty) dominate the uniform
      // baselines' rounds; deliver a shared constant instead of re-building
      // a Message per pull.
      static const Message kRumorOnly = Message::rumor();
      static const Message kEmpty = Message::empty();
      fn((flags & kHasRumor) != 0 ? kRumorOnly : kEmpty);
      return;
    }
    r += 2;
    if (flags & kSpilled) {
      std::uint64_t spill_index;
      std::memcpy(&spill_index, r, 8);
      fn(spill_[spill_index]);
      return;
    }
    std::uint64_t count = 0;
    if (flags & kHasCount) {
      std::memcpy(&count, r, 8);
      r += 8;
    }
    std::uint64_t scratch_ids[PushQueue::kInlineIds];
    // Guarded: the common flag-only response would otherwise pay a
    // zero-length memcpy call per delivery.
    if (n_ids != 0) std::memcpy(scratch_ids, r, static_cast<std::size_t>(n_ids) * 8);
    const Message msg = Message::from_parts(
        (flags & kHasRumor) != 0, (flags & kHasCount) != 0, count,
        std::span<const std::uint64_t>(scratch_ids, n_ids));
    fn(msg);
  }

  /// Hints the entry at `offset` into cache (pass B prefetches ahead while
  /// its offsets are still a sequential read).
  void prefetch(std::uint32_t offset) const {
    __builtin_prefetch(bytes_.data() + offset);
  }

 private:
  static constexpr std::uint8_t kHasRumor = 1;
  static constexpr std::uint8_t kHasCount = 2;
  static constexpr std::uint8_t kSpilled = 4;

  std::uint8_t* grow(std::size_t need) {
    // Entries are addressed by 32-bit offset (stamps, response_of_); a
    // >4 GiB store would silently alias entries, so fail loudly instead.
    // Unreachable for any simulable round: one response per responder and
    // <= 130 bytes per entry put the bound at ~33M distinct responders.
    GOSSIP_CHECK_MSG(len_ + need <= std::numeric_limits<std::uint32_t>::max(),
                     "ResponseStore exceeds the 32-bit offset space");
    if (len_ + need > bytes_.size()) {
      bytes_.resize(std::max(bytes_.size() * 2, len_ + need));
    }
    std::uint8_t* cursor = bytes_.data() + len_;
    len_ += need;
    return cursor;
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t len_ = 0;
  std::vector<Message> spill_;
};

}  // namespace gossip::sim
