#include "membership/membership.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/math.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"

namespace gossip::membership {

namespace {

/// Digest-sampling stream salt (distinct from every per-node salt the
/// algorithms use; combined with the round below).
constexpr std::uint64_t kDigestSalt = 0x9d1ce57aa31f42e6ULL;

}  // namespace

core::BroadcastReport run_membership(sim::Network& net, std::uint32_t seed_node,
                                     const MembershipOptions& options) {
  GOSSIP_CHECK_MSG(net.alive(seed_node), "seed node must be alive");
  const std::uint32_t cap = net.capacity();

  const std::uint64_t n0 = net.n();
  const unsigned ttl =
      options.gossip_ttl ? options.gossip_ttl : gossip::ceil_log2(n0) + 4;
  // See the header: digest width matches the relayable-set size; the
  // suspicion window is sized so a node expects to sample (almost) every
  // peer within it - ~5 nominal passes over the directory leave a
  // few-percent miss fraction once digest overlap is accounted for. The
  // horizon reaches the sampling steady state before estimates are read.
  const unsigned digest_ids =
      options.digest_ids ? options.digest_ids : 2 * ttl;
  const std::uint64_t samples_per_round = 2 * (1 + std::uint64_t{digest_ids});
  const unsigned suspicion =
      options.suspicion_after
          ? options.suspicion_after
          : static_cast<unsigned>(std::max<std::uint64_t>(
                3 * ttl,
                (5 * n0 + samples_per_round - 1) / samples_per_round));
  const unsigned horizon =
      options.rounds ? options.rounds : 2 * suspicion + 4 * ttl + 8;

  sim::Engine engine(net);
  if (options.threads) engine.set_threads(options.threads, options.shard_size);
  engine.set_fault_model(options.fault);

  // last heard FIRST-HAND-or-discounted, one sparse row per listener:
  // (peer, stamp) pairs for the peers actually heard of, sorted by peer
  // index. Stamps are rounds; second-hand receipt stores round - ttl (see
  // the header: one-hop freshness, no gossip ghosts). Sorted order makes
  // every scan visit peers in ascending index - exactly the old dense
  // capacity^2 matrix walk - so trajectories are bit-identical to the dense
  // implementation while memory tracks actual knowledge instead of
  // capacity^2 (which capped the service at n = 8192).
  using Row = std::vector<std::pair<std::uint32_t, std::int32_t>>;
  std::vector<Row> heard(cap);
  const auto upsert = [&](std::uint32_t listener, std::uint32_t peer,
                          std::int32_t stamp) {
    Row& row = heard[listener];
    const auto it = std::lower_bound(
        row.begin(), row.end(), peer,
        [](const auto& entry, std::uint32_t p) { return entry.first < p; });
    if (it != row.end() && it->first == peer) {
      it->second = std::max(it->second, stamp);
    } else {
      row.insert(it, {peer, stamp});
    }
  };
  // Poisoned IDs that resolve to no node, per listener: (raw id, stamp).
  // Bounded by byzantine exposure; empty in honest runs.
  std::vector<std::vector<std::pair<std::uint64_t, std::int32_t>>> ghosts(cap);

  std::uint64_t round = 0;

  // Digest: own ID (the heartbeat slot) + up to digest_ids peers sampled
  // uniformly from the relayable set (heard first-hand within ttl) via a
  // per-(node, round) forked stream. Reads only the node's own row, so it
  // is safe from phase-1 worker threads and pure per (node, round) - the
  // same digest answers initiate and respond.
  const auto make_digest = [&](std::uint32_t v) {
    sim::Message::IdList ids;
    ids.push_back(net.id_of(v));
    if (digest_ids == 0) return sim::Message::id_list(std::move(ids));
    Rng rng = net.node_rng(v, kDigestSalt + round);
    std::uint64_t seen = 0;
    const auto offer = [&](NodeId id, std::int32_t stamp) {
      if (round >= static_cast<std::uint64_t>(stamp) + ttl) {
        return;  // stale (or discounted second-hand): not relayable
      }
      if (seen < digest_ids) {
        ids.push_back(id);
      } else {
        const std::uint64_t j = rng.uniform_below(seen + 1);
        if (j < digest_ids) ids[1 + static_cast<std::size_t>(j)] = id;
      }
      ++seen;
    };
    for (const auto& [w, stamp] : heard[v]) offer(net.id_of(w), stamp);
    for (const auto& [raw, stamp] : ghosts[v]) offer(NodeId(raw), stamp);
    return sim::Message::id_list(std::move(ids));
  };

  // Absorb a received digest: the leading slot is the sender's heartbeat
  // (age 0, relayable onwards); later slots are second-hand and stored
  // discounted by ttl, so they count against suspicion but never re-relay.
  const auto absorb = [&](std::uint32_t v, const sim::Message& msg) {
    bool heartbeat_slot = true;
    msg.ids().for_each([&](NodeId id) {
      const std::int32_t stamp = static_cast<std::int32_t>(
          heartbeat_slot ? round : round - static_cast<std::uint64_t>(ttl));
      heartbeat_slot = false;
      if (const auto w = net.find(id)) {
        if (*w == v) return;
        upsert(v, *w, stamp);
        return;
      }
      // Unresolvable: byzantine garbage. Indistinguishable from an honest
      // member the listener has not met, so it enters the table like one.
      for (auto& [raw, cell] : ghosts[v]) {
        if (raw == id.raw()) {
          cell = std::max(cell, stamp);
          return;
        }
      }
      ghosts[v].emplace_back(id.raw(), stamp);
    });
  };

  if (options.telemetry != nullptr) {
    engine.set_telemetry(options.telemetry);
    // Fires at the end of round `round` (before the loop increments it);
    // ages are measured against round + 1, the reference the next round
    // would observe - the same convention as the end-of-run estimate below,
    // where `round` has already advanced past the last stamp. Captures
    // locals by reference; cleared after the round loop.
    options.telemetry->rounds.set_probe([&] {
      const std::uint64_t ref = round + 1;
      const auto fresh = [&](std::int32_t stamp) {
        return ref <= static_cast<std::uint64_t>(stamp) + suspicion;
      };
      double est_sum = 0.0;
      std::uint64_t alive_now = 0;
      for (std::uint32_t v = 0; v < net.n(); ++v) {
        if (!net.alive(v)) continue;
        std::uint64_t est = 1;
        for (const auto& [w, stamp] : heard[v]) {
          if (fresh(stamp)) ++est;
        }
        for (const auto& [raw, stamp] : ghosts[v]) {
          if (fresh(stamp)) ++est;
        }
        est_sum += static_cast<double>(est);
        ++alive_now;
      }
      obs::RoundRecorder::Probe p;
      if (alive_now) p.estimate_n = est_sum / static_cast<double>(alive_now);
      return p;
    });
  }

  auto hooks = sim::make_hooks(
      [&](std::uint32_t v) -> std::optional<sim::Contact> {
        return sim::Contact::exchange_random(make_digest(v));
      },
      [&](std::uint32_t v) -> sim::Message { return make_digest(v); },
      [&](std::uint32_t v, const sim::Message& msg) { absorb(v, msg); },
      [&](std::uint32_t v, const sim::Message& msg) { absorb(v, msg); });

  for (round = 0; round < horizon; ++round) engine.run_round(hooks);
  if (options.telemetry != nullptr) options.telemetry->rounds.set_probe({});

  // Estimate accuracy at the horizon. estimate_n(v) = self + unsuspected
  // peers (ghosts included - the listener cannot tell). `round` now equals
  // the horizon, one past the last stamp round, matching the age the next
  // round would observe.
  const std::uint64_t alive = net.alive_count();
  const auto unsuspected = [&](std::int32_t stamp) {
    return round <= static_cast<std::uint64_t>(stamp) + suspicion;
  };
  double err_sum = 0.0;
  std::uint64_t within_eps = 0;
  for (std::uint32_t v = 0; v < net.n(); ++v) {
    if (!net.alive(v)) continue;
    std::uint64_t est = 1;
    for (const auto& [w, stamp] : heard[v]) {
      if (unsuspected(stamp)) ++est;
    }
    for (const auto& [raw, stamp] : ghosts[v]) {
      if (unsuspected(stamp)) ++est;
    }
    const double err = std::abs(static_cast<double>(est) - static_cast<double>(alive)) /
                       static_cast<double>(alive);
    err_sum += err;
    if (err <= kEstimateEpsilon) ++within_eps;
  }

  core::BroadcastReport r;
  r.n = net.n();
  r.alive = alive;
  r.informed = within_eps;  // nodes whose estimate is within kEstimateEpsilon
  r.all_informed = r.informed == r.alive;
  r.rounds = engine.rounds();
  r.stats = engine.metrics().run();
  r.estimate_n_error = alive ? err_sum / static_cast<double>(alive) : 0.0;
  core::PhaseBreakdown pb;
  pb.name = "membership";
  pb.rounds = engine.rounds();
  pb.payload_messages = r.stats.total.payload_messages;
  pb.connections = r.stats.total.connections;
  pb.bits = r.stats.total.bits;
  r.phases.push_back(std::move(pb));
  return r;
}

}  // namespace gossip::membership
