#include "cluster/driver.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/math.hpp"

namespace gossip::cluster {

using sim::Contact;
using sim::Message;
using sim::make_hooks;
using sim::no_hook;

namespace {
// Verdict wire encoding (a count field plus an optional ID list):
//   bit 0: activation flag, bit 1: dissolve, bits 2..: size hint.
constexpr std::uint64_t kActiveBit = 1;
constexpr std::uint64_t kDissolveBit = 2;

std::uint64_t encode_verdict(const Driver::Verdict& v) {
  return (v.active ? kActiveBit : 0) | (v.dissolve ? kDissolveBit : 0) | (v.size_hint << 2);
}
}  // namespace

Driver::Driver(sim::Engine& engine, Options opts)
    : engine_(engine),
      net_(engine.network()),
      cl_(engine.network()),
      opts_(opts),
      scratch_rng_(net_.rng().fork(0x5eedca5cade5ULL)),
      // Sized to the network's pre-reserved capacity (== n without joins):
      // under churn, joiners can become push/pull receivers mid-primitive.
      candidate_(net_.capacity(), NodeId::unclustered()),
      cand_seen_(net_.capacity(), 0),
      inbox_(net_.capacity(), NodeId::unclustered()),
      inbox_seen_(net_.capacity(), 0),
      collect_count_(net_.capacity(), 0),
      collected_ids_(net_.capacity()) {
  // Opt-in parallel execution for every primitive this driver runs. All
  // driver initiate hooks only read clustering state, which is what the
  // sharded phase 1 requires of them. An engine already sharded at the
  // requested width is left untouched, so a caller-pinned shard_size (and
  // its trajectory) survives.
  if (opts_.threads && engine_.threads() != opts_.threads) {
    engine_.set_threads(opts_.threads, opts_.shard_size);
  }
  if (opts_.telemetry != nullptr) {
    engine_.set_telemetry(opts_.telemetry);
  }
}

void Driver::validate_flat(const char* where) const {
  if (!opts_.validate) return;
  GOSSIP_CHECK_MSG(cl_.is_flat(), "clustering not flat in " << where);
}

// ---------------------------------------------------------------------------
// ClusterActivate(p)
// ---------------------------------------------------------------------------
void Driver::activate(double p) {
  validate_flat("activate");
  const std::uint64_t salt = ++op_salt_;
  // Leaders flip their coins locally before the round.
  for (std::uint32_t v = 0; v < net_.n(); ++v) {
    if (!net_.alive(v) || !cl_.is_leader(v)) continue;
    Rng coin = net_.node_rng(v, salt);
    cl_.set_active(v, coin.bernoulli(p));
  }
  engine_.run_round(make_hooks(
      [this](std::uint32_t v) -> std::optional<Contact> {
        if (!cl_.is_follower(v)) return std::nullopt;
        return Contact::pull_direct(cl_.follow(v));
      },
      [this](std::uint32_t v) { return Message::count(cl_.active(v) ? 1 : 0); },
      no_hook,
      [this](std::uint32_t q, const Message& m) {
        if (m.has_count()) cl_.set_active(q, m.count_value() != 0);
      }));
}

void Driver::set_all_active(bool active) {
  for (std::uint32_t v = 0; v < net_.n(); ++v) {
    if (cl_.is_clustered(v)) cl_.set_active(v, active);
  }
}

// ---------------------------------------------------------------------------
// collect + verdict skeleton (ClusterSize / Dissolve / Resize / growth rules)
// ---------------------------------------------------------------------------
void Driver::collect_and_verdict(bool only_active, bool with_ids, const DecideFn& decide) {
  validate_flat("collect_and_verdict");
  std::fill(collect_count_.begin(), collect_count_.end(), 0);
  for (std::vector<NodeId>& ids : collected_ids_) ids.clear();

  const auto participates = [&](std::uint32_t v) {
    return cl_.is_clustered(v) && (!only_active || cl_.active(v));
  };

  // Round 1: followers push their own ID to the leader.
  engine_.run_round(make_hooks(
      [&](std::uint32_t v) -> std::optional<Contact> {
        if (!cl_.is_follower(v) || !participates(v)) return std::nullopt;
        return Contact::push_direct(cl_.follow(v), Message::single_id(net_.id_of(v)));
      },
      no_hook,
      [&](std::uint32_t leader, const Message& m) {
        ++collect_count_[leader];
        if (with_ids && !m.ids().empty()) collected_ids_[leader].push_back(m.ids().front());
      }));

  // Leaders decide; decisions are stored as encoded responses and applied to
  // the leader's own state immediately.
  // Appended in ascending leader order (the decision loop walks v upward),
  // so lookups below binary-search it; a hash map here would be harmless
  // today (keyed access only) but is banned from the verdict path outright -
  // one hash-ordered container is how order nondeterminism creeps back in.
  std::vector<std::pair<std::uint32_t, std::vector<NodeId>>> response_ids;
  std::vector<std::uint64_t> encoded(net_.capacity(), 0);
  std::vector<std::uint8_t> decided(net_.capacity(), 0);
  std::uint32_t verdict_leaders = 0;
  std::uint64_t verdict_dissolved = 0;
  std::uint64_t verdict_resized = 0;
  for (std::uint32_t v = 0; v < net_.n(); ++v) {
    if (!net_.alive(v) || !cl_.is_leader(v) || !participates(v)) continue;
    const std::uint64_t size = collect_count_[v] + 1;  // leader included
    std::vector<NodeId> members;
    if (with_ids) {
      members = std::move(collected_ids_[v]);
      members.push_back(net_.id_of(v));
      std::sort(members.begin(), members.end());
    }
    Verdict verdict = decide(v, size, members);
    std::sort(verdict.new_leaders.begin(), verdict.new_leaders.end());
    encoded[v] = encode_verdict(verdict);
    decided[v] = 1;
    ++verdict_leaders;
    if (verdict.dissolve) {
      ++verdict_dissolved;
    } else if (!verdict.new_leaders.empty()) {
      ++verdict_resized;
    }

    // Apply to the leader itself.
    cl_.set_prev_size_estimate(v, cl_.size_estimate(v));
    if (verdict.dissolve) {
      cl_.make_unclustered(v);
    } else {
      cl_.set_active(v, verdict.active);
      cl_.set_size_estimate(v, verdict.size_hint ? verdict.size_hint : size);
      if (!verdict.new_leaders.empty()) {
        const NodeId own = net_.id_of(v);
        const auto it = std::lower_bound(verdict.new_leaders.begin(),
                                         verdict.new_leaders.end(), own);
        GOSSIP_CHECK_MSG(it != verdict.new_leaders.end(),
                         "resize left the old leader without a group");
        cl_.set_follow(v, *it);
      }
    }
    if (!verdict.new_leaders.empty()) {
      response_ids.emplace_back(v, std::move(verdict.new_leaders));
    }
  }

  if (obs::EventLog* log = engine_.event_log()) {
    // One summary event per invocation: a per-leader event would scale with
    // n (every node starts out as a leader).
    log->note_verdict(verdict_leaders, verdict_dissolved, verdict_resized);
  }

  // Round 2: followers pull the verdict and decode it.
  const auto distribute_initiate = [&](std::uint32_t v) -> std::optional<Contact> {
    if (!cl_.is_follower(v) || !participates(v)) return std::nullopt;
    return Contact::pull_direct(cl_.follow(v));
  };
  const auto distribute_respond = [&](std::uint32_t leader) {
    if (!decided[leader]) return Message::empty();
    Message m = Message::count(encoded[leader]);
    const auto it = std::lower_bound(
        response_ids.begin(), response_ids.end(), leader,
        [](const auto& entry, std::uint32_t v) { return entry.first < v; });
    if (it != response_ids.end() && it->first == leader) {
      Message::IdList ids;
      for (NodeId id : it->second) ids.push_back(id);
      m = Message::id_list(std::move(ids)).and_count(encoded[leader]);
    }
    return m;
  };
  const auto distribute_reply = [&](std::uint32_t q, const Message& m) {
    if (!m.has_count()) return;  // leader had no verdict (e.g. already merged away)
    const std::uint64_t code = m.count_value();
    cl_.set_prev_size_estimate(q, cl_.size_estimate(q));
    if (code & kDissolveBit) {
      cl_.make_unclustered(q);
      return;
    }
    cl_.set_active(q, (code & kActiveBit) != 0);
    const std::uint64_t hint = code >> 2;
    if (hint) cl_.set_size_estimate(q, hint);
    if (!m.ids().empty()) {
      // ClusterResize rule: re-follow the smallest new-leader ID >= own ID.
      const NodeId own = net_.id_of(q);
      NodeId chosen = m.ids().back();  // fallback: largest (cannot trigger for members)
      for (std::size_t i = 0; i < m.ids().size(); ++i) {
        if (m.ids()[i] >= own) {
          chosen = m.ids()[i];
          break;
        }
      }
      cl_.set_follow(q, chosen);
    }
  };
  engine_.run_round(
      make_hooks(distribute_initiate, distribute_respond, no_hook, distribute_reply));
}

void Driver::compute_sizes(bool only_active) {
  collect_and_verdict(only_active, /*with_ids=*/false,
                      [](std::uint32_t, std::uint64_t size, std::vector<NodeId>&) {
                        Verdict v;
                        v.size_hint = size;
                        return v;
                      });
}

void Driver::dissolve_below(std::uint64_t min_size) {
  collect_and_verdict(/*only_active=*/false, /*with_ids=*/false,
                      [min_size](std::uint32_t, std::uint64_t size, std::vector<NodeId>&) {
                        Verdict v;
                        v.dissolve = size < min_size;
                        v.size_hint = size;
                        return v;
                      });
}

void Driver::resize(std::uint64_t target, bool only_active) {
  GOSSIP_CHECK(target >= 1);
  collect_and_verdict(
      only_active, /*with_ids=*/true,
      [target](std::uint32_t, std::uint64_t size, std::vector<NodeId>& members) {
        Verdict v;
        const std::uint64_t groups = std::max<std::uint64_t>(1, size / target);
        v.size_hint = size / groups;
        if (groups == 1) return v;  // keep the current leader; sizes < 2*target
        // Contiguous equal split (up to one) of the sorted member IDs; the
        // largest ID of each group becomes its leader.
        const std::uint64_t base = size / groups;
        const std::uint64_t extra = size % groups;
        std::size_t idx = 0;
        for (std::uint64_t g = 0; g < groups; ++g) {
          const std::uint64_t len = base + (g < extra ? 1 : 0);
          idx += len;
          v.new_leaders.push_back(members[idx - 1]);
        }
        return v;
      });
}

// ---------------------------------------------------------------------------
// ClusterPUSH: push half
// ---------------------------------------------------------------------------
void Driver::stash_candidate(std::uint32_t node, NodeId id, RelayPolicy policy) {
  ++cand_seen_[node];
  switch (policy) {
    case RelayPolicy::kSmallest:
      if (candidate_[node].is_unclustered() || id < candidate_[node]) candidate_[node] = id;
      break;
    case RelayPolicy::kRandom:
      if (scratch_rng_.uniform_below(cand_seen_[node]) == 0) candidate_[node] = id;
      break;
  }
}

void Driver::stash_inbox(std::uint32_t leader, NodeId id, RelayPolicy policy) {
  ++inbox_seen_[leader];
  switch (policy) {
    case RelayPolicy::kSmallest:
      if (inbox_[leader].is_unclustered() || id < inbox_[leader]) inbox_[leader] = id;
      break;
    case RelayPolicy::kRandom:
      if (scratch_rng_.uniform_below(inbox_seen_[leader]) == 0) inbox_[leader] = id;
      break;
  }
}

void Driver::clear_candidates() {
  std::fill(candidate_.begin(), candidate_.end(), NodeId::unclustered());
  std::fill(cand_seen_.begin(), cand_seen_.end(), 0);
  std::fill(inbox_.begin(), inbox_.end(), NodeId::unclustered());
  std::fill(inbox_seen_.begin(), inbox_seen_.end(), 0);
}

Driver::PushOutcome Driver::push_cluster_id(bool only_active, bool recruit_unclustered,
                                            RelayPolicy policy) {
  PushOutcome outcome;
  const auto initiate = [&](std::uint32_t v) -> std::optional<Contact> {
    if (!cl_.is_clustered(v)) return std::nullopt;
    if (only_active && !cl_.active(v)) return std::nullopt;
    return Contact::push_random(Message::single_id(cluster_id_of(v)));
  };
  const auto on_push = [&](std::uint32_t r, const Message& m) {
    if (m.ids().empty()) return;
    const NodeId id = m.ids().front();
    if (cl_.is_unclustered(r)) {
      if (recruit_unclustered) {
        // "set follow to any received ID": first delivery wins. A recruit
        // joins a cluster that pushed while (only) active clusters push, so
        // it knows its new cluster is active.
        cl_.set_follow(r, id);
        cl_.set_active(r, true);
        ++outcome.recruited;
      }
    } else {
      stash_candidate(r, id, policy);
    }
  };
  engine_.run_round(make_hooks(initiate, no_hook, on_push));
  return outcome;
}

// ---------------------------------------------------------------------------
// ClusterPUSH: relay half
// ---------------------------------------------------------------------------
void Driver::relay_candidates(RelayPolicy policy, bool only_inactive_relayers) {
  // Leaders deposit their own candidate locally (no self-message).
  for (std::uint32_t v = 0; v < net_.n(); ++v) {
    if (!net_.alive(v) || candidate_[v].is_unclustered()) continue;
    if (!cl_.is_leader(v)) continue;
    if (only_inactive_relayers && cl_.active(v)) continue;
    stash_inbox(v, candidate_[v], policy);
  }
  engine_.run_round(make_hooks(
      [&](std::uint32_t v) -> std::optional<Contact> {
        if (!cl_.is_follower(v) || candidate_[v].is_unclustered()) return std::nullopt;
        if (only_inactive_relayers && cl_.active(v)) return std::nullopt;
        return Contact::push_direct(cl_.follow(v), Message::single_id(candidate_[v]));
      },
      no_hook,
      [&](std::uint32_t leader, const Message& m) {
        if (m.ids().empty()) return;
        // Relays reaching a non-leader (stale follow after races) are dropped;
        // the second push/merge repetition recovers such clusters.
        if (!cl_.is_leader(leader)) return;
        stash_inbox(leader, m.ids().front(), policy);
      }));
  // Candidates are consumed.
  std::fill(candidate_.begin(), candidate_.end(), NodeId::unclustered());
  std::fill(cand_seen_.begin(), cand_seen_.end(), 0);
}

// ---------------------------------------------------------------------------
// ClusterMerge + settle rounds
// ---------------------------------------------------------------------------
void Driver::run_settle_round() {
  engine_.run_round(make_hooks(
      [&](std::uint32_t v) -> std::optional<Contact> {
        if (!cl_.is_follower(v)) return std::nullopt;
        return Contact::pull_direct(cl_.follow(v));
      },
      [&](std::uint32_t v) {
        if (cl_.is_unclustered(v)) return Message::empty();
        return Message::single_id(cl_.follow(v)).and_count(cl_.active(v) ? 1 : 0);
      },
      no_hook,
      [&](std::uint32_t q, const Message& m) {
        if (m.ids().empty()) return;  // target unclustered or gone: keep state
        cl_.set_follow(q, m.ids().front());
        if (m.has_count()) cl_.set_active(q, m.count_value() != 0);
      }));
}

void Driver::merge_from_inbox(RelayPolicy policy, bool only_inactive) {
  // Leaders decide from their inbox before the round.
  for (std::uint32_t v = 0; v < net_.n(); ++v) {
    if (!net_.alive(v) || !cl_.is_leader(v)) continue;
    if (only_inactive && cl_.active(v)) continue;
    if (inbox_[v].is_unclustered()) continue;  // "(if any)"
    NodeId target = inbox_[v];
    // SquareClusters-style merges (only_inactive) are unconditional: the
    // paper's "ClusterMerge(smallest received ID)" makes an inactive cluster
    // join the pushing (active) cluster even when its own ID is smaller.
    // All-cluster merges (MergeAllClusters) treat the own ID as a candidate,
    // so the globally smallest cluster stays put and recruits the rest.
    if (!only_inactive && policy == RelayPolicy::kSmallest) {
      target = std::min(target, net_.id_of(v));
    }
    if (target == net_.id_of(v)) continue;  // own cluster won; stay leader
    cl_.set_follow(v, target);
    // Merging into a cluster that pushed while only active clusters push
    // means the new cluster is active; in all-cluster merges the flag is
    // maintained by the settle adoption below.
    cl_.set_active(v, true);
  }
  run_settle_round();
  std::fill(inbox_.begin(), inbox_.end(), NodeId::unclustered());
  std::fill(inbox_seen_.begin(), inbox_seen_.end(), 0);
}

void Driver::settle(unsigned rounds) {
  for (unsigned i = 0; i < rounds; ++i) run_settle_round();
}

// ---------------------------------------------------------------------------
// Unclustered PULL
// ---------------------------------------------------------------------------
std::uint64_t Driver::unclustered_pull_round() {
  std::uint64_t joined = 0;
  engine_.run_round(make_hooks(
      [&](std::uint32_t v) -> std::optional<Contact> {
        if (!cl_.is_unclustered(v)) return std::nullopt;
        return Contact::pull_random();
      },
      [&](std::uint32_t v) {
        if (cl_.is_unclustered(v)) return Message::empty();
        return Message::single_id(cluster_id_of(v));
      },
      no_hook,
      [&](std::uint32_t q, const Message& m) {
        if (m.ids().empty()) return;
        if (cl_.is_unclustered(q)) {
          cl_.set_follow(q, m.ids().front());
          ++joined;
        }
      }));
  return joined;
}

// ---------------------------------------------------------------------------
// ClusterShare(rumor)
// ---------------------------------------------------------------------------
void Driver::share_rumor(std::vector<std::uint8_t>& informed, bool collect_first) {
  // Per-node state is capacity-sized so mid-run joins never reallocate it
  // (see sim/network.hpp); n() may grow past the initial size but never
  // past capacity.
  GOSSIP_CHECK(informed.size() == net_.capacity());
  validate_flat("share_rumor");
  if (collect_first) {
    engine_.run_round(make_hooks(
        [&](std::uint32_t v) -> std::optional<Contact> {
          if (!informed[v] || !cl_.is_follower(v)) return std::nullopt;
          return Contact::push_direct(cl_.follow(v), Message::rumor());
        },
        no_hook,
        [&](std::uint32_t leader, const Message& m) {
          if (m.has_rumor()) informed[leader] = 1;
        }));
  }
  engine_.run_round(make_hooks(
      [&](std::uint32_t v) -> std::optional<Contact> {
        if (informed[v] || !cl_.is_follower(v)) return std::nullopt;
        return Contact::pull_direct(cl_.follow(v));
      },
      [&](std::uint32_t v) {
        return informed[v] ? Message::rumor() : Message::empty();
      },
      no_hook,
      [&](std::uint32_t q, const Message& m) {
        if (m.has_rumor()) informed[q] = 1;
      }));
}

}  // namespace gossip::cluster
