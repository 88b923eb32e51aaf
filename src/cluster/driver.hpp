// Executable cluster coordination primitives (paper Section 3.2).
//
// Each method runs a constant number of honest rounds on the Engine:
// followers PULL directives from their leader, members direct-PUSH collected
// IDs/relays to their leader, and cluster-level pushes contact uniformly
// random nodes. All responses are address-oblivious (one response per node
// per round, enforced by the engine). Because simultaneous merges can create
// follow-chains of constant length, the merge round doubles as a
// path-compression ("settle") round: a pulled node always answers with its
// *post-decision* follow value, so every extra settle round shortens chains.
// See DESIGN.md section 1.2.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/clustering.hpp"
#include "sim/engine.hpp"

namespace gossip::cluster {

/// How a node chooses among multiple received/relayed cluster IDs.
/// Cluster1 merges to the smallest received ID; Cluster2/3 merge to a
/// uniformly random received ID (paper Algorithms 1, 2, 4).
enum class RelayPolicy : std::uint8_t { kSmallest, kRandom };

struct DriverOptions {
  /// Run O(n) structural invariant checks after primitives that assume a
  /// flat clustering. Used by tests; off for large benchmark runs.
  bool validate = false;
  /// 0 = leave the engine's execution mode alone (the default). >= 1 = opt
  /// the engine into sharded phase-1 execution across this many threads
  /// before the first primitive runs (Engine::set_threads; see the
  /// Threading model notes in sim/engine.hpp for the determinism contract).
  unsigned threads = 0;
  /// Initiators per phase-1 shard when threads >= 1 (0 = the default width;
  /// part of the sharded determinism contract - see sim/parallel/shard.hpp).
  std::uint32_t shard_size = 0;
  /// Observability handle attached to the engine before the first primitive
  /// runs (Engine::set_telemetry; null = leave the engine's attachment
  /// alone). The driver additionally posts one verdict-summary event per
  /// collect_and_verdict invocation. Non-owning.
  obs::Telemetry* telemetry = nullptr;
};

class Driver {
 public:
  using Options = DriverOptions;

  explicit Driver(sim::Engine& engine, Options opts = Options());

  [[nodiscard]] Clustering& clustering() noexcept { return cl_; }
  [[nodiscard]] const Clustering& clustering() const noexcept { return cl_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] sim::Network& network() noexcept { return net_; }

  // --- ClusterActivate(p): 1 round -----------------------------------------
  /// Leaders flip an independent p-biased coin; followers pull the outcome.
  void activate(double p);

  /// Sets every clustered node's activation flag locally. Zero rounds: the
  /// paper's ClusterActivate(1) / explicit deactivation outcomes are program
  /// constants known to every node without communication.
  void set_all_active(bool active);

  // --- ClusterSize: 2 rounds -------------------------------------------------
  /// Followers push their ID to the leader; everyone pulls the count.
  /// Updates size estimates (and shifts the previous one into prev_size).
  void compute_sizes(bool only_active);

  // --- ClusterDissolve(s): 2 rounds --------------------------------------------
  void dissolve_below(std::uint64_t min_size);

  // --- ClusterResize(s): 2 rounds -------------------------------------------------
  /// Splits every (active, if only_active) cluster of size s' into
  /// floor(s'/target) contiguous-ID groups (>= 1) whose leaders are the
  /// largest IDs per group; members re-follow the smallest new-leader ID
  /// >= their own ID.
  void resize(std::uint64_t target, bool only_active);

  // --- generic collect+verdict: 2 rounds ---------------------------------------------
  /// The shared skeleton behind size/dissolve/resize and the growth-control
  /// rules of Cluster2/Cluster3: a collect round (members push their IDs to
  /// the leader) followed by a verdict round (members pull the leader's
  /// decision). `decide` runs once per participating leader with the
  /// measured size (including the leader) and, if `with_ids`, the sorted
  /// member IDs (leader's own included).
  struct Verdict {
    bool dissolve = false;             ///< cluster disbands; members go unclustered
    bool active = true;                ///< activation flag distributed to members
    std::vector<NodeId> new_leaders;   ///< non-empty: re-follow (ClusterResize rule)
    std::uint64_t size_hint = 0;       ///< distributed to members' size estimates
  };
  using DecideFn = std::function<Verdict(std::uint32_t leader, std::uint64_t size,
                                         std::vector<NodeId>& member_ids)>;
  void collect_and_verdict(bool only_active, bool with_ids, const DecideFn& decide);

  // --- ClusterPUSH (push half): 1 round ----------------------------------------------
  /// Members of (active, if only_active) clusters push their cluster ID to a
  /// uniformly random node. Unclustered receivers adopt the first received
  /// ID when `recruit_unclustered` (the recruiting pushes of
  /// GrowInitialClusters / BoundedClusterPush); clustered receivers stash a
  /// relay candidate chosen per `policy`.
  struct PushOutcome {
    std::uint64_t recruited = 0;  ///< unclustered nodes that joined this round
  };
  PushOutcome push_cluster_id(bool only_active, bool recruit_unclustered, RelayPolicy policy);

  // --- ClusterPUSH (relay half): 1 round ---------------------------------------------
  /// Every clustered node holding a relay candidate forwards it to its
  /// leader ("all messages received ... get relayed to their cluster
  /// leader"). With `only_inactive_relayers`, members of active clusters
  /// stay silent (their leader ignores merge candidates anyway).
  void relay_candidates(RelayPolicy policy, bool only_inactive_relayers);

  // --- ClusterMerge: 1 round ------------------------------------------------------------
  /// Leaders (inactive-only, or all) adopt a new leader from their relay
  /// inbox: kSmallest takes min(own ID, inbox); kRandom takes the reservoir
  /// sample. Then every follower pulls its follow target and adopts the
  /// target's post-decision follow + activation. Clears the inboxes.
  void merge_from_inbox(RelayPolicy policy, bool only_inactive);

  /// Pure path-compression rounds (the merge round without new decisions).
  void settle(unsigned rounds);

  /// Wipes relay candidates/inboxes (between independent push phases).
  void clear_candidates();

  // --- unclustered PULL: 1 round -----------------------------------------------------------
  /// Every unclustered node pulls a uniformly random node and joins its
  /// cluster if it has one. Returns the number of nodes that joined.
  std::uint64_t unclustered_pull_round();

  // --- ClusterShare(rumor): 1-2 rounds --------------------------------------------------------
  /// Spreads the rumor within every cluster: optionally a collect round
  /// (informed followers push the rumor to their leader), then a
  /// distribution round (uninformed followers pull the leader).
  /// `informed` is the broadcast-task state, indexed by node.
  void share_rumor(std::vector<std::uint8_t>& informed, bool collect_first);

  /// ID of the cluster containing node v (its leader's ID), or infinity.
  [[nodiscard]] NodeId cluster_id_of(std::uint32_t v) const {
    return cl_.is_leader(v) ? net_.id_of(v) : cl_.follow(v);
  }

 private:
  void run_settle_round();
  void validate_flat(const char* where) const;
  void stash_candidate(std::uint32_t node, NodeId id, RelayPolicy policy);
  void stash_inbox(std::uint32_t leader, NodeId id, RelayPolicy policy);

  sim::Engine& engine_;
  sim::Network& net_;
  Clustering cl_;
  Options opts_;
  Rng scratch_rng_;            ///< reservoir decisions (node-coin equivalent)
  std::uint64_t op_salt_ = 0;  ///< per-primitive salt for node RNG streams

  // Reusable scratch, all indexed by node.
  std::vector<NodeId> candidate_;        ///< relay candidate received this phase
  std::vector<std::uint32_t> cand_seen_; ///< reservoir counters for candidates
  std::vector<NodeId> inbox_;            ///< per-leader merge candidate
  std::vector<std::uint32_t> inbox_seen_;
  std::vector<std::uint64_t> collect_count_;
  /// Collected member IDs, indexed by leader like every other scratch array
  /// (a hash map here would be the only hash-ordered state in the driver;
  /// see tools/gossip_lint.py). Entries are cleared per collect call.
  std::vector<std::vector<NodeId>> collected_ids_;
};

}  // namespace gossip::cluster
