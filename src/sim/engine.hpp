// Synchronous round executor for the random phone call model with direct
// addressing (paper Section 2).
//
// Per round, each alive node may initiate at most ONE communication - a PUSH
// (deliver a message) or a PULL (request a message) - addressed either to a
// uniformly random node or directly to a node whose ID the initiator has
// learned. The engine:
//   * resolves targets (uniform random excludes self; contacts to failed
//     nodes are lost: pushes vanish, pulls stay unanswered);
//   * enforces address-obliviousness structurally: the pull-response
//     callback is evaluated AT MOST ONCE per contacted node per round and
//     that single message answers every requester;
//   * with knowledge tracking enabled, rejects direct contacts to unlearned
//     IDs and applies Lemma 14's learning rules (communication reveals the
//     partner's ID both ways; received IDs become known);
//   * meters rounds, payload messages, connections, bits and per-node
//     involvement (Delta) through MetricsCollector.
//
// Two dispatch paths execute the same semantics:
//   * the templated run_round(Hooks&&) resolves the four per-round hooks at
//     compile time (static dispatch) - this is the hot path for
//     multi-million-node runs;
//   * the std::function-based RoundHooks overloads are a thin adapter over
//     the template, kept so algorithms can migrate incrementally and so the
//     dispatch cost itself can be measured (bench_engine_throughput).
// Both paths share the scale machinery: uniform targets come from a bulk
// Rng::fill_uniform_below ring buffer; queued pushes are packed into a
// variable-length byte stream (phase 2's replay of that queue is the
// dominant memory traffic of a large round; see sim/push_queue.hpp); and
// pending pulls resolve in two O(m) passes over an epoch-stamped
// per-responder response cache (evaluate-all-then-deliver snapshot
// semantics) - no sorting, no allocation after warm-up.
//
// Delivery order. A round's calls are simultaneous (paper Section 2), so
// the order in which DIFFERENT receivers are served cannot be observed;
// the engine still fixes one order so every hook sequence is reproducible.
// Phase 2 calls on_push in global initiator (= enqueue) order. Phase 3
// evaluates respond() in first-pull order and calls on_pull_reply in
// requester (= initiator) order.
//
// Threading model (sim/parallel). set_threads(k) with k >= 1 - or
// constructing a parallel::ParallelEngine - replaces the serial phase-1
// loop with a sharded one: initiators are split into fixed-size contiguous
// shards, each shard runs on the pool with its OWN draw stream
// (Rng::fork(round, shard) off a seed-derived base) and its own
// contact/push buffers, and the shards merge in index order. Consequences:
//   * trajectories are bit-identical for every thread count >= 1 (the shard
//     decomposition, streams and merge order never depend on the pool), but
//     DIFFER from the serial engine's on uniform draws, which consume one
//     master stream in contact order. Direct-addressed rounds consume no
//     engine randomness and stay bit-identical to the serial path.
//   * hooks.initiate runs concurrently; it must not mutate shared state
//     (every algorithm in this repo only reads its per-node state there).
//   * knowledge learned from a round's contacts becomes visible only after
//     phase 1 completes (truly-simultaneous-calls semantics); the serial
//     path applies it incrementally in initiator order. The learned SETS
//     are identical; only mid-phase-1 reads could tell the difference.
// Phases 2-3 always run on the calling thread, in the fixed orders above,
// whatever the thread count; only initiate() ever runs concurrently.
//
// Fault timeline (sim/fault.hpp). set_fault_model(m) installs a pluggable
// fault scenario the engine consults per round: before each round it calls
// m->on_round_begin(round, net) - which may crash nodes mid-run (the alive
// set is dynamic but monotone) - and arms a per-contact LossChannel when
// m->loss_probability(round) > 0. A lossy contact's connection still happens
// (metered; the handshake reveals both endpoints' IDs) but its payload -
// push content, pull response, both exchange directions - is dropped,
// exactly as if the target had failed. Loss decisions are keyed by (network
// seed, round, initiator) counter-based streams, never by the engine's draw
// path, so they are identical for the serial and sharded executors and for
// every thread count. `round` is the engine-lifetime round index (it starts
// at 0 and never resets with the metrics).
//
// Partitions (sim/fault.hpp PartitionFault). When the fault model returns a
// non-null m->partition_components(round) map, every contact whose initiator
// and target carry different component labels is treated exactly like a
// lossy contact: the connection is metered, the payload is dropped, and the
// drop is counted among the round's loss drops in telemetry. The map is
// pre-committed at run begin from its own seed-keyed per-node streams, so
// partition trajectories follow the same determinism contract as loss.
//
// Churn (PR 6). The alive set is no longer monotone: fault models (and
// callers) may also Network::join() mid-run, up to the capacity the network
// pre-reserved at construction (NetworkOptions::max_nodes). All
// receiver-indexed engine state - metrics, pull stamps - is sized to that
// capacity up front, so joins never reallocate anything; at each round
// begin (after the fault model's on_round_begin, where scheduled joins
// fire) the engine folds growth in by extending the all-nodes initiator
// list and discarding carried-over uniform draws taken against the old
// bound (sync_network_growth). Join
// order is part of the round timeline, so trajectories stay bit-identical
// across executors and thread counts.
//
// Byzantine responders (sim/fault.hpp ByzantineResponder). When the fault
// model reports has_byzantine(), each traitor's pull response is rewritten
// by corrupt_response - a pure function of (network seed, round, responder),
// so the cached-response machinery and every executor agree bit-for-bit -
// and phase 1 tolerates direct contacts to IDs that name nothing (poisoned
// garbage a node honestly learned): the dial finds no endpoint and the
// initiator simply loses its turn.
#pragma once

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "obs/recorder.hpp"
#include "sim/fault.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/parallel/shard.hpp"
#include "sim/push_queue.hpp"

namespace gossip::sim {

enum class ContactKind : std::uint8_t {
  kPush,
  kPull,
  /// One phone call transferring content both ways (PUSH the payload, get
  /// the partner's address-oblivious response back). This is the classical
  /// Karp et al. [10] exchange used by the RRS and Name-Dropper baselines;
  /// the paper's own algorithms use only kPush/kPull.
  kExchange,
};

/// One initiated communication.
struct Contact {
  ContactKind kind = ContactKind::kPush;
  bool to_random = true;            ///< uniform random target vs. direct addressing
  NodeId target;                    ///< used when !to_random
  Message payload;                  ///< carried content for kPush / kExchange

  [[nodiscard]] static Contact push_random(Message msg) {
    return Contact{ContactKind::kPush, true, NodeId::unclustered(), std::move(msg)};
  }
  [[nodiscard]] static Contact push_direct(NodeId to, Message msg) {
    return Contact{ContactKind::kPush, false, to, std::move(msg)};
  }
  [[nodiscard]] static Contact pull_random() {
    return Contact{ContactKind::kPull, true, NodeId::unclustered(), Message::empty()};
  }
  [[nodiscard]] static Contact pull_direct(NodeId from) {
    return Contact{ContactKind::kPull, false, from, Message::empty()};
  }
  [[nodiscard]] static Contact exchange_random(Message msg) {
    return Contact{ContactKind::kExchange, true, NodeId::unclustered(), std::move(msg)};
  }
  [[nodiscard]] static Contact exchange_direct(NodeId with, Message msg) {
    return Contact{ContactKind::kExchange, false, with, std::move(msg)};
  }
};

// ---------------------------------------------------------------------------
// Static-dispatch hook detection.
//
// A hooks object for the templated executor is any type with an
// `initiate(node)` member; the other three hooks are optional and detected at
// compile time, so an algorithm that never answers pulls pays nothing for the
// respond machinery. All callbacks receive node *indices*; implementations
// must only consult that node's local state - the engine cannot enforce
// locality, but the knowledge tracker enforces the addressing consequences.
// Hooks must not consume the network's master RNG inside initiate(): the
// engine batches its own uniform-target draws per chunk of initiators (the
// draw ORDER is preserved, so results are bit-identical to unbatched
// execution as long as initiate() leaves the master stream alone). Per-node
// randomness belongs to Network::node_rng / forked streams, which every
// algorithm in this repo already uses.
// ---------------------------------------------------------------------------

template <class H>
concept HasInitiateHook = requires(H& h, std::uint32_t v) {
  { h.initiate(v) } -> std::convertible_to<std::optional<Contact>>;
};
template <class H>
concept HasRespondHook = requires(H& h, std::uint32_t v) {
  { h.respond(v) } -> std::convertible_to<Message>;
};
template <class H>
concept HasOnPushHook = requires(H& h, std::uint32_t v, const Message& m) {
  h.on_push(v, m);
};
template <class H>
concept HasOnPullReplyHook = requires(H& h, std::uint32_t v, const Message& m) {
  h.on_pull_reply(v, m);
};

namespace detail {
/// Placeholder for an omitted hook slot in make_hooks.
struct NoHookFn {};
}  // namespace detail

/// Pass for any hook slot of make_hooks that the round does not use.
inline constexpr detail::NoHookFn no_hook{};

/// Hooks object composed from callables (lambdas or function objects). Slots
/// holding sim::no_hook produce no member, so the executor statically skips
/// the corresponding phase work.
template <class I, class R, class P, class Q>
struct ComposedHooks {
  I initiate_fn;
  [[no_unique_address]] R respond_fn;
  [[no_unique_address]] P on_push_fn;
  [[no_unique_address]] Q on_pull_reply_fn;

  std::optional<Contact> initiate(std::uint32_t v) { return initiate_fn(v); }
  Message respond(std::uint32_t v)
    requires std::invocable<R&, std::uint32_t>
  {
    return respond_fn(v);
  }
  void on_push(std::uint32_t receiver, const Message& m)
    requires std::invocable<P&, std::uint32_t, const Message&>
  {
    on_push_fn(receiver, m);
  }
  void on_pull_reply(std::uint32_t requester, const Message& m)
    requires std::invocable<Q&, std::uint32_t, const Message&>
  {
    on_pull_reply_fn(requester, m);
  }
};

/// Builds a static-dispatch hooks object. Slot order matches RoundHooks:
/// (initiate, respond, on_push, on_pull_reply); pass sim::no_hook for unused
/// trailing-or-middle slots.
template <class I, class R = detail::NoHookFn, class P = detail::NoHookFn,
          class Q = detail::NoHookFn>
[[nodiscard]] auto make_hooks(I initiate, R respond = {}, P on_push = {},
                              Q on_pull_reply = {}) {
  return ComposedHooks<I, R, P, Q>{std::move(initiate), std::move(respond),
                                   std::move(on_push), std::move(on_pull_reply)};
}

/// Behaviour of one synchronous round, type-erased. This is the legacy
/// dynamic-dispatch surface; it executes through the same templated engine
/// core via an adapter, paying one indirect call per hook invocation.
struct RoundHooks {
  /// Called once per (alive) initiator; return std::nullopt to stay silent.
  std::function<std::optional<Contact>(std::uint32_t node)> initiate;
  /// Address-oblivious pull response; called at most once per node per
  /// round, only if someone pulled it. Null => all pulls answered Empty.
  std::function<Message(std::uint32_t node)> respond;
  /// Delivery of a pushed message (receiver is alive). Null => drop.
  std::function<void(std::uint32_t receiver, const Message& msg)> on_push;
  /// Delivery of a pull response (requester is alive; responder was alive).
  /// Pulls to failed nodes produce no callback. Null => drop.
  std::function<void(std::uint32_t requester, const Message& msg)> on_pull_reply;
};

namespace detail {
/// Adapts RoundHooks onto the static-dispatch executor. Null checks replace
/// the compile-time hook detection; semantics are identical.
struct LegacyHooksAdapter {
  const RoundHooks& h;

  std::optional<Contact> initiate(std::uint32_t v) const { return h.initiate(v); }
  Message respond(std::uint32_t v) const {
    return h.respond ? h.respond(v) : Message::empty();
  }
  void on_push(std::uint32_t receiver, const Message& m) const {
    if (h.on_push) h.on_push(receiver, m);
  }
  void on_pull_reply(std::uint32_t requester, const Message& m) const {
    if (h.on_pull_reply) h.on_pull_reply(requester, m);
  }
};

/// resolve_direct_target's "this ID names nothing" result, returned instead
/// of a contract violation when byzantine poisoning makes unknown IDs an
/// expected consequence of honest behaviour.
inline constexpr std::uint32_t kUnresolvedTarget = 0xFFFFFFFFu;

/// Resolves the target of a direct-addressed contact, enforcing the model's
/// honesty rules (real ID, not self, known to the initiator). Read-only on
/// the network, so safe from phase-1 worker threads. With `tolerate_unknown`
/// an ID absent from the network yields kUnresolvedTarget instead of
/// throwing (see the Byzantine notes at the top of this header).
[[nodiscard]] std::uint32_t resolve_direct_target(const Network& net, std::uint32_t node,
                                                  const Contact& contact,
                                                  bool tolerate_unknown);

/// Phase-1 loop shared by the serial and sharded executors: offer every
/// initiator in `initiators` its one contact and route the consequences
/// through `sink`. The Sink supplies the executor-specific parts:
///   u32  draw_other(u32 node)                    uniform target != node
///   void record_initiator()
///   void record_push(u32 from, u32 to, u64 bits, bool has_payload)
///   void record_pull_request(u32 from, u32 to)
///   void on_contact(u32 a, u32 b)                endpoints for knowledge/Delta
///   void enqueue_push(u32 to, u32 src, u8 chan, Message&&)
///   void enqueue_pull(u32 from, u32 responder, u8 chan)
///   void record_loss(u32 initiator)              telemetry; drop branch only
/// `src`/`chan` carry the provenance channel (obs::ProvenanceTracer
/// encoding) of the eventual delivery; with a tracer armed the sinks use
/// them to record first-inform candidates at enqueue time
/// (obs::TraceCandidate) - the queues themselves never store them, so
/// computing them here is a couple of ALU ops per contact.
/// `want_payloads` skips queueing when nothing observes deliveries (no
/// on_push hook, no knowledge tracking) - queueing would be dead work.
/// `loss` is the round's armed LossChannel, or null for a lossless round
/// (the common case pays one predictable branch per contact). Drop decisions
/// are keyed by the initiator, so serial and sharded execution agree.
/// `partition` is the round's component map (null = whole network): a
/// cross-component contact drops its payload exactly like a lossy one.
/// `tolerate_unknown` (byzantine rounds only) turns direct dials to IDs that
/// name nothing into lost turns: the initiator is counted (it acted), but no
/// connection is metered, nothing is learned and nothing is delivered.
// GOSSIP_HOT
template <class Hooks, class Sink>
void run_phase1(Network& net, Hooks& hooks, Sink& sink,
                std::span<const std::uint32_t> initiators, bool no_failures,
                bool want_payloads, const LossChannel* loss,
                const std::uint32_t* partition, bool tolerate_unknown) {
  for (const std::uint32_t node : initiators) {
    if (no_failures) {
      // alive() would bounds-check a caller-supplied initiator; keep that
      // contract on the fast path that skips it.
      GOSSIP_CHECK(node < net.n());
    } else if (!net.alive(node)) {
      continue;
    }
    std::optional<Contact> contact = hooks.initiate(node);
    if (!contact) continue;
    sink.record_initiator();
    std::uint32_t target;
    if (contact->to_random) {
      // Uniform over all n-1 other nodes (failed ones included - the
      // caller cannot know who failed; such contacts are simply lost).
      target = sink.draw_other(node);
    } else {
      target = resolve_direct_target(net, node, *contact, tolerate_unknown);
      if (target == kUnresolvedTarget) continue;  // poisoned ID: dial finds nobody
    }

    sink.on_contact(node, target);

    // Lossy channel / partition: the connection succeeds (metered; IDs
    // exchanged in the handshake) but the payload in every direction is
    // dropped - the same observable consequences as contacting a failed
    // node. A cross-component contact under an armed partition map drops
    // unconditionally and is counted among the round's loss drops.
    const bool lost = (loss != nullptr && loss->drop(node)) ||
                      (partition != nullptr && partition[node] != partition[target]);
    if (lost) sink.record_loss(node);
    // Provenance channel byte of whatever this contact delivers (kind bits
    // + "dialled a learned ID" bit; obs::ProvenanceTracer encoding).
    const std::uint8_t direct =
        contact->to_random ? 0 : obs::ProvenanceTracer::kDirectBit;
    if (contact->kind == ContactKind::kPush || contact->kind == ContactKind::kExchange) {
      const bool exchange = contact->kind == ContactKind::kExchange;
      // Meter before the payload is moved into the pending-push queue.
      const std::uint64_t bits = contact->payload.bits(net.costs());
      const bool has_payload = !contact->payload.is_empty();
      sink.record_push(node, target, bits, has_payload);
      if (!lost && (no_failures || net.alive(target))) {
        if (exchange) {
          sink.enqueue_pull(
              node, target,
              static_cast<std::uint8_t>(obs::ProvenanceTracer::kChanExchange | direct));
        }
        if (want_payloads) {
          sink.enqueue_push(target, node,
                            static_cast<std::uint8_t>(
                                (exchange ? obs::ProvenanceTracer::kChanExchange
                                          : obs::ProvenanceTracer::kChanPush) |
                                direct),
                            std::move(contact->payload));
        }
      }
    } else {
      sink.record_pull_request(node, target);
      if (!lost && (no_failures || net.alive(target))) {
        sink.enqueue_pull(node, target,
                          static_cast<std::uint8_t>(
                              obs::ProvenanceTracer::kChanPullResponse | direct));
      }
    }
  }
}
}  // namespace detail

class Engine {
 public:
  /// `keep_history` retains per-round stats (used by the dynamics bench).
  explicit Engine(Network& net, bool keep_history = false);

  /// Virtual only so parallel::ParallelEngine can be owned through an
  /// Engine pointer; the engine has no other virtual surface (run_round is
  /// a template and dispatches statically).
  virtual ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Enables (threads >= 1) or disables (threads == 0) the sharded phase-1
  /// executor described in the Threading model notes above. shard_size == 0
  /// picks parallel::kDefaultShardSize. Sharded trajectories are identical
  /// for every thread count but re-key the uniform draws, so enabling this
  /// mid-run changes subsequent same-seed trajectories exactly once (see
  /// CHANGES.md); typical callers opt in before the first round via the
  /// `threads` field of their run options.
  ///
  /// Enabling consumes ONE draw from the network's master stream: it seeds
  /// this engine's shard streams, so consecutive sharded engines over the
  /// same network run independent trajectories (just as consecutive serial
  /// engines advance the shared master stream) instead of replaying one
  /// contact graph. Still deterministic in (network seed, construction
  /// order) and still invariant in the thread count.
  void set_threads(unsigned threads, std::uint32_t shard_size = 0) {
    par_.reset();
    if (threads >= 1) {
      par_ = std::make_unique<parallel::Phase1Sharder>(net_.rng().next_u64(), threads,
                                                       shard_size);
    }
  }
  /// Worker count of the sharded executor, or 0 in serial mode.
  [[nodiscard]] unsigned threads() const noexcept { return par_ ? par_->threads() : 0; }

  /// Wall-clock seconds accumulated per engine phase across run_round calls
  /// while set_phase_timing(true) is active (bench_engine_throughput's
  /// breakdown). Off by default: the hot loop then pays one predicted
  /// branch per phase per round and takes no clock reads. The struct is the
  /// shared obs::PhaseTimes, so the bench ReferenceEngine's recorder-backed
  /// accumulation carries identical reset/accumulate semantics.
  using PhaseTimes = obs::PhaseTimes;
  void set_phase_timing(bool on) noexcept { time_phases_ = on; }
  [[nodiscard]] const PhaseTimes& phase_times() const noexcept { return phase_times_; }
  /// Zeroes the accumulated phase clocks (recorded telemetry rounds, if a
  /// recorder is attached, are kept; its own accumulators reset in step).
  void reset_phase_times() noexcept {
    phase_times_ = PhaseTimes{};
    if (telemetry_ != nullptr) telemetry_->rounds.reset_phase_times();
  }

  /// Attaches (or detaches, with nullptr) the observability handle: every
  /// subsequent round appends one obs::RoundRecord, the event log receives
  /// the fault timeline (joins/crashes via the network observer this call
  /// installs, sampled loss drops, byzantine corruptions), and phase clocks
  /// are read regardless of set_phase_timing. Detached costs one pointer
  /// null-check per round - no virtual call sits in any phase loop.
  /// Non-owning; the handle must outlive every subsequent run_round.
  void set_telemetry(obs::Telemetry* telemetry) noexcept {
    telemetry_ = telemetry;
    net_.set_observer(telemetry != nullptr ? &telemetry->events : nullptr);
  }
  [[nodiscard]] obs::Telemetry* telemetry() const noexcept { return telemetry_; }
  /// Event log of the attached handle (null when detached); the cluster
  /// Driver posts its verdict summaries here.
  [[nodiscard]] obs::EventLog* event_log() const noexcept {
    return telemetry_ != nullptr ? &telemetry_->events : nullptr;
  }

  /// Installs (or clears, with nullptr) a fault model consulted on the round
  /// timeline - see the Fault timeline notes above. Non-owning: the model
  /// must outlive every subsequent run_round. The caller is responsible for
  /// invoking the model's on_run_begin hook before the algorithm starts
  /// (TrialRunner does this per trial).
  void set_fault_model(FaultModel* fault) noexcept { fault_ = fault; }
  [[nodiscard]] FaultModel* fault_model() const noexcept { return fault_; }

  /// Runs one round with every node as a potential initiator (static
  /// dispatch; hooks resolved at compile time). RoundHooks is excluded so a
  /// mutable RoundHooks lvalue still routes through the null-check adapter.
  template <class Hooks>
    requires(!std::same_as<std::remove_cvref_t<Hooks>, RoundHooks>)
  void run_round(Hooks&& hooks) {
    // The all-nodes span is derived INSIDE the impl, after the fault model's
    // on_round_begin - this round's joiners must already be initiators.
    run_round_impl(std::forward<Hooks>(hooks), std::span<const std::uint32_t>(),
                   /*use_all_nodes=*/true);
  }

  /// Runs one round where only `initiators` are offered the chance to act
  /// (everyone can still receive). This is a pure performance device for
  /// rounds in which whole classes of nodes are known to be silent; it never
  /// changes semantics, because initiate can always return nullopt. Callers
  /// of this overload own the initiator set, so nodes joining at this
  /// round's boundary initiate only if the caller listed them.
  template <class Hooks>
    requires(!std::same_as<std::remove_cvref_t<Hooks>, RoundHooks>)
  void run_round(Hooks&& hooks, std::span<const std::uint32_t> initiators) {
    run_round_impl(std::forward<Hooks>(hooks), initiators, /*use_all_nodes=*/false);
  }

  /// Legacy dynamic-dispatch overloads (thin adapters over the template).
  void run_round(const RoundHooks& hooks);
  void run_round(const RoundHooks& hooks, std::span<const std::uint32_t> initiators);

  [[nodiscard]] std::uint64_t rounds() const noexcept { return metrics_.run().rounds; }
  [[nodiscard]] const MetricsCollector& metrics() const noexcept { return metrics_; }
  [[nodiscard]] MetricsCollector& metrics() noexcept { return metrics_; }
  [[nodiscard]] Network& network() noexcept { return net_; }
  [[nodiscard]] const Network& network() const noexcept { return net_; }

  /// Draws a uniformly random node index different from `self`, from the
  /// same bulk draw buffer the serial round executor consumes (so
  /// interleaving calls with rounds keeps one deterministic master-stream
  /// order; sharded rounds leave the master stream untouched).
  /// Precondition: the network has at least two nodes (there is no "other"
  /// node to draw in a single-node network; uniform_below(0) is undefined).
  [[nodiscard]] std::uint32_t random_other(std::uint32_t self);

 private:
  /// Uniform target draws per bulk fill_uniform_below refill: large enough
  /// to amortize and vectorize the fill, small enough to stay L1-resident.
  static constexpr std::size_t kDrawBatch = 1024;

  /// Shared body of both public run_round templates; `use_all_nodes` defers
  /// taking the all-nodes span until after this round's joins have fired.
  template <class Hooks>
  void run_round_impl(Hooks&& hooks, std::span<const std::uint32_t> initiators,
                      bool use_all_nodes);

  /// Folds mid-run network growth into the engine: extends the all-nodes
  /// initiator list with the joiners and discards uniform draws carried over
  /// from the old bound. Called once per round, after the fault model ran.
  void sync_network_growth();

  /// Phase-1 sink of the serial executor: meters straight into the
  /// collector, learns contacts immediately, fills the engine's own queues,
  /// draws from the master-stream ring buffer.
  struct SerialSink {
    Engine& e;
    bool track;
    /// Round tracer hoisted out of the engine: enqueue_push probes it per
    /// contact, and a member load through `e` would be reloaded every
    /// iteration (the queue stores alias the Engine object).
    obs::ProvenanceTracer* const tracer = nullptr;

    void record_initiator() { e.metrics_.record_initiator(); }
    std::uint32_t draw_other(std::uint32_t node) {
      std::uint32_t t = e.next_target_draw();
      if (t >= node) ++t;
      return t;
    }
    void record_push(std::uint32_t from, std::uint32_t to, std::uint64_t bits,
                     bool has_payload) {
      e.metrics_.record_push(from, to, bits, has_payload);
    }
    void record_pull_request(std::uint32_t from, std::uint32_t to) {
      e.metrics_.record_pull_request(from, to);
    }
    void on_contact(std::uint32_t a, std::uint32_t b) {
      if (track) e.learn_contact(a, b);
    }
    // GOSSIP_HOT
    void enqueue_push(std::uint32_t to, std::uint32_t src, std::uint8_t chan,
                      Message&& msg) {
      // The bitmap claim happens here (cheap: the word was just probed), but
      // the Entry store is deferred to the apply sweep between phases 1 and
      // 2: its scattered stores would stall this loop's store pipeline
      // (measured ~1.5x phase 1 at n=1e6), while the sweep's sequential scan
      // prefetches them. Claiming also dedups same-round candidates, so the
      // serial list holds exactly the round's first-informs.
      if (msg.has_rumor() && tracer != nullptr && tracer->try_claim(to))
          [[unlikely]] {
        // gossip-lint: allow(hot-push-back) at most one claim per node per run; amortized
        e.trace_candidates_.push_back(obs::TraceCandidate{to, src, chan});
      }
      e.pushes_.enqueue(to, std::move(msg));
    }
    void enqueue_pull(std::uint32_t from, std::uint32_t responder, std::uint8_t chan) {
      e.pulls_[e.pull_count_++] = PendingPull{from, responder, chan};
    }
    void record_loss(std::uint32_t initiator) {
      if (e.telemetry_ != nullptr) e.telemetry_->events.note_loss_drop(initiator);
    }
  };

  /// Next uniform draw from [0, n-1), bulk-refilled. Draws are consumed in
  /// contact order; unconsumed draws carry over across rounds, so the master
  /// stream is deterministic in (seed, contact sequence).
  std::uint32_t next_target_draw() {
    if (draw_pos_ == draw_buf_.size()) {
      GOSSIP_CHECK_MSG(net_.n() >= 2, "uniform contacts need at least two nodes");
      draw_buf_.resize(kDrawBatch);
      net_.rng().fill_uniform_below(net_.n() - 1, draw_buf_);
      draw_pos_ = 0;
    }
    return draw_buf_[draw_pos_++];
  }

  void learn_from_message(std::uint32_t receiver, const Message& msg) {
    KnowledgeTracker* k = net_.knowledge();
    if (!k) return;
    const NodeId own = net_.id_of(receiver);
    const Message::IdList& ids = msg.ids();
    if (ids.size() <= 3) {
      // Common case (paper: O(1) IDs per message): the per-ID path's inline
      // scan beats gathering a batch.
      ids.for_each([&](NodeId id) { k->learn(receiver, id, own); });
      return;
    }
    // ClusterResize-style lists: one sorted bulk merge via learn_all.
    learn_scratch_.clear();
    ids.for_each([&](NodeId id) { learn_scratch_.push_back(id); });
    k->learn_all(receiver, learn_scratch_, own);
  }

  void learn_contact(std::uint32_t a, std::uint32_t b) {
    if (auto* k = net_.knowledge()) {
      // A phone call reveals both endpoints' IDs (Lemma 14's G_t edges).
      k->learn(a, net_.id_of(b), net_.id_of(a));
      k->learn(b, net_.id_of(a), net_.id_of(b));
    }
  }

  /// Phase 2 body for one pending-push queue: decode, learn, deliver.
  /// Provenance never touches this loop - push first-informs were already
  /// recorded as enqueue-time candidates by the phase-1 sinks and applied
  /// before phase 2 started, so the replay runs the original layout whether
  /// or not a tracer is armed.
  template <class Hooks>
  void deliver_queue(const PushQueue& queue, Hooks& hooks, bool track) {
    queue.for_each([&](std::uint32_t to, const Message& msg) {
      if (track) learn_from_message(to, msg);
      if constexpr (HasOnPushHook<std::remove_reference_t<Hooks>>) hooks.on_push(to, msg);
    });
  }

  /// Sharded phase 1: fan the initiator span out over fixed-size shards on
  /// the pool, then merge metrics deltas, involvement, knowledge and pull
  /// queues in shard-index (= initiator) order. Push queues stay per shard;
  /// phase 2 replays them in the same order without re-copying the streams.
  /// The loss channel is shared read-only across the workers (drop() forks
  /// from a const base, so it is thread-safe and thread-count-invariant).
  template <class Hooks>
  void run_phase1_sharded(Hooks& hooks, std::span<const std::uint32_t> initiators,
                          bool no_failures, bool track, bool want_payloads,
                          const LossChannel* loss, const std::uint32_t* partition,
                          bool tolerate_unknown) {
    parallel::Phase1Sharder& par = *par_;
    const std::size_t n_shards = par.shard_count(initiators.size());
    const std::span<parallel::ShardBuffer> shards = par.acquire(n_shards);
    active_shards_ = n_shards;
    // Engine-lifetime key (never reset by set_threads or metrics resets), so
    // re-enabling sharding on a used engine cannot replay draw streams.
    const std::uint64_t round_key = sharded_round_key_++;
    const bool want_endpoints = track || metrics_.track_involvement();
    const std::uint64_t draw_bound = net_.n() - 1;
    const std::uint32_t shard_size = par.shard_size();
    // Provenance tracer and the event-sample cap are round-stable: the
    // informed bitmap is only written in the engine's serial sections
    // (candidate application, phase 3), never during phase 1, so the shards
    // can probe it race-free while recording first-inform candidates.
    const obs::ProvenanceTracer* const shard_tracer =
        telemetry_ != nullptr && telemetry_->provenance.active()
            ? &telemetry_->provenance
            : nullptr;
    const std::size_t sample_cap =
        telemetry_ != nullptr ? telemetry_->events.sample_cap() : obs::kEventSampleCap;
    par.pool().parallel_for(n_shards, [&](std::size_t s) {
      parallel::ShardBuffer& sb = shards[s];
      const std::size_t lo = s * static_cast<std::size_t>(shard_size);
      const std::size_t len =
          std::min<std::size_t>(shard_size, initiators.size() - lo);
      sb.begin_round(par.stream_base(), round_key, s, len, shard_tracer, sample_cap);
      parallel::ShardSink sink{sb, draw_bound, want_endpoints};
      detail::run_phase1(net_, hooks, sink, initiators.subspan(lo, len), no_failures,
                         want_payloads, loss, partition, tolerate_unknown);
    });
    // Deterministic merge in shard (= global initiator) order.
    for (const parallel::ShardBuffer& sb : shards) {
      // Shard deltas are additive counters only: involvement (a running max
      // over GLOBAL per-node counts) must be left to the replay below, or
      // the merge would double-count it.
      GOSSIP_DCHECK_MSG(sb.stats.max_involvement == 0,
                        "shard delta carries max_involvement; the merge owns it");
      metrics_.merge_round_delta(sb.stats);
      if (telemetry_ != nullptr) {
        // Bottom-k merge is order-insensitive, so folding shards in index
        // order matches every other shard/thread decomposition.
        telemetry_->events.merge_loss(sb.loss_drops, sb.drop_sample);
      }
      if (want_endpoints) {
        for (const auto& [a, b] : sb.endpoints) {
          learn_contact(a, b);
          metrics_.record_involvement(a);
          metrics_.record_involvement(b);
        }
      }
      // The flat pending-pull buffer was sized for one pull per offered
      // initiator; a shard writing past it would corrupt its neighbour's
      // slots silently.
      GOSSIP_DCHECK_MSG(pull_count_ + sb.pulls.size() <= pulls_.size(),
                        "sharded merge overflows the pending-pull slots");
      std::copy(sb.pulls.begin(), sb.pulls.end(), pulls_.begin() + pull_count_);
      pull_count_ += sb.pulls.size();
    }
  }

  Network& net_;
  MetricsCollector metrics_;
  // Scratch buffers reused across rounds.
  PushQueue pushes_;  ///< serial-mode pending pushes (sharded: per shard)
  std::vector<PendingPull> pulls_;  ///< flat slots; pull_count_ are filled
  std::size_t pull_count_ = 0;
  // Serial sink's first-inform candidates for the round's armed tracer
  // (cleared at the top of run_round_impl). Sharded rounds collect
  // candidates per shard instead (parallel/shard.hpp).
  std::vector<obs::TraceCandidate> trace_candidates_;
  std::vector<std::uint32_t> all_nodes_;
  std::vector<NodeId> learn_scratch_;  ///< bulk-learn gather buffer
  // Bulk uniform-target draws (ring of kDrawBatch, refilled on demand).
  std::vector<std::uint32_t> draw_buf_;
  std::size_t draw_pos_ = 0;
  // Phase-3 state. Pass A walks the pending pulls in order, evaluates each
  // responder's single response into the compact ResponseStore
  // (epoch-stamped by byte offset via pull_stamp_), meters every pull from
  // the store's headers and records the per-pull response offset. Pass B
  // sweeps pulls_/response_of_ sequentially in requester (initiator) order,
  // decoding on the fly - it runs at all only when knowledge tracking or an
  // on_pull_reply hook consumes the message.
  /// Per-responder evaluation state, 16 bytes so the epoch stamp and the
  /// cached response's metering share one cache line: a repeated pull pays
  /// exactly ONE random probe (prefetched ahead in the eval loop) instead
  /// of a stamp probe plus a dependent response-header read.
  struct PullStamp {
    std::uint64_t stamp = 0;  ///< epoch << 32 | response byte offset
    std::uint64_t meter = 0;  ///< response bits << 1 | has_payload
  };
  std::vector<std::uint32_t> response_of_;  ///< per-pull response byte offset
  ResponseStore response_store_;
  std::vector<PullStamp> pull_stamp_;
  std::uint32_t pull_epoch_ = 0;
  // Phase timing (off by default; see PhaseTimes).
  bool time_phases_ = false;
  PhaseTimes phase_times_;
  // Sharded execution state (null in serial mode).
  std::unique_ptr<parallel::Phase1Sharder> par_;
  std::size_t active_shards_ = 0;  ///< shards filled by the current round
  std::uint64_t sharded_round_key_ = 0;  ///< engine-lifetime stream key
  // Fault timeline (null = fault-free; see sim/fault.hpp).
  FaultModel* fault_ = nullptr;          ///< non-owning
  std::uint64_t fault_clock_ = 0;        ///< engine-lifetime round index
  // Observability handle (null = detached; see set_telemetry).
  obs::Telemetry* telemetry_ = nullptr;  ///< non-owning
  // Network size the engine state last absorbed (see sync_network_growth).
  std::uint32_t synced_n_ = 0;
};

template <class Hooks>
void Engine::run_round_impl(Hooks&& hooks, std::span<const std::uint32_t> initiators,
                            bool use_all_nodes) {
  using H = std::remove_reference_t<Hooks>;
  static_assert(HasInitiateHook<H>, "a round needs an initiate hook");
  // A const hooks object would silently constrain away its non-const hook
  // members (compiling to a round that never delivers); reject it unless
  // constness provably hides nothing.
  static_assert(HasRespondHook<H> == HasRespondHook<std::remove_const_t<H>> &&
                    HasOnPushHook<H> == HasOnPushHook<std::remove_const_t<H>> &&
                    HasOnPullReplyHook<H> == HasOnPullReplyHook<std::remove_const_t<H>>,
                "const hooks object hides non-const hook members; pass it non-const");

  // ---- Fault timeline: churn, scheduled crashes, per-round loss. ---------
  // Runs before anything else so a crash at this round's boundary silences
  // the node as an initiator AND as a target, a join at this boundary makes
  // the node act from this round on, and the no_failures probe below stays
  // correct when the alive set shrinks.
  const std::uint64_t fault_round = fault_clock_++;
  // Open the telemetry round BEFORE the fault model runs: this round's
  // joins/crashes must stamp with this round index, not the previous one.
  if (telemetry_ != nullptr) {
    telemetry_->events.begin_round(static_cast<std::int64_t>(fault_round));
  }
  LossChannel loss_channel;
  if (fault_ != nullptr) {
    fault_->on_round_begin(fault_round, net_);
    loss_channel =
        LossChannel(net_.options().seed, fault_round, fault_->loss_probability(fault_round));
  }
  const LossChannel* loss = loss_channel.active() ? &loss_channel : nullptr;
  // Component map for the round: non-null only while a PartitionFault's
  // window is open; cross-component contacts then drop like lossy ones.
  const std::uint32_t* partition =
      fault_ != nullptr ? fault_->partition_components(fault_round) : nullptr;
  // Armed per round: traitors rewrite their pull responses and phase 1
  // tolerates dials to poisoned (nonexistent) IDs.
  const FaultModel* byz =
      fault_ != nullptr && fault_->has_byzantine() ? fault_ : nullptr;
  // Fold this round's joins (from the fault model or the caller) into the
  // initiator list and the draw bound before any span over all_nodes_ is
  // taken - growth would reallocate the vector under a live span.
  sync_network_growth();
  if (use_all_nodes) initiators = std::span<const std::uint32_t>(all_nodes_);

  // Wall-clock reads below are phase-timing TELEMETRY only - they never feed
  // a decision, so the trajectory stays a pure function of (seed, config).
  // gossip_lint still flags ::now() outside obs/; the four sites in this
  // function are carried in tools/lint_baseline.txt.
  using PhaseClock = std::chrono::steady_clock;
  // An attached recorder always captures per-phase clocks; phase_times_
  // accumulates only under the explicit set_phase_timing knob.
  const bool timing = time_phases_ || telemetry_ != nullptr;
  PhaseClock::time_point t_begin, t_phase1, t_phase2;
  if (timing) t_begin = PhaseClock::now();

  metrics_.begin_round();
  pushes_.clear();
  // Provenance tracing is per-round opt-in: armed AND not yet complete.
  // Once every armed slot has its first-inform recorded, active() turns
  // false, the sinks skip the candidate probe, and the round is bit-for-bit
  // the untraced fast path. The capacity condition backs try_claim's
  // bounds-check-free hot path: every enqueue target is < n <= the join
  // ceiling, so an arm() that covers Network::capacity() - what TrialRunner
  // and the bench always do - covers every probe; an under-armed tracer is
  // simply not traced by this engine rather than partially traced.
  obs::ProvenanceTracer* const tracer =
      telemetry_ != nullptr && telemetry_->provenance.active() &&
              telemetry_->provenance.capacity() >= net_.capacity()
          ? &telemetry_->provenance
          : nullptr;
  const std::int64_t trace_round = static_cast<std::int64_t>(fault_round);
  trace_candidates_.clear();
  // Pending-pull slots: at most one pull per offered initiator, so a flat
  // grown-once buffer replaces per-contact push_back bookkeeping on the
  // phase-1 hot path.
  if (pulls_.size() < initiators.size()) pulls_.resize(initiators.size());
  pull_count_ = 0;
  if (++pull_epoch_ == 0) {
    // 2^32 rounds: wipe the stamps so a recycled epoch value cannot alias.
    std::fill(pull_stamp_.begin(), pull_stamp_.end(), PullStamp{});
    pull_epoch_ = 1;
  }

  // ---- Phase 1: collect initiated contacts (one per node at most). -------
  // Uniform targets come from bulk-refilled draw buffers (one vectorizable
  // fill_uniform_below pass per batch of contacts); when no node has failed,
  // the per-contact aliveness probes (a guaranteed random cache miss each on
  // large networks) are skipped entirely. The loop body lives in
  // detail::run_phase1; serial and sharded execution differ only in the sink.
  const bool no_failures = net_.failed_count() == 0;
  const bool track = net_.knowledge() != nullptr;
  // With no delivery observer (no on_push hook, no knowledge tracking),
  // queueing payloads would be dead work.
  const bool want_payloads = track || HasOnPushHook<H>;
  const bool sharded = par_ != nullptr;
  if (sharded) {
    run_phase1_sharded(hooks, initiators, no_failures, track, want_payloads, loss,
                       partition, byz != nullptr);
  } else {
    SerialSink sink{*this, track, tracer};
    detail::run_phase1(net_, hooks, sink, initiators, no_failures, want_payloads, loss,
                       partition, byz != nullptr);
  }

  if (timing) t_phase1 = PhaseClock::now();

  // Apply the phase-1 first-inform candidates before any delivery runs.
  // Candidates only exist under want_payloads (= the phase-2 delivery gate),
  // and they replay here in global initiator order - serial sink order, or
  // shard-index order, which is the same thing - so the first candidate per
  // receiver IS its first push delivery and first-write-wins settles
  // same-round duplicates identically on every parallelism axis. Applying
  // them before phase 3's pass B keeps the phase ordering of informs:
  // push/exchange payloads land before any pull response is read. Both
  // sweeps scan a sequential list whose targets scatter over the entry
  // array, so they prefetch one lookahead window ahead (same trick as
  // phase 3's pass B).
  constexpr std::size_t kApplyLookahead = 48;
  if (tracer != nullptr && sharded) {
    // Shard sinks could only READ the bitmap (phase 1 runs parallel), so
    // their lists still hold same-round duplicates: full first-write-wins.
    for (const parallel::ShardBuffer& sb : par_->acquire(active_shards_)) {
      const std::span<const obs::TraceCandidate> cs = sb.trace_candidates;
      for (std::size_t i = 0; i < cs.size(); ++i) {
        if (i + kApplyLookahead < cs.size()) {
          tracer->prefetch_entry(cs[i + kApplyLookahead].to);
        }
        tracer->note_first_inform(cs[i].to, cs[i].src, trace_round, cs[i].chan);
      }
    }
  } else if (tracer != nullptr) {
    // The serial sink already claimed the bitmap bits (try_claim dedups at
    // the source), so this sweep is one unconditional Entry store each.
    const std::span<const obs::TraceCandidate> cs = trace_candidates_;
    for (std::size_t i = 0; i < cs.size(); ++i) {
      if (i + kApplyLookahead < cs.size()) {
        tracer->prefetch_entry_slot(cs[i + kApplyLookahead].to);
      }
      tracer->note_claimed_entry(cs[i].to, cs[i].src, trace_round, cs[i].chan);
    }
  }

  // ---- Phase 2: deliver pushes in initiator order. -----------------------
  // The byte stream(s) are decoded back into a (stack-local) Message per
  // delivery; hooks must not retain the reference beyond the call. Sharded
  // rounds replay the per-shard streams in shard order, so every receiver
  // sees its deliveries in global initiator order under any shard count.
  if (track || HasOnPushHook<H>) {
    if (sharded) {
      for (const parallel::ShardBuffer& sb : par_->acquire(active_shards_)) {
        deliver_queue(sb.pushes, hooks, track);
      }
    } else {
      deliver_queue(pushes_, hooks, track);
    }
  }

  if (timing) t_phase2 = PhaseClock::now();

  // ---- Phase 3: answer pulls, one address-oblivious response per node. ---
  // Two O(m) passes, no sort, no allocation after warm-up. Pass A walks the
  // pending pulls in order: the first pull that reaches a responder
  // evaluates its (one) response into the compact ResponseStore and
  // epoch-stamps the responder with the entry's byte offset; later pulls
  // meter the cached entry from its 2-byte header. ALL pull-response
  // metering happens here (additive counters, so the order within the round
  // cannot change the totals), and each pull records its response offset
  // for the deliver pass. Pass B - skipped entirely when neither knowledge
  // tracking nor an on_pull_reply hook consumes the message - delivers in
  // requester (= initiator) order, decoding each response from the store on
  // the fly. Evaluating EVERY response before delivering ANY reply gives
  // synchronous-round snapshot semantics: a response reflects the
  // post-push, pre-reply state, independent of pull arrival order. (The
  // seed executor interleaved respond with deliveries in sorted-responder
  // order, so its same-seed trajectories differ; see CHANGES.md.) With no
  // respond hook every answer is Empty, so the phase only runs when a hook
  // observes it.
  if constexpr (HasRespondHook<H> || HasOnPullReplyHook<H>) {
    if (pull_count_ != 0) {
      const std::size_t m = pull_count_;
      // Pass B runs only when something consumes the decoded message.
      const bool deliver = track || HasOnPullReplyHook<H>;
      if (deliver) response_of_.resize(m);
      ResponseStore& store = response_store_;
      store.clear();

      // Pass A: evaluate + meter. The per-responder probe is the one
      // unavoidable random access of the phase, so the loop prefetches it
      // kPullLookahead pulls ahead - by the time a pull is evaluated its
      // PullStamp line is already in L1.
      constexpr std::size_t kPullLookahead = 48;
      for (std::size_t i = 0; i < m; ++i) {
        if (i + kPullLookahead < m) {
          __builtin_prefetch(&pull_stamp_[pulls_[i + kPullLookahead].responder], 1);
        }
        const std::uint32_t responder = pulls_[i].responder;
        PullStamp& ps = pull_stamp_[responder];
        std::uint32_t offset;
        std::uint64_t meter;
        if ((ps.stamp >> 32) != pull_epoch_) {
          Message response;
          if constexpr (HasRespondHook<H>) response = hooks.respond(responder);
          if (byz != nullptr && byz->byzantine(responder)) {
            // Pure in (seed, round, responder): the corrupted response is
            // the same whichever requester triggers the evaluation, so the
            // single-evaluation cache and every executor agree.
            response = byz->corrupt_response(fault_round, responder, net_, response);
            // Once per (responder, round) - evaluation is cached.
            if (telemetry_ != nullptr) telemetry_->events.note_corruption(responder);
          }
          const std::uint64_t bits = response.bits(net_.costs());
          const bool has_payload = !response.is_empty();
          offset = store.append(std::move(response));
          meter = bits << 1 | static_cast<std::uint64_t>(has_payload);
          ps.stamp = (static_cast<std::uint64_t>(pull_epoch_) << 32) | offset;
          ps.meter = meter;
        } else {
          offset = static_cast<std::uint32_t>(ps.stamp);
          meter = ps.meter;
        }
        metrics_.record_pull_response(meter >> 1, (meter & 1) != 0);
        if (deliver) response_of_[i] = offset;
      }

      // Pass B: deliver in requester order (no metering left to do). A
      // rumor-bearing response is the requester's first-inform when nothing
      // informed it earlier; p.chan carries the channel byte phase 1
      // computed. The tracer's bitmap word is prefetched alongside the
      // response entry, one lookahead window ahead.
      if (deliver) {
        for (std::size_t i = 0; i < m; ++i) {
          if (i + kPullLookahead < m) {
            store.prefetch(response_of_[i + kPullLookahead]);
            if (tracer != nullptr) tracer->prefetch(pulls_[i + kPullLookahead].from);
          }
          const PendingPull& p = pulls_[i];
          store.with_message(response_of_[i], [&](const Message& msg) {
            if (tracer != nullptr && msg.has_rumor()) {
              tracer->note_first_inform(p.from, p.responder, trace_round, p.chan);
            }
            if (track) learn_from_message(p.from, msg);
            if constexpr (HasOnPullReplyHook<H>) hooks.on_pull_reply(p.from, msg);
          });
        }
      }
    }
  }

  std::uint64_t p1_ns = 0, p2_ns = 0, p3_ns = 0;
  if (timing) {
    const PhaseClock::time_point t_end = PhaseClock::now();
    const auto ns = [](PhaseClock::duration d) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
    };
    p1_ns = ns(t_phase1 - t_begin);
    p2_ns = ns(t_phase2 - t_phase1);
    p3_ns = ns(t_end - t_phase2);
    if (time_phases_) {
      phase_times_.phase1_seconds += static_cast<double>(p1_ns) * 1e-9;
      phase_times_.phase2_seconds += static_cast<double>(p2_ns) * 1e-9;
      phase_times_.phase3_seconds += static_cast<double>(p3_ns) * 1e-9;
    }
  }

  if (telemetry_ != nullptr) {
    // Capture BEFORE metrics_.end_round() archives and resets the
    // in-progress RoundStats; the probe (if any) still sees live algorithm
    // state because the caller's run_round has not returned yet.
    const obs::EventLog::RoundCounts ec = telemetry_->events.end_round();
    telemetry_->rounds.on_round_end(fault_round, metrics_.current_round(),
                                    net_.n(), net_.alive_count(), ec.loss_drops,
                                    ec.corrupt_responses, p1_ns, p2_ns, p3_ns);
  }

  metrics_.end_round();
}

}  // namespace gossip::sim
