// Pluggable fault models on a deterministic round timeline.
//
// The paper's Section 8 adversary fixes a crash set *before* round 1; the
// rumor-spreading literature treats robustness more richly (Avin-Elsasser:
// node failures; Doerr-Fouz: independently failing transmissions). This
// header generalises the one-shot fail-set into a first-class FaultModel the
// Engine consults on a round timeline:
//
//   * on_run_begin(net, adversary)  - once, before the algorithm draws any
//     randomness (obliviousness: the adversary's choices come from its own
//     dedicated stream). TrialRunner calls this; direct Engine users call it
//     themselves.
//   * on_round_begin(round, net)    - before every engine round (0-based,
//     engine-lifetime count). May call Network::fail(): the alive set is
//     DYNAMIC but MONOTONE - nodes crash, they never come back.
//   * loss_probability(round)       - arms a per-contact LossChannel for the
//     round. A lossy contact's connection still happens (it is metered and
//     the handshake reveals both endpoints' IDs) but its payload - push
//     content, pull response, both exchange directions - is dropped, exactly
//     as if the target had failed.
//
// Determinism: loss decisions are drawn from counter-based streams keyed by
// (network seed, round, initiator) via Rng::fork, never from the engine's
// draw path, so they are bit-identical for the serial and sharded executors
// and for every engine/trial thread count.
//
// Churn (PR 6): on_round_begin may also call Network::join() - the alive
// set is non-monotone, but each node's own lifetime still is (join once,
// maybe crash once, never revive). Join/crash arrivals come from a
// counter-based stream keyed on (network seed, round), so a churn
// trajectory is part of the round timeline and bit-identical across every
// executor. ByzantineResponder adds the third adversary axis: alive nodes
// whose pull responses the engine replaces with corrupt_response() -
// payload corruption is detected (the rumor/count is dropped at the
// receiver, modeled as absent), but ID-list poisoning is NOT: stale and
// garbage IDs enter the receiver's knowledge like any gossiped list, and a
// later direct contact to one dials dead air.
//
// Concrete models: StaticCrash (wraps the Section 8 adversary - the
// back-compat default), ScheduledCrash (crash a set at round t, e.g. kill
// the source mid-broadcast), LossyChannel(p), ChurnSchedule (scripted or
// Poisson join/crash arrivals), LossSchedule (burst / ramp / periodic
// partition loss curves), ByzantineResponder(fraction), and CompositeFault.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/message.hpp"

namespace gossip::sim {

enum class FaultStrategy {
  kRandomSubset,  ///< F nodes uniformly at random
  kSmallestIds,   ///< the F nodes with the smallest IDs (attacks merge-to-smallest)
  kIndexStride,   ///< every ceil(n/F)-th node by index (deterministic spread)
};

[[nodiscard]] const char* to_string(FaultStrategy s) noexcept;

class Network;  // fwd

/// Chooses F distinct node indices to fail according to `strategy`.
/// Must be invoked before the algorithm under test draws any randomness that
/// depends on the same seed (obliviousness); callers pass a dedicated RNG.
[[nodiscard]] std::vector<std::uint32_t> choose_failures(const Network& net, std::uint32_t f,
                                                         FaultStrategy strategy, Rng& rng);

// ---------------------------------------------------------------------------
// Per-round loss channel (value type the Engine arms when a model reports a
// positive loss probability).
// ---------------------------------------------------------------------------

/// Decides, per contact, whether the connection's payload is dropped this
/// round. Decisions are a pure function of (network seed, round, initiator):
/// any executor - serial, sharded with any thread count, any trial worker -
/// reproduces the same drops. Probabilities below 2^-64 are lossless.
class LossChannel {
 public:
  LossChannel() = default;
  LossChannel(std::uint64_t network_seed, std::uint64_t round, double p);

  /// True when this round actually drops anything (p rounded above 0).
  [[nodiscard]] bool active() const noexcept { return threshold_ != 0; }

  /// Drop decision for the (single) contact `initiator` opened this round.
  [[nodiscard]] bool drop(std::uint32_t initiator) const noexcept {
    return round_rng_.fork(initiator).next_u64() < threshold_;
  }

 private:
  Rng round_rng_{0};  ///< Rng(mix64(seed ^ salt)).fork(round)
  std::uint64_t threshold_ = 0;  ///< p mapped onto the u64 range
};

// ---------------------------------------------------------------------------
// FaultModel interface.
// ---------------------------------------------------------------------------

/// A fault scenario consulted by the Engine on the round timeline. Crashes
/// must be monotone (Network::fail only; nodes never revive); the loss
/// probability may vary per round. Models are installed non-owning via
/// Engine::set_fault_model and must outlive the rounds they run.
class FaultModel {
 public:
  virtual ~FaultModel() = default;

  /// Called once, before the algorithm runs and before the source is chosen.
  /// `adversary` is a dedicated stream (obliviousness: independent of the
  /// run's randomness). Models that pre-commit to a victim set draw it here.
  virtual void on_run_begin(Network& net, Rng& adversary);

  /// Called before every round; `round` counts this engine's rounds from 0
  /// (engine lifetime - it never resets with the metrics). May crash nodes.
  virtual void on_round_begin(std::uint64_t round, Network& net);

  /// Per-contact payload-drop probability for `round`, in [0, 1]. 0 (the
  /// default) keeps the round lossless and costs nothing on the hot path.
  /// Round-varying implementations are first-class: the engine re-queries
  /// every round and composites re-query every part (see CompositeFault).
  [[nodiscard]] virtual double loss_probability(std::uint64_t round) const;

  /// True when some node answers pulls adversarially; the engine arms its
  /// response-corruption path for a round only when this reports true.
  [[nodiscard]] virtual bool has_byzantine() const;

  /// True when `node`'s pull responses are adversarial (pre-committed at
  /// on_run_begin; oblivious, so constant across the run).
  [[nodiscard]] virtual bool byzantine(std::uint32_t node) const;

  /// Replacement for a byzantine `responder`'s single per-round response.
  /// Must be a pure function of (network seed, round, responder) - it is
  /// evaluated once per responder per round, in first-pull order, and
  /// every requester sees the same corrupted message. The default returns
  /// `honest` unchanged.
  [[nodiscard]] virtual Message corrupt_response(std::uint64_t round,
                                                 std::uint32_t responder,
                                                 const Network& net,
                                                 const Message& honest) const;

  /// Component map for `round`, or nullptr when the network is whole (the
  /// default - no cost on the hot path). When non-null the pointer addresses
  /// `Network::capacity()` component labels and a contact whose initiator and
  /// target carry different labels behaves exactly like a lossy contact: the
  /// connection is metered, the payload is dropped. The map must stay valid
  /// and constant for the duration of the round.
  [[nodiscard]] virtual const std::uint32_t* partition_components(
      std::uint64_t round) const;

  /// Human-readable summary, e.g. "static_crash(f=32, strategy=random)".
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// The Section 8 oblivious adversary as a FaultModel: crashes `count` nodes
/// chosen by `strategy` at run begin (before round 0, before the source is
/// picked). This is the back-compat default for legacy fault_fraction /
/// fault_strategy scenarios - it consumes the adversary stream exactly as
/// the old choose_failures + Network::fail recipe did.
class StaticCrash final : public FaultModel {
 public:
  StaticCrash(std::uint32_t count, FaultStrategy strategy);

  void on_run_begin(Network& net, Rng& adversary) override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::uint32_t count_;
  FaultStrategy strategy_;
};

/// Crashes a set of nodes at the start of round `crash_round` (0-based:
/// crash_round = 0 kills them before any communication, after the source is
/// chosen - so the source itself may die mid-broadcast). The set is either
/// chosen obliviously at run begin (count + strategy, same adversary-stream
/// consumption as StaticCrash) or given explicitly by index.
class ScheduledCrash final : public FaultModel {
 public:
  ScheduledCrash(std::uint64_t crash_round, std::uint32_t count, FaultStrategy strategy);
  ScheduledCrash(std::uint64_t crash_round, std::vector<std::uint32_t> victims);

  void on_run_begin(Network& net, Rng& adversary) override;
  void on_round_begin(std::uint64_t round, Network& net) override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] std::uint64_t crash_round() const noexcept { return crash_round_; }
  [[nodiscard]] const std::vector<std::uint32_t>& victims() const noexcept {
    return victims_;
  }

 private:
  std::uint64_t crash_round_;
  std::uint32_t count_ = 0;
  FaultStrategy strategy_ = FaultStrategy::kRandomSubset;
  bool explicit_victims_;
  bool fired_ = false;
  std::vector<std::uint32_t> victims_;
};

/// Independent per-contact payload loss with probability `p` in [0, 1),
/// every round (Doerr-Fouz style transmission failures).
class LossyChannel final : public FaultModel {
 public:
  explicit LossyChannel(double p);

  [[nodiscard]] double loss_probability(std::uint64_t round) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  double p_;
};

/// One scripted churn event: at the start of engine round `round`, `joins`
/// nodes arrive and then `crashes` uniformly random alive nodes fail.
struct ChurnEvent {
  std::uint64_t round = 0;
  std::uint32_t joins = 0;
  std::uint32_t crashes = 0;
};

/// Join/crash arrivals on the round timeline - either Poisson (expected
/// `join_rate` joins and `crash_rate` crashes per round) or scripted. All
/// randomness (arrival counts, crash victims) comes from a counter-based
/// stream keyed on (network seed, round), so the schedule is oblivious to
/// the algorithm and bit-identical across executors and thread counts.
/// Within a round, joins apply before crashes (a joiner can die the same
/// round it arrives). Joins silently stop at the network's pre-reserved
/// capacity; crashes never take the alive count below 2.
class ChurnSchedule final : public FaultModel {
 public:
  /// Poisson arrivals, optionally windowed to rounds [start, end).
  ChurnSchedule(double join_rate, double crash_rate, std::uint64_t start_round = 0,
                std::uint64_t end_round = ~0ULL);
  /// Scripted arrivals (events need not be sorted; rounds may repeat).
  explicit ChurnSchedule(std::vector<ChurnEvent> script);

  void on_round_begin(std::uint64_t round, Network& net) override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] std::uint64_t joins_applied() const noexcept { return joins_applied_; }
  [[nodiscard]] std::uint64_t crashes_applied() const noexcept { return crashes_applied_; }

 private:
  void apply(std::uint32_t joins, std::uint32_t crashes, std::uint64_t round,
             Network& net);
  void apply_with(std::uint32_t joins, std::uint32_t crashes, Rng& churn, Network& net);

  double join_rate_ = 0.0;
  double crash_rate_ = 0.0;
  std::uint64_t start_round_ = 0;
  std::uint64_t end_round_ = ~0ULL;
  bool scripted_;
  std::vector<ChurnEvent> script_;
  std::uint64_t joins_applied_ = 0;
  std::uint64_t crashes_applied_ = 0;
};

/// Round-varying loss curves, composable with every other model:
///   burst(p, from, until)      p on rounds [from, until), 0 elsewhere;
///   ramp(p0, p1, over_rounds)  linear from p0 at round 0 to p1 at round
///                              `over_rounds`, holding p1 after;
///   periodic(p, period, duty)  p during the first `duty` rounds of every
///                              `period`-round cycle (a recurring partition).
class LossSchedule final : public FaultModel {
 public:
  enum class Shape { kBurst, kRamp, kPeriodic };

  [[nodiscard]] static LossSchedule burst(double p, std::uint64_t from,
                                          std::uint64_t until);
  [[nodiscard]] static LossSchedule ramp(double p0, double p1,
                                         std::uint64_t over_rounds);
  [[nodiscard]] static LossSchedule periodic(double p, std::uint64_t period,
                                             std::uint64_t duty);

  [[nodiscard]] double loss_probability(std::uint64_t round) const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] Shape shape() const noexcept { return shape_; }

 private:
  LossSchedule(Shape shape, double a, double b, std::uint64_t r0, std::uint64_t r1);

  Shape shape_;
  double a_;         ///< burst/periodic: p; ramp: p0
  double b_;         ///< ramp: p1; unused otherwise
  std::uint64_t r0_; ///< burst: from; ramp: over_rounds; periodic: period
  std::uint64_t r1_; ///< burst: until; periodic: duty; unused for ramp
};

/// Splits the network into `parts` components for rounds [t0, t1): every
/// cross-component contact behaves as payload loss (connection metered,
/// content dropped), then the partition heals. Component labels cover ALL
/// capacity slots - joiners arriving mid-partition land in a component too -
/// and are pre-committed at run begin from a per-node counter stream keyed
/// on (network seed, node) with a dedicated salt, so the split is oblivious
/// to the algorithm and bit-identical across trial workers and engine
/// threads.
class PartitionFault final : public FaultModel {
 public:
  PartitionFault(std::uint64_t from_round, std::uint64_t until_round,
                 std::uint32_t parts);

  void on_run_begin(Network& net, Rng& adversary) override;
  [[nodiscard]] const std::uint32_t* partition_components(
      std::uint64_t round) const override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] std::uint32_t component_of(std::uint32_t node) const {
    return components_[node];
  }

 private:
  std::uint64_t from_round_;
  std::uint64_t until_round_;
  std::uint32_t parts_;
  std::vector<std::uint32_t> components_;  ///< indexed by node, sized to capacity
};

/// A `fraction` of the initial nodes (pre-committed obliviously at run
/// begin) answer every pull with a corrupted message: the payload
/// (rumor/count) is stripped - corruption there is detectable, so the
/// receiver discards it - but the ID list is replaced with a poisoned one
/// (half stale-but-real IDs, half garbage) that the receiver CANNOT detect
/// and learns like any gossiped list. Joiners are never byzantine (the set
/// is fixed before the run). Pushes initiated by byzantine nodes are not
/// altered; the model targets the response path direct addressing trusts.
class ByzantineResponder final : public FaultModel {
 public:
  explicit ByzantineResponder(double fraction);

  void on_run_begin(Network& net, Rng& adversary) override;
  [[nodiscard]] bool has_byzantine() const override;
  [[nodiscard]] bool byzantine(std::uint32_t node) const override;
  [[nodiscard]] Message corrupt_response(std::uint64_t round, std::uint32_t responder,
                                         const Network& net,
                                         const Message& honest) const override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] std::uint32_t traitor_count() const noexcept { return traitor_count_; }

 private:
  double fraction_;
  std::uint32_t traitor_count_ = 0;
  std::vector<std::uint8_t> traitor_;  ///< indexed by node, sized to capacity
};

/// Runs several models on one timeline: setup and round hooks forward in
/// insertion order; loss channels compose as independent failures
/// (1 - prod(1 - p_i), re-queried per round so round-varying schedules
/// compose correctly); byzantine queries forward to the parts.
class CompositeFault final : public FaultModel {
 public:
  CompositeFault() = default;

  CompositeFault& add(std::unique_ptr<FaultModel> part);
  [[nodiscard]] std::size_t size() const noexcept { return parts_.size(); }

  void on_run_begin(Network& net, Rng& adversary) override;
  void on_round_begin(std::uint64_t round, Network& net) override;
  [[nodiscard]] double loss_probability(std::uint64_t round) const override;
  [[nodiscard]] bool has_byzantine() const override;
  [[nodiscard]] bool byzantine(std::uint32_t node) const override;
  [[nodiscard]] Message corrupt_response(std::uint64_t round, std::uint32_t responder,
                                         const Network& net,
                                         const Message& honest) const override;
  [[nodiscard]] const std::uint32_t* partition_components(
      std::uint64_t round) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::vector<std::unique_ptr<FaultModel>> parts_;
};

}  // namespace gossip::sim
