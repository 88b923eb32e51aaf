// Observability layer: per-round time series, structured event log, and a
// progress heartbeat.
//
// The whole layer hangs off one attachment handle, obs::Telemetry, passed
// around as a raw pointer. A null pointer means "detached": the engine's
// phase loops pay exactly one pointer null-check per round (no virtual
// calls), and the per-contact loss path records drops only on the drop
// branch, which is already off the fast path.
//
// Determinism contract (README "Observability"): for a fixed scenario spec,
// recorded round content and event content are bit-identical across
// TrialRunner worker counts and sharded engine thread counts (>= 1). The
// wall-clock fields (phase*_ns) are the ONLY
// exception - they are excluded from the contract, and the exporters can
// strip them (ExportOptions::timing / tools/strip_timing.py).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <vector>

#include "obs/provenance.hpp"
#include "obs/sample.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"

namespace gossip::obs {

/// Sentinel for "this run has no informed-count probe" (e.g. the cluster
/// algorithms, whose informed state lives inside the algorithm object).
inline constexpr std::uint64_t kNoCount = ~std::uint64_t{0};

/// Event round index for events that fire before round 0 (pre-run
/// StaticCrash failures, initial joins observed under telemetry).
inline constexpr std::int64_t kPreRunRound = -1;

/// Accumulated per-phase wall-clock seconds. Shared between sim::Engine
/// (which aliases it as Engine::PhaseTimes) and the bench ReferenceEngine,
/// so reset/accumulate semantics cannot drift between the two.
struct PhaseTimes {
  double phase1_seconds = 0.0;
  double phase2_seconds = 0.0;
  double phase3_seconds = 0.0;
};

/// One fixed-width record per engine round. Everything except the *_ns
/// fields is covered by the determinism contract.
struct RoundRecord {
  std::uint64_t round = 0;     ///< Engine fault-clock round index.
  std::uint64_t informed = kNoCount;  ///< From the probe; kNoCount = none.
  std::uint64_t alive = 0;     ///< Alive nodes at end of round.
  std::uint64_t joined = 0;    ///< Nodes ever joined (initial + arrivals).
  // RoundStats counters (sim/metrics.hpp), one column each.
  std::uint64_t pushes = 0;
  std::uint64_t pull_requests = 0;
  std::uint64_t pull_responses = 0;
  std::uint64_t payload_messages = 0;
  std::uint64_t connections = 0;
  std::uint64_t bits = 0;
  std::uint64_t initiators = 0;
  std::uint32_t max_involvement = 0;
  // Fault-layer volume totals (the event log keeps only samples).
  std::uint64_t loss_drops = 0;
  std::uint64_t corrupt_responses = 0;
  /// Membership-service population estimate (mean over alive nodes); NaN
  /// when no estimate probe is installed. Exported as null.
  double estimate_n = std::numeric_limits<double>::quiet_NaN();
  // Wall-clock per-phase nanoseconds. NOT part of the determinism contract.
  std::uint64_t phase1_ns = 0;
  std::uint64_t phase2_ns = 0;
  std::uint64_t phase3_ns = 0;
};

class ProgressMeter;

/// Captures one RoundRecord per engine round into a flat, preallocated
/// buffer, and accumulates PhaseTimes with the same reset semantics the
/// engine's built-in phase timer has.
class RoundRecorder {
 public:
  /// Optional per-round probe, run at end-of-round while the algorithm's
  /// state is still live. Algorithms that track an informed count install
  /// one; the membership service also fills estimate_n.
  struct Probe {
    std::uint64_t informed = kNoCount;
    double estimate_n = std::numeric_limits<double>::quiet_NaN();
  };
  using ProbeFn = std::function<Probe()>;

  void reserve(std::size_t rounds) { records_.reserve(rounds); }

  /// Installs (or clears, with an empty function) the end-of-round probe.
  /// Probes typically capture algorithm locals by reference, so callers
  /// MUST clear the probe before those locals go out of scope.
  void set_probe(ProbeFn probe) { probe_ = std::move(probe); }

  /// Routes per-round heartbeats to a shared ProgressMeter (trial_runner
  /// wiring); `trial` labels this recorder's track.
  void set_progress(ProgressMeter* meter, unsigned trial) {
    progress_ = meter;
    trial_ = trial;
  }

  void on_round_end(std::uint64_t round, const sim::RoundStats& stats,
                    std::uint64_t joined, std::uint64_t alive,
                    std::uint64_t loss_drops, std::uint64_t corrupt_responses,
                    std::uint64_t phase1_ns, std::uint64_t phase2_ns,
                    std::uint64_t phase3_ns);

  [[nodiscard]] const std::vector<RoundRecord>& records() const {
    return records_;
  }

  [[nodiscard]] const PhaseTimes& phase_times() const { return phase_times_; }

  /// Zeroes the accumulated phase clocks only - recorded rounds are kept.
  /// Mirrors sim::Engine::reset_phase_times exactly.
  void reset_phase_times() { phase_times_ = PhaseTimes{}; }

  /// Drops recorded rounds and phase clocks (probe and progress wiring are
  /// kept). Used by benches that reuse one recorder across repeats.
  void clear() {
    records_.clear();
    phase_times_ = PhaseTimes{};
  }

 private:
  std::vector<RoundRecord> records_;
  PhaseTimes phase_times_;
  ProbeFn probe_;
  ProgressMeter* progress_ = nullptr;
  unsigned trial_ = 0;
};

enum class EventKind : std::uint8_t {
  kJoin,             ///< Node joined the network (fault layer or algorithm).
  kCrash,            ///< Node failed (ScheduledCrash / StaticCrash / churn).
  kLossDrop,         ///< Sampled per-contact loss drop (total in RoundRecord).
  kCorruptResponse,  ///< Sampled byzantine corruption (total in RoundRecord).
  kVerdict,          ///< Driver verdict summary for one collect round.
  kReelect,          ///< Recovery supervisor re-elected suspected leaders.
  kFallback,         ///< Recovery supervisor degraded to plain PUSH-PULL.
};

[[nodiscard]] const char* event_kind_name(EventKind kind);

/// One structured event. `node` is the subject index for join/crash/
/// loss_drop/corrupt_response; for verdict events the fields carry the
/// summary counters (node = participating leaders, a = dissolved,
/// b = resized).
struct Event {
  std::int64_t round = kPreRunRound;
  EventKind kind = EventKind::kJoin;
  std::uint64_t node = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Structured event log fed by the fault layer. Joins, crashes, and verdict
/// summaries are recorded unsampled (their volume is bounded by the node
/// population resp. driver phases); per-contact loss drops and byzantine
/// corruptions are counted in full but sampled via the deterministic
/// bottom-k reservoir in obs/sample.hpp.
///
/// Implements sim::NetworkObserver so Network::join()/fail() feed it
/// directly - the fault models need no changes to be observable.
class EventLog final : public sim::NetworkObserver {
 public:
  struct RoundCounts {
    std::uint64_t loss_drops = 0;
    std::uint64_t corrupt_responses = 0;
  };

  /// Starts a round: subsequent events are stamped with `round`.
  void begin_round(std::int64_t round);

  /// Flushes the round's sampled events (sorted by node index, so the
  /// output order is execution-order-free) and returns the full totals.
  RoundCounts end_round();

  /// Serial-engine loss drop (the sharded path records into ShardBuffer
  /// and merges via merge_loss).
  void note_loss_drop(std::uint32_t node) {
    ++loss_count_;
    loss_sample_.offer(
        event_priority(static_cast<std::uint64_t>(round_), node), node);
  }

  /// Folds one shard's loss drops in (called in shard order; the sample
  /// merge is order-insensitive anyway).
  void merge_loss(std::uint64_t count, const TopKSample& sample) {
    loss_count_ += count;
    loss_sample_.merge(sample);
  }

  void note_corruption(std::uint32_t responder) {
    ++corrupt_count_;
    corrupt_sample_.offer(
        event_priority(static_cast<std::uint64_t>(round_), responder),
        responder);
  }

  void note_verdict(std::uint32_t leaders, std::uint64_t dissolved,
                    std::uint64_t resized) {
    events_.push_back(Event{round_, EventKind::kVerdict, leaders, dissolved,
                            resized});
  }

  /// Recovery-supervisor re-election summary for one epoch (node = followers
  /// that suspected their leader, a = of those, the ones promoted to leader,
  /// b = the supervisor epoch index).
  void note_reelect(std::uint64_t suspected, std::uint64_t promoted,
                    std::uint64_t epoch) {
    events_.push_back(Event{round_, EventKind::kReelect, suspected, promoted,
                            epoch});
  }

  /// Recovery-supervisor fallback handoff (node = nodes still uninformed at
  /// the handoff, a = supervisor epochs spent, b = the retry budget).
  void note_fallback(std::uint64_t stranded, std::uint64_t epochs,
                     std::uint64_t budget) {
    events_.push_back(Event{round_, EventKind::kFallback, stranded, epochs,
                            budget});
  }

  // sim::NetworkObserver
  void on_join(std::uint32_t index) override {
    events_.push_back(Event{round_, EventKind::kJoin, index, 0, 0});
  }
  void on_fail(std::uint32_t index) override {
    events_.push_back(Event{round_, EventKind::kCrash, index, 0, 0});
  }

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::int64_t current_round() const { return round_; }

  /// Per-round, per-kind reservoir size (scenario key `event_sample_cap`).
  /// The cap is experiment identity, not execution order, so it may differ
  /// between runs without breaking any determinism contract - but two runs
  /// compared for bit-identity must of course use the same cap.
  void set_sample_cap(std::size_t cap) {
    sample_cap_ = cap == 0 ? 1 : cap;
    loss_sample_.set_cap(sample_cap_);
    corrupt_sample_.set_cap(sample_cap_);
  }
  [[nodiscard]] std::size_t sample_cap() const noexcept { return sample_cap_; }

 private:
  std::int64_t round_ = kPreRunRound;
  std::uint64_t loss_count_ = 0;
  std::uint64_t corrupt_count_ = 0;
  std::size_t sample_cap_ = kEventSampleCap;
  TopKSample loss_sample_;
  TopKSample corrupt_sample_;
  std::vector<Event> events_;
};

/// The single attachment handle: one per trial. Engine, Driver, and the
/// algorithm runners all take an obs::Telemetry* and write into these
/// three. The provenance tracer participates only when armed
/// (ProvenanceTracer::arm); the other two are always live once attached.
struct Telemetry {
  RoundRecorder rounds;
  EventLog events;
  ProvenanceTracer provenance;
};

/// Rate-limited stderr heartbeat for long scenarios (gossip_run
/// --progress). Shared by all trial recorders of one run; thread-safe
/// because TrialRunner workers end rounds concurrently.
class ProgressMeter {
 public:
  explicit ProgressMeter(unsigned trials, unsigned interval_ms = 250)
      : trials_(trials), interval_ms_(interval_ms) {}

  /// Prints "trial T/N round R informed I/A" at most once per interval.
  void on_round_end(unsigned trial, std::uint64_t round,
                    std::uint64_t informed, std::uint64_t alive);

 private:
  unsigned trials_;
  unsigned interval_ms_;
  std::mutex mutex_;
  /// min()/2, not min(): "now - last" must not overflow on the first call.
  std::int64_t last_print_ms_ = std::numeric_limits<std::int64_t>::min() / 2;
};

}  // namespace gossip::obs
