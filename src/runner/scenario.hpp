// Declarative experiment specification for the scenario runner.
//
// A ScenarioSpec describes ONE experiment - which algorithm (by registry id,
// see runner/registry.hpp), network size, fault model, delta bound, trial
// count and seeding - as plain data. Specs are built from `key = value`
// scenario files and/or `--key=value` CLI flags (flags override the file),
// so new workloads are data, not new binaries:
//
//   # scenarios/smoke.scn
//   algorithm = push_pull
//   n         = 512
//   trials    = 6
//   seed      = 42
//   fault_fraction = 0.05
//   fault_strategy = random
//   crash_round    = 4     # crash the set mid-run instead of pre-run
//   loss_prob      = 0.2   # drop each contact's payload w.p. 0.2
//
// Fault keys build a sim::FaultModel per trial (make_fault_model):
//   fault_fraction + fault_strategy  choose the oblivious crash set;
//   crash_round (default: pre-run)   defers the crash to the start of that
//                                    engine round (ScheduledCrash) - the
//                                    source may die mid-broadcast;
//   loss_prob                        arms a per-contact LossyChannel;
//   fault_model                      auto (compose from the keys above,
//                                    the default) | none (off-switch) | an
//                                    explicit kind that validates the shape.
// Legacy scenarios (fault_fraction/fault_strategy only) map to StaticCrash
// and reproduce the PR 3 trial trajectories bit-for-bit.
//
// Churn keys (PR 6) compose additional fault parts under fault_model = auto
// (the explicit legacy kinds reject them; none silences them):
//   join_rate / crash_rate     Poisson mean joins/crashes per round
//                              (sim::ChurnSchedule); joins draw fresh IDs,
//                              crashes pick uniformly among the alive;
//   churn_schedule             "round:joins:crashes,..." scripts exact churn
//                              events instead of Poisson arrivals;
//   loss_schedule              round-varying loss curve, one of
//                              "burst:p:from:until" | "ramp:p0:p1:rounds" |
//                              "periodic:p:period:duty" (sim::LossSchedule,
//                              composes with a flat loss_prob);
//   byzantine_fraction         fraction of nodes answering pulls with
//                              poisoned ID lists (sim::ByzantineResponder).
// Joins need headroom: the runner pre-reserves max_nodes() slots per trial
// network, derived deterministically from the churn keys; Poisson joins
// beyond the reservation are silently dropped (the schedule caps there).
//
// The `threads` key controls CROSS-TRIAL parallelism (TrialRunner workers)
// and is deliberately excluded from the experiment's identity: the runner's
// determinism contract is that aggregate output is bit-identical for every
// worker count >= 1, so `threads` never appears in the JSON report.
// `engine_threads` opts each trial's engine into sharded phase-1 execution
// (a different trajectory universe - see sim/engine.hpp); it IS part of the
// experiment identity and is echoed.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/fault.hpp"

namespace gossip::runner {

/// Thrown on malformed scenario input (unknown key, bad value, bad file).
/// gossip_run turns this into usage + exit(2); tests assert on it.
class ScenarioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// How the spec's fault keys combine into a sim::FaultModel. kAuto composes
/// whatever is configured; the explicit kinds additionally validate that
/// exactly the matching keys are set (validate() throws otherwise).
enum class FaultModelKind {
  kAuto,            ///< derive from fault_fraction / crash_round / loss_prob
  kNone,            ///< off-switch: run fault-free regardless of other keys
  kStaticCrash,     ///< pre-run oblivious crash set (the Section 8 adversary)
  kScheduledCrash,  ///< crash the set at the start of round `crash_round`
  kLossy,           ///< per-contact payload loss only
  kComposite,       ///< crash component + lossy channel together
};

/// Canonical key for a kind as accepted by apply("fault_model").
[[nodiscard]] const char* fault_model_key(FaultModelKind kind) noexcept;

struct ScenarioSpec {
  std::string name = "scenario";   ///< label echoed in reports
  std::string algorithm = "cluster2";  ///< registry id (runner/registry.hpp)
  std::uint32_t n = 1024;          ///< network size
  unsigned trials = 5;             ///< independent seeded runs
  std::uint64_t seed = 1;          ///< base seed; trial t runs off Rng(seed).fork(t)
  unsigned threads = 1;            ///< TrialRunner workers (not part of identity)
  unsigned engine_threads = 0;     ///< sharded phase-1 threads per trial (0 = serial)
  /// Initiators per phase-1 shard when engine_threads >= 1 (0 = default
  /// width). Part of the experiment identity when sharded (it re-keys the
  /// shard draw streams) and echoed in the report.
  std::uint32_t shard_size = 0;
  std::uint32_t rumor_bits = 256;  ///< payload size b
  std::uint64_t delta = 1024;      ///< communication bound (cluster3_push_pull)
  unsigned max_rounds = 0;         ///< round-schedule cap for uniform/rrs (0 = auto)
  double fault_fraction = 0.0;     ///< F/n, oblivious failures per trial
  sim::FaultStrategy fault_strategy = sim::FaultStrategy::kRandomSubset;
  /// Engine round (0-based) at which the crash set fires; kCrashPreRun (the
  /// default) keeps the legacy pre-run crash (applied before the source is
  /// chosen, so the source never starts dead). apply() accepts "pre_run" or
  /// "-1" to restore the default over a scenario file's value.
  static constexpr std::int64_t kCrashPreRun = -1;
  std::int64_t crash_round = kCrashPreRun;
  double loss_prob = 0.0;          ///< per-contact payload-drop probability
  FaultModelKind fault_model = FaultModelKind::kAuto;
  // Churn keys (see the header comment). Empty strings = feature off.
  double join_rate = 0.0;          ///< Poisson mean joins per round
  double crash_rate = 0.0;         ///< Poisson mean mid-run crashes per round
  std::string churn_schedule;      ///< "round:joins:crashes,..." script
  std::string loss_schedule;       ///< burst:... | ramp:... | periodic:...
  double byzantine_fraction = 0.0; ///< poisoned pull responders, F/n
  // Recovery keys (PR 10). `recovery` arms the self-healing supervisor
  // (core/recovery.hpp) on the cluster algorithms: when the primary run ends
  // with uninformed alive nodes it re-elects suspected-dead leaders, retries
  // the spread under a progress watchdog with bounded backoff, and degrades
  // to plain PUSH-PULL once `retry_budget` epochs are spent. The partition
  // keys add a sim::PartitionFault under fault_model = auto: the alive set
  // splits into `partition_parts` components for rounds
  // [partition_round, heal_round) and cross-component contacts lose their
  // payload (the connection is still metered).
  bool recovery = false;           ///< arm the recovery supervisor
  unsigned retry_budget = 0;       ///< supervisor epochs (0 = default 3)
  std::int64_t partition_round = -1;  ///< partition onset round (-1 = off)
  std::int64_t heal_round = -1;    ///< first healed round (-1 = off)
  unsigned partition_parts = 0;    ///< partition components (0 = default 2)
  // Observability keys (src/obs/): output paths arm per-trial telemetry
  // collection; gossip_run writes the files after the run. Like `threads`,
  // these describe HOW a run is observed, not WHAT it computes - they are
  // not part of the experiment identity and never appear in the JSON
  // report. Empty string = off.
  std::string timeseries;          ///< per-round JSONL time series path
  std::string trace;               ///< Chrome trace_event JSON path
  std::string events;              ///< structured event JSONL path
  std::string provenance;          ///< per-node first-inform JSONL path
  bool progress = false;           ///< rate-limited stderr heartbeat
  /// Per-round, per-kind bottom-k reservoir size of the event log
  /// (obs/sample.hpp). Unlike the paths above this IS part of the
  /// experiment's observable output (a different cap keeps a different
  /// k-subset), but it never alters trajectories. Must be >= 1.
  unsigned event_sample_cap = 8;

  /// Any telemetry output configured (timeseries / trace / events /
  /// provenance)?
  [[nodiscard]] bool wants_telemetry() const noexcept;

  /// Number of failed nodes per trial (round(fault_fraction * n)).
  [[nodiscard]] std::uint32_t fault_count() const noexcept;

  /// Any churn part configured (joins or mid-run Poisson/scripted crashes)?
  [[nodiscard]] bool has_churn() const noexcept;

  /// Per-trial network capacity: n plus deterministic join headroom derived
  /// from the churn keys (n when churn is off, so join-free scenarios are
  /// unchanged). Poisson joins beyond this pre-reservation are dropped.
  [[nodiscard]] std::uint32_t max_nodes() const;

  /// Builds the trial's fault model from the fault keys (see the header
  /// comment), or null when the spec is effectively fault-free. The caller
  /// owns the model and invokes on_run_begin with the trial's adversary
  /// stream (TrialRunner does both).
  [[nodiscard]] std::unique_ptr<sim::FaultModel> make_fault_model() const;

  /// Resolved fault composition for reports: "none", "static_crash",
  /// "scheduled_crash", "lossy", "static_crash+lossy", ...
  [[nodiscard]] std::string fault_model_name() const;

  /// Applies one `key = value` assignment. Throws ScenarioError on an
  /// unknown key or a value that does not parse / violates a bound.
  void apply(std::string_view key, std::string_view value);

  /// Validates cross-field constraints (n >= 2, trials >= 1, ...).
  /// Called by TrialRunner::run; throws ScenarioError.
  void validate() const;

  /// Parses a scenario file: `key = value` lines, `#` comments, blank lines.
  static ScenarioSpec from_file(const std::string& path);

  /// Applies `--key=value` CLI flags on top of this spec. Non-spec flags
  /// (anything not matching a spec key) throw ScenarioError.
  void apply_cli(const std::vector<std::string>& flags);

  /// The keys apply() understands, for usage/help output.
  [[nodiscard]] static const std::vector<std::string>& keys();
};

/// Canonical name for a fault strategy as accepted by apply("fault_strategy").
[[nodiscard]] const char* strategy_key(sim::FaultStrategy s) noexcept;

/// Strict non-negative integer parsing, shared by the scenario keys and the
/// bench harness flags so every CLI accepts the same syntax: plain digits
/// (exact over the full uint64 range) or decimal/scientific notation
/// ("1e6"; exact-integer up to 2^53). Throws ScenarioError on malformed
/// input or a value outside [min, max]; `key` names the flag in the error.
[[nodiscard]] std::uint64_t parse_count(std::string_view key, std::string_view value,
                                        std::uint64_t min, std::uint64_t max);

/// Strict probability/fraction parsing shared with the bench flags: a finite
/// real in [0, 1). Throws ScenarioError otherwise; `key` names the flag.
[[nodiscard]] double parse_fraction(std::string_view key, std::string_view value);

}  // namespace gossip::runner
