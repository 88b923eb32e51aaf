// Exporters for the observability layer: per-round JSONL time series,
// event JSONL, and Chrome trace_event JSON (chrome://tracing / Perfetto).
// All output is routed through runner::JsonWriter (compact mode), so string
// escaping and double formatting match the main scenario reports.
//
// Each exporter takes the per-trial Telemetry handles in trial order (the
// order TrialRunner stores them), which makes the output independent of the
// worker count that produced it.
#pragma once

#include <ostream>
#include <string_view>
#include <vector>

#include "obs/recorder.hpp"

namespace gossip::obs {

struct ExportOptions {
  /// Emit the wall-clock phase*_ns fields. The golden-content determinism
  /// test turns this off; CI strips them post-hoc with
  /// tools/strip_timing.py instead so the shipped files keep their timing.
  bool timing = true;
  /// Optional scenario label prepended to every line (bench_churn writes
  /// many scenarios into one file). Empty = omitted.
  std::string_view label = {};
};

/// One JSON object per recorded round:
///   {"trial":0,"round":3,"informed":41,"alive":255,"joined":258,
///    "initiators":258,"pushes":38,"pull_requests":217,...,
///    "loss_drops":12,"corrupt_responses":0,"estimate_n":null,
///    "phase1_ns":...,"phase2_ns":...,"phase3_ns":...}
/// `informed` and `estimate_n` are null when no probe supplied them.
void write_timeseries_jsonl(std::ostream& os,
                            const std::vector<const Telemetry*>& trials,
                            const ExportOptions& options = {});

/// One JSON object per event:
///   {"trial":0,"round":-1,"kind":"crash","node":17}
///   {"trial":0,"round":4,"kind":"loss_drop","node":12}
///   {"trial":2,"round":7,"kind":"verdict","leaders":12,"dissolved":3,
///    "resized":1}
/// round -1 marks pre-run events (StaticCrash, initial joins). Event
/// content carries no wall-clock fields, so the whole file is covered by
/// the determinism contract.
void write_events_jsonl(std::ostream& os,
                        const std::vector<const Telemetry*>& trials,
                        const ExportOptions& options = {});

/// One JSON object per informed node, in node order within each trial:
///   {"trial":0,"node":17,"round":4,"informer":3,"channel":"push",
///    "direct":false,"depth":2}
///   {"trial":0,"node":3,"round":-1,"informer":3,"channel":"seed",
///    "direct":false,"depth":0}
/// Only nodes the tracer saw informed are emitted; `depth` is the
/// informer-chain distance from the seed (obs::spread_depths). Content is
/// receiver-local and delivery-order-invariant, so the whole file is
/// covered by the workers x engine-threads determinism contract.
void write_provenance_jsonl(std::ostream& os,
                            const std::vector<const Telemetry*>& trials,
                            const ExportOptions& options = {});

/// Chrome trace_event JSON: one "X" (complete) span per phase per round,
/// one track (tid) per trial, pid 0. Timestamps are built by accumulating
/// phase durations per track, so `ts` is monotone within each tid and the
/// trace shows the phase budget of each round back-to-back.
void write_chrome_trace(std::ostream& os,
                        const std::vector<const Telemetry*>& trials,
                        const ExportOptions& options = {});

}  // namespace gossip::obs
