// The one JSON report schema for scenario executions (gossip_run and the
// benches built on TrialRunner all emit this, via the shared JsonWriter).
//
// Per scenario:
//   {
//     "scenario": { name, algorithm, n, trials, seed, engine_threads,
//                   shard_size, rumor_bits, delta, max_rounds,
//                   fault_fraction, fault_strategy, fault_count,
//                   fault_model (resolved composition, e.g.
//                   "scheduled_crash+lossy"), crash_round (-1 = pre-run),
//                   loss_prob },
//     "runs": N, "failures": M,
//     "metrics": { "<metric>": { count, mean, stddev, min, max,
//                                p50, p90, p99 }, ... },
//     "peak_rss_bytes": B
//   }
//
// The metrics include the dispersion-tree pair derived from the provenance
// tracer (obs/provenance.hpp): "spread_depth" (max informer-chain depth)
// and "direct_share" (direct-addressed fraction of first-informs).
//
// The spec's `threads` (TrialRunner worker count) is deliberately NOT
// echoed: the runner's contract is that this report is bit-identical for
// every worker count, and CI enforces it by diffing runs. "peak_rss_bytes" is the one wall-clock-class exception - it is
// process-wide and machine-dependent, so tools/strip_timing.py removes it
// (together with every *_ns field) before those diffs.
#pragma once

#include <ostream>
#include <string_view>
#include <vector>

#include "runner/json_writer.hpp"
#include "runner/trial_runner.hpp"

namespace gossip::runner {

/// Writes one scenario result as a standalone JSON document.
void write_scenario_json(std::ostream& os, const ScenarioResult& result);

/// Writes a bench-style document: {"bench": <name>, "scenarios": [...]}.
void write_scenarios_json(std::ostream& os, std::string_view bench_name,
                          const std::vector<ScenarioResult>& results);

/// Emits the scenario + runs/failures + metrics members of one result into
/// an already-open JSON object (for callers composing larger documents).
void write_scenario_members(JsonWriter& w, const ScenarioResult& result);

}  // namespace gossip::runner
