#include "runner/json_report.hpp"

#include "analysis/experiment.hpp"

namespace gossip::runner {

namespace {

void write_metric(JsonWriter& w, std::string_view name,
                  const analysis::MetricStat& m) {
  constexpr double kQs[] = {0.50, 0.90, 0.99};
  const std::vector<double> qs = m.quantiles(kQs);  // one sort for all three
  w.key(name).begin_object();
  w.kv("count", std::uint64_t{m.count()});
  w.kv("mean", m.mean());
  w.kv("stddev", m.stddev());
  w.kv("min", m.min());
  w.kv("max", m.max());
  w.kv("p50", qs[0]);
  w.kv("p90", qs[1]);
  w.kv("p99", qs[2]);
  w.end_object();
}

}  // namespace

void write_scenario_members(JsonWriter& w, const ScenarioResult& result) {
  const ScenarioSpec& s = result.spec;
  w.key("scenario").begin_object();
  w.kv("name", s.name);
  w.kv("algorithm", s.algorithm);
  w.kv("n", s.n);
  w.kv("trials", std::uint64_t{s.trials});
  w.kv("seed", s.seed);
  w.kv("engine_threads", std::uint64_t{s.engine_threads});
  // shard_size is identity when sharded (it re-keys the shard draw
  // streams).
  w.kv("shard_size", std::uint64_t{s.shard_size});
  w.kv("rumor_bits", s.rumor_bits);
  w.kv("delta", s.delta);
  w.kv("max_rounds", std::uint64_t{s.max_rounds});
  w.kv("fault_fraction", s.fault_fraction);
  w.kv("fault_strategy", strategy_key(s.fault_strategy));
  w.kv("fault_count", s.fault_count());
  w.kv("fault_model", s.fault_model_name());
  w.kv("crash_round", std::int64_t{s.crash_round});
  w.kv("loss_prob", s.loss_prob);
  w.kv("join_rate", s.join_rate);
  w.kv("crash_rate", s.crash_rate);
  w.kv("churn_schedule", s.churn_schedule.empty() ? "none" : s.churn_schedule);
  w.kv("loss_schedule", s.loss_schedule.empty() ? "none" : s.loss_schedule);
  w.kv("byzantine_fraction", s.byzantine_fraction);
  w.kv("recovery", s.recovery);
  w.kv("retry_budget", std::uint64_t{s.retry_budget != 0 ? s.retry_budget : 3});
  w.kv("partition_round", std::int64_t{s.partition_round});
  w.kv("heal_round", std::int64_t{s.heal_round});
  w.kv("partition_parts",
       std::uint64_t{s.partition_parts != 0 ? s.partition_parts : 2});
  w.kv("max_nodes", s.max_nodes());
  w.end_object();

  const analysis::ReportAggregate& a = result.aggregate;
  w.kv("runs", a.runs);
  w.kv("failures", a.failures);
  w.key("metrics").begin_object();
  write_metric(w, "rounds", a.rounds);
  write_metric(w, "payload_messages_per_node", a.payload_per_node);
  write_metric(w, "connections_per_node", a.connections_per_node);
  write_metric(w, "bits_per_node", a.bits_per_node);
  write_metric(w, "total_bits", a.total_bits);
  write_metric(w, "max_delta", a.max_delta);
  write_metric(w, "informed_fraction", a.informed_fraction);
  write_metric(w, "uninformed", a.uninformed);
  write_metric(w, "estimate_error", a.estimate_error);
  write_metric(w, "spread_depth", a.spread_depth);
  write_metric(w, "direct_share", a.direct_share);
  w.end_object();
  // Wall-clock-class (process-wide, machine-dependent): strip_timing.py
  // removes it before determinism diffs.
  w.kv("peak_rss_bytes", result.peak_rss_bytes);
}

void write_scenario_json(std::ostream& os, const ScenarioResult& result) {
  JsonWriter w(os);
  w.begin_object();
  write_scenario_members(w, result);
  w.end_object();
}

void write_scenarios_json(std::ostream& os, std::string_view bench_name,
                          const std::vector<ScenarioResult>& results) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("bench", bench_name);
  w.key("scenarios").begin_array();
  for (const ScenarioResult& r : results) {
    w.begin_object();
    write_scenario_members(w, r);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace gossip::runner
