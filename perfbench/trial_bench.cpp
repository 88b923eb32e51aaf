// trial_bench - end-to-end trial benchmark over the scenario runner.
//
//   trial_bench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Every workload runs registry algorithms the way gossip_run does: a
// ScenarioSpec built from gossip_run flags, runner::run_scenario, then
// runner::write_scenario_json. The workload seed derives one scenario seed
// per batch, batch b getting Rng(seed).fork(b).next_u64(); inside a batch
// TrialRunner derives trial t from Rng(batch seed).fork(t) as always.
//
// --trace 0 measures the end-to-end metrics with nothing but the batch
// clock around the runner. --trace 1 first runs batches the same way, then
// replays each batch step by step (the body of TrialRunner::run and
// TrialRunner::run_trial, repeated here) with a span around every call into
// a layer, and checks that each replayed report is bit-identical to the
// runner's report for the same trial and that both aggregates serialise to
// the same JSON. Spans stay in memory and are written to DIR at exit, with
// the layer-share ledger derived from them.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. The exit code is 1 when a correctness check failed
// and 2 on a usage error.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/rss.hpp"
#include "obs/provenance.hpp"
#include "obs/recorder.hpp"
#include "runner/json_report.hpp"
#include "runner/json_writer.hpp"
#include "runner/registry.hpp"
#include "runner/scenario.hpp"
#include "runner/trial_runner.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/parallel/thread_pool.hpp"

namespace {

using namespace gossip;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  std::vector<std::string> flags;  ///< gossip_run flags (spec keys)
  unsigned batch_trials;           ///< trials per run_scenario call
  /// Trials that always run, whatever --seconds says. The complexity
  /// metrics (rounds, messages, bits) are taken over exactly these, so they
  /// are a pure function of the seed.
  unsigned fixed_trials;
};

// Why these workloads: see perfbench/README.md, which also says why
// cluster2_1m, push_pull_1m and membership_1k run on request but are not in
// BENCHMARK.json.
// delivery_buckets stays at its default everywhere (cluster2 trajectories
// depend on the bucket count).
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"cluster2_1m",
       {"--algorithm=cluster2", "--n=1000000", "--engine_threads=0", "--threads=1"},
       1, 5},
      {"push_pull_1m",
       {"--algorithm=push_pull", "--n=1000000", "--engine_threads=2", "--threads=1"},
       1, 15},
      {"push_pull_64k",
       {"--algorithm=push_pull", "--n=65536", "--engine_threads=2", "--threads=1"},
       8, 64},
      {"recovery_64k",
       {"--algorithm=cluster1", "--n=65536", "--engine_threads=0", "--threads=4",
        "--fault_fraction=0.1", "--fault_strategy=smallest", "--loss_prob=0.1",
        "--partition_round=2", "--heal_round=40", "--recovery=true"},
       4, 256},
      {"membership_1k",
       {"--algorithm=membership", "--n=1024", "--threads=1"},
       1, 2},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

runner::ScenarioSpec batch_spec(const Workload& w, std::uint64_t seed, std::uint64_t batch) {
  runner::ScenarioSpec spec;
  spec.name = w.name;
  spec.apply_cli(w.flags);
  spec.trials = w.batch_trials;
  spec.seed = Rng(seed).fork(batch).next_u64();
  return spec;
}

// ------------------------------------------------------------ small helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The highest percentile with at least ten samples beyond it, by nearest
/// rank: the (N-10)-th smallest sample. With ten samples or fewer no
/// percentile qualifies and the smallest sample is reported; `percentile`
/// says which one it was either way.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
};
Tail tail_of(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t rank = n > 10 ? n - 10 : 1;  // 1-based
  return {v[rank - 1], 100.0 * static_cast<double>(rank) / static_cast<double>(n)};
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_round_stats(const sim::RoundStats& a, const sim::RoundStats& b) {
  return a.pushes == b.pushes && a.pull_requests == b.pull_requests &&
         a.pull_responses == b.pull_responses && a.payload_messages == b.payload_messages &&
         a.connections == b.connections && a.bits == b.bits &&
         a.initiators == b.initiators && a.max_involvement == b.max_involvement;
}

/// Field-by-field, bit-for-bit report equality (doubles compared by bits).
bool same_report(const core::BroadcastReport& a, const core::BroadcastReport& b) {
  if (a.n != b.n || a.alive != b.alive || a.informed != b.informed ||
      a.all_informed != b.all_informed || a.rounds != b.rounds ||
      a.stats.rounds != b.stats.rounds || !same_round_stats(a.stats.total, b.stats.total) ||
      a.stats.per_round.size() != b.stats.per_round.size() ||
      !same_bits(a.estimate_n_error, b.estimate_n_error) ||
      !same_bits(a.spread_depth, b.spread_depth) || !same_bits(a.direct_share, b.direct_share) ||
      a.phases.size() != b.phases.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.stats.per_round.size(); ++i) {
    if (!same_round_stats(a.stats.per_round[i], b.stats.per_round[i])) return false;
  }
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    const core::PhaseBreakdown& p = a.phases[i];
    const core::PhaseBreakdown& q = b.phases[i];
    if (p.name != q.name || p.rounds != q.rounds || p.payload_messages != q.payload_messages ||
        p.connections != q.connections || p.bits != q.bits) {
      return false;
    }
  }
  return true;
}

/// The scenario JSON with the one wall-clock-class field zeroed, for
/// comparing a replayed aggregate against the runner's.
std::string timing_free_json(runner::ScenarioResult r) {
  r.peak_rss_bytes = 0;
  std::ostringstream os;
  runner::write_scenario_json(os, r);
  return os.str();
}

/// A trial fails when it leaves an alive node uninformed; for membership
/// `informed` counts the nodes whose estimate is within kEstimateEpsilon.
bool trial_failed(const core::BroadcastReport& r) { return !r.all_informed; }

// ------------------------------------------------------------------ batches

/// The network run_trial builds for a trial with this network seed.
sim::NetworkOptions network_options(const runner::ScenarioSpec& spec, std::uint64_t seed) {
  sim::NetworkOptions o;
  o.n = spec.n;
  o.seed = seed;
  o.rumor_bits = spec.rumor_bits;
  o.max_nodes = spec.max_nodes();
  return o;
}


/// One untraced batch: exactly gossip_run's path, timed from outside.
struct Batch {
  runner::ScenarioSpec spec;
  runner::ScenarioResult result;
  double wall_s = 0.0;
  bool threw = false;
};

Batch run_untraced(const runner::ScenarioSpec& spec) {
  Batch b;
  b.spec = spec;
  const Clock::time_point t0 = Clock::now();
  try {
    b.result = runner::run_scenario(spec);
    std::ostringstream os;
    runner::write_scenario_json(os, b.result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trial_bench: batch seed %llu threw: %s\n",
                 static_cast<unsigned long long>(spec.seed), e.what());
    b.threw = true;
  }
  b.wall_s = seconds_between(t0, Clock::now());
  return b;
}

/// Per-trial wall time of a batch: the batch wall spread over the trials
/// each worker ran (a 1-worker, 1-trial batch is exactly one trial).
double trial_seconds(const runner::ScenarioSpec& spec, double wall_s) {
  return wall_s * spec.threads / spec.trials;
}

// -------------------------------------------------------------------- spans

struct Span {
  const char* name = "";
  std::int64_t trial = -1;  ///< global trial id; -1 for batch-level spans
  std::int64_t parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  bool synthetic = false;  ///< duration from RoundRecord phase ns, no real start
  [[nodiscard]] double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

Clock::time_point g_epoch;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_epoch).count());
}

/// Spans of one thread of work; parents are indices into `spans`.
class Trace {
 public:
  std::int64_t begin(const char* name, std::int64_t trial) {
    Span s;
    s.name = name;
    s.trial = trial;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = now_ns();
    spans.push_back(s);
    open_.push_back(static_cast<std::int64_t>(spans.size()) - 1);
    return open_.back();
  }
  void end(std::int64_t id) {
    spans[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }
  /// Appends `other` under span `parent`, keeping its internal links.
  void adopt(const Trace& other, std::int64_t parent) {
    const auto base = static_cast<std::int64_t>(spans.size());
    for (Span s : other.spans) {
      s.parent = s.parent < 0 ? parent : s.parent + base;
      spans.push_back(s);
    }
  }

  std::vector<Span> spans;

 private:
  std::vector<std::int64_t> open_;
};

class Scoped {
 public:
  Scoped(Trace& t, const char* name, std::int64_t trial) : t_(t), id_(t.begin(name, trial)) {}
  ~Scoped() { t_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Trace& t_;
  std::int64_t id_;
};

/// Per-trial sums over the engine's RoundRecords.
struct RoundSums {
  std::uint64_t phase1_ns = 0, phase2_ns = 0, phase3_ns = 0;
  std::uint64_t sparse_ns = 0;  ///< phase time of rounds with < 10% initiators
  std::uint64_t contacts = 0, initiators = 0, alive = 0, loss_drops = 0;
};

/// TrialRunner::run_trial, step by step, with a span around each call into
/// a layer. Must stay in lock-step with src/runner/trial_runner.cpp: the
/// bit-identity check against the runner's own reports enforces that.
core::BroadcastReport traced_trial(const runner::ScenarioSpec& spec, unsigned trial,
                                   obs::Telemetry* telemetry, Trace& trace,
                                   std::int64_t trial_id, RoundSums& rounds) {
  const Scoped trial_span(trace, "trial", trial_id);
  const runner::AlgorithmEntry& algo = runner::require_algorithm(spec.algorithm);
  Rng trial_rng = Rng(spec.seed).fork(trial);
  const std::uint64_t network_seed = trial_rng.next_u64();
  const std::uint64_t adversary_seed = trial_rng.next_u64();

  std::optional<sim::Network> net;
  {
    const Scoped s(trace, "sim.network", trial_id);
    net.emplace(network_options(spec, network_seed));
  }

  net->set_observer(&telemetry->events);
  telemetry->events.set_sample_cap(spec.event_sample_cap);
  {
    const Scoped s(trace, "obs.arm", trial_id);
    telemetry->provenance.arm(net->capacity());
  }

  std::unique_ptr<sim::FaultModel> fault;
  {
    const Scoped s(trace, "sim.fault", trial_id);
    fault = spec.make_fault_model();
    if (fault) {
      Rng adversary(adversary_seed);
      fault->on_run_begin(*net, adversary);
    }
  }

  auto source = static_cast<std::uint32_t>(trial_rng.uniform_below(spec.n));
  while (!net->alive(source)) source = (source + 1) % spec.n;
  telemetry->provenance.note_seed(source);

  core::BroadcastReport report;
  {
    const Scoped s(trace, "algo", trial_id);
    report = algo.run(*net, source, spec, fault.get(), telemetry);
  }
  // The engine's own per-round phase clocks: summed per trial, and their
  // total recorded as one child span of algo.
  for (const obs::RoundRecord& r : telemetry->rounds.records()) {
    const std::uint64_t round_ns = r.phase1_ns + r.phase2_ns + r.phase3_ns;
    rounds.phase1_ns += r.phase1_ns;
    rounds.phase2_ns += r.phase2_ns;
    rounds.phase3_ns += r.phase3_ns;
    if (static_cast<double>(r.initiators) < 0.1 * static_cast<double>(r.alive)) {
      rounds.sparse_ns += round_ns;
    }
    rounds.contacts += r.connections;
    rounds.initiators += r.initiators;
    rounds.alive += r.alive;
    rounds.loss_drops += r.loss_drops;
  }
  {
    const std::size_t algo_index = trace.spans.size() - 1;
    Span e;
    e.name = "sim.engine";
    e.trial = trial_id;
    e.parent = static_cast<std::int64_t>(algo_index);
    e.start_ns = trace.spans[algo_index].start_ns;
    e.end_ns = e.start_ns + rounds.phase1_ns + rounds.phase2_ns + rounds.phase3_ns;
    e.synthetic = true;
    trace.spans.push_back(e);
  }
  {
    const Scoped s(trace, "obs.spread", trial_id);
    const obs::SpreadMetrics sm = obs::spread_metrics(telemetry->provenance);
    report.spread_depth = static_cast<double>(sm.depth);
    report.direct_share = sm.direct_share;
  }
  {
    const Scoped s(trace, "sim.fault.teardown", trial_id);
    fault.reset();
  }
  {
    const Scoped s(trace, "sim.network.teardown", trial_id);
    net.reset();
  }
  return report;
}

/// What a traced batch leaves behind besides its spans.
struct TracedBatch {
  runner::ScenarioResult result;
  std::vector<RoundSums> rounds;  ///< per trial
  double wall_s = 0.0;
};

/// runner::run_scenario(spec) + write_scenario_json, step by step (the body
/// of TrialRunner::run), with spans around the pool, the trials and the
/// report. Trial t of the batch gets global id first_trial + t.
TracedBatch traced_batch(const runner::ScenarioSpec& spec, std::int64_t first_trial,
                         Trace& trace) {
  TracedBatch out;
  const Clock::time_point t0 = Clock::now();
  {
    const Scoped batch_span(trace, "batch", -1);
    sim::parallel::ThreadPool pool(spec.threads == 0 ? 1 : spec.threads);
    spec.validate();
    (void)runner::require_algorithm(spec.algorithm);
    runner::ScenarioResult& result = out.result;
    result.spec = spec;
    result.reports.resize(spec.trials);
    out.rounds.resize(spec.trials);
    std::vector<std::shared_ptr<obs::Telemetry>> telemetry(spec.trials);
    for (unsigned t = 0; t < spec.trials; ++t) {
      auto handle = std::make_shared<obs::Telemetry>();
      handle->rounds.reserve(512);
      telemetry[t] = std::move(handle);
    }
    std::vector<Trace> trial_traces(spec.trials);
    {
      const Scoped pool_span(trace, "runner.pool", -1);
      pool.parallel_for(spec.trials, [&](std::size_t t) {
        result.reports[t] =
            traced_trial(spec, static_cast<unsigned>(t), telemetry[t].get(), trial_traces[t],
                         first_trial + static_cast<std::int64_t>(t), out.rounds[t]);
      });
      for (const Trace& tt : trial_traces) trace.adopt(tt, pool_span.id());
    }
    {
      const Scoped s(trace, "obs.teardown", -1);
      telemetry.clear();
    }
    {
      const Scoped s(trace, "runner.report", -1);
      for (const core::BroadcastReport& r : result.reports) result.aggregate.add(r);
      result.peak_rss_bytes = peak_rss_bytes();
      std::ostringstream os;
      runner::write_scenario_json(os, result);
    }
  }
  out.wall_s = seconds_between(t0, Clock::now());
  return out;
}

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< extra human-readable lines
};

void fail_check(Outcome& o, const std::string& why) {
  o.correct = false;
  std::fprintf(stderr, "trial_bench: CHECK FAILED: %s\n", why.c_str());
  o.notes.push_back("CHECK FAILED: " + why);
}

/// Counts attempted/failed trials of a batch and checks that the runner's
/// aggregate agrees with its reports.
void account(Outcome& o, const Batch& b) {
  o.attempted += b.spec.trials;
  if (b.threw) {
    o.failed += b.spec.trials;
    return;
  }
  std::uint64_t failed = 0;
  for (const core::BroadcastReport& r : b.result.reports) failed += trial_failed(r) ? 1 : 0;
  o.failed += failed;
  if (b.result.reports.size() != b.spec.trials || b.result.aggregate.runs != b.spec.trials ||
      b.result.aggregate.failures != failed) {
    fail_check(o, "aggregate of batch seed " + std::to_string(b.spec.seed) +
                      " disagrees with its reports");
  }
}

/// Untraced batches until `budget_s` has passed and at least `min_trials`
/// trials ran. `between` (optional) runs after every batch.
std::vector<Batch> run_batches(const Workload& w, std::uint64_t seed, double budget_s,
                               unsigned min_trials, const std::function<void()>& between = {}) {
  std::vector<Batch> batches;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t b = 0;; ++b) {
    if (b * w.batch_trials >= min_trials && seconds_between(t0, Clock::now()) >= budget_s) {
      break;
    }
    batches.push_back(run_untraced(batch_spec(w, seed, b)));
    if (between) between();
  }
  return batches;
}

/// Per-trial set-up from outside the runner: Network build plus fault model
/// build and on_run_begin, with the trial's own seeds (as run_trial derives
/// them) and the event observer installed as run_trial installs it.
double setup_seconds(const runner::ScenarioSpec& spec, unsigned trial) {
  Rng trial_rng = Rng(spec.seed).fork(trial);
  const std::uint64_t network_seed = trial_rng.next_u64();
  const std::uint64_t adversary_seed = trial_rng.next_u64();
  const sim::NetworkOptions net_opts = network_options(spec, network_seed);
  obs::EventLog events;
  const Clock::time_point t0 = Clock::now();
  sim::Network net(net_opts);
  const Clock::time_point t1 = Clock::now();
  net.set_observer(&events);
  const Clock::time_point t2 = Clock::now();
  const std::unique_ptr<sim::FaultModel> fault = spec.make_fault_model();
  if (fault) {
    Rng adversary(adversary_seed);
    fault->on_run_begin(net, adversary);
  }
  const Clock::time_point t3 = Clock::now();
  return seconds_between(t0, t1) + seconds_between(t2, t3);
}

// -------------------------------------------------------- host speed probe

/// About the reference trial's median time on a quiet host (4-vCPU Intel
/// Xeon VM, g++ 12.2 -O3). It fixes only the scale: the end-to-end timings
/// are reported at this speed.
constexpr double kReferenceNominalS = 0.12;

/// Keeps the reference passes' results observable to the optimiser.
volatile std::uint64_t g_reference_sink = 0;

/// One reference pass over `nodes_n` nodes, independent of the library so
/// that no change to src/ moves it: fresh 64-byte node records are built
/// from a fixed-seed generator (as the Network constructor builds its
/// nodes), then push-pull rounds run over them until every node is
/// informed. The work is the same on every call.
void reference_pass(std::uint32_t nodes_n) {
  constexpr std::uint32_t kNever = ~std::uint32_t{0};
  struct Node {
    std::uint64_t id;
    std::uint32_t informed_round;
    std::uint32_t partner;
    std::uint64_t state[6];
  };
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<Node> nodes(nodes_n);
  for (Node& nd : nodes) nd = Node{next(), kNever, 0, {next(), 0, 0, 0, 0, 0}};
  nodes[0].informed_round = 0;
  std::uint32_t informed = 1;
  std::uint64_t sum = 0;
  for (std::uint32_t round = 1; informed < nodes_n; ++round) {
    for (Node& nd : nodes) nd.partner = static_cast<std::uint32_t>(next() % nodes_n);
    for (Node& a : nodes) {
      Node& b = nodes[a.partner];
      if (a.informed_round < round && b.informed_round == kNever) {
        b.informed_round = round;
        ++informed;
      } else if (b.informed_round < round && a.informed_round == kNever) {
        a.informed_round = round;
        ++informed;
      }
      sum += b.id;
    }
  }
  g_reference_sink = g_reference_sink + sum;
}

/// One reference trial: its time measures only the host's current speed for
/// work shaped like a trial. It spends about half its time on a 4 MB
/// working set that stays in cache (eight passes over 2^16 nodes) and half
/// on a 16 MB one that does not (one pass over 2^18 nodes), because the
/// host's slow spells slow the two kinds of work by different amounts and
/// the workloads have both.
double reference_trial_seconds() {
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 8; ++i) reference_pass(1u << 16);
  reference_pass(1u << 18);
  return seconds_between(t0, Clock::now());
}

/// Trial 0 of batch 0 straight through TrialRunner::run_trial, with a
/// telemetry handle as TrialRunner::run attaches one. It runs before any
/// clock starts, so it also warms the allocator and caches; nullopt when
/// the trial threw.
std::optional<core::BroadcastReport> warm_up(const Workload& w, std::uint64_t seed) {
  try {
    obs::Telemetry telemetry;
    return runner::TrialRunner::run_trial(batch_spec(w, seed, 0), 0, &telemetry);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// The runner's report for trial 0 must reproduce run_trial's bit for bit.
void check_reference(Outcome& o, const std::optional<core::BroadcastReport>& reference,
                     const std::vector<Batch>& batches) {
  const Batch& first = batches.front();
  if (reference.has_value() == first.threw ||
      (reference && !same_report(*reference, first.result.reports[0]))) {
    fail_check(o, "run_trial(spec, 0) differs from the runner's report for trial 0");
  }
}

Outcome measure_end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  Outcome o;
  const std::optional<core::BroadcastReport> reference = warm_up(w, seed);

  // Set-up samples are interleaved with the batches, so they see the same
  // machine as the trials: after each batch, until set-up has taken 15% of
  // the time so far (at least one sample per batch).
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  const Clock::time_point t0 = Clock::now();
  const auto sample_setup = [&] {
    const auto k = static_cast<unsigned>(setup_s.size());
    const runner::ScenarioSpec spec = batch_spec(w, seed, k / w.batch_trials);
    const Clock::time_point s0 = Clock::now();
    setup_s.push_back(setup_seconds(spec, k % w.batch_trials));
    setup_total_s += seconds_between(s0, Clock::now());
  };
  // The reference trial is sampled the same way, until it has taken 10%.
  std::vector<double> reference_s;
  double reference_total_s = 0.0;
  const std::vector<Batch> batches = run_batches(w, seed, seconds, w.fixed_trials, [&] {
    const std::size_t before = setup_s.size();
    while (setup_s.size() == before ||
           setup_total_s < 0.15 * seconds_between(t0, Clock::now())) {
      sample_setup();
    }
    const std::size_t reference_before = reference_s.size();
    while (reference_s.size() == reference_before ||
           reference_total_s < 0.10 * seconds_between(t0, Clock::now())) {
      reference_s.push_back(reference_trial_seconds());
      reference_total_s += reference_s.back();
    }
  });
  while (setup_s.size() < 5) sample_setup();
  check_reference(o, reference, batches);

  double wall_s = 0.0;  // the batches only, without the set-up samples
  for (const Batch& b : batches) wall_s += b.wall_s;
  std::vector<double> trial_s;
  std::uint64_t completed = 0;
  double connections = 0.0;
  double rounds = 0.0, payload = 0.0, bits = 0.0;
  unsigned fixed = 0;
  // Peak RSS is the process's high-water mark, so it is read after the
  // first batch: that is before any set-up sample or reference trial (whose
  // 16 MB pass would otherwise set it) has run.
  const std::uint64_t peak_rss = batches.front().result.peak_rss_bytes;
  for (const Batch& b : batches) {
    account(o, b);
    if (b.threw) continue;
    trial_s.push_back(trial_seconds(b.spec, b.wall_s));
    completed += b.spec.trials;
    for (const core::BroadcastReport& r : b.result.reports) {
      connections += static_cast<double>(r.stats.total.connections);
      if (fixed < w.fixed_trials) {
        ++fixed;
        rounds += static_cast<double>(r.rounds);
        payload += r.payload_messages_per_node();
        bits += r.bits_per_node();
      }
    }
  }
  if (fixed < w.fixed_trials) {
    fail_check(o, "only " + std::to_string(fixed) + " of the " +
                      std::to_string(w.fixed_trials) + " fixed trials completed");
  }

  const Tail tail = tail_of(trial_s);
  const double n_fixed = fixed == 0 ? 1.0 : static_cast<double>(fixed);
  // The shared host's speed drifts by tens of percent over minutes (see
  // perfbench/README.md), and the drift moves whole runs. Timings are
  // therefore reported at the reference speed: each is scaled by the
  // nominal reference time over this run's median reference time, which
  // the library cannot move. The values as measured are printed as well.
  const double reference_median_s = median(reference_s);
  const double speed = kReferenceNominalS / reference_median_s;
  const double as_measured[] = {median(trial_s), tail.value,
                                static_cast<double>(completed) / wall_s,
                                connections / wall_s * 1e-6, median(setup_s)};
  o.metrics = {
      {"trial_s_p50", as_measured[0] * speed, "s"},
      {"trial_s_tail", as_measured[1] * speed, "s"},
      {"trials_per_s", as_measured[2] / speed, "1/s"},
      {"mcontacts_per_s", as_measured[3] / speed, "Mcontacts/s"},
      {"setup_s", as_measured[4] * speed, "s"},
      {"peak_rss_mb", static_cast<double>(peak_rss) / 1e6, "MB"},
      {"failed_trial_ratio",
       static_cast<double>(o.failed) / static_cast<double>(std::max<std::uint64_t>(o.attempted, 1)),
       "ratio"},
      {"rounds_mean", rounds / n_fixed, "rounds"},
      {"payload_msgs_per_node", payload / n_fixed, "msgs/node"},
      {"bits_per_node", bits / n_fixed, "bits/node"},
  };
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "trial_s_tail is p%.1f of %zu per-trial samples; setup_s is the median of %zu "
                "set-ups; complexity metrics over the first %u trials",
                tail.percentile, trial_s.size(), setup_s.size(), fixed);
  o.notes.emplace_back(buf);
  std::string samples = "per-trial seconds:";
  for (const double t : trial_s) {
    std::snprintf(buf, sizeof buf, " %.3f", t);
    samples += buf;
  }
  o.notes.push_back(samples);
  std::snprintf(buf, sizeof buf,
                "timings are at the reference speed: scaled by %.6f s nominal / %.6f s, the "
                "median of %zu reference trials",
                kReferenceNominalS, reference_median_s, reference_s.size());
  o.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf,
                "as measured: trial_s_p50 %.6g s, trial_s_tail %.6g s, trials_per_s %.6g 1/s, "
                "mcontacts_per_s %.6g Mcontacts/s, setup_s %.6g s",
                as_measured[0], as_measured[1], as_measured[2], as_measured[3], as_measured[4]);
  o.notes.emplace_back(buf);
  return o;
}

// ------------------------------------------------------------ traced pass

/// Ledger rows: a layer's self time, summed over the traced batches.
struct Ledger {
  double sim_network = 0, sim_fault = 0, sim_engine = 0, algo = 0, obs = 0, runner = 0,
         uncovered = 0;
  double base = 0;  ///< workers x batch wall, summed
};

struct LayerTotals {
  std::vector<double> network_s, fault_s, engine1_s, engine2_s, engine3_s, sparse_s, algo_s,
      algo_self_s, arm_s, spread_s, report_s, traced_trial_s, untraced_trial_s;
  double contacts = 0, engine_s = 0, initiators = 0, alive_rounds = 0, loss_drops = 0;
  double recovery_rounds = 0, rounds = 0;
  double trial_busy_s = 0, pool_capacity_s = 0;
  Ledger ledger;
};

/// Sums the spans of one traced batch (spans[first, end)) into the totals.
void add_batch_spans(LayerTotals& lt, const std::vector<Span>& spans, std::size_t first,
                     const runner::ScenarioSpec& spec, double batch_wall_s) {
  const unsigned workers = spec.threads;
  struct PerTrial {
    double network = 0, fault = 0, algo = 0, engine = 0, obs = 0, wall = 0;
  };
  std::vector<PerTrial> per;
  double batch_s = 0, pool_s = 0, report_s = 0, obs_teardown_s = 0;
  for (std::size_t i = first; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string_view name = s.name;
    if (name == "batch") batch_s = s.seconds();
    else if (name == "runner.pool") pool_s = s.seconds();
    else if (name == "runner.report") report_s = s.seconds();
    else if (name == "obs.teardown") obs_teardown_s = s.seconds();
    else if (name == "trial") {
      per.push_back(PerTrial{});
      per.back().wall = s.seconds();
    } else {
      PerTrial& p = per.back();  // layer spans follow their trial span
      if (name == "sim.network") {
        p.network += s.seconds();
        lt.network_s.push_back(s.seconds());
      } else if (name == "sim.network.teardown") {
        p.network += s.seconds();
      } else if (name == "sim.fault") {
        p.fault += s.seconds();
        lt.fault_s.push_back(s.seconds());
      } else if (name == "sim.fault.teardown") {
        p.fault += s.seconds();
      } else if (name == "algo") {
        p.algo += s.seconds();
        lt.algo_s.push_back(s.seconds());
      } else if (name == "sim.engine") {
        p.engine += s.seconds();
      } else if (name == "obs.arm") {
        p.obs += s.seconds();
        lt.arm_s.push_back(s.seconds());
      } else if (name == "obs.spread") {
        p.obs += s.seconds();
        lt.spread_s.push_back(s.seconds());
      }
    }
  }
  lt.report_s.push_back(report_s);
  Ledger& l = lt.ledger;
  double trials_s = 0;
  for (const PerTrial& p : per) {
    trials_s += p.wall;
    lt.algo_self_s.push_back(p.algo - p.engine);
    l.sim_network += p.network;
    l.sim_fault += p.fault;
    l.sim_engine += p.engine;
    l.algo += p.algo - p.engine;
    l.obs += p.obs;
    l.uncovered += p.wall - (p.network + p.fault + p.algo + p.obs);
  }
  l.obs += workers * obs_teardown_s;
  // Runner: the serial part of the batch (every worker but the caller idles
  // there) plus the pool's idle capacity.
  l.runner += workers * (batch_s - pool_s - obs_teardown_s) + (workers * pool_s - trials_s);
  l.base += workers * batch_s;
  lt.trial_busy_s += trials_s;
  lt.pool_capacity_s += workers * pool_s;
  lt.traced_trial_s.push_back(trial_seconds(spec, batch_wall_s));
}

void add_batch_rounds(LayerTotals& lt, const TracedBatch& tb) {
  for (std::size_t t = 0; t < tb.rounds.size(); ++t) {
    const RoundSums& r = tb.rounds[t];
    lt.engine1_s.push_back(static_cast<double>(r.phase1_ns) * 1e-9);
    lt.engine2_s.push_back(static_cast<double>(r.phase2_ns) * 1e-9);
    lt.engine3_s.push_back(static_cast<double>(r.phase3_ns) * 1e-9);
    lt.sparse_s.push_back(static_cast<double>(r.sparse_ns) * 1e-9);
    lt.engine_s += static_cast<double>(r.phase1_ns + r.phase2_ns + r.phase3_ns) * 1e-9;
    lt.contacts += static_cast<double>(r.contacts);
    lt.initiators += static_cast<double>(r.initiators);
    lt.alive_rounds += static_cast<double>(r.alive);
    lt.loss_drops += static_cast<double>(r.loss_drops);
    const core::BroadcastReport& rep = tb.result.reports[t];
    lt.rounds += static_cast<double>(rep.rounds);
    for (const core::PhaseBreakdown& p : rep.phases) {
      if (p.name == "recovery") lt.recovery_rounds += static_cast<double>(p.rounds);
    }
  }
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

bool write_spans(const std::filesystem::path& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    runner::JsonWriter w(f, /*compact=*/true);
    w.begin_object();
    w.kv("id", static_cast<std::uint64_t>(i));
    w.kv("name", s.name);
    w.kv("trial", static_cast<std::int64_t>(s.trial));
    w.kv("parent", static_cast<std::int64_t>(s.parent));
    w.kv("start_ns", s.start_ns);
    w.kv("end_ns", s.end_ns);
    w.kv("synthetic", s.synthetic);
    w.end_object();
  }
  return static_cast<bool>(f);
}

Outcome measure_layers(const Workload& w, std::uint64_t seed, double seconds,
                       const std::filesystem::path& out_dir) {
  Outcome o;
  const std::optional<core::BroadcastReport> reference = warm_up(w, seed);
  // 40% of the budget untraced; the replay of the same batches takes about
  // as long, and the warm-up trial about the rest.
  const std::vector<Batch> batches = run_batches(w, seed, 0.4 * seconds, 1);
  check_reference(o, reference, batches);

  Trace trace;
  LayerTotals lt;
  std::int64_t first_trial = 0;
  for (const Batch& b : batches) {
    account(o, b);
    const std::size_t first_span = trace.spans.size();
    std::optional<TracedBatch> tb;
    try {
      tb.emplace(traced_batch(b.spec, first_trial, trace));
    } catch (const std::exception& e) {
      if (!b.threw) fail_check(o, std::string("traced replay threw: ") + e.what());
      first_trial += b.spec.trials;
      continue;
    }
    first_trial += b.spec.trials;
    if (b.threw) {
      fail_check(o, "traced replay completed a batch the runner threw on");
      continue;
    }
    for (unsigned t = 0; t < b.spec.trials; ++t) {
      if (!same_report(tb->result.reports[t], b.result.reports[t])) {
        fail_check(o, "traced report differs from the runner's for trial " + std::to_string(t) +
                          " of batch seed " + std::to_string(b.spec.seed));
      }
    }
    if (timing_free_json(tb->result) != timing_free_json(b.result)) {
      fail_check(o, "traced aggregate differs from the runner's for batch seed " +
                        std::to_string(b.spec.seed));
    }
    lt.untraced_trial_s.push_back(trial_seconds(b.spec, b.wall_s));
    add_batch_spans(lt, trace.spans, first_span, b.spec, tb->wall_s);
    add_batch_rounds(lt, *tb);
  }

  const Ledger& l = lt.ledger;
  const std::pair<const char*, double> rows[] = {
      {"sim.network", l.sim_network}, {"sim.fault", l.sim_fault}, {"sim.engine", l.sim_engine},
      {"algo", l.algo},               {"obs", l.obs},             {"runner", l.runner},
      {"uncovered", l.uncovered}};
  double covered = 0.0;
  for (const auto& [name, v] : rows) {
    covered += v;
    // A child span can only lie inside its parent, so no self time may be
    // negative beyond clock rounding.
    if (v < -1e-6) fail_check(o, std::string("negative self time in ledger row ") + name);
  }
  if (std::fabs(covered - l.base) > 1e-6 * std::max(1.0, l.base)) {
    fail_check(o, "ledger rows do not add up to the traced worker time");
  }
  const double traced_p50 = median(lt.traced_trial_s);
  o.metrics = {
      {"sim.network.build_s", median(lt.network_s), "s"},
      {"sim.fault.setup_s", median(lt.fault_s), "s"},
      {"sim.fault.drop_ratio", ratio(lt.loss_drops, lt.contacts), "ratio"},
      {"sim.engine.phase1_s", median(lt.engine1_s), "s"},
      {"sim.engine.phase2_s", median(lt.engine2_s), "s"},
      {"sim.engine.phase3_s", median(lt.engine3_s), "s"},
      {"sim.engine.mcontacts_per_s", ratio(lt.contacts, lt.engine_s) * 1e-6, "Mcontacts/s"},
      {"sim.engine.active_ratio", ratio(lt.initiators, lt.alive_rounds), "ratio"},
      {"sim.engine.sparse_round_s", median(lt.sparse_s), "s"},
      {"algo.run_s", median(lt.algo_s), "s"},
      {"algo.self_s", median(lt.algo_self_s), "s"},
      {"core.recovery.round_share", ratio(lt.recovery_rounds, lt.rounds), "ratio"},
      {"obs.arm_s", median(lt.arm_s), "s"},
      {"obs.spread_s", median(lt.spread_s), "s"},
      {"runner.report_s", median(lt.report_s), "s"},
      {"runner.pool_busy_ratio", ratio(lt.trial_busy_s, lt.pool_capacity_s), "ratio"},
      {"trace.trial_s_p50", traced_p50, "s"},
      {"trace.overhead_ratio", ratio(traced_p50, median(lt.untraced_trial_s)), "ratio"},
      {"ledger.sim.network.share", ratio(l.sim_network, l.base), "ratio"},
      {"ledger.sim.fault.share", ratio(l.sim_fault, l.base), "ratio"},
      {"ledger.sim.engine.share", ratio(l.sim_engine, l.base), "ratio"},
      {"ledger.algo.share", ratio(l.algo, l.base), "ratio"},
      {"ledger.obs.share", ratio(l.obs, l.base), "ratio"},
      {"ledger.runner.share", ratio(l.runner, l.base), "ratio"},
      {"ledger.uncovered.share", ratio(l.uncovered, l.base), "ratio"},
  };

  // Ledger row and spans, written at exit.
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string stem = std::string(w.name) + ".seed" + std::to_string(seed);
  const std::filesystem::path spans_path = out_dir / (stem + ".spans.jsonl");
  const std::filesystem::path ledger_path = out_dir / (stem + ".ledger.json");
  if (!write_spans(spans_path, trace.spans)) fail_check(o, "cannot write " + spans_path.string());
  {
    std::ofstream f(ledger_path);
    runner::JsonWriter jw(f);
    jw.begin_object();
    jw.kv("workload", w.name);
    jw.kv("seed", seed);
    jw.kv("batches", static_cast<std::uint64_t>(batches.size()));
    jw.kv("trials", static_cast<std::uint64_t>(first_trial));
    jw.kv("worker_seconds", l.base);
    jw.key("self_seconds").begin_object();
    jw.kv("sim.network", l.sim_network);
    jw.kv("sim.fault", l.sim_fault);
    jw.kv("sim.engine", l.sim_engine);
    jw.kv("algo", l.algo);
    jw.kv("obs", l.obs);
    jw.kv("runner", l.runner);
    jw.kv("uncovered", l.uncovered);
    jw.end_object();
    jw.end_object();
    if (!f) fail_check(o, "cannot write " + ledger_path.string());
  }

  char buf[200];
  o.notes.emplace_back("ledger (self time / traced worker time, " + std::to_string(first_trial) +
                       " trials):");
  for (const auto& [name, v] : rows) {
    std::snprintf(buf, sizeof buf, "  %-12s %10.4f s  %6.2f%%", name, v, 100.0 * ratio(v, l.base));
    o.notes.emplace_back(buf);
  }
  std::snprintf(buf, sizeof buf, "  %-12s %10.4f s  (rows sum to %.4f s)", "total", l.base,
                covered);
  o.notes.emplace_back(buf);
  o.notes.push_back("wrote " + spans_path.string() + " and " + ledger_path.string());
  return o;
}

// --------------------------------------------------------------------- main

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: trial_bench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out DIR]\n");
}

void print_outcome(const Workload& w, const Outcome& o) {
  std::printf("%s: %llu trials attempted, %llu failed, checks %s\n", w.name,
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed), o.correct ? "passed" : "FAILED");
  for (const Metric& m : o.metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const std::string& n : o.notes) std::printf("%s\n", n.c_str());

  // The last line: the machine-readable result. failed_trial_ratio is
  // printed above but carried here by attempted/failed (it is 0 whenever
  // the workload works, so it cannot be gated as a ratio of medians).
  runner::JsonWriter jw(std::cout, /*compact=*/true);
  jw.begin_object();
  jw.kv("correct", o.correct);
  jw.kv("attempted", o.attempted);
  jw.kv("failed", o.failed);
  jw.key("metrics").begin_object();
  for (const Metric& m : o.metrics) {
    if (m.name == "failed_trial_ratio") continue;
    jw.key(m.name).begin_object();
    jw.kv("value", m.value);
    jw.kv("unit", m.unit);
    jw.end_object();
  }
  jw.end_object();
  jw.end_object();
  std::cout.flush();
}

}  // namespace

int main(int argc, char** argv) {
  g_epoch = Clock::now();
  std::string workload, out_dir = ".";
  std::uint64_t seed = 1, seconds = 10, trace = 0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (i + 1 >= argc) throw runner::ScenarioError("missing value for " + std::string(arg));
      const std::string_view value = argv[++i];
      if (arg == "--workload") workload = value;
      else if (arg == "--seed") seed = runner::parse_count("--seed", value, 0, ~std::uint64_t{0});
      else if (arg == "--seconds") seconds = runner::parse_count("--seconds", value, 1, 3600);
      else if (arg == "--trace") trace = runner::parse_count("--trace", value, 0, 1);
      else if (arg == "--out") out_dir = value;
      else throw runner::ScenarioError("unknown flag " + std::string(arg));
    }
  } catch (const runner::ScenarioError& e) {
    std::fprintf(stderr, "trial_bench: %s\n", e.what());
    print_usage(stderr);
    return 2;
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) {
    std::fprintf(stderr, "trial_bench: unknown workload '%s'\n", workload.c_str());
    print_usage(stderr);
    return 2;
  }

  const Outcome o = trace == 0
                        ? measure_end_to_end(*w, seed, static_cast<double>(seconds))
                        : measure_layers(*w, seed, static_cast<double>(seconds), out_dir);
  print_outcome(*w, o);
  return o.correct ? 0 : 1;
}
