// Engine dispatch-path throughput: static-dispatch hooks vs. the legacy
// std::function RoundHooks adapter, measured in the same binary on the same
// workloads. This is the simulator-scaling experiment behind the hot-path
// overhaul: the paper's O(log n)-round / O(n)-message separations only show
// at multi-million n, so rounds-per-second is what bounds reachable n.
//
// Workloads (knowledge tracking off, as in large experiment runs):
//   push       - every node pushes the rumor to a uniform random node
//   push_pull  - half the nodes push, half pull (exercises the O(m)
//                responder grouping path)
//   exchange   - every node exchanges (push + oblivious response)
//
// Output: machine-readable JSON on stdout (optionally --out=FILE), one
// record per (n, workload, path) with MEDIAN-of-repeats contacts/sec and a
// per-phase wall-clock breakdown (phase 1 initiate/draw/queue, phase 2 push
// delivery, phase 3 pull resolution), plus the static/legacy speedup per
// (n, workload) and the telemetry recorder's overhead (the "static_recorder" path runs
// the static workload with an obs::Telemetry attached).
// This seeds the BENCH_*.json tracking files:
//   ./bench_engine_throughput --out=BENCH_engine_throughput.json
// Options: --rounds=R (default 12), --sizes=1e5,1e6,4e6 (comma list),
//          --repeats=K (default 3; median-of-K per configuration),
//          --workloads=push,push_pull,exchange (comma subset, any order),
//          --quick (100k only, for CI smoke).
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/engine.hpp"

#include <algorithm>
#include <numeric>

#include "bench_util.hpp"
#include "common/rss.hpp"

namespace {

using namespace gossip;
using Clock = std::chrono::steady_clock;

// The seed's std::function round executor, preserved verbatim as the
// comparison baseline: one virtual-dispatch hook call per node per round,
// one Lemire draw per contact (no batching), a full-Message pending-push
// queue, per-round std::sort pull grouping, and unconditional Delta
// metering. This is "the std::function path" the hot-path overhaul replaced;
// keeping it in the bench binary makes the win measurable release over
// release.
class ReferenceEngine {
 public:
  explicit ReferenceEngine(sim::Network& net) : net_(net), metrics_(net.n(), false) {
    all_nodes_.resize(net.n());
    std::iota(all_nodes_.begin(), all_nodes_.end(), 0u);
  }

  [[nodiscard]] sim::MetricsCollector& metrics() noexcept { return metrics_; }
  // Phase-time accounting delegates to the shared obs::RoundRecorder, the
  // same accumulator the real engine's telemetry uses - so the reset/
  // accumulate semantics of the two engines cannot drift apart.
  [[nodiscard]] const sim::Engine::PhaseTimes& phase_times() const noexcept {
    return recorder_.phase_times();
  }
  void reset_phase_times() noexcept { recorder_.reset_phase_times(); }

  std::uint32_t random_other(std::uint32_t self) {
    const std::uint32_t n = net_.n();
    std::uint32_t t = static_cast<std::uint32_t>(net_.rng().uniform_below(n - 1));
    if (t >= self) ++t;
    return t;
  }

  void run_round(const sim::RoundHooks& hooks) {
    const auto t_begin = Clock::now();
    metrics_.begin_round();
    pushes_.clear();
    pulls_.clear();

    for (const std::uint32_t node : all_nodes_) {
      if (!net_.alive(node)) continue;
      std::optional<sim::Contact> contact = hooks.initiate(node);
      if (!contact) continue;
      metrics_.record_initiator();
      const std::uint32_t target =
          contact->to_random ? random_other(node) : net_.index_of(contact->target);
      if (contact->kind == sim::ContactKind::kPush ||
          contact->kind == sim::ContactKind::kExchange) {
        const sim::Message& msg = contact->payload;
        metrics_.record_push(node, target, msg.bits(net_.costs()), !msg.is_empty());
        if (net_.alive(target)) {
          if (contact->kind == sim::ContactKind::kExchange) {
            pulls_.push_back(PendingPull{node, target});
          }
          pushes_.push_back(PendingPush{target, node, std::move(contact->payload)});
        }
      } else {
        metrics_.record_pull_request(node, target);
        if (net_.alive(target)) pulls_.push_back(PendingPull{node, target});
      }
    }

    const auto t_phase1 = Clock::now();

    if (hooks.on_push) {
      for (const PendingPush& p : pushes_) hooks.on_push(p.to, p.msg);
    }

    const auto t_phase2 = Clock::now();

    if (!pulls_.empty()) {
      std::sort(pulls_.begin(), pulls_.end(),
                [](const PendingPull& a, const PendingPull& b) {
                  return a.responder < b.responder;
                });
      std::size_t i = 0;
      while (i < pulls_.size()) {
        const std::uint32_t responder = pulls_[i].responder;
        const sim::Message response =
            hooks.respond ? hooks.respond(responder) : sim::Message::empty();
        const std::uint64_t bits = response.bits(net_.costs());
        const bool has_payload = !response.is_empty();
        for (; i < pulls_.size() && pulls_[i].responder == responder; ++i) {
          metrics_.record_pull_response(bits, has_payload);
          if (hooks.on_pull_reply) hooks.on_pull_reply(pulls_[i].from, response);
        }
      }
    }

    const auto ns = [](Clock::time_point a, Clock::time_point b) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
    };
    recorder_.on_round_end(round_++, metrics_.current_round(), net_.n(),
                           net_.alive_count(), /*loss_drops=*/0,
                           /*corrupt_responses=*/0, ns(t_begin, t_phase1),
                           ns(t_phase1, t_phase2), ns(t_phase2, Clock::now()));
    metrics_.end_round();
  }

 private:
  struct PendingPush {
    std::uint32_t to;
    std::uint32_t from;
    sim::Message msg;
  };
  struct PendingPull {
    std::uint32_t from;
    std::uint32_t responder;
  };

  sim::Network& net_;
  sim::MetricsCollector metrics_;
  obs::RoundRecorder recorder_;
  std::uint64_t round_ = 0;
  std::vector<PendingPush> pushes_;
  std::vector<PendingPull> pulls_;
  std::vector<std::uint32_t> all_nodes_;
};

struct Result {
  std::uint64_t n;
  std::string workload;
  std::string path;  // "static" | "legacy_adapter" | "reference_stdfunction"
  std::uint64_t rounds;
  std::uint64_t contacts;
  unsigned repeats;
  double seconds;  ///< median-of-repeats wall clock for `rounds` rounds
  sim::Engine::PhaseTimes phases;  ///< phase breakdown of the median repeat
  /// Path-vs-path speedups, filled on the "static" row only: median of the
  /// PER-REPEAT ratios (the interleaved round-robin pairs each static repeat
  /// with a time-adjacent repeat of every other path, so ambient host drift
  /// cancels inside each pair instead of skewing a ratio of two medians).
  double vs_reference = 0.0;
  double vs_adapter = 0.0;
  double recorder_overhead = 0.0;
  [[nodiscard]] double contacts_per_sec() const { return contacts / seconds; }
};

// The three workloads as static-dispatch hook structs. The legacy runs wrap
// the same logic in RoundHooks std::functions, so the only difference
// between the two measurements is the dispatch mechanism.
struct PushWorkload {
  std::optional<sim::Contact> initiate(std::uint32_t) const {
    return sim::Contact::push_random(sim::Message::rumor());
  }
  void on_push(std::uint32_t, const sim::Message&) const {}
};

struct PushPullWorkload {
  std::optional<sim::Contact> initiate(std::uint32_t v) const {
    if ((v & 1) == 0) return sim::Contact::push_random(sim::Message::rumor());
    return sim::Contact::pull_random();
  }
  sim::Message respond(std::uint32_t) const { return sim::Message::rumor(); }
  void on_push(std::uint32_t, const sim::Message&) const {}
  void on_pull_reply(std::uint32_t, const sim::Message&) const {}
};

struct ExchangeWorkload {
  std::optional<sim::Contact> initiate(std::uint32_t) const {
    return sim::Contact::exchange_random(sim::Message::rumor());
  }
  sim::Message respond(std::uint32_t) const { return sim::Message::rumor(); }
  void on_push(std::uint32_t, const sim::Message&) const {}
  void on_pull_reply(std::uint32_t, const sim::Message&) const {}
};

sim::RoundHooks legacy_hooks(const std::string& workload) {
  sim::RoundHooks h;
  if (workload == "push") {
    h.initiate = [](std::uint32_t) -> std::optional<sim::Contact> {
      return sim::Contact::push_random(sim::Message::rumor());
    };
    h.on_push = [](std::uint32_t, const sim::Message&) {};
  } else if (workload == "push_pull") {
    h.initiate = [](std::uint32_t v) -> std::optional<sim::Contact> {
      if ((v & 1) == 0) return sim::Contact::push_random(sim::Message::rumor());
      return sim::Contact::pull_random();
    };
    h.respond = [](std::uint32_t) { return sim::Message::rumor(); };
    h.on_push = [](std::uint32_t, const sim::Message&) {};
    h.on_pull_reply = [](std::uint32_t, const sim::Message&) {};
  } else {
    h.initiate = [](std::uint32_t) -> std::optional<sim::Contact> {
      return sim::Contact::exchange_random(sim::Message::rumor());
    };
    h.respond = [](std::uint32_t) { return sim::Message::rumor(); };
    h.on_push = [](std::uint32_t, const sim::Message&) {};
    h.on_pull_reply = [](std::uint32_t, const sim::Message&) {};
  }
  return h;
}

struct Sample {
  double seconds = 0;
  std::uint64_t contacts = 0;
  sim::Engine::PhaseTimes phases;
};

/// One measured repeat of any engine: one untimed warm-up round (sizes the
/// scratch buffers), then `rounds` timed rounds.
template <class EngineT, class RunRound>
Sample one_repeat(EngineT& engine, unsigned rounds, RunRound&& run_round) {
  run_round();
  engine.metrics().reset();
  engine.reset_phase_times();
  const auto start = Clock::now();
  for (unsigned r = 0; r < rounds; ++r) run_round();
  const auto stop = Clock::now();
  Sample s;
  s.seconds = std::chrono::duration<double>(stop - start).count();
  s.contacts = engine.metrics().run().total.connections;
  s.phases = engine.phase_times();
  return s;
}

template <class Hooks>
std::vector<Result> bench_size(std::uint32_t n, const std::string& workload, Hooks hooks,
                               unsigned rounds, unsigned repeats, bool delta_metering) {
  // Fresh same-seed networks per path: identical workloads, so the
  // contacts/sec ratio isolates the executor implementations.
  const auto make_net = [n] {
    sim::NetworkOptions o;
    o.n = n;
    o.seed = 42;
    return sim::Network(o);
  };
  const sim::RoundHooks hooks_legacy = legacy_hooks(workload);

  // New executor, hooks resolved at compile time.
  const auto run_static = [&] {
    sim::Network net = make_net();
    sim::Engine engine(net);
    engine.set_phase_timing(true);
    engine.metrics().set_track_involvement(delta_metering);
    return one_repeat(engine, rounds, [&] { engine.run_round(hooks); });
  };
  // Static path with an obs::Telemetry attached AND the provenance tracer
  // armed: the delta vs "static" is the full observability cost (phase
  // clocks + one RoundRecord + event round bookkeeping + first-inform
  // tracing) - reported as recorder_overhead in the JSON, gated <= 1.05x
  // by tools/bench_check.py.
  const auto run_recorder = [&] {
    sim::Network net = make_net();
    sim::Engine engine(net);
    obs::Telemetry telemetry;
    telemetry.rounds.reserve(rounds + 2);
    telemetry.provenance.arm(net.capacity());
    engine.set_telemetry(&telemetry);
    engine.set_phase_timing(true);
    engine.metrics().set_track_involvement(delta_metering);
    return one_repeat(engine, rounds, [&] { engine.run_round(hooks); });
  };
  // New executor behind the RoundHooks std::function adapter.
  const auto run_adapter = [&] {
    sim::Network net = make_net();
    sim::Engine engine(net);
    engine.set_phase_timing(true);
    engine.metrics().set_track_involvement(delta_metering);
    return one_repeat(engine, rounds, [&] { engine.run_round(hooks_legacy); });
  };
  // The seed's std::function executor (always meters Delta; it had no
  // opt-out).
  const auto run_reference = [&] {
    sim::Network net = make_net();
    ReferenceEngine engine(net);
    return one_repeat(engine, rounds, [&] { engine.run_round(hooks_legacy); });
  };

  // Median-of-repeats, INTERLEAVED: one repeat of every path per outer
  // iteration instead of all repeats of one path back to back. Shared bench
  // hosts stall in multi-second phases; a round-robin spreads such a phase
  // over all four paths instead of poisoning one path's whole block, which
  // is what the vs_* / recorder_overhead RATIOS the tracking file gates on
  // actually need. Each repeat still builds a fresh same-seed network +
  // engine, so every repeat counts the same contacts.
  // Within each iteration the legs of a gated pair run back to back, and the
  // order FLIPS on odd iterations: periodic host antagonists whose period is
  // comparable to the iteration time would otherwise alias into a systematic
  // bias against whichever leg always runs second.
  std::array<std::vector<Sample>, 4> samples;
  for (auto& s : samples) s.reserve(repeats);
  for (unsigned r = 0; r < repeats; ++r) {
    if ((r & 1) == 0) {
      samples[0].push_back(run_static());
      samples[1].push_back(run_recorder());
      samples[2].push_back(run_adapter());
      samples[3].push_back(run_reference());
    } else {
      samples[1].push_back(run_recorder());
      samples[0].push_back(run_static());
      samples[3].push_back(run_reference());
      samples[2].push_back(run_adapter());
    }
  }
  // Speedups as the median of per-repeat ratios over the paired (same
  // round-robin iteration, equal contacts) samples - computed BEFORE the
  // per-path sort below breaks the pairing.
  const auto ratio_median = [&](std::size_t slow, std::size_t fast) {
    std::vector<double> rs;
    rs.reserve(repeats);
    for (unsigned r = 0; r < repeats; ++r) {
      rs.push_back(samples[slow][r].seconds / samples[fast][r].seconds);
    }
    std::sort(rs.begin(), rs.end());
    return rs[rs.size() / 2];
  };
  const double vs_recorder = ratio_median(1, 0);
  const double vs_adapter = ratio_median(2, 0);
  const double vs_reference = ratio_median(3, 0);

  static constexpr const char* kPaths[4] = {"static", "static_recorder",
                                            "legacy_adapter", "reference_stdfunction"};
  std::vector<Result> out;
  for (std::size_t p = 0; p < 4; ++p) {
    std::sort(samples[p].begin(), samples[p].end(),
              [](const Sample& a, const Sample& b) { return a.seconds < b.seconds; });
    const Sample& median = samples[p][samples[p].size() / 2];
    Result res;
    res.n = n;
    res.workload = workload;
    res.path = kPaths[p];
    res.rounds = rounds;
    res.repeats = repeats;
    res.contacts = median.contacts;
    res.seconds = median.seconds;
    res.phases = median.phases;
    if (p == 0) {
      res.recorder_overhead = vs_recorder;
      res.vs_adapter = vs_adapter;
      res.vs_reference = vs_reference;
    }
    out.push_back(res);
  }
  return out;
}

void emit_json(std::ostream& os, const std::vector<Result>& results, bool delta_metering,
               unsigned repeats) {
  os << "{\n  \"bench\": \"engine_throughput\",\n  \"unit\": \"contacts_per_sec\",\n"
     << "  \"knowledge_tracking\": false,\n"
     << "  \"delta_metering_static_legacy\": " << (delta_metering ? "true" : "false")
     << ",\n"
     << "  \"repeats\": " << repeats << ",\n"
     << "  \"peak_rss_bytes\": " << peak_rss_bytes() << ",\n"
     << "  \"note\": \"seconds/contacts_per_sec are the MEDIAN repeat; "
     << "phase*_seconds break that repeat down (1 = initiate+draw+queue, "
     << "2 = push delivery, 3 = pull resolution); "
     << "vs_*/recorder_overhead are medians of per-iteration PAIRED ratios "
     << "(paths interleaved round-robin, pair order alternating per "
     << "iteration), so ambient host noise cancels within each pair\",\n"
     << "  \"paths\": {\"static\": \"templated executor, compile-time hooks\", "
     << "\"static_recorder\": \"static path with obs::Telemetry attached "
     << "(per-round RoundRecord + phase clocks + armed provenance tracer)\", "
     << "\"legacy_adapter\": \"RoundHooks std::functions over the new executor\", "
     << "\"reference_stdfunction\": \"the seed engine: std::function dispatch, "
     << "per-contact draws, sort-based pull grouping, unconditional Delta metering\"},\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    os << "    {\"n\": " << r.n << ", \"workload\": \"" << r.workload << "\", \"path\": \""
       << r.path << "\", \"rounds\": " << r.rounds << ", \"contacts\": " << r.contacts
       << ", \"seconds\": " << r.seconds << ", \"contacts_per_sec\": "
       << static_cast<std::uint64_t>(r.contacts_per_sec())
       << ", \"phase1_seconds\": " << r.phases.phase1_seconds
       << ", \"phase2_seconds\": " << r.phases.phase2_seconds
       << ", \"phase3_seconds\": " << r.phases.phase3_seconds << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"speedup_static_over_stdfunction_path\": [\n";
  bool first = true;
  for (std::size_t i = 0; i + 3 < results.size(); i += 4) {
    const Result& s = results[i];
    if (!first) os << ",\n";
    first = false;
    // recorder_overhead: detached static wall clock vs telemetry-attached
    // static wall clock (1.0 = free; 1.02 = 2% slower with the recorder +
    // provenance tracer on). All three are medians of PER-REPEAT paired
    // ratios (see bench_size), not ratios of two medians.
    os << "    {\"n\": " << s.n << ", \"workload\": \"" << s.workload
       << "\", \"vs_reference\": " << s.vs_reference
       << ", \"vs_adapter\": " << s.vs_adapter
       << ", \"recorder_overhead\": " << s.recorder_overhead << "}";
  }
  os << "\n  ]\n}\n";
}

std::vector<std::uint32_t> parse_sizes(const std::string& spec) {
  std::vector<std::uint32_t> sizes;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    try {
      const double v = std::stod(item);
      if (v < 2 || v > 4e9) throw std::out_of_range(item);
      sizes.push_back(static_cast<std::uint32_t>(v));
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad --sizes entry: '%s' (want e.g. 1e5,1e6,4e6)\n",
                   item.c_str());
      std::exit(2);
    }
  }
  if (sizes.empty()) {
    std::fprintf(stderr, "--sizes needs at least one network size\n");
    std::exit(2);
  }
  return sizes;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned rounds = 12;
  unsigned repeats = 3;
  std::vector<std::uint32_t> sizes{100000, 1000000, 4000000};
  std::vector<std::string> workloads{"push", "push_pull", "exchange"};
  std::string out_path;
  bool delta_metering = false;
  const auto parse_uint = [](const std::string& arg, std::size_t prefix_len,
                             unsigned long min, unsigned long max,
                             const char* what) -> unsigned {
    char* end = nullptr;
    const unsigned long v = std::strtoul(arg.c_str() + prefix_len, &end, 10);
    if (end == arg.c_str() + prefix_len || *end != '\0' || v < min || v > max) {
      std::fprintf(stderr, "bad %s value: '%s' (want an integer in [%lu, %lu])\n", what,
                   arg.c_str() + prefix_len, min, max);
      std::exit(2);
    }
    return static_cast<unsigned>(v);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--rounds=", 0) == 0) {
      rounds = parse_uint(arg, 9, 1, 1u << 20, "--rounds");
    } else if (arg.rfind("--repeats=", 0) == 0) {
      repeats = parse_uint(arg, 10, 1, 1000, "--repeats");
    } else if (arg.rfind("--sizes=", 0) == 0) {
      sizes = parse_sizes(arg.substr(8));
    } else if (arg.rfind("--workloads=", 0) == 0) {
      // Comma list drawn from push,push_pull,exchange (subset, any order).
      workloads.clear();
      std::string list = arg.substr(12);
      for (std::size_t pos = 0; pos <= list.size();) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        const std::string w = list.substr(pos, comma - pos);
        if (w != "push" && w != "push_pull" && w != "exchange") {
          std::fprintf(stderr, "bad --workloads entry: '%s'\n", w.c_str());
          return 2;
        }
        workloads.push_back(w);
        pos = comma + 1;
      }
      if (workloads.empty()) {
        std::fprintf(stderr, "--workloads needs at least one workload\n");
        return 2;
      }
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--delta") {
      delta_metering = true;  // meter Delta on static/legacy paths too
    } else if (arg == "--quick") {
      sizes = {100000};
      rounds = 6;
      repeats = 1;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  {
    // Process warm-up (frequency ramp, allocator, page faults) so the first
    // measured configuration is not penalised.
    sim::NetworkOptions o;
    o.n = 1 << 16;
    o.seed = 1;
    sim::Network net(o);
    sim::Engine engine(net);
    PushWorkload w;
    for (int r = 0; r < 20; ++r) engine.run_round(w);
  }

  std::vector<Result> results;
  for (const std::uint32_t n : sizes) {
    for (const std::string& workload : workloads) {
      std::vector<Result> triple;
      const std::string& w = workload;
      if (w == "push") {
        triple = bench_size(n, w, PushWorkload{}, rounds, repeats, delta_metering);
      } else if (w == "push_pull") {
        triple = bench_size(n, w, PushPullWorkload{}, rounds, repeats, delta_metering);
      } else {
        triple = bench_size(n, w, ExchangeWorkload{}, rounds, repeats, delta_metering);
      }
      for (Result& r : triple) {
        std::fprintf(stderr,
                     "n=%-9llu %-10s %-22s %8.2f Mcontacts/s (p1 %.3fs p2 %.3fs p3 %.3fs)\n",
                     static_cast<unsigned long long>(r.n), r.workload.c_str(),
                     r.path.c_str(), r.contacts_per_sec() / 1e6,
                     r.phases.phase1_seconds, r.phases.phase2_seconds,
                     r.phases.phase3_seconds);
        results.push_back(std::move(r));
      }
    }
  }

  emit_json(std::cout, results, delta_metering, repeats);
  if (!out_path.empty()) {
    std::ofstream f(out_path);
    emit_json(f, results, delta_metering, repeats);
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return 0;
}
