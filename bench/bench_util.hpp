// Shared harness for the experiment benchmarks (E1-E8 in DESIGN.md).
//
// Every bench binary accepts:
//   --full             larger sizes / more seeds (longer runs)
//   --seeds=N          override the seed count
//   --max-exp=K        cap network sizes at 2^K
//   --threads=N        per-run sharded phase-1 engine execution (plumbed to
//                      DriverOptions.threads / UniformOptions.threads; 0 =
//                      serial, the default - see sim/engine.hpp)
//   --shard-size=N     initiators per phase-1 shard when --threads >= 1
//                      (0 = default width; re-keys the shard draw streams)
//   --trial-threads=N  cross-trial workers for TrialRunner-based benches
//                      (aggregates are bit-identical for every value)
// The wall-clock benches (bench_engine_throughput, bench_parallel_scaling;
// they carry their own flag sets) additionally take --repeats=N and report
// the MEDIAN repeat per configuration (bench::median_sample below, or the
// interleaved round-robin variant in bench_engine_throughput), cutting
// single-core noise on the bench host.
//   --loss-prob=P      TrialRunner-based benches: per-contact payload loss
//                      probability in [0, 1) (sim/fault.hpp LossyChannel)
//   --crash-round=R    TrialRunner-based benches: defer the crash set to the
//                      start of engine round R (ScheduledCrash) instead of
//                      the legacy pre-run crash
//   --join-rate=R      TrialRunner-based benches: Poisson mean joins per
//                      round (sim/fault.hpp ChurnSchedule; capacity is
//                      pre-reserved per ScenarioSpec::max_nodes)
//   --crash-rate=R     TrialRunner-based benches: Poisson mean mid-run
//                      crashes per round (composes with --join-rate)
//   --out=FILE         TrialRunner-based benches: write a JSON report
// and prints self-describing tables (common/table.hpp) with a paper-vs-
// measured note, so bench_output.txt reads as the experiment record.
// Unknown flags are an error (usage + exit 2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "baselines/avin_elsasser.hpp"
#include "baselines/rrs.hpp"
#include "baselines/uniform.hpp"
#include "common/table.hpp"
#include "core/broadcast.hpp"
#include "runner/registry.hpp"
#include "runner/scenario.hpp"
#include "sim/engine.hpp"

namespace gossip::bench {

struct Config {
  bool full = false;
  unsigned seeds = 5;
  unsigned max_exp = 18;  ///< largest network is 2^max_exp (20 with --full)
  unsigned threads = 0;   ///< sharded phase-1 engine threads (0 = serial)
  unsigned shard_size = 0;        ///< initiators per shard (0 = default width)
  unsigned trial_threads = 1;  ///< TrialRunner workers (migrated benches)
  double loss_prob = 0.0; ///< per-contact payload loss (TrialRunner benches)
  double join_rate = 0.0;  ///< Poisson joins per round (TrialRunner benches)
  double crash_rate = 0.0; ///< Poisson mid-run crashes per round
  /// Crash timing for the fault keys (kCrashPreRun = legacy pre-run crash).
  std::int64_t crash_round = runner::ScenarioSpec::kCrashPreRun;
  /// Recovery/partition overlay (TrialRunner benches): --recovery arms the
  /// supervisor on every cell whose algorithm has one (cluster1 / cluster2 /
  /// cluster3_push_pull - other algorithms keep running brittle, matching
  /// ScenarioSpec::validate()); the partition keys split the alive set for
  /// rounds [partition_round, heal_round) like the .scn keys of the same name.
  bool recovery = false;
  unsigned retry_budget = 0;       ///< 0 = the RecoveryOptions default (3)
  std::int64_t partition_round = -1;
  std::int64_t heal_round = -1;
  unsigned partition_parts = 0;    ///< 0 = default 2
  std::string out;        ///< JSON report path (migrated benches; "" = none)
  /// bench_fault_tolerance only: JSON path for the recovery sweep (the
  /// committed BENCH_recovery.json tracking file; "" = none).
  std::string recovery_out;
  /// TrialRunner-based benches: re-run every cell N times asserting
  /// bit-identical aggregates (a determinism self-check; the wall-clock
  /// benches keep their own median-of-N --repeats semantics).
  unsigned repeats = 1;
  /// TrialRunner-based benches: collect per-round telemetry and write one
  /// JSONL time series covering every cell ("" = off; see src/obs/).
  std::string timeseries;

  /// `message` explains what went wrong ("unknown argument: ..." or the
  /// parse error for a recognized flag's bad value).
  [[noreturn]] static void usage_and_exit(const std::string& message) {
    std::fprintf(stderr,
                 "%s\n"
                 "usage: bench_* [--full] [--seeds=N] [--max-exp=K] [--threads=N]\n"
                 "               [--shard-size=N] [--trial-threads=N]\n"
                 "               [--loss-prob=P] [--crash-round=R]\n"
                 "               [--join-rate=R] [--crash-rate=R] [--recovery]\n"
                 "               [--retry-budget=N] [--partition-round=R]\n"
                 "               [--heal-round=R] [--partition-parts=K] [--out=FILE]\n"
                 "               [--recovery-out=FILE] [--repeats=N] [--timeseries=FILE]\n"
                 "(--trial-threads, the fault/recovery overlays, --out, --repeats\n"
                 " and --timeseries only act on TrialRunner-based benches;\n"
                 " --recovery-out only on bench_fault_tolerance; see the flag\n"
                 " list at the top of bench_util.hpp)\n",
                 message.c_str());
    std::exit(2);
  }

  static Config parse(int argc, char** argv) {
    Config c;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto uint_flag = [&](const char* prefix, unsigned& into) {
        const std::size_t len = std::strlen(prefix);
        if (arg.rfind(prefix, 0) != 0) return false;
        // Shared strict parsing with the scenario runner, so "--seeds=1e2"
        // and "--seeds=-1" behave identically in gossip_run and bench_*.
        try {
          into = static_cast<unsigned>(runner::parse_count(
              prefix, arg.substr(len), 0, std::numeric_limits<unsigned>::max()));
        } catch (const std::exception& e) {
          usage_and_exit(e.what());  // "bad value for '--seeds=': ..."
        }
        return true;
      };
      if (arg == "--full") {
        c.full = true;
        c.max_exp = 20;
        c.seeds = 5;
      } else if (arg.rfind("--out=", 0) == 0) {
        c.out = arg.substr(6);
      } else if (arg.rfind("--timeseries=", 0) == 0) {
        c.timeseries = arg.substr(13);
      } else if (arg.rfind("--loss-prob=", 0) == 0) {
        try {
          c.loss_prob = runner::parse_fraction("--loss-prob=", arg.substr(12));
        } catch (const std::exception& e) {
          usage_and_exit(e.what());
        }
      } else if (arg.rfind("--join-rate=", 0) == 0) {
        try {
          runner::ScenarioSpec probe;  // reuse the scenario parser + bounds
          probe.apply("join_rate", arg.substr(12));
          c.join_rate = probe.join_rate;
        } catch (const std::exception& e) {
          usage_and_exit(e.what());
        }
      } else if (arg.rfind("--crash-rate=", 0) == 0) {
        try {
          runner::ScenarioSpec probe;
          probe.apply("crash_rate", arg.substr(13));
          c.crash_rate = probe.crash_rate;
        } catch (const std::exception& e) {
          usage_and_exit(e.what());
        }
      } else if (arg.rfind("--crash-round=", 0) == 0) {
        try {
          c.crash_round = static_cast<std::int64_t>(
              runner::parse_count("--crash-round=", arg.substr(14), 0, 1u << 30));
        } catch (const std::exception& e) {
          usage_and_exit(e.what());
        }
      } else if (arg == "--recovery") {
        c.recovery = true;
      } else if (arg.rfind("--recovery-out=", 0) == 0) {
        c.recovery_out = arg.substr(15);
      } else if (arg.rfind("--retry-budget=", 0) == 0) {
        try {
          runner::ScenarioSpec probe;  // shared bounds with the .scn key
          probe.apply("retry_budget", arg.substr(15));
          c.retry_budget = probe.retry_budget;
        } catch (const std::exception& e) {
          usage_and_exit(e.what());
        }
      } else if (arg.rfind("--partition-round=", 0) == 0) {
        try {
          runner::ScenarioSpec probe;
          probe.apply("partition_round", arg.substr(18));
          c.partition_round = probe.partition_round;
        } catch (const std::exception& e) {
          usage_and_exit(e.what());
        }
      } else if (arg.rfind("--heal-round=", 0) == 0) {
        try {
          runner::ScenarioSpec probe;
          probe.apply("heal_round", arg.substr(13));
          c.heal_round = probe.heal_round;
        } catch (const std::exception& e) {
          usage_and_exit(e.what());
        }
      } else if (arg.rfind("--partition-parts=", 0) == 0) {
        try {
          runner::ScenarioSpec probe;
          probe.apply("partition_parts", arg.substr(18));
          c.partition_parts = probe.partition_parts;
        } catch (const std::exception& e) {
          usage_and_exit(e.what());
        }
      } else if (arg.rfind("--shard-size=", 0) == 0) {
        try {
          c.shard_size = static_cast<unsigned>(
              runner::parse_count("--shard-size=", arg.substr(13), 0, 1u << 20));
        } catch (const std::exception& e) {
          usage_and_exit(e.what());
        }
      } else if (uint_flag("--seeds=", c.seeds) || uint_flag("--max-exp=", c.max_exp) ||
                 uint_flag("--threads=", c.threads) ||
                 uint_flag("--trial-threads=", c.trial_threads) ||
                 uint_flag("--repeats=", c.repeats)) {
        // handled
      } else {
        usage_and_exit("unknown argument: " + arg);
      }
    }
    return c;
  }

  /// Standard size sweep: powers of four from 2^10 up to 2^max_exp.
  [[nodiscard]] std::vector<std::uint32_t> size_sweep(unsigned min_exp = 10) const {
    std::vector<std::uint32_t> sizes;
    for (unsigned e = min_exp; e <= max_exp; e += 2) sizes.push_back(1u << e);
    return sizes;
  }

  /// Copies the fault flags onto a TrialRunner spec, so any migrated bench
  /// can be rerun under loss / mid-run crashes (e.g. --loss-prob=0.2 on the
  /// round-complexity sweep). --crash-round only retimes an existing crash
  /// set: on a spec without one (fault_count() == 0) it is skipped, since
  /// deferring an empty crash would just be a spec error.
  void apply_faults(runner::ScenarioSpec& spec) const {
    spec.loss_prob = loss_prob;
    if (spec.fault_count() > 0) spec.crash_round = crash_round;
    spec.join_rate = join_rate;
    spec.crash_rate = crash_rate;
    spec.partition_round = partition_round;
    spec.heal_round = heal_round;
    spec.partition_parts = partition_parts;
    // --recovery only arms cells with a supervisor; baselines in the same
    // sweep keep running brittle (validate() rejects the key elsewhere).
    const bool supervised = spec.algorithm == "cluster1" ||
                            spec.algorithm == "cluster2" ||
                            spec.algorithm == "cluster3_push_pull";
    spec.recovery = recovery && supervised;
    if (spec.recovery) spec.retry_budget = retry_budget;
  }

  /// Copies the engine-execution flags (--threads / --shard-size) onto a
  /// TrialRunner spec, so every migrated bench exposes the same
  /// parallelism sweep surface.
  void apply_engine(runner::ScenarioSpec& spec) const {
    spec.engine_threads = threads;
    spec.shard_size = shard_size;
  }
};

/// Median-of-N harness for wall-clock measurements (the --repeats flag of
/// bench_engine_throughput / bench_parallel_scaling): runs `measure`
/// `repeats` times and returns the sample whose key(sample) double is the
/// median. Returning the whole sample lets a bench report the median run's
/// secondary readings (per-phase seconds, contact counts) consistently with
/// its headline. Single-core bench hosts are noisy (+-2x at small n); the
/// median of a few repeats is stable enough to track release-over-release
/// deltas.
template <class Measure, class Key>
[[nodiscard]] auto median_sample(unsigned repeats, Measure&& measure, Key&& key) {
  using Sample = decltype(measure());
  std::vector<Sample> samples;
  samples.reserve(repeats);
  for (unsigned r = 0; r < repeats; ++r) samples.push_back(measure());
  std::sort(samples.begin(), samples.end(),
            [&](const Sample& a, const Sample& b) { return key(a) < key(b); });
  return samples[samples.size() / 2];
}

/// A named broadcast algorithm runnable on a fresh network.
struct NamedAlgorithm {
  std::string name;
  std::function<core::BroadcastReport(sim::Network&, std::uint32_t source)> run;
};

/// The standard comparison set: the paper's algorithms plus every baseline,
/// in the runner registry's canonical order and under its display names -
/// a thin adapter over runner::algorithms() so the set exists in ONE place.
/// `threads` >= 1 opts every run's engine into sharded phase-1 execution
/// (DriverOptions.threads / UniformOptions.threads; changes same-seed
/// trajectories once, see sim/engine.hpp). `shard_size` pins the shard
/// width.
inline std::vector<NamedAlgorithm> standard_algorithms(std::uint64_t delta = 1024,
                                                       unsigned threads = 0,
                                                       unsigned shard_size = 0) {
  runner::ScenarioSpec spec;
  spec.delta = delta;
  spec.engine_threads = threads;
  spec.shard_size = shard_size;
  std::vector<NamedAlgorithm> out;
  for (const runner::AlgorithmEntry& entry : runner::algorithms()) {
    out.push_back({entry.display,
                   [spec, run = &entry.run](sim::Network& net, std::uint32_t source) {
                     return (*run)(net, source, spec, /*fault=*/nullptr,
                                   /*telemetry=*/nullptr);
                   }});
  }
  return out;
}

/// Runs `algo` across seeds on n-node networks and aggregates the reports.
inline analysis::ReportAggregate sweep(const NamedAlgorithm& algo, std::uint32_t n,
                                       unsigned seeds, std::uint32_t rumor_bits = 256) {
  analysis::ReportAggregate agg;
  for (unsigned seed = 1; seed <= seeds; ++seed) {
    sim::NetworkOptions o;
    o.n = n;
    o.seed = 1000 + seed;
    o.rumor_bits = rumor_bits;
    sim::Network net(o);
    agg.add(algo.run(net, seed % n));
  }
  return agg;
}

inline void print_header(const char* experiment, const char* claim) {
  std::cout << "\n############################################################\n"
            << "# " << experiment << "\n"
            << "# paper claim: " << claim << "\n"
            << "############################################################\n";
}

}  // namespace gossip::bench
