// Parallel round-execution scaling: contacts/sec of the sharded phase-1
// executor (sim/parallel) across thread counts, against the serial engine on
// the same workload. This is the experiment behind the PR 2 acceptance
// criterion (>1.5x at 4 threads on a multi-core host, guarded - a
// single-core CI box shows ~1x and that is expected, not a failure).
//
// Workload: every node pushes the rumor to a uniform random node - phase 1
// (initiate + draw + meter + encode) dominates and is what the shards
// parallelise; phases 2-3 run on the calling thread. Knowledge tracking and
// Delta metering off, as in large experiment runs.
//
// The bench host may be noisy (see ROADMAP.md): every (threads, n)
// configuration is measured `reps` times and the MEDIAN contacts/sec is the
// headline number; min/max are reported alongside.
//
// Output: JSON on stdout (optionally --out=FILE):
//   ./bench_parallel_scaling --out=BENCH_parallel_scaling.json
// Options: --n=1e6, --rounds=R (default 10), --reps=K / --repeats=K (default 5),
//          --threads=1,2,4,8 (comma list), --quick (n=1e5, 3 reps).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/parallel/parallel_engine.hpp"

namespace {

using namespace gossip;
using Clock = std::chrono::steady_clock;

struct PushWorkload {
  std::optional<sim::Contact> initiate(std::uint32_t) const {
    return sim::Contact::push_random(sim::Message::rumor());
  }
  void on_push(std::uint32_t, const sim::Message&) const {}
};

struct Result {
  std::uint64_t n = 0;
  std::string path;         // "serial" | "sharded"
  unsigned threads = 0;     // 0 for the serial engine
  std::uint64_t rounds = 0;
  std::uint64_t contacts_per_round = 0;
  double median_cps = 0, min_cps = 0, max_cps = 0;
};

template <class MakeEngine>
Result measure(std::uint32_t n, unsigned threads, const char* path, unsigned rounds,
               unsigned reps, MakeEngine&& make_engine) {
  Result res;
  res.n = n;
  res.path = path;
  res.threads = threads;
  res.rounds = rounds;
  std::vector<double> cps;
  for (unsigned rep = 0; rep < reps; ++rep) {
    sim::NetworkOptions o;
    o.n = n;
    o.seed = 42;
    sim::Network net(o);
    auto engine = make_engine(net);
    engine->metrics().set_track_involvement(false);
    PushWorkload w;
    // Warm-up sizes every scratch buffer (and spins the pool up once).
    engine->run_round(w);
    engine->run_round(w);
    engine->metrics().reset();
    const auto start = Clock::now();
    for (unsigned r = 0; r < rounds; ++r) engine->run_round(w);
    const auto stop = Clock::now();
    const double seconds = std::chrono::duration<double>(stop - start).count();
    const std::uint64_t contacts = engine->metrics().run().total.connections;
    res.contacts_per_round = contacts / rounds;
    cps.push_back(static_cast<double>(contacts) / seconds);
  }
  std::sort(cps.begin(), cps.end());
  res.median_cps = cps[cps.size() / 2];
  res.min_cps = cps.front();
  res.max_cps = cps.back();
  return res;
}

void emit_json(std::ostream& os, const std::vector<Result>& results,
               unsigned hardware_threads) {
  double serial_median = 0, one_thread_median = 0;
  for (const Result& r : results) {
    if (r.path == "serial") serial_median = r.median_cps;
    if (r.path == "sharded" && r.threads == 1) one_thread_median = r.median_cps;
  }
  os << "{\n  \"bench\": \"parallel_scaling\",\n  \"unit\": \"contacts_per_sec\",\n"
     << "  \"workloads\": {\"serial|sharded\": \"push\"},\n"
     << "  \"config\": \"knowledge tracking off, Delta metering off\",\n"
     << "  \"hardware_threads\": " << hardware_threads << ",\n"
     << "  \"note\": \"medians over repeated runs; speedups are meaningful only "
     << "when hardware_threads covers the thread count (single-core CI shows ~1x "
     << "by construction)\",\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    os << "    {\"n\": " << r.n << ", \"path\": \"" << r.path
       << "\", \"threads\": " << r.threads << ", \"rounds\": " << r.rounds
       << ", \"contacts_per_round\": " << r.contacts_per_round
       << ", \"median_contacts_per_sec\": " << static_cast<std::uint64_t>(r.median_cps)
       << ", \"min\": " << static_cast<std::uint64_t>(r.min_cps)
       << ", \"max\": " << static_cast<std::uint64_t>(r.max_cps);
    if (r.path == "sharded" && one_thread_median > 0) {
      os << ", \"speedup_vs_1_thread\": " << r.median_cps / one_thread_median;
    }
    if (r.path == "sharded" && serial_median > 0) {
      os << ", \"vs_serial_engine\": " << r.median_cps / serial_median;
    }
    os << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

std::vector<unsigned> parse_threads(const std::string& spec) {
  std::vector<unsigned> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    try {
      const unsigned long v = std::stoul(item);
      if (v == 0 || v > 256) throw std::out_of_range(item);
      out.push_back(static_cast<unsigned>(v));
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad --threads entry: '%s' (want e.g. 1,2,4,8)\n",
                   item.c_str());
      std::exit(2);
    }
  }
  if (out.empty()) {
    std::fprintf(stderr, "--threads needs at least one value\n");
    std::exit(2);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t n = 1000000;
  unsigned rounds = 10;
  unsigned reps = 5;
  std::vector<unsigned> threads{1, 2, 4, 8};
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--n=", 0) == 0) {
      try {
        const double v = std::stod(arg.substr(4));
        if (v < 2 || v > 4e9) throw std::out_of_range(arg);
        n = static_cast<std::uint32_t>(v);
      } catch (const std::exception&) {
        std::fprintf(stderr, "bad --n value: '%s'\n", arg.c_str() + 4);
        return 2;
      }
    } else if (arg.rfind("--rounds=", 0) == 0) {
      rounds = static_cast<unsigned>(std::strtoul(arg.c_str() + 9, nullptr, 10));
      if (rounds == 0) {
        std::fprintf(stderr, "bad --rounds value\n");
        return 2;
      }
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = static_cast<unsigned>(std::strtoul(arg.c_str() + 7, nullptr, 10));
      if (reps == 0) {
        std::fprintf(stderr, "bad --reps value\n");
        return 2;
      }
    } else if (arg.rfind("--repeats=", 0) == 0) {
      // Synonym for --reps, matching bench_engine_throughput's flag.
      reps = static_cast<unsigned>(std::strtoul(arg.c_str() + 10, nullptr, 10));
      if (reps == 0) {
        std::fprintf(stderr, "bad --repeats value\n");
        return 2;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = parse_threads(arg.substr(10));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--quick") {
      n = 100000;
      reps = 3;
      rounds = 6;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  const unsigned hardware_threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<Result> results;

  results.push_back(
      measure(n, 0, "serial", rounds, reps, [](sim::Network& net) {
        return std::make_unique<sim::Engine>(net);
      }));
  std::fprintf(stderr, "n=%-9u serial            %8.2f Mcontacts/s (median of %u)\n", n,
               results.back().median_cps / 1e6, reps);
  for (const unsigned t : threads) {
    results.push_back(
        measure(n, t, "sharded", rounds, reps, [t](sim::Network& net) {
          return std::make_unique<sim::parallel::ParallelEngine>(
              net, sim::parallel::ParallelOptions{.threads = t});
        }));
    std::fprintf(stderr, "n=%-9u sharded %2u thread%s %8.2f Mcontacts/s (median of %u)\n",
                 n, t, t == 1 ? " " : "s", results.back().median_cps / 1e6, reps);
  }

  emit_json(std::cout, results, hardware_threads);
  if (!out_path.empty()) {
    std::ofstream f(out_path);
    emit_json(f, results, hardware_threads);
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return 0;
}
