// E5 - The Delta-bounded communication trade-off (Section 7: Theorem 4,
// Theorem 18, Lemma 16, Lemma 17).
//
// For a sweep of Delta: build the Delta-clustering with Cluster3 (measuring
// rounds, messages and the realized per-round maximum involvement), then
// broadcast with ClusterPushPull (measured in isolation). Reproduced shapes:
//   * construction rounds stay O(log log n), construction messages O(n),
//     and max involvement <= Delta at every Delta (Theorem 18);
//   * broadcast rounds track log n / log Delta down to the Omega(log log n)
//     floor (Lemmas 16 + 17, Theorem 3);
//   * the unbounded-Delta algorithms (Cluster1/2) show involvement ~n,
//     while uniform gossip sits at the balls-in-bins maximum - the Section 7
//     motivation.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "common/math.hpp"
#include "core/cluster3.hpp"
#include "core/cluster_push_pull.hpp"

int main(int argc, char** argv) {
  using namespace gossip;
  const auto cfg = bench::Config::parse(argc, argv);
  const std::uint32_t n = cfg.full ? (1u << 18) : (1u << 16);

  bench::print_header(
      "E5: trade-off between per-node communication bound Delta and rounds",
      "Thm 18: Delta-clustering in O(log log n) rounds, O(n) msgs, load <= Delta; "
      "Lemma 17: broadcast in O(log n/log Delta) rounds; Lemma 16: that is optimal");

  Table t("Cluster3(Delta) + ClusterPushPull at n = " + std::to_string(n) +
              " (mean over " + std::to_string(cfg.seeds) + " seeds)",
          {"Delta", "D=Delta/C''", "build rounds", "build msg/node", "max load",
           "load<=Delta", "spread rounds", "spread msg/node", "log n/log D",
           "floor loglog n"});

  for (const std::uint64_t delta : {64ull, 256ull, 1024ull, 4096ull, 16384ull}) {
    RunningStat build_rounds, build_msgs, load, spread_rounds, spread_msgs;
    std::uint64_t d_realized = 0;
    bool bounded = true;
    for (unsigned seed = 1; seed <= cfg.seeds; ++seed) {
      sim::NetworkOptions o;
      o.n = n;
      o.seed = 100 + seed;
      sim::Network net(o);
      sim::Engine engine(net);
      core::Cluster3 builder(engine, delta);
      const auto build = builder.run();
      d_realized = builder.cluster_target();
      build_rounds.add(static_cast<double>(build.rounds));
      build_msgs.add(build.payload_messages_per_node());
      core::ClusterPushPull spread(builder.driver());
      const auto sp = spread.run(seed % n, d_realized, /*reset_metrics=*/true);
      spread_rounds.add(static_cast<double>(sp.rounds));
      spread_msgs.add(sp.payload_messages_per_node());
      const std::uint32_t max_load = std::max(build.max_delta(), sp.max_delta());
      load.add(static_cast<double>(max_load));
      bounded &= max_load <= delta;
      if (!sp.all_informed) {
        std::cerr << "WARNING: spread incomplete at Delta=" << delta << " seed=" << seed
                  << "\n";
      }
    }
    t.row()
        .add(std::uint64_t{delta})
        .add(std::uint64_t{d_realized})
        .add(build_rounds.mean(), 1)
        .add(build_msgs.mean(), 2)
        .add(load.max(), 0)
        .add(bounded ? "yes" : "NO")
        .add(spread_rounds.mean(), 1)
        .add(spread_msgs.mean(), 2)
        .add(log2d(n) / std::log2(std::max<double>(2.0, static_cast<double>(d_realized))), 2)
        .add(loglog2d(n), 2);
  }
  t.print(std::cout);

  // Contrast: involvement of the unbounded algorithms (Section 7's point).
  Table contrast("max per-round involvement of the unbounded-Delta algorithms",
                 {"algorithm", "max involvement", "n"});
  for (const auto& algo : bench::standard_algorithms(1024, cfg.threads, cfg.shard_size)) {
    if (algo.name != "Cluster1" && algo.name != "Cluster2" && algo.name != "PUSH-PULL") {
      continue;
    }
    const auto agg = bench::sweep(algo, n, 2);
    contrast.row().add(algo.name).add(agg.max_delta.max(), 0).add(std::uint64_t{n});
  }
  contrast.print(std::cout);

  std::cout << "\nReading: 'max load' stays below Delta at every point while the\n"
               "spread rounds fall as ~log n/log Delta (down to the loglog floor),\n"
               "tracing the Section 7 trade-off curve. Cluster1/Cluster2 show\n"
               "involvement ~n (their leaders talk to everyone), uniform PUSH-PULL\n"
               "~log n/loglog n - exactly the regimes the paper discusses.\n";
  return 0;
}
