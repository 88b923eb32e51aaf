// E2 - Message complexity (Theorem 2's O(1) messages per node vs. Theorem
// 1's O(sqrt(log n)) and the baselines' growing curves).
//
// Reports both metering conventions (see sim/metrics.hpp): payload messages
// (content-carrying transmissions, the [10] convention behind the paper's
// O(1) claim) and connections (every initiated contact). The reproducible
// shape: Cluster2 flat in n; RRS ~ log log n; Avin-Elsasser ~ sqrt(log n);
// PUSH ~ log n.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "common/math.hpp"

int main(int argc, char** argv) {
  using namespace gossip;
  const auto cfg = bench::Config::parse(argc, argv);
  const auto sizes = cfg.size_sweep();
  const auto algorithms = bench::standard_algorithms(1024, cfg.threads, cfg.shard_size);

  bench::print_header(
      "E2: messages per node",
      "Cluster2: O(1)/node [Thm 2] - beats both lower bounds of [10]; "
      "Cluster1: unoptimized; Avin-Elsasser: O(sqrt(log n)) [Thm 1]; "
      "RRS: O(log log n) [10]; PUSH: Theta(log n) [12]");

  std::vector<std::string> headers{"n"};
  for (const auto& a : algorithms) headers.push_back(a.name);

  Table payload("payload messages per node (mean over " + std::to_string(cfg.seeds) +
                    " seeds)",
                headers);
  Table conns("connections per node (every initiated contact)", headers);
  std::vector<std::vector<double>> payload_means(algorithms.size());

  for (const std::uint32_t n : sizes) {
    payload.row().add(std::uint64_t{n});
    conns.row().add(std::uint64_t{n});
    for (std::size_t i = 0; i < algorithms.size(); ++i) {
      const auto agg = bench::sweep(algorithms[i], n, cfg.seeds);
      payload_means[i].push_back(agg.payload_per_node.mean());
      payload.add(agg.payload_per_node.mean(), 2);
      conns.add(agg.connections_per_node.mean(), 2);
    }
  }
  payload.print(std::cout);
  conns.print(std::cout);

  Table shape("payload growth ratio msgs(n)/msgs(" + std::to_string(sizes.front()) + ")",
              headers);
  for (std::size_t row = 0; row < sizes.size(); ++row) {
    shape.row().add(std::uint64_t{sizes[row]});
    for (std::size_t i = 0; i < algorithms.size(); ++i) {
      shape.add(payload_means[i][row] / payload_means[i][0], 2);
    }
  }
  shape.print(std::cout);

  std::cout << "\nReading: Cluster2's and C3+CPP's payload column must stay flat\n"
               "(ratio ~1.0) while PUSH grows with log n (ratio ~2 over this range)\n"
               "and RRS/AvinElsasser sit in between, per their bounds.\n";
  return 0;
}
