// Deterministic parallel round executor.
//
// ParallelEngine IS-A Engine whose phase 1 always runs sharded (see the
// Threading model notes in sim/engine.hpp): initiators split into fixed
// contiguous shards, one counter-based RNG stream per (round, shard), merge
// in shard order. The class exists so callers that want parallel execution
// say so by type - everything that consumes a sim::Engine& (cluster::Driver,
// the baselines' skeleton, the cluster algorithms) works on it unchanged,
// because the serial/sharded choice is made at run time inside run_round.
//
// Determinism contract: for a fixed (network seed, shard_size, sequence of
// rounds), metrics, knowledge graphs and every hook-observed delivery are
// bit-identical for ANY threads >= 1 - the parity suite in
// tests/test_parallel_engine.cpp pins threads in {1, 2, 8} against each
// other. Trajectories differ from the serial Engine's whenever a round
// consumes uniform draws (shard streams vs. one master stream); rounds that
// only direct-address are bit-identical to the serial path too. Fault models
// (sim/fault.hpp) keep the contract: scheduled crashes fire on the engine's
// round clock and loss decisions come from (seed, round, initiator) streams,
// so neither varies with the thread count - and both agree with the serial
// executor's.
#pragma once

#include <cstdint>

#include "sim/engine.hpp"

namespace gossip::sim::parallel {

struct ParallelOptions {
  /// Worker count including the calling thread; values > hardware
  /// concurrency are allowed (useful for determinism tests on small hosts).
  unsigned threads = 1;
  /// Initiators per shard; 0 picks kDefaultShardSize. Part of the
  /// determinism contract - see shard.hpp.
  std::uint32_t shard_size = 0;
  /// Retain per-round stats (as Engine's keep_history).
  bool keep_history = false;
};

class ParallelEngine final : public Engine {
 public:
  explicit ParallelEngine(Network& net, ParallelOptions options = ParallelOptions());
};

}  // namespace gossip::sim::parallel
