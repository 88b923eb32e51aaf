#include "sim/parallel/parallel_engine.hpp"

namespace gossip::sim::parallel {

ParallelEngine::ParallelEngine(Network& net, ParallelOptions options)
    : Engine(net, options.keep_history) {
  // threads == 0 would mean "serial engine", which this type promises not to
  // be; normalise to the single-thread sharded mode (same trajectories as
  // any other thread count).
  set_threads(options.threads == 0 ? 1 : options.threads, options.shard_size);
}

}  // namespace gossip::sim::parallel
