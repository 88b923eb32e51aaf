#include "sim/engine.hpp"

#include <numeric>

#include "common/assert.hpp"

namespace gossip::sim {

Engine::Engine(Network& net, bool keep_history)
    : net_(net), metrics_(net.capacity(), keep_history), synced_n_(net.n()) {
  all_nodes_.resize(net.n());
  std::iota(all_nodes_.begin(), all_nodes_.end(), 0u);
  // Receiver-indexed state is sized to the network's pre-reserved capacity
  // (== n for join-free networks): mid-run joins extend the initiator list
  // (sync_network_growth) but never reallocate delivery state, so the pull
  // stamps stay stable while n moves.
  pull_stamp_.resize(net.capacity());
}

void Engine::sync_network_growth() {
  const std::uint32_t n = net_.n();
  if (n == synced_n_) return;
  GOSSIP_CHECK_MSG(n > synced_n_, "the index space never shrinks");
  GOSSIP_CHECK_MSG(n <= net_.capacity(), "network grew past its capacity");
  // Joiners initiate and can be drawn as uniform targets from this round
  // on. The carried-over uniform draws were taken against the old bound
  // n_old - 1, so discard them; the refill consumes the master stream at a
  // new position, which is deterministic because join order is part of the
  // round timeline (the same joins happen at the same rounds under every
  // executor and thread count).
  for (std::uint32_t v = synced_n_; v < n; ++v) all_nodes_.push_back(v);
  draw_buf_.clear();
  draw_pos_ = 0;
  synced_n_ = n;
}

std::uint32_t Engine::random_other(std::uint32_t self) {
  // Uniform over all n-1 other nodes (failed ones included - the caller
  // cannot know who failed; such contacts are simply lost). Shares
  // next_target_draw()'s buffer so out-of-round draws stay in stream order
  // with serial round draws.
  std::uint32_t t = next_target_draw();
  if (t >= self) ++t;
  return t;
}

namespace detail {
std::uint32_t resolve_direct_target(const Network& net, std::uint32_t node,
                                    const Contact& contact, bool tolerate_unknown) {
  GOSSIP_CHECK_MSG(contact.target.is_node(),
                   "direct contact needs a concrete target ID");
  const auto found = net.find(contact.target);
  if (!found.has_value()) {
    // Without an adversary, dialing an ID that names nothing is an
    // algorithm bug. With byzantine responders armed, poisoned garbage IDs
    // are expected to reach honest knowledge - the dial just finds no
    // endpoint (kUnresolvedTarget; the caller loses the turn).
    if (tolerate_unknown) return kUnresolvedTarget;
    GOSSIP_CHECK_MSG(found.has_value(), "direct contact to ID outside the network: "
                                            << contact.target.to_string());
  }
  const std::uint32_t target = *found;
  GOSSIP_CHECK_MSG(target != node, "node attempted to contact itself");
  if (const auto* k = net.knowledge()) {
    GOSSIP_CHECK_MSG(k->knows(node, contact.target, net.id_of(node)),
                     "direct-addressing violation: node "
                         << net.id_of(node).to_string() << " does not know "
                         << contact.target.to_string());
  }
  return target;
}
}  // namespace detail

void Engine::run_round(const RoundHooks& hooks) {
  GOSSIP_CHECK_MSG(hooks.initiate, "a round needs an initiate hook");
  // Like the templated all-nodes overload: the initiator span is derived
  // inside the impl, after this round's joins fired.
  run_round_impl(detail::LegacyHooksAdapter{hooks}, std::span<const std::uint32_t>(),
                 /*use_all_nodes=*/true);
}

void Engine::run_round(const RoundHooks& hooks, std::span<const std::uint32_t> initiators) {
  GOSSIP_CHECK_MSG(hooks.initiate, "a round needs an initiate hook");
  run_round_impl(detail::LegacyHooksAdapter{hooks}, initiators, /*use_all_nodes=*/false);
}

}  // namespace gossip::sim
