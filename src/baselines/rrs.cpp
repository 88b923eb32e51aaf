#include "baselines/rrs.hpp"

#include <algorithm>
#include <vector>

#include "baselines/uniform_detail.hpp"
#include "common/assert.hpp"
#include "common/math.hpp"
#include "sim/engine.hpp"

namespace gossip::baselines {

using sim::Contact;
using sim::Message;

namespace {

// Static-dispatch hooks for the random-rendezvous-style exchange protocol:
// every non-stopped node exchanges its state message with a random partner;
// both delivery directions feed the counter rule.
struct RrsHooks {
  std::vector<std::uint32_t>& ctr;
  std::vector<std::uint32_t>& partner_max;
  std::vector<std::uint8_t>& met_informed;
  std::uint64_t& informed_count;
  unsigned ctr_max;

  Message state_message(std::uint32_t v) const {
    if (ctr[v] == 0) return Message::empty();
    return Message::rumor().and_count(ctr[v]);
  }
  void process(std::uint32_t v, const Message& m) {
    if (!m.has_rumor()) return;
    if (ctr[v] == 0) {
      ctr[v] = 1;
      ++informed_count;
      return;
    }
    met_informed[v] = 1;
    if (m.has_count()) {
      partner_max[v] = std::max<std::uint32_t>(partner_max[v],
                                               static_cast<std::uint32_t>(m.count_value()));
    }
  }

  std::optional<Contact> initiate(std::uint32_t v) const {
    if (ctr[v] > ctr_max) return std::nullopt;  // state C: stopped
    return Contact::exchange_random(state_message(v));
  }
  Message respond(std::uint32_t v) const { return state_message(v); }
  void on_push(std::uint32_t r, const Message& m) { process(r, m); }
  void on_pull_reply(std::uint32_t q, const Message& m) { process(q, m); }
};

}  // namespace

core::BroadcastReport run_rrs(sim::Network& net, std::uint32_t source, RrsOptions options) {
  GOSSIP_CHECK_MSG(net.alive(source), "source node must be alive");
  const std::uint32_t n = net.n();
  const unsigned ctr_max =
      options.ctr_max ? options.ctr_max : ceil_loglog2(n) + 2;
  const unsigned cap = detail::auto_round_cap(n, options.max_rounds);

  sim::Engine engine(net);
  engine.set_fault_model(options.fault);
  // ctr == 0: uninformed; 1..ctr_max: state B; > ctr_max: state C.
  // Capacity-sized: joiners are valid exchange partners under churn.
  std::vector<std::uint32_t> ctr(net.capacity(), 0);
  std::vector<std::uint32_t> partner_max(net.capacity(), 0);
  std::vector<std::uint8_t> met_informed(net.capacity(), 0);
  ctr[source] = 1;
  std::uint64_t informed_count = 1;

  if (options.telemetry != nullptr) {
    engine.set_telemetry(options.telemetry);
    options.telemetry->rounds.set_probe([&informed_count] {
      return obs::RoundRecorder::Probe{.informed = informed_count};
    });
  }

  RrsHooks hooks{ctr, partner_max, met_informed, informed_count, ctr_max};

  const auto is_informed = [&](std::uint32_t v) { return ctr[v] != 0; };
  while (!detail::all_alive_informed(net, informed_count, is_informed) &&
         engine.rounds() < cap) {
    std::fill(partner_max.begin(), partner_max.end(), 0);
    std::fill(met_informed.begin(), met_informed.end(), 0);
    engine.run_round(hooks);
    // Counter rule: a B-node that met a partner with counter >= its own (or
    // any informed partner in state C, whose counter is larger by
    // construction) increments once per round.
    for (std::uint32_t v = 0; v < n; ++v) {
      if (ctr[v] == 0 || ctr[v] > ctr_max) continue;
      if (met_informed[v] && partner_max[v] >= ctr[v]) ++ctr[v];
    }
  }

  if (options.telemetry != nullptr) options.telemetry->rounds.set_probe({});
  return detail::finish_report(net, engine, detail::count_informed_alive(net, is_informed),
                               "rrs");
}

}  // namespace gossip::baselines
