#include "sim/fault.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/assert.hpp"
#include "sim/network.hpp"

namespace gossip::sim {

const char* to_string(FaultStrategy s) noexcept {
  switch (s) {
    case FaultStrategy::kRandomSubset: return "random";
    case FaultStrategy::kSmallestIds: return "smallest-ids";
    case FaultStrategy::kIndexStride: return "stride";
  }
  return "?";
}

std::vector<std::uint32_t> choose_failures(const Network& net, std::uint32_t f,
                                           FaultStrategy strategy, Rng& rng) {
  const std::uint32_t n = net.n();
  GOSSIP_CHECK_MSG(f < n, "cannot fail all nodes");
  std::vector<std::uint32_t> out;
  out.reserve(f);
  switch (strategy) {
    case FaultStrategy::kRandomSubset: {
      // Partial Fisher-Yates over the index range.
      std::vector<std::uint32_t> perm(n);
      std::iota(perm.begin(), perm.end(), 0u);
      for (std::uint32_t i = 0; i < f; ++i) {
        const auto j = static_cast<std::uint32_t>(rng.uniform_range(i, n - 1));
        std::swap(perm[i], perm[j]);
        out.push_back(perm[i]);
      }
      break;
    }
    case FaultStrategy::kSmallestIds: {
      std::vector<std::uint32_t> order(n);
      std::iota(order.begin(), order.end(), 0u);
      std::nth_element(order.begin(), order.begin() + f, order.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return net.id_of(a) < net.id_of(b);
                       });
      out.assign(order.begin(), order.begin() + f);
      break;
    }
    case FaultStrategy::kIndexStride: {
      const std::uint32_t stride = std::max<std::uint32_t>(1, n / std::max<std::uint32_t>(f, 1));
      for (std::uint32_t i = 0; out.size() < f && i < n; i += stride) out.push_back(i);
      // Top up sequentially if rounding left us short.
      for (std::uint32_t i = 0; out.size() < f; ++i) {
        if (std::find(out.begin(), out.end(), i) == out.end()) out.push_back(i);
      }
      break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// LossChannel
// ---------------------------------------------------------------------------

namespace {
/// Keys the loss streams away from every other seed-derived stream in the
/// simulator (network master/node/id streams, shard streams).
constexpr std::uint64_t kLossStreamSalt = 0x10551e55c4a77e1aULL;
/// Same role for the churn arrival/victim streams...
constexpr std::uint64_t kChurnStreamSalt = 0xc4a12bd96e03f875ULL;
/// ...and for the byzantine response-poisoning streams...
constexpr std::uint64_t kByzantineStreamSalt = 0xb12a77f31c9e5d04ULL;
/// ...and for the partition component assignment.
constexpr std::uint64_t kPartitionStreamSalt = 0x7a9c0b3d51e8f246ULL;

/// Knuth's product-of-uniforms Poisson sampler. Consumes a variable number
/// of draws from `rng`, which is fine: churn streams are per-round forks, so
/// the consumption never leaks into any other stream. Capped defensively -
/// a mean large enough to hit the cap is a misconfigured schedule, not a
/// workload.
std::uint32_t poisson_draw(double mean, Rng& rng) {
  if (mean <= 0.0) return 0;
  const double limit = std::exp(-mean);
  std::uint32_t k = 0;
  double p = 1.0;
  do {
    p *= rng.uniform01();
    ++k;
  } while (p > limit && k < 1u << 16);
  return k - 1;
}
}  // namespace

LossChannel::LossChannel(std::uint64_t network_seed, std::uint64_t round, double p)
    : round_rng_(Rng(mix64(network_seed ^ kLossStreamSalt)).fork(round)) {
  if (p <= 0.0) {
    threshold_ = 0;
  } else if (p >= 1.0) {
    threshold_ = ~0ULL;  // drops all but the all-ones draw (p = 1 - 2^-64)
  } else {
    // Exact for every representable p < 1: p * 2^64 < 2^64, so the cast is
    // defined and next_u64() < threshold has probability p up to 2^-64.
    threshold_ = static_cast<std::uint64_t>(p * 0x1p64);
  }
}

// ---------------------------------------------------------------------------
// FaultModel defaults
// ---------------------------------------------------------------------------

void FaultModel::on_run_begin(Network&, Rng&) {}
void FaultModel::on_round_begin(std::uint64_t, Network&) {}
double FaultModel::loss_probability(std::uint64_t) const { return 0.0; }
bool FaultModel::has_byzantine() const { return false; }
bool FaultModel::byzantine(std::uint32_t) const { return false; }
Message FaultModel::corrupt_response(std::uint64_t, std::uint32_t, const Network&,
                                     const Message& honest) const {
  return honest;
}
const std::uint32_t* FaultModel::partition_components(std::uint64_t) const {
  return nullptr;
}

// ---------------------------------------------------------------------------
// StaticCrash
// ---------------------------------------------------------------------------

StaticCrash::StaticCrash(std::uint32_t count, FaultStrategy strategy)
    : count_(count), strategy_(strategy) {}

void StaticCrash::on_run_begin(Network& net, Rng& adversary) {
  if (count_ == 0) return;  // consume nothing, as the legacy f == 0 path did
  for (std::uint32_t v : choose_failures(net, count_, strategy_, adversary)) {
    net.fail(v);
  }
}

std::string StaticCrash::describe() const {
  std::ostringstream os;
  os << "static_crash(f=" << count_ << ", strategy=" << to_string(strategy_) << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// ScheduledCrash
// ---------------------------------------------------------------------------

ScheduledCrash::ScheduledCrash(std::uint64_t crash_round, std::uint32_t count,
                               FaultStrategy strategy)
    : crash_round_(crash_round),
      count_(count),
      strategy_(strategy),
      explicit_victims_(false) {}

ScheduledCrash::ScheduledCrash(std::uint64_t crash_round,
                               std::vector<std::uint32_t> victims)
    : crash_round_(crash_round),
      explicit_victims_(true),
      victims_(std::move(victims)) {}

void ScheduledCrash::on_run_begin(Network& net, Rng& adversary) {
  if (explicit_victims_ || count_ == 0) return;
  // Oblivious: the set is fixed before the algorithm runs, from the
  // adversary's own stream - only the crash is deferred to the timeline.
  victims_ = choose_failures(net, count_, strategy_, adversary);
}

void ScheduledCrash::on_round_begin(std::uint64_t round, Network& net) {
  if (fired_ || round < crash_round_) return;
  fired_ = true;  // monotone: the set crashes exactly once
  // A composed churn model may have crashed a victim before this round
  // fires; killing an already-dead node is not a schedule bug here, so skip
  // it rather than trip Network::fail's double-fail guard.
  for (std::uint32_t v : victims_) {
    if (net.alive(v)) net.fail(v);
  }
}

std::string ScheduledCrash::describe() const {
  std::ostringstream os;
  os << "scheduled_crash(round=" << crash_round_;
  if (explicit_victims_) {
    os << ", victims=" << victims_.size();
  } else {
    os << ", f=" << count_ << ", strategy=" << to_string(strategy_);
  }
  os << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// LossyChannel
// ---------------------------------------------------------------------------

LossyChannel::LossyChannel(double p) : p_(p) {
  GOSSIP_CHECK_MSG(p >= 0.0 && p < 1.0, "loss probability must be in [0, 1)");
}

double LossyChannel::loss_probability(std::uint64_t) const { return p_; }

std::string LossyChannel::describe() const {
  std::ostringstream os;
  os << "lossy(p=" << p_ << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// ChurnSchedule
// ---------------------------------------------------------------------------

ChurnSchedule::ChurnSchedule(double join_rate, double crash_rate,
                             std::uint64_t start_round, std::uint64_t end_round)
    : join_rate_(join_rate),
      crash_rate_(crash_rate),
      start_round_(start_round),
      end_round_(end_round),
      scripted_(false) {
  GOSSIP_CHECK_MSG(join_rate >= 0.0 && crash_rate >= 0.0,
                   "churn rates must be non-negative");
}

ChurnSchedule::ChurnSchedule(std::vector<ChurnEvent> script)
    : scripted_(true), script_(std::move(script)) {}

void ChurnSchedule::on_round_begin(std::uint64_t round, Network& net) {
  if (scripted_) {
    // Events are matched by round, unordered; repeated rounds accumulate.
    std::uint32_t joins = 0, crashes = 0;
    for (const ChurnEvent& e : script_) {
      if (e.round == round) {
        joins += e.joins;
        crashes += e.crashes;
      }
    }
    if (joins != 0 || crashes != 0) apply(joins, crashes, round, net);
    return;
  }
  if (round < start_round_ || round >= end_round_) return;
  if (join_rate_ <= 0.0 && crash_rate_ <= 0.0) return;
  // Arrival counts from the round's own counter stream: joins first, then
  // crashes, then (in apply) the crash victims - one fixed consumption
  // order, deterministic in (network seed, round) alone.
  Rng churn = Rng(mix64(net.options().seed ^ kChurnStreamSalt)).fork(round);
  const std::uint32_t joins = poisson_draw(join_rate_, churn);
  const std::uint32_t crashes = poisson_draw(crash_rate_, churn);
  if (joins != 0 || crashes != 0) apply_with(joins, crashes, churn, net);
}

void ChurnSchedule::apply(std::uint32_t joins, std::uint32_t crashes,
                          std::uint64_t round, Network& net) {
  Rng churn = Rng(mix64(net.options().seed ^ kChurnStreamSalt)).fork(round);
  apply_with(joins, crashes, churn, net);
}

void ChurnSchedule::apply_with(std::uint32_t joins, std::uint32_t crashes, Rng& churn,
                               Network& net) {
  // Joins before crashes: a joiner may die the same round it arrives.
  for (std::uint32_t j = 0; j < joins && net.can_join(); ++j) {
    (void)net.join();
    ++joins_applied_;
  }
  for (std::uint32_t c = 0; c < crashes; ++c) {
    if (net.alive_count() <= 2) break;  // keep the network a network
    auto v = static_cast<std::uint32_t>(churn.uniform_below(net.n()));
    while (!net.alive(v)) v = (v + 1) % net.n();
    net.fail(v);
    ++crashes_applied_;
  }
}

std::string ChurnSchedule::describe() const {
  std::ostringstream os;
  if (scripted_) {
    os << "churn(script=" << script_.size() << " events)";
  } else {
    os << "churn(join_rate=" << join_rate_ << ", crash_rate=" << crash_rate_;
    if (start_round_ != 0 || end_round_ != ~0ULL) {
      os << ", rounds=[" << start_round_ << ", ";
      if (end_round_ == ~0ULL) {
        os << "inf";
      } else {
        os << end_round_;
      }
      os << ")";
    }
    os << ")";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// LossSchedule
// ---------------------------------------------------------------------------

LossSchedule::LossSchedule(Shape shape, double a, double b, std::uint64_t r0,
                           std::uint64_t r1)
    : shape_(shape), a_(a), b_(b), r0_(r0), r1_(r1) {}

LossSchedule LossSchedule::burst(double p, std::uint64_t from, std::uint64_t until) {
  GOSSIP_CHECK_MSG(p >= 0.0 && p < 1.0, "burst loss probability must be in [0, 1)");
  GOSSIP_CHECK_MSG(from < until, "burst window must be non-empty");
  return LossSchedule(Shape::kBurst, p, 0.0, from, until);
}

LossSchedule LossSchedule::ramp(double p0, double p1, std::uint64_t over_rounds) {
  GOSSIP_CHECK_MSG(p0 >= 0.0 && p0 < 1.0 && p1 >= 0.0 && p1 < 1.0,
                   "ramp endpoints must be in [0, 1)");
  return LossSchedule(Shape::kRamp, p0, p1, over_rounds, 0);
}

LossSchedule LossSchedule::periodic(double p, std::uint64_t period, std::uint64_t duty) {
  GOSSIP_CHECK_MSG(p >= 0.0 && p < 1.0, "periodic loss probability must be in [0, 1)");
  GOSSIP_CHECK_MSG(period > 0 && duty <= period, "need duty <= period, period > 0");
  return LossSchedule(Shape::kPeriodic, p, 0.0, period, duty);
}

double LossSchedule::loss_probability(std::uint64_t round) const {
  switch (shape_) {
    case Shape::kBurst:
      return (round >= r0_ && round < r1_) ? a_ : 0.0;
    case Shape::kRamp: {
      if (r0_ == 0 || round >= r0_) return b_;
      const double t = static_cast<double>(round) / static_cast<double>(r0_);
      return a_ + (b_ - a_) * t;
    }
    case Shape::kPeriodic:
      return (round % r0_) < r1_ ? a_ : 0.0;
  }
  return 0.0;
}

std::string LossSchedule::describe() const {
  std::ostringstream os;
  switch (shape_) {
    case Shape::kBurst:
      os << "loss_schedule(burst p=" << a_ << ", rounds=[" << r0_ << ", " << r1_ << "))";
      break;
    case Shape::kRamp:
      os << "loss_schedule(ramp " << a_ << " -> " << b_ << " over " << r0_ << ")";
      break;
    case Shape::kPeriodic:
      os << "loss_schedule(periodic p=" << a_ << ", period=" << r0_ << ", duty=" << r1_
         << ")";
      break;
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// PartitionFault
// ---------------------------------------------------------------------------

PartitionFault::PartitionFault(std::uint64_t from_round, std::uint64_t until_round,
                               std::uint32_t parts)
    : from_round_(from_round), until_round_(until_round), parts_(parts) {
  GOSSIP_CHECK_MSG(from_round < until_round, "partition window must be non-empty");
  GOSSIP_CHECK_MSG(parts >= 2, "a partition needs at least 2 components");
}

void PartitionFault::on_run_begin(Network& net, Rng&) {
  // Labels over ALL capacity slots so a mid-partition joiner lands in a
  // component as well. Per-node forks off a seed-keyed base stream - NOT the
  // adversary stream - keep the assignment a pure function of (network seed,
  // node): the adversary stream's consumption order varies with the model
  // composition, this must not.
  components_.resize(net.capacity());
  Rng base = Rng(mix64(net.options().seed ^ kPartitionStreamSalt));
  for (std::uint32_t v = 0; v < net.capacity(); ++v) {
    components_[v] = static_cast<std::uint32_t>(base.fork(v).uniform_below(parts_));
  }
}

const std::uint32_t* PartitionFault::partition_components(std::uint64_t round) const {
  if (round < from_round_ || round >= until_round_) return nullptr;
  return components_.empty() ? nullptr : components_.data();
}

std::string PartitionFault::describe() const {
  std::ostringstream os;
  os << "partition(parts=" << parts_ << ", rounds=[" << from_round_ << ", "
     << until_round_ << "))";
  return os.str();
}

// ---------------------------------------------------------------------------
// ByzantineResponder
// ---------------------------------------------------------------------------

ByzantineResponder::ByzantineResponder(double fraction) : fraction_(fraction) {
  GOSSIP_CHECK_MSG(fraction >= 0.0 && fraction < 1.0,
                   "byzantine fraction must be in [0, 1)");
}

void ByzantineResponder::on_run_begin(Network& net, Rng& adversary) {
  traitor_.assign(net.capacity(), 0);
  const auto want = static_cast<std::uint32_t>(
      std::llround(fraction_ * static_cast<double>(net.n())));
  traitor_count_ = 0;
  if (want == 0) return;
  // Oblivious pre-commitment from the adversary's own stream; joiners get
  // indices >= the initial n and are never traitors.
  for (std::uint32_t v : choose_failures(net, want, FaultStrategy::kRandomSubset,
                                         adversary)) {
    traitor_[v] = 1;
    ++traitor_count_;
  }
}

bool ByzantineResponder::has_byzantine() const { return fraction_ > 0.0; }

bool ByzantineResponder::byzantine(std::uint32_t node) const {
  return node < traitor_.size() && traitor_[node] != 0;
}

Message ByzantineResponder::corrupt_response(std::uint64_t round, std::uint32_t responder,
                                             const Network& net,
                                             const Message& honest) const {
  // Pure in (network seed, round, responder): every executor, thread count
  // and requester sees the same poisoned message. The detectable payload
  // parts (rumor, count) are stripped - the receiver notices the corruption
  // and discards them, modeled as absence. The ID list is the attack: one
  // poisoned slot per honest slot (at least one), alternating stale-but-real
  // IDs (may be dead, may be the receiver itself) with garbage IDs that
  // resolve to nothing.
  Rng poison =
      Rng(mix64(net.options().seed ^ kByzantineStreamSalt)).fork(round, responder);
  std::size_t slots = 0;
  honest.ids().for_each([&](NodeId) { ++slots; });
  if (slots == 0) slots = 1;
  Message::IdList ids;
  for (std::size_t i = 0; i < slots; ++i) {
    if ((poison.next_u64() & 1) != 0) {
      const auto v = static_cast<std::uint32_t>(poison.uniform_below(net.n()));
      ids.push_back(net.id_of(v));  // stale: resolvable, possibly dead
    } else {
      std::uint64_t raw = poison.next_u64();
      if (raw == ~0ULL) --raw;  // never the unclustered sentinel
      ids.push_back(NodeId(raw));  // garbage: dials dead air
    }
  }
  return Message::id_list(std::move(ids));
}

std::string ByzantineResponder::describe() const {
  std::ostringstream os;
  os << "byzantine(fraction=" << fraction_ << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// CompositeFault
// ---------------------------------------------------------------------------

CompositeFault& CompositeFault::add(std::unique_ptr<FaultModel> part) {
  GOSSIP_CHECK(part != nullptr);
  parts_.push_back(std::move(part));
  return *this;
}

void CompositeFault::on_run_begin(Network& net, Rng& adversary) {
  for (const auto& part : parts_) part->on_run_begin(net, adversary);
}

void CompositeFault::on_round_begin(std::uint64_t round, Network& net) {
  for (const auto& part : parts_) part->on_round_begin(round, net);
}

double CompositeFault::loss_probability(std::uint64_t round) const {
  // Independent channels: a payload survives only if every part keeps it.
  // Re-queried per part PER ROUND, so round-varying schedules (LossSchedule
  // bursts/ramps) compose exactly; clamped because accumulated rounding can
  // push the product a ulp outside [0, 1] at the extremes.
  double keep = 1.0;
  for (const auto& part : parts_) keep *= 1.0 - part->loss_probability(round);
  return std::clamp(1.0 - keep, 0.0, 1.0);
}

bool CompositeFault::has_byzantine() const {
  for (const auto& part : parts_) {
    if (part->has_byzantine()) return true;
  }
  return false;
}

bool CompositeFault::byzantine(std::uint32_t node) const {
  for (const auto& part : parts_) {
    if (part->byzantine(node)) return true;
  }
  return false;
}

Message CompositeFault::corrupt_response(std::uint64_t round, std::uint32_t responder,
                                         const Network& net,
                                         const Message& honest) const {
  // The first part claiming the responder supplies the corruption.
  for (const auto& part : parts_) {
    if (part->byzantine(responder)) {
      return part->corrupt_response(round, responder, net, honest);
    }
  }
  return honest;
}

const std::uint32_t* CompositeFault::partition_components(std::uint64_t round) const {
  // At most one part is expected to partition a given round; the first
  // non-null map wins (mirrors the first-byzantine-part convention above).
  for (const auto& part : parts_) {
    if (const std::uint32_t* map = part->partition_components(round)) return map;
  }
  return nullptr;
}

std::string CompositeFault::describe() const {
  std::string out;
  for (const auto& part : parts_) {
    if (!out.empty()) out += " + ";
    out += part->describe();
  }
  return out.empty() ? "composite()" : out;
}

}  // namespace gossip::sim
