#include "runner/scenario.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/math.hpp"
#include "core/schedules.hpp"

namespace gossip::runner {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

[[noreturn]] void bad_value(std::string_view key, std::string_view value,
                            const char* want) {
  std::ostringstream os;
  os << "bad value for '" << key << "': '" << value << "' (want " << want << ")";
  throw ScenarioError(os.str());
}

sim::FaultStrategy parse_strategy(std::string_view key, std::string_view value) {
  if (value == "random" || value == "random_subset") {
    return sim::FaultStrategy::kRandomSubset;
  }
  if (value == "smallest" || value == "smallest_ids") {
    return sim::FaultStrategy::kSmallestIds;
  }
  if (value == "stride" || value == "index_stride") {
    return sim::FaultStrategy::kIndexStride;
  }
  bad_value(key, value, "one of: random | smallest | stride");
}

/// Finite non-negative real (a per-round arrival rate; values >= 1 are
/// legitimate, e.g. "4 joins per round on average").
double parse_rate(std::string_view key, std::string_view value) {
  double d = 0.0;
  try {
    std::size_t used = 0;
    const std::string s(value);
    d = std::stod(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
  } catch (const std::exception&) {
    bad_value(key, value, "a non-negative real");
  }
  if (!std::isfinite(d) || d < 0.0 || d > 1e6) {
    bad_value(key, value, "a non-negative real (at most 1e6)");
  }
  return d;
}

/// Splits `s` on `sep` into trimmed non-owning pieces (empty pieces kept).
std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const auto pos = s.find(sep);
    out.push_back(trim(s.substr(0, pos)));
    if (pos == std::string_view::npos) break;
    s.remove_prefix(pos + 1);
  }
  return out;
}

/// "round:joins:crashes,..." -> events. Throws ScenarioError on shape
/// errors; shared by apply() (fail early) and make_fault_model().
std::vector<sim::ChurnEvent> parse_churn_script(std::string_view key,
                                                std::string_view value) {
  std::vector<sim::ChurnEvent> events;
  for (const std::string_view entry : split(value, ',')) {
    const std::vector<std::string_view> f = split(entry, ':');
    if (f.size() != 3) {
      bad_value(key, value, "a comma list of round:joins:crashes triples");
    }
    sim::ChurnEvent e;
    e.round = parse_count(key, f[0], 0, 1ull << 40);
    e.joins = static_cast<std::uint32_t>(parse_count(key, f[1], 0, 1u << 20));
    e.crashes = static_cast<std::uint32_t>(parse_count(key, f[2], 0, 1u << 20));
    if (e.joins == 0 && e.crashes == 0) {
      bad_value(key, value, "each triple to join or crash at least one node");
    }
    events.push_back(e);
  }
  if (events.empty()) bad_value(key, value, "at least one round:joins:crashes triple");
  return events;
}

/// "burst:p:from:until" | "ramp:p0:p1:rounds" | "periodic:p:period:duty".
/// The LossSchedule factories enforce the numeric constraints; their
/// ContractViolation is rethrown as a ScenarioError naming the key.
sim::LossSchedule parse_loss_schedule(std::string_view key, std::string_view value) {
  const std::vector<std::string_view> f = split(value, ':');
  try {
    if (f.size() == 4 && f[0] == "burst") {
      return sim::LossSchedule::burst(parse_fraction(key, f[1]),
                                      parse_count(key, f[2], 0, 1ull << 40),
                                      parse_count(key, f[3], 0, 1ull << 40));
    }
    if (f.size() == 4 && f[0] == "ramp") {
      return sim::LossSchedule::ramp(parse_fraction(key, f[1]),
                                     parse_fraction(key, f[2]),
                                     parse_count(key, f[3], 0, 1ull << 40));
    }
    if (f.size() == 4 && f[0] == "periodic") {
      return sim::LossSchedule::periodic(parse_fraction(key, f[1]),
                                         parse_count(key, f[2], 1, 1ull << 40),
                                         parse_count(key, f[3], 1, 1ull << 40));
    }
  } catch (const gossip::ContractViolation& e) {
    std::ostringstream os;
    os << "bad value for '" << key << "': " << e.what();
    throw ScenarioError(os.str());
  }
  bad_value(key, value,
            "burst:p:from:until | ramp:p0:p1:rounds | periodic:p:period:duty");
}

FaultModelKind parse_fault_model(std::string_view key, std::string_view value) {
  if (value == "auto") return FaultModelKind::kAuto;
  if (value == "none") return FaultModelKind::kNone;
  if (value == "static_crash" || value == "static") return FaultModelKind::kStaticCrash;
  if (value == "scheduled_crash" || value == "scheduled") {
    return FaultModelKind::kScheduledCrash;
  }
  if (value == "lossy") return FaultModelKind::kLossy;
  if (value == "composite") return FaultModelKind::kComposite;
  bad_value(key, value,
            "one of: auto | none | static_crash | scheduled_crash | lossy | composite");
}

}  // namespace

double parse_fraction(std::string_view key, std::string_view value) {
  double d = 0.0;
  try {
    std::size_t used = 0;
    const std::string s(value);
    d = std::stod(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
  } catch (const std::exception&) {
    bad_value(key, value, "a real number in [0, 1)");
  }
  // The range comparison alone would let NaN through (all comparisons false).
  if (!std::isfinite(d) || d < 0.0 || d >= 1.0) {
    bad_value(key, value, "a real number in [0, 1)");
  }
  return d;
}

std::uint64_t parse_count(std::string_view key, std::string_view value,
                        std::uint64_t min, std::uint64_t max) {
  std::uint64_t out = 0;
  try {
    std::size_t used = 0;
    const std::string s(value);
    if (s.empty() || s.front() == '-' || s.front() == '+') {
      throw std::invalid_argument(s);
    }
    if (s.find_first_of("eE.") != std::string::npos) {
      // Scientific/decimal notation (n = 1e6). Doubles are exact only up to
      // 2^53, and a value rounding up to exactly 2^64 would pass a
      // <= UINT64_MAX check (the max rounds UP in double) and then hit UB in
      // the cast - so bound by 2^53, plenty for any count written in e-form.
      const double d = std::stod(s, &used);
      if (used != s.size() || d < 0 || d != std::floor(d) ||
          d > 9007199254740992.0 /* 2^53 */) {
        throw std::invalid_argument(s);
      }
      out = static_cast<std::uint64_t>(d);
    } else {
      out = std::stoull(s, &used);  // exact for the full uint64 range
      if (used != s.size()) throw std::invalid_argument(s);
    }
  } catch (const std::exception&) {
    bad_value(key, value, "a non-negative integer");
  }
  if (out < min || out > max) {
    std::ostringstream os;
    os << "an integer in [" << min << ", " << max << "]";
    bad_value(key, value, os.str().c_str());
  }
  return out;
}

const char* strategy_key(sim::FaultStrategy s) noexcept {
  switch (s) {
    case sim::FaultStrategy::kRandomSubset: return "random";
    case sim::FaultStrategy::kSmallestIds: return "smallest";
    case sim::FaultStrategy::kIndexStride: return "stride";
  }
  return "?";
}

const char* fault_model_key(FaultModelKind kind) noexcept {
  switch (kind) {
    case FaultModelKind::kAuto: return "auto";
    case FaultModelKind::kNone: return "none";
    case FaultModelKind::kStaticCrash: return "static_crash";
    case FaultModelKind::kScheduledCrash: return "scheduled_crash";
    case FaultModelKind::kLossy: return "lossy";
    case FaultModelKind::kComposite: return "composite";
  }
  return "?";
}

std::uint32_t ScenarioSpec::fault_count() const noexcept {
  return static_cast<std::uint32_t>(
      std::llround(fault_fraction * static_cast<double>(n)));
}

bool ScenarioSpec::wants_telemetry() const noexcept {
  return !timeseries.empty() || !trace.empty() || !events.empty() ||
         !provenance.empty();
}

bool ScenarioSpec::has_churn() const noexcept {
  return join_rate > 0.0 || crash_rate > 0.0 || !churn_schedule.empty();
}

std::uint32_t ScenarioSpec::max_nodes() const {
  if (!has_churn()) return n;
  std::uint64_t joins = 0;
  if (!churn_schedule.empty()) {
    for (const sim::ChurnEvent& e : parse_churn_script("churn_schedule", churn_schedule)) {
      joins += e.joins;
    }
  } else if (join_rate > 0.0) {
    // Poisson arrivals: reserve twice the expectation over the run horizon
    // plus slack, so capacity exhaustion (joins silently dropped) is a tail
    // event, not the common case. Deterministic in the spec alone.
    const std::uint64_t horizon =
        max_rounds != 0 ? max_rounds : 10ull * ceil_log2(n) + 50;
    joins = static_cast<std::uint64_t>(
                std::ceil(2.0 * join_rate * static_cast<double>(horizon))) +
            16;
  }
  const std::uint64_t cap = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(n) + joins,
      std::numeric_limits<std::uint32_t>::max());
  return static_cast<std::uint32_t>(cap);
}

void ScenarioSpec::apply(std::string_view key, std::string_view value) {
  if (key == "name") {
    name = std::string(value);
  } else if (key == "algorithm") {
    algorithm = std::string(value);
  } else if (key == "n") {
    n = static_cast<std::uint32_t>(
        parse_count(key, value, 2, std::numeric_limits<std::uint32_t>::max()));
  } else if (key == "trials") {
    trials = static_cast<unsigned>(parse_count(key, value, 1, 1u << 20));
  } else if (key == "seed") {
    seed = parse_count(key, value, 0, std::numeric_limits<std::uint64_t>::max());
  } else if (key == "threads") {
    threads = static_cast<unsigned>(parse_count(key, value, 1, 256));
  } else if (key == "engine_threads") {
    engine_threads = static_cast<unsigned>(parse_count(key, value, 0, 256));
  } else if (key == "shard_size") {
    shard_size = static_cast<std::uint32_t>(parse_count(key, value, 0, 1u << 20));
  } else if (key == "rumor_bits") {
    rumor_bits = static_cast<std::uint32_t>(parse_count(key, value, 1, 1u << 30));
  } else if (key == "delta") {
    delta = parse_count(key, value, core::kCluster3MinDelta,
                        std::numeric_limits<std::uint64_t>::max());
  } else if (key == "max_rounds") {
    max_rounds = static_cast<unsigned>(parse_count(key, value, 0, 1u << 30));
  } else if (key == "fault_fraction") {
    fault_fraction = parse_fraction(key, value);
  } else if (key == "fault_strategy") {
    fault_strategy = parse_strategy(key, value);
  } else if (key == "crash_round") {
    // "pre_run" (or -1) restores the default, so a CLI flag can override a
    // scenario file's mid-run crash back to the legacy pre-run one.
    if (value == "pre_run" || value == "-1") {
      crash_round = kCrashPreRun;
    } else {
      crash_round = static_cast<std::int64_t>(parse_count(key, value, 0, 1u << 30));
    }
  } else if (key == "loss_prob") {
    loss_prob = parse_fraction(key, value);
  } else if (key == "fault_model") {
    fault_model = parse_fault_model(key, value);
  } else if (key == "join_rate") {
    join_rate = parse_rate(key, value);
  } else if (key == "crash_rate") {
    crash_rate = parse_rate(key, value);
  } else if (key == "churn_schedule") {
    if (value == "none" || value.empty()) {
      churn_schedule.clear();
    } else {
      (void)parse_churn_script(key, value);  // fail at parse time, not run time
      churn_schedule = std::string(value);
    }
  } else if (key == "loss_schedule") {
    if (value == "none" || value.empty()) {
      loss_schedule.clear();
    } else {
      (void)parse_loss_schedule(key, value);
      loss_schedule = std::string(value);
    }
  } else if (key == "byzantine_fraction") {
    byzantine_fraction = parse_fraction(key, value);
  } else if (key == "timeseries") {
    timeseries = value == "none" ? std::string() : std::string(value);
  } else if (key == "trace") {
    trace = value == "none" ? std::string() : std::string(value);
  } else if (key == "events") {
    events = value == "none" ? std::string() : std::string(value);
  } else if (key == "provenance") {
    provenance = value == "none" ? std::string() : std::string(value);
  } else if (key == "event_sample_cap") {
    // Zero would keep no samples at all while still counting totals - a
    // silent lie in the event log - so the floor is 1 (parse_count errors
    // on 0 and on anything non-numeric via the ScenarioError path).
    event_sample_cap = static_cast<unsigned>(parse_count(key, value, 1, 1u << 20));
  } else if (key == "progress") {
    if (value == "true" || value == "1") {
      progress = true;
    } else if (value == "false" || value == "0") {
      progress = false;
    } else {
      bad_value(key, value, "true | false | 1 | 0");
    }
  } else if (key == "recovery") {
    if (value == "true" || value == "1") {
      recovery = true;
    } else if (value == "false" || value == "0") {
      recovery = false;
    } else {
      bad_value(key, value, "true | false | 1 | 0");
    }
  } else if (key == "retry_budget") {
    retry_budget = static_cast<unsigned>(parse_count(key, value, 1, 64));
  } else if (key == "partition_round") {
    // "none" (or -1) restores the default, so a CLI flag can switch a
    // scenario file's partition back off.
    if (value == "none" || value == "-1") {
      partition_round = -1;
    } else {
      partition_round =
          static_cast<std::int64_t>(parse_count(key, value, 0, 1u << 30));
    }
  } else if (key == "heal_round") {
    if (value == "none" || value == "-1") {
      heal_round = -1;
    } else {
      heal_round = static_cast<std::int64_t>(parse_count(key, value, 1, 1u << 30));
    }
  } else if (key == "partition_parts") {
    partition_parts = static_cast<unsigned>(parse_count(key, value, 2, 1u << 20));
  } else {
    std::ostringstream os;
    os << "unknown scenario key: '" << key << "'";
    throw ScenarioError(os.str());
  }
}

void ScenarioSpec::validate() const {
  if (algorithm.empty()) throw ScenarioError("scenario has no algorithm");
  if (n < 2) throw ScenarioError("scenario needs n >= 2");
  if (trials < 1) throw ScenarioError("scenario needs trials >= 1");
  // The Cluster2/Cluster3 round schedules (core/schedules.hpp) are defined
  // only on these ranges; reject outside them here instead of tripping the
  // schedule's own precondition mid-trial.
  if ((algorithm == "cluster2" || algorithm == "cluster3_push_pull") &&
      n < core::kCluster2MinN) {
    std::ostringstream os;
    os << "algorithm '" << algorithm << "' needs n >= " << core::kCluster2MinN
       << " (its round schedule is undefined below that); got n = " << n;
    throw ScenarioError(os.str());
  }
  if (algorithm == "cluster3_push_pull" &&
      (delta < core::kCluster3MinDelta || delta > n)) {
    std::ostringstream os;
    os << "algorithm 'cluster3_push_pull' needs " << core::kCluster3MinDelta
       << " <= delta <= n; got delta = " << delta << ", n = " << n;
    throw ScenarioError(os.str());
  }
  if (fault_count() >= n) {
    throw ScenarioError("fault_fraction leaves no alive node");
  }
  if (!(loss_prob >= 0.0 && loss_prob < 1.0)) {
    throw ScenarioError("loss_prob must be in [0, 1)");
  }
  const bool has_crash = fault_count() > 0;
  const bool has_loss = loss_prob > 0.0;
  const bool scheduled = crash_round != kCrashPreRun;
  const bool has_churn_keys =
      has_churn() || byzantine_fraction > 0.0 || !loss_schedule.empty();
  if (!churn_schedule.empty() && (join_rate > 0.0 || crash_rate > 0.0)) {
    throw ScenarioError(
        "churn_schedule scripts exact events; it excludes join_rate/crash_rate");
  }
  if (has_churn_keys && fault_model != FaultModelKind::kAuto &&
      fault_model != FaultModelKind::kNone) {
    throw ScenarioError(
        "churn keys (join_rate/crash_rate/churn_schedule/loss_schedule/"
        "byzantine_fraction) compose only under fault_model = auto "
        "(or are silenced by none)");
  }
  const bool has_partition = partition_round >= 0 || heal_round >= 0;
  if (has_partition) {
    if (partition_round < 0 || heal_round < 0) {
      throw ScenarioError(
          "partition_round and heal_round must be set together "
          "(the partition window is [partition_round, heal_round))");
    }
    if (heal_round <= partition_round) {
      throw ScenarioError(
          "heal_round must be greater than partition_round "
          "(the window [partition_round, heal_round) would be empty)");
    }
    if (max_rounds != 0 && heal_round >= static_cast<std::int64_t>(max_rounds)) {
      throw ScenarioError(
          "heal_round must be below max_rounds, or the partition never heals "
          "within the run");
    }
    if (fault_model != FaultModelKind::kAuto && fault_model != FaultModelKind::kNone) {
      throw ScenarioError(
          "partition keys (partition_round/heal_round/partition_parts) compose "
          "only under fault_model = auto (or are silenced by none)");
    }
  } else if (partition_parts != 0) {
    throw ScenarioError(
        "partition_parts needs a partition window "
        "(set partition_round and heal_round)");
  }
  if (retry_budget != 0 && !recovery) {
    throw ScenarioError(
        "retry_budget configures the recovery supervisor; set recovery = true");
  }
  if (recovery && algorithm != "cluster1" && algorithm != "cluster2" &&
      algorithm != "cluster3_push_pull") {
    throw ScenarioError(
        "recovery = true needs a supervised cluster algorithm "
        "(one of: cluster1 | cluster2 | cluster3_push_pull); '" +
        algorithm + "' has no recovery hook");
  }
  switch (fault_model) {
    case FaultModelKind::kAuto:
      if (scheduled && !has_crash) {
        throw ScenarioError("crash_round is set but fault_fraction = 0 crashes nobody");
      }
      break;
    case FaultModelKind::kNone:
      break;  // explicit off-switch: other fault keys are deliberately inert
    case FaultModelKind::kStaticCrash:
      if (!has_crash) {
        throw ScenarioError("fault_model = static_crash needs fault_fraction > 0");
      }
      if (scheduled || has_loss) {
        throw ScenarioError(
            "fault_model = static_crash excludes crash_round/loss_prob "
            "(use scheduled_crash, lossy or composite)");
      }
      break;
    case FaultModelKind::kScheduledCrash:
      if (!has_crash || !scheduled) {
        throw ScenarioError(
            "fault_model = scheduled_crash needs fault_fraction > 0 and crash_round");
      }
      if (has_loss) {
        throw ScenarioError("fault_model = scheduled_crash excludes loss_prob "
                            "(use composite)");
      }
      break;
    case FaultModelKind::kLossy:
      if (!has_loss) throw ScenarioError("fault_model = lossy needs loss_prob > 0");
      if (has_crash || scheduled) {
        throw ScenarioError(
            "fault_model = lossy excludes fault_fraction/crash_round (use composite)");
      }
      break;
    case FaultModelKind::kComposite:
      if (!has_crash || !has_loss) {
        throw ScenarioError(
            "fault_model = composite needs both a crash component "
            "(fault_fraction > 0) and loss_prob > 0");
      }
      break;
  }
}

std::unique_ptr<sim::FaultModel> ScenarioSpec::make_fault_model() const {
  if (fault_model == FaultModelKind::kNone) return nullptr;
  // Parts compose in a fixed order (crash, churn, partition, flat loss, loss
  // schedule, byzantine) so the adversary stream is consumed identically no
  // matter which keys configured them.
  std::vector<std::unique_ptr<sim::FaultModel>> parts;
  if (const std::uint32_t f = fault_count(); f > 0) {
    if (crash_round != kCrashPreRun) {
      parts.push_back(std::make_unique<sim::ScheduledCrash>(
          static_cast<std::uint64_t>(crash_round), f, fault_strategy));
    } else {
      parts.push_back(std::make_unique<sim::StaticCrash>(f, fault_strategy));
    }
  }
  if (!churn_schedule.empty()) {
    parts.push_back(std::make_unique<sim::ChurnSchedule>(
        parse_churn_script("churn_schedule", churn_schedule)));
  } else if (join_rate > 0.0 || crash_rate > 0.0) {
    parts.push_back(std::make_unique<sim::ChurnSchedule>(join_rate, crash_rate));
  }
  if (partition_round >= 0 && heal_round > partition_round) {
    parts.push_back(std::make_unique<sim::PartitionFault>(
        static_cast<std::uint64_t>(partition_round),
        static_cast<std::uint64_t>(heal_round),
        partition_parts != 0 ? partition_parts : 2));
  }
  if (loss_prob > 0.0) parts.push_back(std::make_unique<sim::LossyChannel>(loss_prob));
  if (!loss_schedule.empty()) {
    parts.push_back(std::make_unique<sim::LossSchedule>(
        parse_loss_schedule("loss_schedule", loss_schedule)));
  }
  if (byzantine_fraction > 0.0) {
    parts.push_back(std::make_unique<sim::ByzantineResponder>(byzantine_fraction));
  }
  if (parts.empty()) return nullptr;
  if (parts.size() == 1) return std::move(parts.front());
  auto composite = std::make_unique<sim::CompositeFault>();
  for (auto& part : parts) composite->add(std::move(part));
  return composite;
}

std::string ScenarioSpec::fault_model_name() const {
  if (fault_model == FaultModelKind::kNone) return "none";
  std::string out;
  const auto append = [&out](std::string_view part) {
    if (!out.empty()) out += "+";
    out += part;
  };
  if (fault_count() > 0) {
    append(crash_round != kCrashPreRun ? "scheduled_crash" : "static_crash");
  }
  if (has_churn()) append("churn");
  if (partition_round >= 0 && heal_round > partition_round) append("partition");
  if (loss_prob > 0.0) append("lossy");
  if (!loss_schedule.empty()) {
    const std::string_view sv(loss_schedule);
    append(std::string("loss_") + std::string(sv.substr(0, sv.find(':'))));
  }
  if (byzantine_fraction > 0.0) append("byzantine");
  return out.empty() ? "none" : out;
}

ScenarioSpec ScenarioSpec::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ScenarioError("cannot open scenario file: " + path);
  ScenarioSpec spec;
  std::string line;
  unsigned line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv(line);
    if (const auto hash = sv.find('#'); hash != std::string_view::npos) {
      sv = sv.substr(0, hash);
    }
    sv = trim(sv);
    if (sv.empty()) continue;
    const auto eq = sv.find('=');
    if (eq == std::string_view::npos) {
      std::ostringstream os;
      os << path << ":" << line_no << ": expected 'key = value', got '" << sv << "'";
      throw ScenarioError(os.str());
    }
    try {
      spec.apply(trim(sv.substr(0, eq)), trim(sv.substr(eq + 1)));
    } catch (const ScenarioError& e) {
      std::ostringstream os;
      os << path << ":" << line_no << ": " << e.what();
      throw ScenarioError(os.str());
    }
  }
  return spec;
}

void ScenarioSpec::apply_cli(const std::vector<std::string>& flags) {
  for (const std::string& flag : flags) {
    std::string_view sv(flag);
    if (sv.rfind("--", 0) != 0) {
      throw ScenarioError("expected --key=value, got '" + flag + "'");
    }
    sv.remove_prefix(2);
    const auto eq = sv.find('=');
    if (eq == std::string_view::npos) {
      throw ScenarioError("expected --key=value, got '" + flag + "'");
    }
    apply(trim(sv.substr(0, eq)), trim(sv.substr(eq + 1)));
  }
}

const std::vector<std::string>& ScenarioSpec::keys() {
  static const std::vector<std::string> kKeys = {
      "name",       "algorithm",  "n",          "trials",
      "seed",       "threads",    "engine_threads", "shard_size",
      "rumor_bits",
      "delta",      "max_rounds", "fault_fraction", "fault_strategy",
      "crash_round", "loss_prob", "fault_model",
      "join_rate",  "crash_rate", "churn_schedule", "loss_schedule",
      "byzantine_fraction",
      "recovery",   "retry_budget", "partition_round", "heal_round",
      "partition_parts",
      "timeseries", "trace",      "events",         "provenance",
      "event_sample_cap", "progress",
  };
  return kKeys;
}

}  // namespace gossip::runner
