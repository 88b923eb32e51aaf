// Observability golden-content determinism (PR 7): the per-round time
// series and the structured event log collected on a churn + loss burst +
// byzantine scenario must be BIT-IDENTICAL - as serialised by the obs
// exporters, wall-clock fields excluded - across TrialRunner worker counts
// {1, 2, 8} x sharded engine thread counts {1, 2, 8}. Plus: the Chrome trace exporter must emit valid JSON with
// monotone per-track timestamps.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "runner/trial_runner.hpp"

namespace gossip::runner {
namespace {

ScenarioSpec telemetry_spec() {
  ScenarioSpec spec;
  spec.name = "obs-golden";
  spec.algorithm = "push_pull";
  spec.n = 256;
  spec.trials = 4;
  spec.seed = 11;
  spec.rumor_bits = 128;
  spec.join_rate = 0.8;                  // fresh arrivals most rounds
  spec.crash_rate = 0.4;                 // mid-run departures
  spec.loss_schedule = "burst:0.2:2:6";  // on a flaky fabric
  spec.byzantine_fraction = 0.05;        // with poisoned pull responses
  spec.timeseries = "armed";  // any non-empty path arms collection
  return spec;
}

/// The determinism-covered serialisation: time series without the
/// wall-clock *_ns fields, plus the full event log.
std::string golden(const ScenarioResult& result) {
  obs::ExportOptions opt;
  opt.timing = false;
  const auto views = result.telemetry_views();
  std::ostringstream os;
  obs::write_timeseries_jsonl(os, views, opt);
  obs::write_events_jsonl(os, views, opt);
  return os.str();
}

TEST(ChurnTelemetryGolden, CollectsEveryEventKindAndEveryRound) {
  const ScenarioResult result = TrialRunner(1).run(telemetry_spec());
  ASSERT_EQ(result.telemetry.size(), result.reports.size());
  for (std::size_t t = 0; t < result.telemetry.size(); ++t) {
    // One record per engine round, in round order.
    const auto& records = result.telemetry[t]->rounds.records();
    ASSERT_EQ(records.size(), result.reports[t].rounds) << "trial " << t;
    for (std::size_t r = 0; r < records.size(); ++r) {
      EXPECT_EQ(records[r].round, r) << "trial " << t;
    }
    // The push_pull baseline installs an informed-count probe; the final
    // record's count matches the report (the report re-counts alive-only,
    // so it can only be <= the raw counter).
    EXPECT_NE(records.back().informed, obs::kNoCount) << "trial " << t;
    EXPECT_GE(records.back().informed, result.reports[t].informed)
        << "trial " << t;
  }
  // The fault layer actually fed the log: every kind shows up somewhere.
  std::map<obs::EventKind, std::size_t> kinds;
  for (const auto& telemetry : result.telemetry) {
    for (const obs::Event& e : telemetry->events.events()) ++kinds[e.kind];
  }
  EXPECT_GT(kinds[obs::EventKind::kJoin], 0u);
  EXPECT_GT(kinds[obs::EventKind::kCrash], 0u);
  EXPECT_GT(kinds[obs::EventKind::kLossDrop], 0u);
  EXPECT_GT(kinds[obs::EventKind::kCorruptResponse], 0u);
}

TEST(ChurnTelemetryGolden, BitIdenticalAcrossWorkersAndThreads) {
  ScenarioSpec spec = telemetry_spec();
  spec.engine_threads = 1;
  const std::string base = golden(TrialRunner(1).run(spec));
  ASSERT_FALSE(base.empty());
  for (const unsigned workers : {1u, 2u, 8u}) {
    for (const unsigned engine_threads : {1u, 2u, 8u}) {
      ScenarioSpec alt = telemetry_spec();
      alt.engine_threads = engine_threads;
      EXPECT_EQ(golden(TrialRunner(workers).run(alt)), base)
          << "workers=" << workers << " engine_threads=" << engine_threads;
    }
  }
}

TEST(ChurnTelemetryGolden, PreRunCrashesLandAtRoundMinusOne) {
  ScenarioSpec spec;
  spec.name = "obs-prerun";
  spec.algorithm = "push_pull";
  spec.n = 128;
  spec.trials = 2;
  spec.seed = 5;
  spec.fault_fraction = 0.1;  // legacy pre-run StaticCrash
  spec.events = "armed";
  const ScenarioResult result = TrialRunner(1).run(spec);
  std::size_t prerun_crashes = 0;
  for (const auto& telemetry : result.telemetry) {
    for (const obs::Event& e : telemetry->events.events()) {
      ASSERT_EQ(e.kind, obs::EventKind::kCrash);
      EXPECT_EQ(e.round, obs::kPreRunRound);
      ++prerun_crashes;
    }
  }
  EXPECT_EQ(prerun_crashes, 2u * spec.fault_count());
}

// ---------------------------------------------------------------------------
// Chrome trace: valid JSON, monotone per-track timestamps.

/// Minimal recursive-descent JSON validator (structure only; enough to
/// guarantee chrome://tracing / Perfetto can parse the file).
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : s_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      pos_ += s_[pos_] == '\\' ? 2 : 1;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(TraceExport, EmitsValidJsonWithMonotoneTimestampsPerTrack) {
  ScenarioSpec spec = telemetry_spec();
  spec.trials = 3;
  const ScenarioResult result = TrialRunner(2).run(spec);
  std::ostringstream os;
  obs::write_chrome_trace(os, result.telemetry_views());
  const std::string trace = os.str();
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(JsonScanner(trace).valid()) << trace.substr(0, 200);

  // Every complete ("X") span carries its track in `tid` BEFORE `ts` (the
  // writer's fixed key order), so a forward scan pairs them up. Timestamps
  // must be monotone non-decreasing within each track.
  std::map<long, double> last_ts;
  std::size_t spans = 0;
  std::size_t pos = 0;
  while ((pos = trace.find("\"ph\":\"X\"", pos)) != std::string::npos) {
    const std::size_t tid_pos = trace.find("\"tid\":", pos);
    const std::size_t ts_pos = trace.find("\"ts\":", pos);
    ASSERT_NE(tid_pos, std::string::npos);
    ASSERT_NE(ts_pos, std::string::npos);
    ASSERT_LT(tid_pos, ts_pos) << "tid must precede ts in the span object";
    const long tid = std::stol(trace.substr(tid_pos + 6));
    const double ts = std::stod(trace.substr(ts_pos + 5));
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "track " << tid;
    }
    last_ts[tid] = ts;
    ++spans;
    pos = ts_pos;
  }
  // 3 phase spans per recorded round, one track per trial.
  std::size_t expected = 0;
  for (const auto& telemetry : result.telemetry) {
    expected += 3 * telemetry->rounds.records().size();
  }
  EXPECT_EQ(spans, expected);
  EXPECT_EQ(last_ts.size(), result.telemetry.size());
}

}  // namespace
}  // namespace gossip::runner
