// ScenarioSpec parsing: key=value files, CLI flag overrides, strict errors
// (unknown keys / bad values throw ScenarioError), validate()'s input
// ranges, and the registry lookup.
#include "runner/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "runner/registry.hpp"
#include "runner/trial_runner.hpp"

namespace gossip::runner {
namespace {

std::string write_temp(const std::string& name, const std::string& contents) {
  const std::string path = testing::TempDir() + name;
  std::ofstream f(path);
  f << contents;
  return path;
}

TEST(ScenarioSpec, ParsesFileWithCommentsAndWhitespace) {
  const std::string path = write_temp("scenario_parse.scn",
                                      "# full-line comment\n"
                                      "algorithm = cluster2\n"
                                      "\n"
                                      "n=4096   # trailing comment\n"
                                      "trials = 12\n"
                                      "seed\t=\t99\n"
                                      "fault_fraction = 0.25\n"
                                      "fault_strategy = smallest\n");
  const ScenarioSpec spec = ScenarioSpec::from_file(path);
  EXPECT_EQ(spec.algorithm, "cluster2");
  EXPECT_EQ(spec.n, 4096u);
  EXPECT_EQ(spec.trials, 12u);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_DOUBLE_EQ(spec.fault_fraction, 0.25);
  EXPECT_EQ(spec.fault_strategy, sim::FaultStrategy::kSmallestIds);
  EXPECT_EQ(spec.fault_count(), 1024u);
}

TEST(ScenarioSpec, CliFlagsOverrideFile) {
  const std::string path =
      write_temp("scenario_override.scn", "algorithm = push\nn = 512\ntrials = 4\n");
  ScenarioSpec spec = ScenarioSpec::from_file(path);
  spec.apply_cli({"--n=2048", "--threads=8"});
  EXPECT_EQ(spec.algorithm, "push");  // from the file
  EXPECT_EQ(spec.n, 2048u);           // overridden
  EXPECT_EQ(spec.threads, 8u);
  EXPECT_EQ(spec.trials, 4u);
}

TEST(ScenarioSpec, ScientificNotationCounts) {
  ScenarioSpec spec;
  spec.apply("n", "1e6");
  EXPECT_EQ(spec.n, 1000000u);
}

TEST(ScenarioSpec, PlainIntegersAreExactForTheFullSeedRange) {
  ScenarioSpec spec;
  // Values above 2^53 must not round-trip through double.
  spec.apply("seed", "18446744073709551615");
  EXPECT_EQ(spec.seed, 18446744073709551615ULL);
  spec.apply("seed", "9007199254740993");  // 2^53 + 1
  EXPECT_EQ(spec.seed, 9007199254740993ULL);
  // Scientific notation beyond double's exact-integer range is rejected
  // instead of silently rounded.
  EXPECT_THROW(spec.apply("seed", "1e19"), ScenarioError);
}

TEST(ScenarioSpec, UnknownKeyThrows) {
  ScenarioSpec spec;
  EXPECT_THROW(spec.apply("algorthm", "cluster2"), ScenarioError);
  EXPECT_THROW(spec.apply_cli({"--not-a-key=1"}), ScenarioError);
  EXPECT_THROW(spec.apply_cli({"--n"}), ScenarioError);      // missing =value
  EXPECT_THROW(spec.apply_cli({"n=1024"}), ScenarioError);   // missing --
  // Retired with receiver-bucketed delivery: old scenario files must fail
  // loudly rather than silently ignore the line.
  try {
    spec.apply("delivery_buckets", "64");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown scenario key"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioSpec, BadValuesThrow) {
  ScenarioSpec spec;
  EXPECT_THROW(spec.apply("n", "abc"), ScenarioError);
  EXPECT_THROW(spec.apply("n", "1"), ScenarioError);          // n >= 2
  EXPECT_THROW(spec.apply("n", "1.5"), ScenarioError);        // not integral
  EXPECT_THROW(spec.apply("n", "-4"), ScenarioError);         // negative
  EXPECT_THROW(spec.apply("n", "64x"), ScenarioError);        // trailing junk
  EXPECT_THROW(spec.apply("trials", "0"), ScenarioError);
  EXPECT_THROW(spec.apply("threads", "0"), ScenarioError);
  EXPECT_THROW(spec.apply("delta", "8"), ScenarioError);      // delta >= 16
  EXPECT_THROW(spec.apply("fault_fraction", "1.0"), ScenarioError);
  EXPECT_THROW(spec.apply("fault_fraction", "-0.1"), ScenarioError);
  EXPECT_THROW(spec.apply("fault_fraction", "nan"), ScenarioError);
  EXPECT_THROW(spec.apply("fault_fraction", "inf"), ScenarioError);
  EXPECT_THROW(spec.apply("fault_strategy", "malicious"), ScenarioError);
}

TEST(ScenarioSpec, ShardSizeKey) {
  ScenarioSpec spec;
  spec.apply("shard_size", "4096");
  EXPECT_EQ(spec.shard_size, 4096u);
  spec.apply_cli({"--shard_size=128"});
  EXPECT_EQ(spec.shard_size, 128u);
  EXPECT_THROW(spec.apply("shard_size", "2e6"), ScenarioError);  // > 2^20
}

TEST(ScenarioSpec, MalformedFileLineReportsLineNumber) {
  const std::string path =
      write_temp("scenario_bad.scn", "algorithm = push\nthis line has no equals\n");
  try {
    (void)ScenarioSpec::from_file(path);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos) << e.what();
  }
}

TEST(ScenarioSpec, MissingFileThrows) {
  EXPECT_THROW((void)ScenarioSpec::from_file("/nonexistent/path.scn"), ScenarioError);
}

TEST(ScenarioSpec, ParsesFaultModelKeys) {
  const std::string path = write_temp("scenario_fault.scn",
                                      "algorithm = push_pull\n"
                                      "n = 512\n"
                                      "fault_fraction = 0.1\n"
                                      "crash_round = 4\n"
                                      "loss_prob = 0.2\n"
                                      "fault_model = auto\n");
  ScenarioSpec spec = ScenarioSpec::from_file(path);
  EXPECT_EQ(spec.crash_round, 4);
  EXPECT_DOUBLE_EQ(spec.loss_prob, 0.2);
  EXPECT_EQ(spec.fault_model, FaultModelKind::kAuto);
  spec.apply_cli({"--crash_round=7", "--loss_prob=0.05"});  // flags override
  EXPECT_EQ(spec.crash_round, 7);
  EXPECT_DOUBLE_EQ(spec.loss_prob, 0.05);
}

TEST(ScenarioSpec, FaultModelValueSpellings) {
  ScenarioSpec spec;
  spec.apply("fault_model", "none");
  EXPECT_EQ(spec.fault_model, FaultModelKind::kNone);
  spec.apply("fault_model", "static_crash");
  EXPECT_EQ(spec.fault_model, FaultModelKind::kStaticCrash);
  spec.apply("fault_model", "static");
  EXPECT_EQ(spec.fault_model, FaultModelKind::kStaticCrash);
  spec.apply("fault_model", "scheduled_crash");
  EXPECT_EQ(spec.fault_model, FaultModelKind::kScheduledCrash);
  spec.apply("fault_model", "lossy");
  EXPECT_EQ(spec.fault_model, FaultModelKind::kLossy);
  spec.apply("fault_model", "composite");
  EXPECT_EQ(spec.fault_model, FaultModelKind::kComposite);
  for (const auto kind :
       {FaultModelKind::kAuto, FaultModelKind::kNone, FaultModelKind::kStaticCrash,
        FaultModelKind::kScheduledCrash, FaultModelKind::kLossy,
        FaultModelKind::kComposite}) {
    spec.apply("fault_model", fault_model_key(kind));
    EXPECT_EQ(spec.fault_model, kind);
  }
}

TEST(ScenarioSpec, UnknownFaultModelListsTheValidChoices) {
  ScenarioSpec spec;
  try {
    spec.apply("fault_model", "byzantine");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    for (const char* choice :
         {"auto", "none", "static_crash", "scheduled_crash", "lossy", "composite"}) {
      EXPECT_NE(msg.find(choice), std::string::npos)
          << "'" << choice << "' missing from: " << msg;
    }
    EXPECT_NE(msg.find("byzantine"), std::string::npos) << msg;
  }
}

TEST(ScenarioSpec, UnknownFaultStrategyListsTheValidChoices) {
  ScenarioSpec spec;
  try {
    spec.apply("fault_strategy", "malicious");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    for (const char* choice : {"random", "smallest", "stride"}) {
      EXPECT_NE(msg.find(choice), std::string::npos)
          << "'" << choice << "' missing from: " << msg;
    }
    EXPECT_NE(msg.find("malicious"), std::string::npos) << msg;
  }
}

TEST(ScenarioSpec, BadFaultValuesThrow) {
  ScenarioSpec spec;
  EXPECT_THROW(spec.apply("loss_prob", "1.0"), ScenarioError);
  EXPECT_THROW(spec.apply("loss_prob", "-0.1"), ScenarioError);
  EXPECT_THROW(spec.apply("loss_prob", "nan"), ScenarioError);
  EXPECT_THROW(spec.apply("crash_round", "-2"), ScenarioError);
  EXPECT_THROW(spec.apply("crash_round", "abc"), ScenarioError);
}

TEST(ScenarioSpec, CrashRoundCanBeResetToPreRunByAFlag) {
  // Flags win over the scenario file for every key - including restoring
  // crash_round's pre-run default over a file that set a mid-run crash.
  ScenarioSpec spec;
  spec.apply("crash_round", "4");
  EXPECT_EQ(spec.crash_round, 4);
  spec.apply_cli({"--crash_round=pre_run"});
  EXPECT_EQ(spec.crash_round, ScenarioSpec::kCrashPreRun);
  spec.apply("crash_round", "4");
  spec.apply("crash_round", "-1");  // spelled as the echoed JSON value
  EXPECT_EQ(spec.crash_round, ScenarioSpec::kCrashPreRun);
}

TEST(ScenarioSpec, ValidateEnforcesFaultModelShapes) {
  const auto valid_base = [] {
    ScenarioSpec spec;
    spec.algorithm = "push_pull";
    spec.n = 256;
    return spec;
  };
  {
    ScenarioSpec spec = valid_base();
    spec.crash_round = 3;  // crash_round without a crash set
    EXPECT_THROW(spec.validate(), ScenarioError);
    spec.fault_fraction = 0.1;
    EXPECT_NO_THROW(spec.validate());
  }
  {
    ScenarioSpec spec = valid_base();
    spec.fault_model = FaultModelKind::kStaticCrash;
    EXPECT_THROW(spec.validate(), ScenarioError);  // needs fault_fraction
    spec.fault_fraction = 0.1;
    EXPECT_NO_THROW(spec.validate());
    spec.loss_prob = 0.2;  // static_crash excludes loss
    EXPECT_THROW(spec.validate(), ScenarioError);
  }
  {
    ScenarioSpec spec = valid_base();
    spec.fault_model = FaultModelKind::kScheduledCrash;
    spec.fault_fraction = 0.1;
    EXPECT_THROW(spec.validate(), ScenarioError);  // needs crash_round
    spec.crash_round = 2;
    EXPECT_NO_THROW(spec.validate());
  }
  {
    ScenarioSpec spec = valid_base();
    spec.fault_model = FaultModelKind::kLossy;
    EXPECT_THROW(spec.validate(), ScenarioError);  // needs loss_prob
    spec.loss_prob = 0.3;
    EXPECT_NO_THROW(spec.validate());
    spec.fault_fraction = 0.1;  // lossy excludes a crash component
    EXPECT_THROW(spec.validate(), ScenarioError);
  }
  {
    ScenarioSpec spec = valid_base();
    spec.fault_model = FaultModelKind::kComposite;
    spec.fault_fraction = 0.1;
    EXPECT_THROW(spec.validate(), ScenarioError);  // needs loss too
    spec.loss_prob = 0.3;
    EXPECT_NO_THROW(spec.validate());
  }
  {
    ScenarioSpec spec = valid_base();  // kNone ignores the other fault keys
    spec.fault_model = FaultModelKind::kNone;
    spec.fault_fraction = 0.1;
    spec.crash_round = 2;
    spec.loss_prob = 0.5;
    EXPECT_NO_THROW(spec.validate());
  }
}

TEST(ScenarioSpec, FaultModelNameResolvesTheComposition) {
  ScenarioSpec spec;
  EXPECT_EQ(spec.fault_model_name(), "none");
  spec.fault_fraction = 0.1;
  spec.n = 512;
  EXPECT_EQ(spec.fault_model_name(), "static_crash");
  spec.crash_round = 4;
  EXPECT_EQ(spec.fault_model_name(), "scheduled_crash");
  spec.loss_prob = 0.2;
  EXPECT_EQ(spec.fault_model_name(), "scheduled_crash+lossy");
  spec.fault_fraction = 0.0;
  spec.crash_round = ScenarioSpec::kCrashPreRun;
  EXPECT_EQ(spec.fault_model_name(), "lossy");
  spec.fault_model = FaultModelKind::kNone;
  EXPECT_EQ(spec.fault_model_name(), "none");
}

TEST(ScenarioSpec, MakeFaultModelBuildsTheRightShape) {
  ScenarioSpec spec;
  spec.n = 512;
  EXPECT_EQ(spec.make_fault_model(), nullptr);  // fault-free

  spec.fault_fraction = 0.1;
  auto static_model = spec.make_fault_model();
  ASSERT_NE(static_model, nullptr);
  EXPECT_NE(static_model->describe().find("static_crash"), std::string::npos);

  spec.crash_round = 3;
  spec.loss_prob = 0.25;
  auto combo = spec.make_fault_model();
  ASSERT_NE(combo, nullptr);
  EXPECT_NE(combo->describe().find("scheduled_crash"), std::string::npos);
  EXPECT_NE(combo->describe().find("lossy"), std::string::npos);
  EXPECT_DOUBLE_EQ(combo->loss_probability(0), 0.25);

  spec.fault_model = FaultModelKind::kNone;  // off-switch wins
  EXPECT_EQ(spec.make_fault_model(), nullptr);
}

TEST(ScenarioSpec, ParsesRecoveryAndPartitionKeys) {
  ScenarioSpec spec;
  spec.apply("recovery", "true");
  spec.apply("retry_budget", "5");
  spec.apply("partition_round", "10");
  spec.apply("heal_round", "40");
  spec.apply("partition_parts", "3");
  EXPECT_TRUE(spec.recovery);
  EXPECT_EQ(spec.retry_budget, 5u);
  EXPECT_EQ(spec.partition_round, 10);
  EXPECT_EQ(spec.heal_round, 40);
  EXPECT_EQ(spec.partition_parts, 3u);
  // Flag-style resets mirror crash_round: "none" (or -1) re-disarms.
  spec.apply("partition_round", "none");
  spec.apply("heal_round", "-1");
  spec.apply("recovery", "0");
  EXPECT_EQ(spec.partition_round, -1);
  EXPECT_EQ(spec.heal_round, -1);
  EXPECT_FALSE(spec.recovery);
  EXPECT_THROW(spec.apply("partition_parts", "1"), ScenarioError);  // min 2
  EXPECT_THROW(spec.apply("retry_budget", "0"), ScenarioError);
  EXPECT_THROW(spec.apply("recovery", "maybe"), ScenarioError);
}

TEST(ScenarioSpec, ValidateCrossChecksTheRecoveryKeys) {
  const auto valid_base = [] {
    ScenarioSpec spec;
    spec.algorithm = "cluster1";
    spec.n = 256;
    return spec;
  };
  {
    ScenarioSpec spec = valid_base();  // a partition window must be a pair
    spec.partition_round = 10;
    EXPECT_THROW(spec.validate(), ScenarioError);
    spec.heal_round = 40;
    EXPECT_NO_THROW(spec.validate());
  }
  {
    ScenarioSpec spec = valid_base();
    spec.heal_round = 40;  // heal without a split
    EXPECT_THROW(spec.validate(), ScenarioError);
  }
  {
    ScenarioSpec spec = valid_base();  // the window must be non-empty
    spec.partition_round = 40;
    spec.heal_round = 40;
    EXPECT_THROW(spec.validate(), ScenarioError);
  }
  {
    ScenarioSpec spec = valid_base();  // ... and must heal before the cap
    spec.partition_round = 10;
    spec.heal_round = 40;
    spec.max_rounds = 40;
    EXPECT_THROW(spec.validate(), ScenarioError);
    spec.max_rounds = 41;
    EXPECT_NO_THROW(spec.validate());
  }
  {
    ScenarioSpec spec = valid_base();  // parts need a window to act on
    spec.partition_parts = 4;
    EXPECT_THROW(spec.validate(), ScenarioError);
  }
  {
    ScenarioSpec spec = valid_base();  // a budget needs a supervisor
    spec.retry_budget = 2;
    EXPECT_THROW(spec.validate(), ScenarioError);
    spec.recovery = true;
    EXPECT_NO_THROW(spec.validate());
  }
  {
    ScenarioSpec spec = valid_base();  // supervisor needs a cluster algorithm
    spec.algorithm = "push_pull";
    spec.recovery = true;
    try {
      spec.validate();
      FAIL() << "expected ScenarioError";
    } catch (const ScenarioError& e) {
      // The message lists the supervised choices, fault_model-style.
      EXPECT_NE(std::string(e.what()).find("cluster1"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("cluster3_push_pull"), std::string::npos);
    }
    spec.algorithm = "cluster2";
    EXPECT_NO_THROW(spec.validate());
  }
  {
    ScenarioSpec spec = valid_base();  // partitions ride the auto composition
    spec.partition_round = 10;
    spec.heal_round = 40;
    spec.fault_model = FaultModelKind::kLossy;
    spec.loss_prob = 0.1;
    EXPECT_THROW(spec.validate(), ScenarioError);
  }
}

TEST(ScenarioSpec, PartitionJoinsTheFaultComposition) {
  ScenarioSpec spec;
  spec.n = 256;
  spec.partition_round = 10;
  spec.heal_round = 40;
  EXPECT_EQ(spec.fault_model_name(), "partition");
  auto model = spec.make_fault_model();
  ASSERT_NE(model, nullptr);
  EXPECT_NE(model->describe().find("partition(parts=2"), std::string::npos);

  spec.fault_fraction = 0.1;
  spec.crash_round = 4;
  spec.partition_parts = 3;
  EXPECT_EQ(spec.fault_model_name(), "scheduled_crash+partition");
  auto combo = spec.make_fault_model();
  ASSERT_NE(combo, nullptr);
  EXPECT_NE(combo->describe().find("partition(parts=3"), std::string::npos);
  EXPECT_NE(combo->describe().find("scheduled_crash"), std::string::npos);
}

TEST(ScenarioSpec, StrategyKeysRoundTrip) {
  for (const auto s :
       {sim::FaultStrategy::kRandomSubset, sim::FaultStrategy::kSmallestIds,
        sim::FaultStrategy::kIndexStride}) {
    ScenarioSpec spec;
    spec.apply("fault_strategy", strategy_key(s));
    EXPECT_EQ(spec.fault_strategy, s);
  }
}

// Inputs outside a round schedule's range (core/schedules.hpp) are usage
// errors naming the valid range, not contract violations mid-trial.
TEST(ScenarioSpec, ValidateRejectsInputsOutsideTheScheduleRanges) {
  const auto error_of = [](const ScenarioSpec& spec) -> std::string {
    try {
      spec.validate();
    } catch (const ScenarioError& e) {
      return e.what();
    }
    return "";
  };
  ScenarioSpec spec;
  spec.algorithm = "cluster2";
  spec.n = 8;
  EXPECT_NE(error_of(spec).find("n >= 16"), std::string::npos) << error_of(spec);
  spec.n = 16;
  EXPECT_EQ(error_of(spec), "");

  spec.algorithm = "cluster3_push_pull";
  spec.n = 500;  // default delta = 1024 > n
  EXPECT_NE(error_of(spec).find("16 <= delta <= n"), std::string::npos)
      << error_of(spec);
  spec.delta = 500;
  EXPECT_EQ(error_of(spec), "");
  spec.delta = 8;  // below the schedule's minimum, set in code, not parsed
  EXPECT_NE(error_of(spec).find("16 <= delta <= n"), std::string::npos)
      << error_of(spec);
  spec.n = 15;
  spec.delta = 16;
  EXPECT_NE(error_of(spec).find("n >= 16"), std::string::npos) << error_of(spec);
}

// Every spec validate() accepts runs to a verdict: bad inputs are rejected
// up front with a ScenarioError, never by an internal contract check.
TEST(Registry, EveryAlgorithmRunsOrIsRejectedUpFront) {
  std::vector<std::uint32_t> sizes;
  for (std::uint32_t n = 2; n <= 16; ++n) sizes.push_back(n);
  sizes.push_back(100);
  sizes.push_back(1023);
  for (const AlgorithmEntry& e : algorithms()) {
    for (const std::uint32_t n : sizes) {
      ScenarioSpec spec;
      spec.algorithm = e.id;
      spec.n = n;
      spec.trials = 1;  // membership's auto horizon makes n = 1023 the slow cell
      try {
        spec.validate();
      } catch (const ScenarioError&) {
        continue;
      }
      EXPECT_NO_THROW((void)run_scenario(spec)) << e.id << " n=" << n;
    }
  }
}

TEST(Registry, FindsEveryIdAndRejectsUnknown) {
  EXPECT_GE(algorithms().size(), 8u);
  for (const AlgorithmEntry& e : algorithms()) {
    EXPECT_EQ(find_algorithm(e.id), &e);
  }
  EXPECT_EQ(find_algorithm("nope"), nullptr);
  EXPECT_THROW((void)require_algorithm("nope"), ScenarioError);
}

}  // namespace
}  // namespace gossip::runner
