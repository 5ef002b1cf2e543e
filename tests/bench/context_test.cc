// bench::Context: the one parser of the flags every bench shares. Each flag
// in its `--flag=V` and `--flag V` forms, pass-through of everything else,
// and exit 2 on a value the bench must not run with.
#include "src/bench/context.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/os/policy_registry.h"

namespace cxl::bench {
namespace {

// Owns mutable copies of the arguments, as main() receives them.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (std::string& s : storage) {
      ptrs.push_back(s.data());
    }
    ptrs.push_back(nullptr);
    argc = static_cast<int>(storage.size());
  }
  Context Parse() { return Context::FromArgs(&argc, ptrs.data()); }
  std::vector<std::string> Left() const { return {ptrs.begin(), ptrs.begin() + argc}; }

  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int argc = 0;
};

TEST(BenchTelemetryTest, NoFlagsMeansDisabledNullSink) {
  Argv a({"bench", "--jobs", "4"});
  Context ctx = a.Parse();
  EXPECT_FALSE(ctx.telemetry().enabled());
  EXPECT_EQ(ctx.sink(), nullptr);
  EXPECT_EQ(ctx.jobs(), 4);
  EXPECT_EQ(a.Left(), std::vector<std::string>{"bench"});
}

TEST(BenchTelemetryTest, StripsEqualsAndSeparateForms) {
  Argv a({"bench", "--metrics-out=m.json", "--trace-out", "t.json", "--bench-json=b.json",
          "--events-out", "e.jsonl", "--events-ring=64", "--jobs", "2", "--keep"});
  Context ctx = a.Parse();
  const telemetry::BenchOutputs& out = ctx.telemetry().outputs();
  EXPECT_TRUE(ctx.telemetry().enabled());
  EXPECT_NE(ctx.sink(), nullptr);
  EXPECT_EQ(out.metrics_path, "m.json");
  EXPECT_EQ(out.trace_path, "t.json");
  EXPECT_EQ(out.bench_json_path, "b.json");
  EXPECT_EQ(out.events_path, "e.jsonl");
  EXPECT_EQ(out.events_ring, 64u);
  EXPECT_EQ(ctx.jobs(), 2);
  EXPECT_EQ(a.Left(), (std::vector<std::string>{"bench", "--keep"}));
}

TEST(ContextTest, NoFlagsIsInert) {
  Argv a({"bench"});
  Context ctx = a.Parse();
  EXPECT_EQ(ctx.jobs(), 0);
  EXPECT_EQ(ctx.profiler(), nullptr);
  EXPECT_FALSE(ctx.faults_enabled());
  EXPECT_EQ(ctx.fault_seed(), 1u);
  EXPECT_TRUE(ctx.fault_tunables() == fault::FaultTunables{});
  EXPECT_EQ(ctx.tiering_policy(), "");
  EXPECT_EQ(ctx.telemetry().outputs().events_ring, 0u);
  EXPECT_EQ(a.Left(), std::vector<std::string>{"bench"});
}

// Every shared flag, once with `=` and once with its value as the next
// argument, parses to the same context.
TEST(ContextTest, EqualsAndSeparateFormsAgree) {
  const std::vector<std::pair<std::string, std::string>> flags = {
      {"--jobs", "3"},
      {"--metrics-out", "m.csv"},
      {"--trace-out", "t.json"},
      {"--bench-json", "b.json"},
      {"--events-out", "e.jsonl"},
      {"--events-ring", "128"},
      {"--tiering-policy", "tpp-like"},
      {"--faults", "downtrain@2+3=8"},
      {"--fault-seed", "7"},
      {"--fault-knob", "fault.backoff_max_ticks=16"},
  };
  std::vector<std::string> joined = {"bench"};
  std::vector<std::string> separate = {"bench"};
  for (const auto& [flag, value] : flags) {
    joined.push_back(flag + "=" + value);
    separate.push_back(flag);
    separate.push_back(value);
  }
  for (auto* args : {&joined, &separate}) {
    Argv a(*args);
    Context ctx = a.Parse();
    const telemetry::BenchOutputs& out = ctx.telemetry().outputs();
    EXPECT_EQ(ctx.jobs(), 3);
    EXPECT_EQ(out.metrics_path, "m.csv");
    EXPECT_EQ(out.trace_path, "t.json");
    EXPECT_EQ(out.bench_json_path, "b.json");
    EXPECT_EQ(out.events_path, "e.jsonl");
    EXPECT_EQ(out.events_ring, 128u);
    EXPECT_EQ(ctx.tiering_policy(), "tpp-like");
    ASSERT_TRUE(ctx.faults_enabled());
    EXPECT_EQ(ctx.faults().ToString(), "downtrain@2+3=8");
    EXPECT_EQ(ctx.fault_seed(), 7u);
    EXPECT_EQ(ctx.fault_tunables().backoff_max_ticks, 16);
    EXPECT_EQ(a.Left(), std::vector<std::string>{"bench"});
  }
}

TEST(ContextTest, UnknownArgumentsStayInOrder) {
  Argv a({"bench", "first", "--metrics-out", "m.json", "--unknown=1", "-j", "2", "-x",
          "--profile-epochs", "--faults-not-a-flag", "--events-ringo", "last"});
  Context ctx = a.Parse();
  EXPECT_EQ(ctx.jobs(), 2);
  EXPECT_NE(ctx.profiler(), nullptr);
  EXPECT_EQ(ctx.telemetry().outputs().metrics_path, "m.json");
  EXPECT_EQ(a.Left(), (std::vector<std::string>{"bench", "first", "--unknown=1", "-x",
                                                "--faults-not-a-flag", "--events-ringo",
                                                "last"}));
}

TEST(ContextTest, FaultKnobsApplyInOrder) {
  Argv a({"bench", "--fault-knob", "fault.shed_arm_epochs=3",
          "--fault-knob=fault.shed_fraction=0.5", "--fault-knob", "fault.shed_arm_epochs=5"});
  Context ctx = a.Parse();
  fault::FaultTunables expected;
  expected.shed_arm_epochs = 5;
  expected.shed_fraction = 0.5;
  EXPECT_TRUE(ctx.fault_tunables() == expected);
}

// The accepted values of the SetFaultTunable tables reach the context
// unchanged through the flag.
TEST(ContextTest, FaultKnobFlagAcceptsWhatSetFaultTunableAccepts) {
  const std::vector<std::pair<std::string, double>> knobs = {
      {"fault.poison_read_retries", 0.0},
      {"fault.shed_arm_epochs", 2147483647.0},
      {"fault.shed_fraction", 1e-19},
      {"fault.shed_fraction", 0.0},
      {"fault.spark_fetch_failure_probability", 1.0},
      {"fault.llm_batch_shrink_threshold", 0.0},
      {"fault.flash_timeout_factor", 2.5},
  };
  for (const auto& [key, value] : knobs) {
    char text[64];
    std::snprintf(text, sizeof(text), "%s=%.17g", key.c_str(), value);
    Argv a({"bench", "--fault-knob", text});
    Context ctx = a.Parse();
    fault::FaultTunables expected;
    ASSERT_TRUE(fault::SetFaultTunable(&expected, key, value).ok()) << text;
    EXPECT_TRUE(ctx.fault_tunables() == expected) << text;
  }
}

TEST(ContextTest, EveryBuiltInPolicyNameIsAccepted) {
  for (const std::string& name : os::TieringPolicyNames()) {
    Argv a({"bench", "--tiering-policy", name});
    EXPECT_EQ(a.Parse().tiering_policy(), name);
  }
}

using ContextDeathTest = ::testing::Test;

void ExpectUsageExit(std::vector<std::string> args, const std::string& stderr_regex) {
  args.insert(args.begin(), "bench");
  Argv a(std::move(args));
  EXPECT_EXIT(a.Parse(), ::testing::ExitedWithCode(2), stderr_regex);
}

TEST_F(ContextDeathTest, MalformedEventsRingExits2) {
  for (const char* bad : {"abc", "-1", "12x", "1e3", "+5", "18446744073709551616"}) {
    ExpectUsageExit({"--events-ring", bad}, "bench: bad --events-ring value: ");
    ExpectUsageExit({std::string("--events-ring=") + bad}, "bench: bad --events-ring value: ");
  }
}

TEST_F(ContextDeathTest, MissingValueExits2) {
  for (const char* flag : {"--metrics-out", "--trace-out", "--bench-json", "--events-out",
                           "--events-ring", "--tiering-policy", "--faults", "--fault-seed",
                           "--fault-knob"}) {
    ExpectUsageExit({"--keep", flag}, std::string("bench: missing value for ") + flag);
  }
}

TEST_F(ContextDeathTest, MalformedFaultSeedExits2) {
  for (const char* bad : {"abc", "-1", "7.5", "18446744073709551616"}) {
    ExpectUsageExit({"--fault-seed", bad}, "bench: bad --fault-seed value: ");
  }
}

TEST_F(ContextDeathTest, MalformedFaultKnobExits2) {
  ExpectUsageExit({"--fault-knob", "fault.shed_fraction"}, "want KEY=VALUE");
  ExpectUsageExit({"--fault-knob", "=0.5"}, "want KEY=VALUE");
  ExpectUsageExit({"--fault-knob", "fault.shed_fraction=half"}, "bad --fault-knob value");
  ExpectUsageExit({"--fault-knob", "fault.bogus=1"}, "unknown fault knob \"fault.bogus\"");
  // The SetFaultTunable rejections, with the key named.
  const std::vector<std::pair<std::string, std::string>> rejected = {
      {"fault.backoff_max_ticks", "1e12"},
      {"fault.poison_read_retries", "2147483648"},
      {"fault.shed_arm_epochs", "-1"},
      {"fault.spark_shuffle_partitions", "2.5"},
      {"fault.shed_fraction", "1.5"},
      {"fault.spark_fetch_failure_probability", "-0.01"},
      {"fault.shed_fraction", "1e-300"},
      {"fault.flash_timeout_factor", "inf"},
      {"fault.llm_latency_slo_factor", "nan"},
  };
  for (const auto& [key, value] : rejected) {
    ExpectUsageExit({"--fault-knob", key + "=" + value}, "bench: bad --fault-knob: " + key);
  }
}

TEST_F(ContextDeathTest, UnknownTieringPolicyExits2) {
  ExpectUsageExit({"--tiering-policy", "nope"},
                  "unknown --tiering-policy \"nope\" \\(known: adaptive-feedback, "
                  "hot-page-selection, mru-balancing, tpp-like\\)");
  ExpectUsageExit({"--tiering-policy=Hot-Page-Selection"}, "unknown --tiering-policy");
}

}  // namespace
}  // namespace cxl::bench
