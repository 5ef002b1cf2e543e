// Unit tests for the fault-injection engine: plan builders and the spec
// grammar, window aggregation in the injector, the §3.4-derived degraded
// link math, per-op sampling discipline, and the fault.* knob surface.
#include "src/fault/fault.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/bench/context.h"
#include "src/mem/cxl_link.h"

namespace cxl::fault {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(FaultPlanTest, BuildersRecordEvents) {
  const FaultPlan plan = FaultPlan()
                             .Downtrain(1.0, 4.0, 8)
                             .CrcStorm(2.0, 2.0, 0.15)
                             .Poison(0.0, kInf, 1e-4)
                             .DramThrottle(0.5, 1.0, 0.25)
                             .DaemonStall(3.0, 1.5)
                             .FlashErrors(0.5, kInf, 0.01);
  ASSERT_EQ(plan.events().size(), 6u);
  EXPECT_EQ(plan.events()[0].type, FaultType::kLaneDowntrain);
  EXPECT_DOUBLE_EQ(plan.events()[0].start_s, 1.0);
  EXPECT_DOUBLE_EQ(plan.events()[0].end_s(), 5.0);
  EXPECT_DOUBLE_EQ(plan.events()[0].severity, 8.0);
  EXPECT_TRUE(plan.events()[0].ActiveAt(1.0));
  EXPECT_TRUE(plan.events()[0].ActiveAt(4.999));
  EXPECT_FALSE(plan.events()[0].ActiveAt(5.0));
  EXPECT_FALSE(plan.events()[0].ActiveAt(0.999));
  EXPECT_EQ(plan.events()[2].type, FaultType::kPoisonedCacheline);
  EXPECT_EQ(plan.events()[2].end_s(), kInf);
}

TEST(FaultPlanTest, ToStringRoundTripsThroughParse) {
  const FaultPlan plan = FaultPlan().Downtrain(2.0, 3.0, 8).Poison(0.0, kInf, 1e-4);
  const auto reparsed = FaultPlan::Parse(plan.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->events().size(), plan.events().size());
  for (size_t i = 0; i < plan.events().size(); ++i) {
    EXPECT_EQ(reparsed->events()[i].type, plan.events()[i].type);
    EXPECT_DOUBLE_EQ(reparsed->events()[i].start_s, plan.events()[i].start_s);
    EXPECT_DOUBLE_EQ(reparsed->events()[i].duration_s, plan.events()[i].duration_s);
    EXPECT_DOUBLE_EQ(reparsed->events()[i].severity, plan.events()[i].severity);
  }
}

TEST(FaultPlanTest, ParseSpecGrammar) {
  const auto plan = FaultPlan::Parse("downtrain@2+3=8,poison=1e-4");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->events().size(), 2u);
  EXPECT_EQ(plan->events()[0].type, FaultType::kLaneDowntrain);
  EXPECT_DOUBLE_EQ(plan->events()[0].start_s, 2.0);
  EXPECT_DOUBLE_EQ(plan->events()[0].duration_s, 3.0);
  EXPECT_DOUBLE_EQ(plan->events()[0].severity, 8.0);
  EXPECT_EQ(plan->events()[1].type, FaultType::kPoisonedCacheline);
  EXPECT_DOUBLE_EQ(plan->events()[1].start_s, 0.0);
  EXPECT_DOUBLE_EQ(plan->events()[1].severity, 1e-4);

  // Omitted severity falls back to the per-type default (x8 for downtrain).
  const auto bare = FaultPlan::Parse("downtrain");
  ASSERT_TRUE(bare.ok());
  EXPECT_DOUBLE_EQ(bare->events()[0].severity, 8.0);

  // Empty spec is the empty (healthy) plan.
  const auto empty = FaultPlan::Parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(FaultPlanTest, ParseStormKeyword) {
  const auto storm = FaultPlan::Parse("storm");
  ASSERT_TRUE(storm.ok());
  const FaultPlan canonical = FaultPlan::Storm();
  ASSERT_EQ(storm->events().size(), canonical.events().size());
  for (size_t i = 0; i < canonical.events().size(); ++i) {
    EXPECT_EQ(storm->events()[i].type, canonical.events()[i].type);
    EXPECT_DOUBLE_EQ(storm->events()[i].severity, canonical.events()[i].severity);
  }
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::Parse("bogus").ok());
  EXPECT_FALSE(FaultPlan::Parse("downtrain=0").ok());    // Lanes in {1..16}.
  EXPECT_FALSE(FaultPlan::Parse("downtrain=17").ok());
  EXPECT_FALSE(FaultPlan::Parse("poison=2").ok());       // Probability <= 1.
  EXPECT_FALSE(FaultPlan::Parse("crc=0.95").ok());       // Maintenance <= 0.9.
  EXPECT_FALSE(FaultPlan::Parse("poison=abc").ok());
  EXPECT_FALSE(FaultPlan::Parse("downtrain@,poison").ok());
  EXPECT_FALSE(FaultPlan::Parse(",").ok());
}

TEST(FaultInjectorTest, AggregatesOverlappingWindows) {
  const FaultPlan plan = FaultPlan()
                             .Downtrain(1.0, 10.0, 8)
                             .Downtrain(2.0, 2.0, 4)
                             .CrcStorm(1.0, 2.0, 0.1)
                             .CrcStorm(1.5, 2.0, 0.2)
                             .DramThrottle(1.0, 1.0, 0.5)
                             .DramThrottle(1.5, 1.0, 0.25);
  FaultInjector injector(plan);
  EXPECT_TRUE(injector.enabled());

  // Before any window: healthy, exactly.
  injector.AdvanceTo(0.5);
  EXPECT_EQ(injector.active_lanes(), 16);
  EXPECT_DOUBLE_EQ(injector.CxlBandwidthFactor(), 1.0);
  EXPECT_DOUBLE_EQ(injector.DramBandwidthFactor(), 1.0);
  EXPECT_FALSE(injector.AnyActive());

  // t=2.2: both down-trains active -> min lanes; both CRC storms -> summed
  // maintenance; the deeper throttle window -> min retained bandwidth.
  injector.AdvanceTo(2.2);
  EXPECT_EQ(injector.active_lanes(), 4);
  EXPECT_LT(injector.CxlBandwidthFactor(), 0.3);
  EXPECT_DOUBLE_EQ(injector.DramBandwidthFactor(), 0.25);
  EXPECT_TRUE(injector.AnyActive());

  // t=5: only the x8 down-train remains.
  injector.AdvanceTo(5.0);
  EXPECT_EQ(injector.active_lanes(), 8);
  EXPECT_DOUBLE_EQ(injector.DramBandwidthFactor(), 1.0);

  // Past everything: healthy again, exactly.
  injector.AdvanceTo(100.0);
  EXPECT_EQ(injector.active_lanes(), 16);
  EXPECT_DOUBLE_EQ(injector.CxlBandwidthFactor(), 1.0);
  EXPECT_DOUBLE_EQ(injector.CxlLatencyFactor(), 1.0);
  EXPECT_FALSE(injector.AnyActive());
}

TEST(FaultInjectorTest, DegradedLinkFollowsFlitAccounting) {
  const mem::CxlLinkConfig base = mem::AsicLinkConfig();
  EXPECT_DOUBLE_EQ(DegradedLinkBandwidthFactor(base, 16, 0.0), 1.0);
  const double x8 = DegradedLinkBandwidthFactor(base, 8, 0.0);
  const double x4 = DegradedLinkBandwidthFactor(base, 4, 0.0);
  EXPECT_LT(x8, 1.0);
  EXPECT_LT(x4, x8);
  EXPECT_NEAR(x8, 0.5, 0.05);  // Lane ratio dominates; maintenance shifts it.
  // Extra maintenance alone also costs bandwidth.
  EXPECT_LT(DegradedLinkBandwidthFactor(base, 16, 0.2), 1.0);

  FaultInjector injector(FaultPlan().Downtrain(0.0, kInf, 8));
  injector.AdvanceTo(0.0);
  EXPECT_DOUBLE_EQ(injector.CxlBandwidthFactor(), x8);
  EXPECT_DOUBLE_EQ(injector.CxlLatencyFactor(), 1.0 / x8);
}

TEST(FaultInjectorTest, SamplesOnlyWhileActive) {
  // Disabled injector: never samples true.
  FaultInjector off(FaultPlan{});
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.SamplePoisonedRead());
  EXPECT_FALSE(off.SampleFlashError());
  EXPECT_FALSE(off.SampleShuffleFailure(1.0));

  // Certain poison, but only inside its window.
  FaultInjector poison(FaultPlan().Poison(1.0, 1.0, 1.0));
  poison.AdvanceTo(0.5);
  EXPECT_FALSE(poison.SamplePoisonedRead());
  poison.AdvanceTo(1.5);
  EXPECT_TRUE(poison.SamplePoisonedRead());
  poison.AdvanceTo(2.5);
  EXPECT_FALSE(poison.SamplePoisonedRead());

  // Shuffle failures only draw while the link is degraded.
  FaultInjector healthy_link(FaultPlan().Poison(0.0, kInf, 1.0));
  healthy_link.AdvanceTo(0.0);
  EXPECT_FALSE(healthy_link.SampleShuffleFailure(1.0));
  FaultInjector degraded(FaultPlan().Downtrain(0.0, kInf, 8));
  degraded.AdvanceTo(0.0);
  EXPECT_TRUE(degraded.SampleShuffleFailure(1.0));
}

TEST(FaultInjectorTest, SameSeedSameDrawSequence) {
  const FaultPlan plan = FaultPlan().Poison(0.0, kInf, 0.5);
  FaultInjector a(plan, /*seed=*/7);
  FaultInjector b(plan, /*seed=*/7);
  a.AdvanceTo(0.0);
  b.AdvanceTo(0.0);
  std::vector<bool> draws_a, draws_b;
  for (int i = 0; i < 256; ++i) {
    draws_a.push_back(a.SamplePoisonedRead());
    draws_b.push_back(b.SamplePoisonedRead());
  }
  EXPECT_EQ(draws_a, draws_b);

  FaultInjector c(plan, /*seed=*/8);
  c.AdvanceTo(0.0);
  std::vector<bool> draws_c;
  for (int i = 0; i < 256; ++i) {
    draws_c.push_back(c.SamplePoisonedRead());
  }
  EXPECT_NE(draws_a, draws_c);
}

TEST(FaultKnobsTest, DeclareSetAndReadBack) {
  FaultTunables t;
  ASSERT_TRUE(SetFaultTunable(&t, "fault.poison_read_retries", 5).ok());
  ASSERT_TRUE(SetFaultTunable(&t, "fault.spark_fetch_failure_probability", 0.25).ok());
  EXPECT_EQ(t.poison_read_retries, 5);
  EXPECT_DOUBLE_EQ(t.spark_fetch_failure_probability, 0.25);
  // Every other field keeps its default.
  EXPECT_DOUBLE_EQ(t.shed_latency_factor, FaultTunables{}.shed_latency_factor);

  // An unknown key is NOT_FOUND and leaves the tunables alone.
  const Status unknown = SetFaultTunable(&t, "fault.no_such_knob", 1.0);
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.message().find("fault.no_such_knob"), std::string::npos);
  EXPECT_EQ(SetFaultTunable(&t, "poison_read_retries", 1.0).code(), StatusCode::kNotFound);
  FaultTunables expected;
  expected.poison_read_retries = 5;
  expected.spark_fetch_failure_probability = 0.25;
  EXPECT_TRUE(t == expected);
}

TEST(FaultKnobsTest, DefaultsRoundTripExactly) {
  // Setting every knob of an all-zero set to its default reproduces the
  // defaults bit for bit, so the table covers every field.
  const FaultTunables d;
  FaultTunables t{0, 0.0, 0.0, 0, 0.0, 0, 0.0, 0.0, 0, 0.0};
  const std::pair<const char*, double> knobs[] = {
      {"fault.poison_read_retries", d.poison_read_retries},
      {"fault.flash_timeout_factor", d.flash_timeout_factor},
      {"fault.shed_latency_factor", d.shed_latency_factor},
      {"fault.shed_arm_epochs", d.shed_arm_epochs},
      {"fault.shed_fraction", d.shed_fraction},
      {"fault.backoff_max_ticks", d.backoff_max_ticks},
      {"fault.llm_batch_shrink_threshold", d.llm_batch_shrink_threshold},
      {"fault.llm_latency_slo_factor", d.llm_latency_slo_factor},
      {"fault.spark_shuffle_partitions", d.spark_shuffle_partitions},
      {"fault.spark_fetch_failure_probability", d.spark_fetch_failure_probability},
  };
  for (const auto& [key, value] : knobs) {
    const Status set = SetFaultTunable(&t, key, value);
    ASSERT_TRUE(set.ok()) << key << ": " << set.message();
  }
  EXPECT_TRUE(t == d);
}

// Expects SetFaultTunable to reject one value, naming the knob in the
// message and leaving the tunables at their defaults.
void ExpectRejected(const char* key, double value) {
  FaultTunables t;
  const Status set = SetFaultTunable(&t, key, value);
  ASSERT_FALSE(set.ok()) << key << " = " << value;
  EXPECT_EQ(set.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(set.message().find(key), std::string::npos) << set.message();
  EXPECT_TRUE(t == FaultTunables{}) << key << " = " << value;
}

void ExpectAccepted(const char* key, double value) {
  FaultTunables t;
  const Status set = SetFaultTunable(&t, key, value);
  EXPECT_TRUE(set.ok()) << key << " = " << value << ": " << set.message();
}

TEST(FaultKnobsTest, RejectsNonFiniteValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {nan, kInf, -kInf}) {
    ExpectRejected("fault.flash_timeout_factor", v);
    ExpectRejected("fault.llm_latency_slo_factor", v);
    ExpectRejected("fault.poison_read_retries", v);
    ExpectRejected("fault.shed_fraction", v);
  }
}

TEST(FaultKnobsTest, RejectsIntegerKnobsOutsideIntRangeOrFractional) {
  for (const char* key : {"fault.poison_read_retries", "fault.shed_arm_epochs",
                          "fault.backoff_max_ticks", "fault.spark_shuffle_partitions"}) {
    ExpectRejected(key, 1e12);
    ExpectRejected(key, 2147483648.0);  // INT_MAX + 1.
    ExpectRejected(key, -1.0);
    ExpectRejected(key, 2.5);
    ExpectAccepted(key, 0.0);
    ExpectAccepted(key, 2147483647.0);  // INT_MAX itself.
  }
}

TEST(FaultKnobsTest, RejectsFractionsOutsideUnitInterval) {
  for (const char* key : {"fault.shed_fraction", "fault.spark_fetch_failure_probability",
                          "fault.llm_batch_shrink_threshold"}) {
    ExpectRejected(key, 1.5);
    ExpectRejected(key, -0.01);
    ExpectAccepted(key, 0.0);
    ExpectAccepted(key, 1.0);
  }
}

TEST(FaultKnobsTest, RejectsShedFractionWhosePeriodOverflows) {
  // 1 / 1e-300 does not fit the uint64_t 1-in-k shedding period.
  ExpectRejected("fault.shed_fraction", 1e-300);
  ExpectRejected("fault.shed_fraction", 1e-20);
  ExpectAccepted("fault.shed_fraction", 1e-19);
  ExpectAccepted("fault.shed_fraction", 0.0);  // Shedding off.
}

TEST(FaultKnobsDeathTest, BenchContextTurnsRejectionIntoUsageError) {
  const char* raw[] = {"bench", "--fault-knob", "fault.backoff_max_ticks=1e12"};
  char* argv[3];
  for (int i = 0; i < 3; ++i) {
    argv[i] = const_cast<char*>(raw[i]);
  }
  int argc = 3;
  EXPECT_EXIT(bench::Context::FromArgs(&argc, argv), ::testing::ExitedWithCode(2),
              "fault.backoff_max_ticks");
}

}  // namespace
}  // namespace cxl::fault
