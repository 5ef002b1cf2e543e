#include <gtest/gtest.h>

#include "src/os/page_allocator.h"
#include "src/os/tiering.h"
#include "src/topology/platform.h"

namespace cxl::os {
namespace {

using topology::Platform;

class HotnessTest : public ::testing::Test {
 protected:
  HotnessTest() : platform_(Platform::CxlServer(false)), alloc_(platform_) {}

  Platform platform_;
  PageAllocator alloc_;
};

TEST_F(HotnessTest, RecordAccessAccumulatesSampledHeat) {
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 0.1;
  TieredMemory tiering(alloc_, cfg);
  auto pages = alloc_.Allocate(NumaPolicy::Bind({0}), 1);
  ASSERT_TRUE(pages.ok());
  tiering.RecordAccess((*pages)[0], 1000);
  EXPECT_NEAR(alloc_.page((*pages)[0]).heat, 100.0, 1.0);
  EXPECT_GE(alloc_.counters().numa_hint_faults, 100u);
}

TEST_F(HotnessTest, HeatDecaysEachTick) {
  TieringConfig cfg;
  cfg.hint_fault_sample_rate = 1.0;
  TieredMemory tiering(alloc_, cfg);
  auto pages = alloc_.Allocate(NumaPolicy::Bind({0}), 1);
  ASSERT_TRUE(pages.ok());
  tiering.RecordAccess((*pages)[0], 100);
  tiering.Tick(1.0);
  EXPECT_NEAR(alloc_.page((*pages)[0]).heat, 50.0, 0.5);
  tiering.Tick(1.0);
  EXPECT_NEAR(alloc_.page((*pages)[0]).heat, 25.0, 0.5);
}

TEST_F(HotnessTest, TopTierClassification) {
  TieredMemory tiering(alloc_, TieringConfig{});
  for (const auto& n : platform_.nodes()) {
    if (n.kind == topology::NodeKind::kDram) {
      EXPECT_TRUE(tiering.IsTopTier(n.id));
    } else {
      EXPECT_FALSE(tiering.IsTopTier(n.id));
    }
  }
}

TEST_F(HotnessTest, LowTierPagesCount) {
  TieredMemory tiering(alloc_, TieringConfig{});
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 42);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(tiering.LowTierPages(), 42u);
}

}  // namespace
}  // namespace cxl::os
