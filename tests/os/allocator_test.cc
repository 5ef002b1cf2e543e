#include "src/os/page_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/os/numa_policy.h"
#include "src/os/region.h"
#include "src/topology/platform.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace cxl::os {
namespace {

using namespace cxl::literals;
using topology::NodeId;
using topology::Platform;

class AllocatorTest : public ::testing::Test {
 protected:
  AllocatorTest() : platform_(Platform::CxlServer(false)), alloc_(platform_) {}

  Platform platform_;
  PageAllocator alloc_;
};

TEST_F(AllocatorTest, CapacityFromPlatform) {
  // Socket 0 DRAM: 512 GiB at 2 MiB pages.
  const auto dram0 = platform_.DramNodes(0)[0];
  EXPECT_EQ(alloc_.TotalPages(dram0), (512_GiB) / (2_MiB));
  const auto cxl0 = platform_.CxlNodes()[0];
  EXPECT_EQ(alloc_.TotalPages(cxl0), (256_GiB) / (2_MiB));
}

TEST_F(AllocatorTest, BindAllocatesOnBoundNode) {
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 100);
  ASSERT_TRUE(pages.ok());
  for (PageId id : *pages) {
    EXPECT_EQ(alloc_.NodeOf(id), cxl0);
  }
  EXPECT_EQ(alloc_.UsedPages(cxl0), 100u);
}

TEST_F(AllocatorTest, BindFailsWhenFull) {
  const auto cxl0 = platform_.CxlNodes()[0];
  const uint64_t cap = alloc_.TotalPages(cxl0);
  auto all = alloc_.Allocate(NumaPolicy::Bind({cxl0}), cap);
  ASSERT_TRUE(all.ok());
  auto more = alloc_.Allocate(NumaPolicy::Bind({cxl0}), 1);
  EXPECT_FALSE(more.ok());
  EXPECT_EQ(more.status().code(), StatusCode::kResourceExhausted);
  // Failure must not leak pages.
  EXPECT_EQ(alloc_.FreePages(cxl0), 0u);
  alloc_.Free(*all);
  EXPECT_EQ(alloc_.FreePages(cxl0), cap);
}

TEST_F(AllocatorTest, PreferredFallsBackWhenFull) {
  const auto cxl0 = platform_.CxlNodes()[0];
  const uint64_t cap = alloc_.TotalPages(cxl0);
  auto fill = alloc_.Allocate(NumaPolicy::Bind({cxl0}), cap);
  ASSERT_TRUE(fill.ok());
  auto extra = alloc_.Allocate(NumaPolicy::Preferred({cxl0}), 10);
  ASSERT_TRUE(extra.ok());
  for (PageId id : *extra) {
    EXPECT_NE(alloc_.NodeOf(id), cxl0);  // Fell back elsewhere.
  }
}

TEST_F(AllocatorTest, WeightedInterleaveShares) {
  const auto dram0 = platform_.DramNodes(0)[0];
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::WeightedInterleave({dram0}, {cxl0}, 3, 1), 4000);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(alloc_.UsedPages(dram0), 3000u);
  EXPECT_EQ(alloc_.UsedPages(cxl0), 1000u);
}

TEST_F(AllocatorTest, FreeRecyclesIds) {
  auto a = alloc_.Allocate(NumaPolicy::Bind({0}), 10);
  ASSERT_TRUE(a.ok());
  alloc_.Free(*a);
  auto b = alloc_.Allocate(NumaPolicy::Bind({0}), 10);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(alloc_.allocated_pages(), 10u);
  EXPECT_EQ(alloc_.page_count(), 10u);  // Slots recycled, not grown.
}

TEST_F(AllocatorTest, MovePageUpdatesAccounting) {
  const auto dram0 = platform_.DramNodes(0)[0];
  const auto cxl0 = platform_.CxlNodes()[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({dram0}), 1);
  ASSERT_TRUE(pages.ok());
  ASSERT_TRUE(alloc_.MovePage((*pages)[0], cxl0).ok());
  EXPECT_EQ(alloc_.NodeOf((*pages)[0]), cxl0);
  EXPECT_EQ(alloc_.UsedPages(dram0), 0u);
  EXPECT_EQ(alloc_.UsedPages(cxl0), 1u);
}

TEST_F(AllocatorTest, MoveToFullNodeFails) {
  const auto cxl0 = platform_.CxlNodes()[0];
  auto fill = alloc_.Allocate(NumaPolicy::Bind({cxl0}), alloc_.TotalPages(cxl0));
  ASSERT_TRUE(fill.ok());
  auto one = alloc_.Allocate(NumaPolicy::Bind({0}), 1);
  ASSERT_TRUE(one.ok());
  EXPECT_FALSE(alloc_.MovePage((*one)[0], cxl0).ok());
  EXPECT_EQ(alloc_.counters().migrate_failed, 1u);
}

TEST_F(AllocatorTest, CountersTrackAllocFree) {
  auto pages = alloc_.Allocate(NumaPolicy::Bind({0}), 5);
  ASSERT_TRUE(pages.ok());
  alloc_.Free(*pages);
  EXPECT_EQ(alloc_.counters().pgalloc, 5u);
  EXPECT_EQ(alloc_.counters().pgfree, 5u);
}

TEST_F(AllocatorTest, DramFreeFraction) {
  EXPECT_NEAR(alloc_.DramFreeFraction(), 1.0, 1e-12);
  const auto dram0 = platform_.DramNodes(0)[0];
  auto pages = alloc_.Allocate(NumaPolicy::Bind({dram0}), alloc_.TotalPages(dram0));
  ASSERT_TRUE(pages.ok());
  EXPECT_NEAR(alloc_.DramFreeFraction(), 0.5, 1e-12);  // One of two sockets full.
}

// The per-page allocator that run allocation replaced, kept as the
// reference: every page walks the policy pattern and the fallback, recycled
// ids pop off a flat stack, fresh ids are pushed onto the columns one by one.
class ReferenceAllocator {
 public:
  ReferenceAllocator(const Platform& platform, uint64_t page_bytes) : platform_(platform) {
    used.assign(platform.nodes().size(), 0);
    capacity.assign(platform.nodes().size(), 0);
    for (const auto& n : platform.nodes()) {
      capacity[static_cast<size_t>(n.id)] = n.capacity_bytes / page_bytes;
    }
  }

  uint64_t FreePages(NodeId n) const {
    return capacity[static_cast<size_t>(n)] - used[static_cast<size_t>(n)];
  }

  NodeId FallbackNode() const {
    NodeId best = -1;
    uint64_t best_free = 0;
    for (const auto& n : platform_.nodes()) {
      if (n.kind == topology::NodeKind::kDram && FreePages(n.id) > best_free) {
        best_free = FreePages(n.id);
        best = n.id;
      }
    }
    if (best >= 0) {
      return best;
    }
    for (const auto& n : platform_.nodes()) {
      if (n.kind == topology::NodeKind::kCxl && FreePages(n.id) > 0) {
        return n.id;
      }
    }
    return -1;
  }

  StatusOr<std::vector<PageId>> Allocate(const NumaPolicy& policy, uint64_t count) {
    ++generation;
    std::vector<PageId> out;
    for (uint64_t i = 0; i < count; ++i) {
      NodeId target = policy.NodeForIndex(i);
      if (FreePages(target) == 0) {
        if (policy.mode() == PolicyMode::kBind) {
          target = -1;
          for (NodeId n : policy.nodes()) {
            if (FreePages(n) > 0) {
              target = n;
              break;
            }
          }
          if (target < 0) {
            counters.pgalloc += out.size();
            Free(out);
            return Status::ResourceExhausted("bind policy: bound nodes are full");
          }
        } else {
          target = FallbackNode();
          if (target < 0) {
            counters.pgalloc += out.size();
            Free(out);
            return Status::ResourceExhausted("machine out of memory");
          }
        }
      }
      PageId id;
      if (!free_list.empty()) {
        id = free_list.back();
        free_list.pop_back();
        node[id] = target;
        heat[id] = 0.0f;
      } else {
        id = node.size();
        node.push_back(target);
        heat.push_back(0.0f);
        epoch.push_back(0);
      }
      ++used[static_cast<size_t>(target)];
      ++allocated;
      out.push_back(id);
    }
    counters.pgalloc += count;
    return out;
  }

  void Free(const std::vector<PageId>& pages) {
    ++generation;
    for (PageId id : pages) {
      --used[static_cast<size_t>(node[id])];
      node[id] = -1;
      free_list.push_back(id);
      --allocated;
      ++counters.pgfree;
    }
  }

  Status MovePage(PageId id, NodeId target) {
    if (node[id] == target) {
      return Status::Ok();
    }
    if (FreePages(target) == 0) {
      ++counters.migrate_failed;
      return Status::ResourceExhausted("target node full");
    }
    --used[static_cast<size_t>(node[id])];
    ++used[static_cast<size_t>(target)];
    node[id] = target;
    ++generation;
    return Status::Ok();
  }

  std::vector<NodeId> node;
  std::vector<float> heat;
  std::vector<uint32_t> epoch;
  std::vector<PageId> free_list;
  std::vector<uint64_t> used;
  std::vector<uint64_t> capacity;
  uint64_t allocated = 0;
  uint64_t generation = 0;
  VmCounters counters;

 private:
  const Platform& platform_;
};

void ExpectSameState(const PageAllocator& alloc, const ReferenceAllocator& ref) {
  ASSERT_EQ(alloc.page_count(), ref.node.size());
  for (size_t i = 0; i < ref.node.size(); ++i) {
    ASSERT_EQ(alloc.node_column()[i], ref.node[i]) << "page " << i;
    ASSERT_EQ(alloc.heat_column()[i], ref.heat[i]) << "page " << i;
    ASSERT_EQ(alloc.epoch_column()[i], ref.epoch[i]) << "page " << i;
  }
  for (size_t n = 0; n < ref.used.size(); ++n) {
    ASSERT_EQ(alloc.UsedPages(static_cast<NodeId>(n)), ref.used[n]) << "node " << n;
  }
  ASSERT_EQ(alloc.allocated_pages(), ref.allocated);
  ASSERT_EQ(alloc.generation(), ref.generation);
  const VmCounters& a = alloc.counters();
  const VmCounters& b = ref.counters;
  ASSERT_EQ(a.pgalloc, b.pgalloc);
  ASSERT_EQ(a.pgfree, b.pgfree);
  ASSERT_EQ(a.migrate_failed, b.migrate_failed);
  ASSERT_EQ(a.pgpromote_success, b.pgpromote_success);
  ASSERT_EQ(a.pgdemote, b.pgdemote);
}

// A random non-empty subset of `nodes`, in random order.
std::vector<NodeId> PickNodes(Rng& rng, std::vector<NodeId> nodes) {
  for (size_t i = nodes.size(); i > 1; --i) {
    std::swap(nodes[i - 1], nodes[rng.NextBounded(i)]);
  }
  nodes.resize(1 + rng.NextBounded(nodes.size()));
  return nodes;
}

NumaPolicy RandomPolicy(Rng& rng, const Platform& platform) {
  std::vector<NodeId> all;
  for (const auto& n : platform.nodes()) {
    all.push_back(n.id);
  }
  switch (rng.NextBounded(4)) {
    case 0:
      return NumaPolicy::Bind(PickNodes(rng, all));
    case 1:
      return NumaPolicy::Preferred(PickNodes(rng, all));
    case 2:
      return NumaPolicy::Interleave(PickNodes(rng, all));
    default: {
      static constexpr int kRatios[][2] = {{1, 1}, {3, 1}, {1, 3}, {2, 5}, {7, 2}};
      const auto& ratio = kRatios[rng.NextBounded(5)];
      return NumaPolicy::WeightedInterleave(PickNodes(rng, platform.DramNodes()),
                                            PickNodes(rng, platform.CxlNodes()), ratio[0],
                                            ratio[1]);
    }
  }
}

TEST(AllocatorDifferentialTest, SeededSequencesMatchPerPageReference) {
  const Platform platform = Platform::CxlServer(false);
  struct Coverage {
    int modes[4] = {0, 0, 0, 0};
    int bind_exhausted = 0;
    int machine_exhausted = 0;
    int fell_back = 0;      // Some page landed off its pattern node.
    int mixed = 0;          // Recycled ids followed by a fresh run.
    int moves = 0;
  } cov;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // 1 GiB pages: 512 pages per DRAM node and 256 per CXL node, so nodes
    // fill within a handful of allocations.
    PageAllocator alloc(platform, 1_GiB);
    ReferenceAllocator ref(platform, 1_GiB);
    Rng rng(seed);
    std::vector<PageList> live;
    for (int step = 0; step < 120; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const uint64_t op = rng.NextBounded(10);
      if (op < 5 || live.empty()) {
        const NumaPolicy policy = RandomPolicy(rng, platform);
        const uint64_t count = rng.NextBool(0.1) ? rng.NextBounded(1600) : rng.NextBounded(300);
        ++cov.modes[static_cast<int>(policy.mode())];
        const bool recycles = !ref.free_list.empty() && count > ref.free_list.size();
        auto got = alloc.Allocate(policy, count);
        auto want = ref.Allocate(policy, count);
        ASSERT_EQ(got.ok(), want.ok());
        if (!got.ok()) {
          ASSERT_EQ(got.status().code(), want.status().code());
          ASSERT_EQ(got.status().message(), want.status().message());
          if (policy.mode() == PolicyMode::kBind) {
            ++cov.bind_exhausted;
          } else {
            ++cov.machine_exhausted;
          }
        } else {
          ASSERT_EQ(std::vector<PageId>(got->begin(), got->end()), *want);
          cov.mixed += recycles ? 1 : 0;
          for (uint64_t i = 0; i < count; ++i) {
            cov.fell_back += ref.node[(*want)[i]] != policy.NodeForIndex(i) ? 1 : 0;
          }
          // Stamp heat and recency on a few pages: recycling resets the
          // heat and keeps the stale stamp.
          for (size_t k = 0; k < got->size() && k < 4; ++k) {
            const PageId id = (*got)[k];
            alloc.page(id).heat = ref.heat[id] = 3.0f + static_cast<float>(k);
            alloc.page(id).last_decay_epoch = ref.epoch[id] = static_cast<uint32_t>(step);
          }
          live.push_back(std::move(got).value());
        }
      } else if (op < 8) {
        // Free a whole allocation, or a random subset of it as listed ids.
        const size_t which = rng.NextBounded(live.size());
        PageList victim = std::move(live[which]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(which));
        if (rng.NextBool(0.3) && victim.size() > 1) {
          std::vector<PageId> ids(victim.begin(), victim.end());
          std::vector<PageId> keep;
          std::vector<PageId> drop;
          for (PageId id : ids) {
            (rng.NextBool(0.5) ? drop : keep).push_back(id);
          }
          live.emplace_back(std::move(keep));
          victim = PageList(std::move(drop));
        }
        const std::vector<PageId> ids(victim.begin(), victim.end());
        alloc.Free(victim);
        ref.Free(ids);
      } else {
        const PageList& pages = live[rng.NextBounded(live.size())];
        if (pages.empty()) {
          continue;
        }
        const PageId id = pages[rng.NextBounded(pages.size())];
        const auto target = static_cast<NodeId>(rng.NextBounded(platform.nodes().size()));
        const Status a = alloc.MovePage(id, target);
        const Status b = ref.MovePage(id, target);
        ASSERT_EQ(a.ok(), b.ok());
        ++cov.moves;
      }
      ASSERT_NO_FATAL_FAILURE(ExpectSameState(alloc, ref));
    }
  }
  for (int mode = 0; mode < 4; ++mode) {
    EXPECT_GT(cov.modes[mode], 100) << "mode " << mode;
  }
  EXPECT_GT(cov.bind_exhausted, 10);
  EXPECT_GT(cov.machine_exhausted, 0);
  EXPECT_GT(cov.fell_back, 100);
  EXPECT_GT(cov.mixed, 50);
  EXPECT_GT(cov.moves, 100);
}

TEST(RegionTest, AllocateAndShares) {
  Platform platform = Platform::CxlServer(false);
  PageAllocator alloc(platform);
  const auto dram0 = platform.DramNodes(0)[0];
  const auto cxl0 = platform.CxlNodes()[0];
  auto region = MemoryRegion::Allocate(
      alloc, NumaPolicy::WeightedInterleave({dram0}, {cxl0}, 1, 1), 1_GiB);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region->page_count(), 512u);
  EXPECT_NEAR(region->DramShare(), 0.5, 1e-12);
  const auto shares = region->NodeShares();
  EXPECT_NEAR(shares[static_cast<size_t>(dram0)], 0.5, 1e-12);
  EXPECT_NEAR(shares[static_cast<size_t>(cxl0)], 0.5, 1e-12);
  region->Free();
  EXPECT_EQ(alloc.allocated_pages(), 0u);
}

TEST(RegionTest, PageAtOffset) {
  Platform platform = Platform::CxlServer(false);
  PageAllocator alloc(platform);
  auto region = MemoryRegion::Allocate(alloc, NumaPolicy::Bind({0}), 10_MiB);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region->PageAtOffset(0), region->PageAtIndex(0));
  EXPECT_EQ(region->PageAtOffset(2_MiB), region->PageAtIndex(1));
  EXPECT_EQ(region->PageAtOffset(2_MiB - 1), region->PageAtIndex(0));
}

TEST(RegionTest, RoundsUpPartialPage) {
  Platform platform = Platform::CxlServer(false);
  PageAllocator alloc(platform);
  auto region = MemoryRegion::Allocate(alloc, NumaPolicy::Bind({0}), 3_MiB);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region->page_count(), 2u);
}

TEST(RegionTest, RecycledThenFreshIds) {
  Platform platform = Platform::CxlServer(false);
  PageAllocator alloc(platform);
  const auto dram0 = platform.DramNodes(0)[0];
  const auto cxl0 = platform.CxlNodes()[0];
  auto first = MemoryRegion::Allocate(alloc, NumaPolicy::Bind({dram0}), 10 * 2_MiB);
  auto second = MemoryRegion::Allocate(alloc, NumaPolicy::Bind({dram0}), 5 * 2_MiB);
  ASSERT_TRUE(first.ok() && second.ok());
  first->Free();
  // Ten recycled ids (0..9, popped from the top of the free list), then
  // four fresh ones after the second region's 10..14.
  auto region =
      MemoryRegion::Allocate(alloc, NumaPolicy::Interleave({dram0, cxl0}), 14 * 2_MiB);
  ASSERT_TRUE(region.ok());
  const std::vector<PageId> want = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 15, 16, 17, 18};
  ASSERT_EQ(region->page_count(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(region->PageAtIndex(i), want[i]) << i;
    EXPECT_EQ(region->PageAtOffset(i * 2_MiB + 1_MiB), want[i]) << i;
  }
  const auto shares = region->NodeShares();
  EXPECT_DOUBLE_EQ(shares[static_cast<size_t>(dram0)], 0.5);
  EXPECT_DOUBLE_EQ(shares[static_cast<size_t>(cxl0)], 0.5);
  ASSERT_TRUE(alloc.MovePage(want[0], cxl0).ok());
  EXPECT_DOUBLE_EQ(region->NodeShares()[static_cast<size_t>(cxl0)], 8.0 / 14.0);

  // Freeing pushes the ids in region order, so the next allocation pops the
  // fresh run back first, highest id first, then the recycled ids.
  region->Free();
  EXPECT_EQ(region->page_count(), 0u);
  auto again = alloc.Allocate(NumaPolicy::Bind({dram0}), 14);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(std::vector<PageId>(again->begin(), again->end()),
            (std::vector<PageId>{18, 17, 16, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(alloc.page_count(), 19u);
}

}  // namespace
}  // namespace cxl::os
