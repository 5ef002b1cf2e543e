#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <numeric>
#include <set>
#include <tuple>
#include <vector>

#include "src/util/rng.h"

namespace cxl::sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30.0, [&] { order.push_back(3); });
  q.ScheduleAt(10.0, [&] { order.push_back(1); });
  q.ScheduleAt(20.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now(), 30.0);
}

TEST(EventQueueTest, FifoTieBreaking) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(5.0, [&] { order.push_back(1); });
  q.ScheduleAt(5.0, [&] { order.push_back(2); });
  q.ScheduleAt(5.0, [&] { order.push_back(3); });
  q.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  double fired_at = -1.0;
  q.ScheduleAt(100.0, [&] {
    q.ScheduleAfter(50.0, [&] { fired_at = q.Now(); });
  });
  q.Run();
  EXPECT_EQ(fired_at, 150.0);
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    q.ScheduleAt(i * 10.0, [&] { ++count; });
  }
  EXPECT_EQ(q.RunUntil(50.0), 5u);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.Now(), 50.0);
  EXPECT_EQ(q.pending(), 5u);
}

TEST(EventQueueTest, RunUntilAdvancesClockWhenIdle) {
  EventQueue q;
  q.RunUntil(1000.0);
  EXPECT_EQ(q.Now(), 1000.0);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  // A self-perpetuating chain of events (the pattern used by the KeyDB
  // server-thread loop).
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      q.ScheduleAfter(1.0, chain);
    }
  };
  q.ScheduleAt(0.0, chain);
  q.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(q.Now(), 99.0);
}

TEST(EventQueueTest, StepExecutesOne) {
  EventQueue q;
  int count = 0;
  q.ScheduleAt(1.0, [&] { ++count; });
  q.ScheduleAt(2.0, [&] { ++count; });
  EXPECT_TRUE(q.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(q.Step());
  EXPECT_FALSE(q.Step());
}

TEST(EventQueueTest, EmptyQueue) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.Run(), 0u);
  EXPECT_EQ(q.Now(), 0.0);
}

TEST(EventQueueTest, ScheduleAtNowFromCallbackStaysFifo) {
  // The running closure's slot is free while it runs, so the event it
  // schedules may reuse that slot; it still runs after every event already
  // queued for the same time.
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(5.0, [&] {
    order.push_back(1);
    q.ScheduleAt(q.Now(), [&] { order.push_back(4); });
  });
  q.ScheduleAt(5.0, [&] { order.push_back(2); });
  q.ScheduleAt(5.0, [&] {
    order.push_back(3);
    q.ScheduleAfter(0.0, [&] { order.push_back(5); });
  });
  EXPECT_EQ(q.Run(), 5u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(q.Now(), 5.0);
}

// Drives the queue and a reference (time, seq)-ordered set side by side.
struct ReferenceHarness {
  EventQueue q;
  std::set<std::tuple<SimTime, uint64_t, int>> ref;
  uint64_t seq = 0;
  std::vector<int> ran;
  int next_id = 0;

  void Schedule(SimTime delay, int spawn_depth) {
    const int id = next_id++;
    ref.emplace(q.Now() + delay, seq++, id);
    q.ScheduleAfter(delay, [this, id, spawn_depth] {
      if (spawn_depth > 0) {
        // Ties (delay 0 schedules at Now()) and nested schedules, which may
        // reuse a free slot or grow the slot vector.
        Schedule(static_cast<SimTime>(id % 3), spawn_depth - 1);
      }
      // Captures read after the nested schedule: the running closure must
      // not sit in storage that schedule overwrote or moved.
      ran.push_back(id);
    });
  }
};

TEST(EventQueueTest, InterleavedScheduleAndStepMatchReferenceOrder) {
  ReferenceHarness h;
  Rng rng(17);
  static constexpr SimTime kDelays[] = {0.0, 0.0, 1.0, 2.5, 2.5, 10.0, 100.0};
  for (int cycle = 0; cycle < 5000; ++cycle) {
    const uint64_t burst = rng.NextBounded(4);
    for (uint64_t k = 0; k < burst; ++k) {
      h.Schedule(kDelays[rng.NextBounded(std::size(kDelays))],
                 static_cast<int>(rng.NextBounded(3)));
    }
    const uint64_t steps = rng.NextBounded(4);
    for (uint64_t k = 0; k < steps && !h.ref.empty(); ++k) {
      const auto [time, seq, id] = *h.ref.begin();
      h.ref.erase(h.ref.begin());
      ASSERT_TRUE(h.q.Step());
      ASSERT_EQ(h.ran.back(), id) << "cycle " << cycle;
      ASSERT_EQ(h.q.Now(), time);
    }
    ASSERT_EQ(h.q.pending(), h.ref.size());
  }
  while (!h.ref.empty()) {
    const int id = std::get<2>(*h.ref.begin());
    h.ref.erase(h.ref.begin());
    ASSERT_TRUE(h.q.Step());
    ASSERT_EQ(h.ran.back(), id);
  }
  EXPECT_TRUE(h.q.empty());
  EXPECT_GT(h.next_id, 10000);
}

TEST(EventQueueTest, ClosureLargerThanInlineStorageTakesHeapPath) {
  EventQueue q;
  std::array<uint64_t, 8> big{};  // 64 bytes: over SmallFunction<48>.
  std::iota(big.begin(), big.end(), 1);
  static_assert(sizeof(big) > 48);
  uint64_t sum = 0;
  int small = 0;
  q.ScheduleAt(3.0, [big, &sum] { sum = std::accumulate(big.begin(), big.end(), 0ull); });
  // Small closures around it grow the slot vector while the big one waits.
  for (int i = 0; i < 100; ++i) {
    q.ScheduleAt(static_cast<double>(i % 5), [&small] { ++small; });
  }
  EXPECT_EQ(q.Run(), 101u);
  EXPECT_EQ(sum, 36u);
  EXPECT_EQ(small, 100);
}

}  // namespace
}  // namespace cxl::sim
