#include "src/telemetry/events.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"

namespace cxl::telemetry {
namespace {

Event At(double t_ms, EventKind kind) { return Event(kind, t_ms); }

std::vector<Event> All(const EventLog& log) { return log.Snapshot(); }

TEST(EventLogTest, FullLogKeepsEverythingInOrder) {
  EventLog log;
  for (int i = 0; i < 100; ++i) {
    log.Record(At(i, EventKind::kPagePromote).WithA(i));
  }
  EXPECT_EQ(log.size(), 100u);
  EXPECT_EQ(log.dropped(), 0u);
  const auto events = All(log);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(events[static_cast<size_t>(i)].t_ms, i);
    EXPECT_DOUBLE_EQ(events[static_cast<size_t>(i)].a, i);
  }
}

TEST(EventLogTest, RingModeKeepsLatestAndCountsDropped) {
  EventLog log;
  log.set_capacity(8);
  for (int i = 0; i < 20; ++i) {
    log.Record(At(i, EventKind::kPageDemote));
  }
  EXPECT_EQ(log.size(), 8u);
  EXPECT_EQ(log.dropped(), 12u);
  const auto events = All(log);
  // Oldest-first iteration over the surviving tail: 12..19.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].t_ms, 12.0 + static_cast<double>(i));
  }
}

TEST(EventLogTest, ShrinkingCapacityKeepsLatest) {
  EventLog log;
  for (int i = 0; i < 10; ++i) {
    log.Record(At(i, EventKind::kPagePromote));
  }
  log.set_capacity(3);
  const auto events = All(log);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events[0].t_ms, 7.0);
  EXPECT_DOUBLE_EQ(events[2].t_ms, 9.0);
}

TEST(EventLogTest, ChainableSettersFillFields) {
  const Event e = Event(EventKind::kKvPoisonRetry, 5.5)
                      .WithWindow(3)
                      .WithReason(1)
                      .WithA(2.0)
                      .WithB(12345.0);
  EXPECT_EQ(e.window, 3);
  EXPECT_EQ(e.reason, 1);
  EXPECT_DOUBLE_EQ(e.a, 2.0);
  EXPECT_DOUBLE_EQ(e.b, 12345.0);
  EXPECT_EQ(Event(EventKind::kPagePromote, 0.0).window, kNoWindow);
}

TEST(EventLogTest, MergeRemapsCellsAndLabels) {
  EventLog cell0;
  cell0.Record(At(1.0, EventKind::kPagePromote));
  EventLog cell1;
  cell1.Record(At(2.0, EventKind::kPageDemote));
  EventLog master;
  master.MergeFrom(cell0, "healthy");
  master.MergeFrom(cell1, "storm");
  ASSERT_EQ(master.size(), 2u);
  ASSERT_EQ(master.cells().size(), 2u);
  EXPECT_EQ(master.cells()[0], "healthy");
  EXPECT_EQ(master.cells()[1], "storm");
  const auto events = All(master);
  EXPECT_EQ(events[0].cell, 0);
  EXPECT_EQ(events[1].cell, 1);
}

TEST(EventLogTest, NestedMergePrefixesChildCells) {
  EventLog inner;
  inner.Record(At(1.0, EventKind::kPagePromote));
  EventLog mid;
  mid.MergeFrom(inner, "child");
  // mid: cells = ["child"], event.cell = 0.
  EventLog outer;
  outer.MergeFrom(mid, "parent");
  ASSERT_EQ(outer.cells().size(), 2u);
  EXPECT_EQ(outer.cells()[0], "parent");
  EXPECT_EQ(outer.cells()[1], "parent/child");
  EXPECT_EQ(All(outer)[0].cell, 1);
}

TEST(EventLogTest, MergeAccumulatesDropped) {
  EventLog cell;
  cell.set_capacity(2);
  for (int i = 0; i < 5; ++i) {
    cell.Record(At(i, EventKind::kPagePromote));
  }
  EventLog master;
  master.MergeFrom(cell, "ring");
  EXPECT_EQ(master.size(), 2u);
  EXPECT_EQ(master.dropped(), 3u);
}

TEST(EventLogTest, MergingEmptyLogIsANoOp) {
  EventLog master;
  master.Record(At(1.0, EventKind::kPagePromote));
  EventLog empty;
  master.MergeFrom(empty, "silent-cell");
  EXPECT_EQ(master.size(), 1u);
  // No cell slot burned for a cell that produced nothing.
  EXPECT_TRUE(master.cells().empty());
}

// Timestamps in order through every reader of the ring: ForEach, Snapshot,
// a MergeFrom into an empty log and the JSONL export.
std::vector<double> ForEachOrder(const EventLog& log) {
  std::vector<double> t;
  log.ForEach([&t](const Event& e) { t.push_back(e.t_ms); });
  return t;
}

std::vector<double> SnapshotOrder(const EventLog& log) {
  std::vector<double> t;
  for (const Event& e : log.Snapshot()) {
    t.push_back(e.t_ms);
  }
  return t;
}

std::vector<double> JsonlOrder(const EventLog& log) {
  MetricRegistry reg;
  reg.events().MergeFrom(log, "cell");
  std::ostringstream os;
  WriteEventsJsonl(os, reg);
  std::istringstream lines(os.str());
  std::string line;
  std::getline(lines, line);  // Meta line.
  std::vector<double> t;
  while (std::getline(lines, line)) {
    const std::string key = "{\"t_ms\":";
    EXPECT_EQ(line.compare(0, key.size(), key), 0) << line;
    t.push_back(std::strtod(line.c_str() + key.size(), nullptr));
  }
  return t;
}

void ExpectOrder(const EventLog& log, const std::vector<double>& want) {
  EXPECT_EQ(ForEachOrder(log), want);
  EXPECT_EQ(SnapshotOrder(log), want);
  EventLog merged;
  merged.MergeFrom(log, "cell");
  EXPECT_EQ(ForEachOrder(merged), want);
  EXPECT_EQ(JsonlOrder(log), want);
}

std::vector<double> Range(int begin, int end) {
  std::vector<double> t;
  for (int i = begin; i < end; ++i) {
    t.push_back(i);
  }
  return t;
}

TEST(EventLogRingTest, EveryWrapOffsetReadsOldestFirst) {
  // Capacities 1 (the ring is one slot), 3 and 7; record counts up to three
  // wraps, so the oldest event sits at every slot of the ring in turn and
  // most counts do not divide by the capacity.
  for (const int capacity : {1, 3, 7}) {
    for (int n = 0; n <= 3 * capacity + 1; ++n) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + ", " + std::to_string(n) + " records");
      EventLog log;
      log.set_capacity(static_cast<size_t>(capacity));
      for (int i = 0; i < n; ++i) {
        log.Record(At(i, EventKind::kPagePromote));
      }
      const int kept = std::min(n, capacity);
      EXPECT_EQ(log.size(), static_cast<size_t>(kept));
      EXPECT_EQ(log.dropped(), static_cast<uint64_t>(n - kept));
      ExpectOrder(log, Range(n - kept, n));
    }
  }
}

TEST(EventLogRingTest, ShrinkingAWrappedRingKeepsTheLatest) {
  EventLog log;
  log.set_capacity(7);
  for (int i = 0; i < 23; ++i) {  // Wrapped: the oldest survivor is 16.
    log.Record(At(i, EventKind::kPageDemote));
  }
  ExpectOrder(log, Range(16, 23));
  log.set_capacity(3);
  EXPECT_EQ(log.dropped(), 20u);
  ExpectOrder(log, Range(20, 23));
  // The shrunk ring keeps wrapping from where it was cut.
  for (int i = 23; i < 27; ++i) {
    log.Record(At(i, EventKind::kPageDemote));
  }
  EXPECT_EQ(log.dropped(), 24u);
  ExpectOrder(log, Range(24, 27));
}

TEST(EventLogRingTest, GrowingAWrappedRingAppendsAfterTheNewest) {
  EventLog log;
  log.set_capacity(5);
  for (int i = 0; i < 12; ++i) {  // Wrapped: survivors 7..11.
    log.Record(At(i, EventKind::kPagePromote));
  }
  log.set_capacity(8);
  for (int i = 12; i < 17; ++i) {  // Fills to 8, then wraps again.
    log.Record(At(i, EventKind::kPagePromote));
  }
  ExpectOrder(log, Range(9, 17));
  log.set_capacity(0);  // Unbounded from here on.
  log.Record(At(17, EventKind::kPagePromote));
  EXPECT_EQ(log.dropped(), 9u);
  ExpectOrder(log, Range(9, 18));
}

TEST(EventKindTest, DescriptorTableIsComplete) {
  for (int k = 0; k < kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    EXPECT_NE(EventKindName(kind), nullptr);
    EXPECT_GT(std::string(EventKindName(kind)).size(), 0u);
    const EventKindInfo& info = KindInfo(kind);
    EXPECT_STREQ(info.name, EventKindName(kind));
    if (info.reason_count > 0) {
      for (int r = 0; r < info.reason_count; ++r) {
        EXPECT_NE(EventReasonName(kind, r), nullptr);
      }
    }
  }
}

TEST(EventKindTest, DegradationResponseSet) {
  // The attribution contract applies exactly to the response kinds.
  EXPECT_TRUE(IsDegradationResponse(EventKind::kDaemonSkippedTick));
  EXPECT_TRUE(IsDegradationResponse(EventKind::kPromotionBackoffArmed));
  EXPECT_TRUE(IsDegradationResponse(EventKind::kKvShedOn));
  EXPECT_TRUE(IsDegradationResponse(EventKind::kKvShedOff));
  EXPECT_TRUE(IsDegradationResponse(EventKind::kKvPoisonRetry));
  EXPECT_TRUE(IsDegradationResponse(EventKind::kKvQuarantine));
  EXPECT_TRUE(IsDegradationResponse(EventKind::kKvFlashRetry));
  EXPECT_TRUE(IsDegradationResponse(EventKind::kSparkShuffleReexec));
  EXPECT_TRUE(IsDegradationResponse(EventKind::kLlmBatchShrink));
  EXPECT_FALSE(IsDegradationResponse(EventKind::kFaultWindowOpen));
  EXPECT_FALSE(IsDegradationResponse(EventKind::kPagePromote));
  EXPECT_FALSE(IsDegradationResponse(EventKind::kSloViolationOpen));
  EXPECT_FALSE(IsDegradationResponse(EventKind::kAnomalyPingPong));
  EXPECT_FALSE(IsDegradationResponse(EventKind::kSolverCacheInvalidate));
}

TEST(EventKindTest, ReasonNamesResolve) {
  EXPECT_STREQ(EventReasonName(EventKind::kFaultWindowOpen, 0), "downtrain");
  EXPECT_STREQ(EventReasonName(EventKind::kFaultWindowOpen, 2), "poison");
  EXPECT_STREQ(EventReasonName(EventKind::kPagePromote, 0), "hot_threshold");
  EXPECT_STREQ(EventReasonName(EventKind::kPageDemote, 2), "quarantine");
  EXPECT_STREQ(EventReasonName(EventKind::kLlmBatchShrink, 0), "shrink");
  EXPECT_STREQ(EventReasonName(EventKind::kSloViolationOpen, 1), "throughput");
  // Out-of-range or reasonless kinds resolve to "unknown", not UB.
  EXPECT_STREQ(EventReasonName(EventKind::kKvQuarantine, 0), "unknown");
  EXPECT_STREQ(EventReasonName(EventKind::kFaultWindowOpen, 99), "unknown");
}

}  // namespace
}  // namespace cxl::telemetry
