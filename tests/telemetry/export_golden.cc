// Writes one exporter's output for a fixed, deterministic registry to stdout:
//
//   telemetry_export_golden metrics.json|metrics.csv|trace.json|events.jsonl
//
// The golden_gate.telemetry_export.* ctests diff each format against
// tests/golden/telemetry_export.<format>, so every byte of all four exporters
// is pinned, not only the JSON and JSONL a bench happens to emit. The fixture
// reaches every exporter branch: counters, set and unset gauges, histograms
// (empty and filled), series with non-finite and extreme values, trace spans
// and instants with and without args, every EventKind with reasons in and
// out of range and windows attributed and not, a ring-wrapped cell log, a
// nested merge, an unlabelled merge, an out-of-range cell id, and labels that
// need JSON escaping (quotes, backslash, tab, control characters).
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "src/telemetry/events.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "src/util/histogram.h"

namespace cxl::telemetry {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// A fixed bit-pattern walk over finite doubles of every magnitude, so the
// series exercise exponents, subnormals and 12/13-digit rounding without a
// random-number library.
double FixtureValue(uint64_t i) {
  uint64_t x = (i + 1) * 0x9E3779B97F4A7C15ull;
  x ^= x >> 29;
  double v = 0.0;
  std::memcpy(&v, &x, sizeof(v));
  return v;
}

// Every EventKind, with in-range and out-of-range reasons, attributed and
// unattributed windows, and payloads spanning the number formats.
void RecordEveryKind(EventLog& log, double t0) {
  for (int k = 0; k < kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    int32_t reason = k % 2;
    if (k % 5 == 3) {
      reason = 99;
    } else if (k % 7 == 4) {
      reason = -1;
    }
    Event e(kind, t0 + 1.25 * k);
    e.WithReason(reason).WithA(0.1 * k).WithB(k % 4 == 0 ? kNaN : 1e21 / (k + 1));
    if (k % 3 != 0) {
      e.WithWindow(k);
    }
    log.Record(e);
  }
}

// Two fault windows with attributed responses, recorded into a flight
// recorder that wraps (13 records into 5 slots), so the survivors still open
// one window, respond to the other and close both.
void RecordWrappedStorm(EventLog& log) {
  log.set_capacity(5);
  log.Record(
      Event(EventKind::kFaultWindowOpen, 10.0).WithWindow(2).WithReason(0).WithA(0.5).WithB(40));
  for (int i = 0; i < 8; ++i) {
    const EventKind kind = i % 2 == 0 ? EventKind::kKvShedOn : EventKind::kKvShedOff;
    log.Record(Event(kind, 10.5 + i).WithWindow(2).WithA(880.0 + i / 3.0).WithB(-0.0));
  }
  log.Record(
      Event(EventKind::kFaultWindowOpen, 20.0).WithWindow(3).WithReason(4).WithA(1).WithB(5));
  log.Record(Event(EventKind::kDaemonSkippedTick, 21.0).WithWindow(3).WithReason(0));
  log.Record(Event(EventKind::kFaultWindowClose, 50.0).WithWindow(2).WithReason(0).WithA(0.5));
  log.Record(Event(EventKind::kFaultWindowClose, 25.0).WithWindow(3).WithReason(4).WithA(1));
}

void FillHealthyCell(MetricRegistry& reg) {
  reg.GetCounter("kv.ops").Add(220000);
  reg.GetGauge("kv.throughput_kops").Set(207.8);
  Histogram h;
  h.Record(100.0);
  h.Record(250.5);
  h.RecordMany(1e6, 3);
  reg.RecordHistogram("kv.read_latency_us", h);
  for (uint64_t i = 0; i < 48; ++i) {
    reg.timeline().Sample("kv.bits", 0.25 * static_cast<double>(i), FixtureValue(i));
  }
  const auto track = reg.trace().Track("kv-server");
  reg.trace().Span(track, "epoch 0", 0.0, 250.0, {{"kops", 880.0}, {"slo\"burn", 1.0 / 3.0}});
  RecordEveryKind(reg.events(), 0.5);
}

void FillNestedCell(MetricRegistry& reg) {
  MetricRegistry inner;
  inner.GetCounter("pool.spills").Add(3);
  inner.timeline().Sample("pool.used_gib", 1.0, 64.0);
  inner.events().Record(Event(EventKind::kPoolBalloonReclaim, 3.0).WithA(512.0).WithB(2.0));
  inner.events().Record(
      Event(EventKind::kTenantReshard, 4.0).WithWindow(1).WithReason(0).WithA(1e5).WithB(7.0));
  reg.events().Record(Event(EventKind::kSloViolationOpen, 2.0).WithReason(1).WithA(0.9));
  reg.MergeFrom(inner, "inner/");
}

MetricRegistry BuildFixture() {
  MetricRegistry reg;
  reg.GetCounter("requests").Add(42);
  reg.GetCounter("bytes\"quoted").Add(std::numeric_limits<uint64_t>::max());
  reg.GetCounter("zero");
  reg.GetGauge("ratio").Set(0.1 + 0.2);
  reg.GetGauge("unset");
  reg.GetGauge("neg_zero").Set(-0.0);
  reg.GetGauge("inf").Set(kInf);
  reg.GetGauge("nan").Set(kNaN);
  reg.GetGauge("big").Set(1e21);
  reg.GetGauge("tiny").Set(5e-324);
  reg.GetGauge("tab\tlabel").Set(999999999999.5);
  reg.GetGauge("ctrl\x01label").Set(-1.5e-7);
  reg.RecordHistogram("empty_hist", Histogram());
  reg.timeline().Sample("bw_gbps", 0.0, 1.5);
  reg.timeline().Sample("bw_gbps", 0.5, kNaN);
  reg.timeline().Sample("bw_gbps", 1.0, kInf);
  reg.timeline().Sample("bw_gbps", 1.5, -kInf);
  reg.timeline().Sample("bw_gbps", 2.0, 1e-300);
  reg.timeline().Sample("bw_gbps", 1e15, 123.456789012345);
  reg.timeline().Sample("path\\back", kInf, 9007199254740993.0);
  const auto daemon = reg.trace().Track("daemon");
  const auto ctrl = reg.trace().Track("ctrl\x02track");
  reg.trace().Span(daemon, "tick", 1.0, 0.125, {{"pages", 12.0}, {"gbps", kInf}});
  reg.trace().Span(ctrl, "quiet\nspan", 2.0, kNaN);
  reg.trace().Instant(daemon, "converged", 3.0, {{"iters", 7.0}});
  reg.trace().Instant(ctrl, "mark", 1e-9);

  MetricRegistry healthy;
  FillHealthyCell(healthy);
  reg.MergeFrom(healthy, "healthy/");

  MetricRegistry storm;
  RecordWrappedStorm(storm.events());
  reg.MergeFrom(storm, "storm\"\x1f/");

  MetricRegistry nested;
  FillNestedCell(nested);
  reg.MergeFrom(nested, "nested/");

  MetricRegistry unlabelled;
  unlabelled.events().Record(Event(EventKind::kSolverCacheInvalidate, 7.0).WithA(63.7).WithB(4));
  reg.MergeFrom(unlabelled);

  // Un-merged events after the merges: one with no cell, one whose cell id
  // names no label.
  reg.events().Record(Event(EventKind::kAnomalyPingPong, 60.0).WithA(5).WithB(5));
  Event stray(EventKind::kLlmBatchShrink, 61.0);
  stray.cell = 99;
  reg.events().Record(stray.WithWindow(0).WithReason(1).WithA(16).WithB(1.5));
  return reg;
}

}  // namespace
}  // namespace cxl::telemetry

int main(int argc, char** argv) {
  using namespace cxl::telemetry;
  const std::string format = argc == 2 ? argv[1] : "";
  const MetricRegistry reg = BuildFixture();
  if (format == "metrics.json") {
    WriteMetricsJson(std::cout, reg);
  } else if (format == "metrics.csv") {
    WriteMetricsCsv(std::cout, reg);
  } else if (format == "trace.json") {
    WriteChromeTrace(std::cout, reg);
  } else if (format == "events.jsonl") {
    WriteEventsJsonl(std::cout, reg);
  } else {
    std::cerr << "usage: " << argv[0] << " metrics.json|metrics.csv|trace.json|events.jsonl\n";
    return 2;
  }
  std::cout.flush();
  return std::cout ? 0 : 1;
}
