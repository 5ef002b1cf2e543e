// Structured event log: the flight recorder of the telemetry layer.
//
// Counters and time series (metrics.h, timeline.h) answer "how much"; the
// EventLog answers "what happened, when, and *because of what*". Every layer
// of the stack appends typed, sim-time-stamped events — fault windows opening
// and closing, page promotions/demotions with reason codes, degradation
// responses (promotion backoff, KV load shedding / poison retries /
// quarantine, Spark shuffle re-execution, LLM batch shrinking), solver cache
// invalidations, SLO violations, and detected anomalies.
//
// Causal attribution: every degradation-response event carries the id of the
// fault window that caused it (`window`, the index of the FaultEvent in the
// run's FaultPlan), so a per-window impact report falls out of a join between
// fault_window_open events and everything that names the same window.
// tools/report/cxl_report performs exactly that join.
//
// Two capture modes:
//   - full log (capacity 0, the default): every event is kept;
//   - flight recorder (set_capacity(N) > 0): a bounded ring that keeps the
//     *latest* N events and counts what it evicted in dropped().
//
// Concurrency and determinism follow the MetricRegistry contract: an
// EventLog is single-writer, timestamps are simulated milliseconds only
// (cxl_lint CXL-D001 applies), and per-cell logs merge in cell-index order so
// the merged stream — and its JSONL export — is byte-identical for any
// --jobs value.
#ifndef CXL_EXPLORER_SRC_TELEMETRY_EVENTS_H_
#define CXL_EXPLORER_SRC_TELEMETRY_EVENTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cxl::telemetry {

// The event taxonomy. Stable names (EventKindName) are the JSONL "kind"
// values; docs/telemetry.md carries the full table.
enum class EventKind : uint8_t {
  // Fault subsystem: a FaultPlan window became active / retired. The window
  // id is the event's index within the plan; reason is the fault type.
  kFaultWindowOpen = 0,
  kFaultWindowClose,
  // Tiering daemon, one per tick with activity: reason = promotion mode for
  // promotes, {dram_pressure, watermark, quarantine} for demotes.
  kPagePromote,
  kPageDemote,
  // Tiering daemon degradation responses: a tick skipped because the daemon
  // is wedged (reason=stall) or backing off (reason=backoff), and the arming
  // of an exponential backoff after a promotion failure.
  kDaemonSkippedTick,
  kPromotionBackoffArmed,
  // KV server degradation responses.
  kKvShedOn,
  kKvShedOff,
  kKvPoisonRetry,
  kKvQuarantine,
  kKvFlashRetry,
  // Spark: failed shuffle partitions re-executed after a stage retry.
  kSparkShuffleReexec,
  // LLM serving: decode batch changed (reason = shrink | recover).
  kLlmBatchShrink,
  // Bandwidth solver: a warm-start cache miss forced a re-solve.
  kSolverCacheInvalidate,
  // SLO engine (slo.h): a violation opened / closed (reason = latency |
  // throughput).
  kSloViolationOpen,
  kSloViolationClose,
  // Anomaly detectors (anomaly.h).
  kAnomalyPingPong,
  kAnomalyPromotionStarvation,
  kAnomalySolverOscillation,
  // Pool scheduler (pool/scheduler.h): a starved host deflated peers'
  // balloons to free slices (a = reclaimed MiB, b = victim hosts).
  kPoolBalloonReclaim,
  // Fleet frontend (apps/kv/fleet.h): a shard's tenants moved hosts
  // (a = tenants, b = shard id; reason = degraded_link | pressure | hotspot;
  // window set when the move was forced by a fault window).
  kTenantReshard,
};

inline constexpr int kEventKindCount = 21;

// No originating fault window (healthy run, or a kind with no attribution).
inline constexpr int32_t kNoWindow = -1;

// One event. Fixed-size POD so the ring buffer is cache-friendly; the two
// generic payload slots (a, b) carry kind-specific values named by
// EventKindInfo so the JSONL export stays self-describing.
struct Event {
  double t_ms = 0.0;    // Simulated milliseconds.
  EventKind kind = EventKind::kFaultWindowOpen;
  int32_t cell = -1;    // Sweep-cell id after MergeFrom; -1 before merging.
  int32_t window = kNoWindow;  // Originating fault-window id.
  int32_t reason = 0;   // Kind-specific reason code (EventReasonName).
  double a = 0.0;       // Kind-specific payload (EventKindInfo::field_a).
  double b = 0.0;       // Kind-specific payload (EventKindInfo::field_b).

  Event() = default;
  Event(EventKind k, double t) : t_ms(t), kind(k) {}
  Event& WithWindow(int32_t w) {
    window = w;
    return *this;
  }
  Event& WithReason(int32_t r) {
    reason = r;
    return *this;
  }
  Event& WithA(double v) {
    a = v;
    return *this;
  }
  Event& WithB(double v) {
    b = v;
    return *this;
  }
};

// Per-kind schema: stable name plus the field names of the generic payload
// slots (nullptr = the slot is unused and omitted from JSONL) and the
// reason-code name table (nullptr = no reason field).
struct EventKindInfo {
  const char* name;
  const char* field_a;
  const char* field_b;
  const char* const* reasons;
  int reason_count;
};

const EventKindInfo& KindInfo(EventKind kind);
const char* EventKindName(EventKind kind);
// Name for `reason` under `kind`; "unknown" when out of range or the kind
// carries no reason codes.
const char* EventReasonName(EventKind kind, int32_t reason);

// True for kinds that are degradation *responses* — events that must carry a
// valid originating fault-window id (the acceptance contract cxl_report
// --check enforces). Fault windows themselves, routine tiering activity,
// solver bookkeeping, SLO and anomaly events are excluded.
bool IsDegradationResponse(EventKind kind);

// Append-only event buffer with an optional ring bound. Single-writer.
class EventLog {
 public:
  // 0 (default) = unbounded full log. N > 0 = flight recorder keeping the
  // latest N events. Shrinking an already-overfull log keeps the latest
  // `capacity` events (the evicted ones count as dropped).
  void set_capacity(size_t capacity);
  size_t capacity() const { return capacity_; }

  void Record(const Event& e);

  size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }
  // Events evicted by the ring bound (0 in full-log mode).
  uint64_t dropped() const { return dropped_; }

  // Visits events oldest-first (the record order, modulo ring eviction):
  // the ring's two contiguous runs, [head_, size) then [0, head_).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = head_; i < buf_.size(); ++i) {
      fn(buf_[i]);
    }
    for (size_t i = 0; i < head_; ++i) {
      fn(buf_[i]);
    }
  }
  // Materializes the events oldest-first (tests, detectors).
  std::vector<Event> Snapshot() const;

  // Cell-label table: MergeFrom registers one label per merged log and
  // rewrites each incoming event's `cell` to point at it. Only cells that
  // actually emitted events (or dropped some) appear here.
  const std::vector<std::string>& cells() const { return cells_; }

  // Appends `other`'s events under `cell_label`, in `other`'s order. Benches
  // merge per-cell logs in cell-index order, so the merged stream — and its
  // export — is independent of sweep thread count. A no-op when `other`
  // recorded nothing.
  void MergeFrom(const EventLog& other, const std::string& cell_label);

 private:
  std::vector<Event> buf_;
  size_t head_ = 0;        // Oldest event when the ring has wrapped.
  size_t capacity_ = 0;    // 0 = unbounded.
  uint64_t dropped_ = 0;
  std::vector<std::string> cells_;
};

}  // namespace cxl::telemetry

#endif  // CXL_EXPLORER_SRC_TELEMETRY_EVENTS_H_
