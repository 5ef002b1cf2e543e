#include "src/telemetry/events.h"

#include <cstddef>
#include <utility>

namespace cxl::telemetry {

namespace {

// Reason-code name tables, indexed by `Event::reason`.
constexpr const char* kFaultTypeReasons[] = {
    // Mirrors fault::FaultType's declaration order (fault emits the enum
    // value as the reason code).
    "downtrain", "crc", "poison", "throttle", "stall", "flash",
};
constexpr const char* kPromoteReasons[] = {"hot_threshold", "mru", "tpp", "adaptive"};
constexpr const char* kDemoteReasons[] = {"dram_pressure", "watermark", "quarantine"};
constexpr const char* kSkipReasons[] = {"stall", "backoff", "policy"};
constexpr const char* kBatchReasons[] = {"shrink", "recover"};
constexpr const char* kSloReasons[] = {"latency", "throughput"};
constexpr const char* kReshardReasons[] = {"degraded_link", "pressure", "hotspot"};

constexpr EventKindInfo kKindInfo[kEventKindCount] = {
    /*kFaultWindowOpen*/ {"fault_window_open", "severity", "duration_ms", kFaultTypeReasons, 6},
    /*kFaultWindowClose*/ {"fault_window_close", "severity", nullptr, kFaultTypeReasons, 6},
    /*kPagePromote*/ {"page_promote", "pages", "candidates", kPromoteReasons, 4},
    /*kPageDemote*/ {"page_demote", "pages", "mb", kDemoteReasons, 3},
    /*kDaemonSkippedTick*/ {"daemon_skipped_tick", nullptr, nullptr, kSkipReasons, 3},
    /*kPromotionBackoffArmed*/
    {"promotion_backoff_armed", "backoff_ticks", "failure_streak", nullptr, 0},
    /*kKvShedOn*/ {"kv_shed_on", "baseline_kops", "epoch_kops", nullptr, 0},
    /*kKvShedOff*/ {"kv_shed_off", "baseline_kops", "epoch_kops", nullptr, 0},
    /*kKvPoisonRetry*/ {"kv_poison_retry", "retries", "page", nullptr, 0},
    /*kKvQuarantine*/ {"kv_quarantine", "page", nullptr, nullptr, 0},
    /*kKvFlashRetry*/ {"kv_flash_retry", "timeout_factor", nullptr, nullptr, 0},
    /*kSparkShuffleReexec*/ {"spark_shuffle_reexec", "partitions", "retry_s", nullptr, 0},
    /*kLlmBatchShrink*/ {"llm_batch_shrink", "batch", "inflation", kBatchReasons, 2},
    /*kSolverCacheInvalidate*/
    {"solver_cache_invalidate", "achieved_gbps", "iterations", nullptr, 0},
    /*kSloViolationOpen*/ {"slo_violation_open", "observed", "objective", kSloReasons, 2},
    /*kSloViolationClose*/ {"slo_violation_close", "burned_ms", nullptr, kSloReasons, 2},
    /*kAnomalyPingPong*/ {"anomaly_ping_pong", "promoted_pages", "demoted_pages", nullptr, 0},
    /*kAnomalyPromotionStarvation*/
    {"anomaly_promotion_starvation", "ticks", "candidates", nullptr, 0},
    /*kAnomalySolverOscillation*/
    {"anomaly_solver_oscillation", "swings", "mean_delta", nullptr, 0},
    /*kPoolBalloonReclaim*/ {"pool_balloon_reclaim", "reclaimed_mib", "victims", nullptr, 0},
    /*kTenantReshard*/ {"tenant_reshard", "tenants", "shard", kReshardReasons, 3},
};

}  // namespace

const EventKindInfo& KindInfo(EventKind kind) {
  const auto i = static_cast<size_t>(kind);
  return kKindInfo[i < kEventKindCount ? i : 0];
}

const char* EventKindName(EventKind kind) { return KindInfo(kind).name; }

const char* EventReasonName(EventKind kind, int32_t reason) {
  const EventKindInfo& info = KindInfo(kind);
  if (info.reasons == nullptr || reason < 0 || reason >= info.reason_count) {
    return "unknown";
  }
  return info.reasons[reason];
}

bool IsDegradationResponse(EventKind kind) {
  switch (kind) {
    case EventKind::kDaemonSkippedTick:
    case EventKind::kPromotionBackoffArmed:
    case EventKind::kKvShedOn:
    case EventKind::kKvShedOff:
    case EventKind::kKvPoisonRetry:
    case EventKind::kKvQuarantine:
    case EventKind::kKvFlashRetry:
    case EventKind::kSparkShuffleReexec:
    case EventKind::kLlmBatchShrink:
      return true;
    default:
      return false;
  }
}

void EventLog::set_capacity(size_t capacity) {
  if (capacity == capacity_) {
    return;
  }
  if (head_ != 0 || (capacity > 0 && buf_.size() > capacity)) {
    // Unwrap so the plain append path in Record stays valid, keeping the
    // latest `capacity` events and evicting the rest as dropped.
    std::vector<Event> kept = Snapshot();
    if (capacity > 0 && kept.size() > capacity) {
      dropped_ += kept.size() - capacity;
      kept.erase(kept.begin(), kept.end() - static_cast<std::ptrdiff_t>(capacity));
    }
    buf_ = std::move(kept);
    head_ = 0;
  }
  capacity_ = capacity;
}

void EventLog::Record(const Event& e) {
  if (capacity_ == 0 || buf_.size() < capacity_) {
    buf_.push_back(e);
    return;
  }
  // Ring full: overwrite the oldest slot.
  buf_[head_] = e;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::vector<Event> EventLog::Snapshot() const {
  std::vector<Event> out;
  out.reserve(buf_.size());
  ForEach([&out](const Event& e) { out.push_back(e); });
  return out;
}

void EventLog::MergeFrom(const EventLog& other, const std::string& cell_label) {
  if (other.buf_.empty() && other.dropped_ == 0) {
    return;
  }
  // Slot for `other`'s un-celled events, then one slot per cell `other`
  // itself merged (nested merges keep their provenance under a joined label).
  const auto self = static_cast<int32_t>(cells_.size());
  cells_.push_back(cell_label);
  for (const std::string& c : other.cells_) {
    cells_.push_back(cell_label.empty() ? c : cell_label + "/" + c);
  }
  other.ForEach([&](const Event& e) {
    Event out = e;
    out.cell = e.cell >= 0 ? self + 1 + e.cell : self;
    Record(out);
  });
  dropped_ += other.dropped_;
}

}  // namespace cxl::telemetry
