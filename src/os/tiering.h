// Tiered-memory management: hotness tracking + hot-page promotion daemon.
//
// Models the two kernel mechanisms the paper evaluates (§2.3):
//
//  1. NUMA balancing / hint-fault sampling: accesses are *sampled* (page
//     table scans + hint faults observe a fraction of real accesses) into a
//     per-page decayed heat counter.
//  2. Hot page selection with a Promotion Rate Limit
//     (kernel.numa_balancing_promote_rate_limit_MBps): each daemon tick
//     promotes the hottest low-tier (CXL) pages into DRAM, bounded by the
//     rate limit, demoting cold DRAM pages when DRAM is near-full. The hot
//     threshold can be adjusted dynamically to aim the candidate rate at the
//     rate limit — the very mechanism whose mis-adaptation causes the Spark
//     thrashing regression the paper reports (§4.2.2).
//
// *Which* pages promote, under what threshold and budget, is decided by a
// pluggable TieringPolicy (src/os/policy.h) resolved by name through
// MakeTieringPolicy; TieredMemory owns the mechanisms (candidate selection,
// migration, the demotion cold pool, fault gates) and feeds the policy
// per-tick observations.
//
// Selection runs on a heat-ordered index of resident pages (HeatIndex,
// tiering.cc). Heat decays by exactly kHeatDecay = 0.5 per tick, so an
// untouched page keeps its binary exponent relative to the number of decays
// so far; the index files each page under that key in per-tier buckets and
// re-files only the pages a tick touches or migrates. Promotion candidates
// come from the low-tier buckets, walked from the top down to the
// threshold; the demotion cold pool walks the DRAM buckets from the bottom
// up (zero-heat pages in id order first) and ranks only what it demotes. A
// tick therefore reads the pages touched since the last tick, the pages it
// migrates and the pages it must rank — plus one dense decay sweep over the
// heat column. Every choice is the one a full (heat, id)-ordered scan would
// make; docs/performance.md gives the exactness argument, and
// tests/os/tiering_index_test.cc checks it against such a scan.
#ifndef CXL_EXPLORER_SRC_OS_TIERING_H_
#define CXL_EXPLORER_SRC_OS_TIERING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/fault/fault.h"
#include "src/os/page.h"
#include "src/os/page_allocator.h"
#include "src/os/policy.h"
#include "src/os/vmstat.h"
#include "src/telemetry/metrics.h"
#include "src/util/arena.h"
#include "src/topology/platform.h"

namespace cxl::os {

struct TieringConfig {
  // Name of the promotion policy (src/os/policy_registry.h, §2.3):
  //  - "hot-page-selection" (also selected by an empty name): the post-v6.1
  //    patch — heat threshold (optionally dynamic) + promotion rate limit.
  //    What the paper's experiments use.
  //  - "mru-balancing": the earlier NUMA-balancing patch — promotes
  //    *recently accessed* pages (MRU) with no hotness threshold.
  //  - "tpp-like" (Meta's Transparent Page Placement, §2.3/§8): promote a
  //    page on its *second* observed access with NO rate limit; migrates
  //    without bound under bandwidth-intensive or streaming workloads.
  //  - "adaptive-feedback": hot-page selection whose budget reacts to
  //    thrashing and to a degraded CXL link.
  std::string policy;
  // kernel.numa_balancing_promote_rate_limit_MBps. The kernel default is
  // 65536 (64 GiB/s, effectively unlimited); the paper's experiments ran the
  // post-v6.1 dynamic-threshold variant.
  double promote_rate_limit_mbps = 65536.0;
  // Initial hot threshold in (sampled) accesses per daemon interval.
  double initial_hot_threshold = 4.0;
  // Dynamically adjust the threshold to match promotion candidates to the
  // rate limit (the "hot page selection" patch behaviour).
  bool dynamic_threshold = true;
  // Demote cold DRAM pages when DRAM free fraction falls below this.
  double demotion_free_watermark = 0.02;
  // Fraction of real accesses observed by hint-fault sampling.
  double hint_fault_sample_rate = 0.05;

  // The effective policy name (policy, or hot-page-selection when
  // policy is empty).
  const char* PolicyName() const;
};

// Factor applied to every page's heat at the end of each daemon tick. A
// power of two, so decay is exact for normal floats and never reorders
// untouched pages — the invariant the daemon's heat index is built on.
inline constexpr float kHeatDecay = 0.5f;

class HeatIndex;

class TieredMemory {
 public:
  TieredMemory(PageAllocator& allocator, TieringConfig config);
  ~TieredMemory();

  // Feeds `accesses` real accesses to `page` into the (sampled) heat
  // counter. Called by application models once per simulation step per page
  // group.
  void RecordAccess(PageId page, uint64_t accesses);

  // Runs one daemon interval covering `dt_seconds` of simulated time.
  struct TickResult {
    uint64_t promoted_pages = 0;
    uint64_t demoted_pages = 0;
    double migrated_bytes = 0.0;   // Promotion + demotion traffic.
    double hot_threshold = 0.0;    // Threshold in effect after adjustment.
    uint64_t candidates = 0;       // Hot low-tier pages seen this tick.
    // Page slots the tick's selection read: pages re-filed in the heat
    // index (touched, or all resident pages on an index rebuild), walked
    // as candidates, gathered into the cold pool, counted for migration
    // feedback, or migrated. Excludes the dense decay sweep. Deterministic
    // and observational only (not exported to telemetry).
    uint64_t pages_examined = 0;
  };
  TickResult Tick(double dt_seconds);

  // Everything the daemon reports to or consults besides the allocator,
  // attached in one call so future sinks extend the struct instead of each
  // growing another setter. All fields are nullable (detach by attaching a
  // default-constructed Observers) and purely optional:
  //  - telemetry: every subsequent Tick() appends the daemon's state into
  //    the sink — time series (tiering.hot_threshold, promote/demote rates,
  //    rate-limit saturation, vmstat.* counters), counters/gauges, and one
  //    span per tick on the "promotion-daemon" trace track, stamped on an
  //    internal simulated clock (the sum of dt_seconds). Attaching must not
  //    change promotion behaviour.
  //  - faults: read at each Tick(): while a kDaemonStall event covers the
  //    injector's clock the tick does no scanning, promotion, or decay (the
  //    kernel thread is wedged), and repeated promotion failures on the
  //    degraded path arm an exponential backoff of skipped ticks (capped by
  //    FaultTunables::backoff_max_ticks). With a null or disabled injector
  //    every tick behaves exactly as before — byte-identical runs.
  //  - policy: overrides the config-constructed policy with a caller-owned
  //    instance (must outlive the daemon) — how tests and benches inspect
  //    learned policy state after a run. Null keeps the owned policy.
  // Re-attaching with an unchanged telemetry pointer keeps the cached
  // metric handles and trace track (so repeated Attach calls are free).
  struct Observers {
    telemetry::MetricRegistry* telemetry = nullptr;
    const fault::FaultInjector* faults = nullptr;
    TieringPolicy* policy = nullptr;
  };
  void Attach(const Observers& observers);

  // Degraded-path quarantine: takes `page` out of promotion consideration
  // permanently and demotes it to the low tier if it currently sits in
  // DRAM (a poisoned cacheline must not be re-promoted into the hot set).
  // Returns true when the page was newly quarantined. Only the fault paths
  // call this; healthy runs keep the set empty.
  bool QuarantinePage(PageId page);
  uint64_t QuarantinedPages() const { return quarantined_.size(); }

  // Remaining ticks of promotion-failure backoff (tests/telemetry).
  int BackoffTicksRemaining() const { return backoff_ticks_remaining_; }

  // DRAM nodes are the top tier; CXL nodes the low tier (§2.3).
  bool IsTopTier(topology::NodeId node) const;

  double hot_threshold() const { return policy_->hot_threshold(); }
  const TieringConfig& config() const { return config_; }
  PageAllocator& allocator() { return allocator_; }

  // The active decision policy (the attached override, else the owned one).
  TieringPolicy& policy() { return *policy_; }
  const TieringPolicy& policy() const { return *policy_; }

  // Pages currently resident on low-tier nodes (for tests/telemetry).
  uint64_t LowTierPages() const;

 private:
  // Demotes up to `count` of the coldest DRAM pages to make room. Returns
  // pages actually demoted.
  uint64_t DemoteColdPages(uint64_t count, uint64_t* examined);

  // Brings the heat index up to date at tick entry: a full rebuild when the
  // allocator's placement changed since the last sync (or on the first
  // tick), else a re-file of the pages touched this epoch. Returns the page
  // slots read.
  uint64_t SyncIndex();

  // Whether the heat index reflects the allocator's current placement.
  bool IndexInSync() const;

  // Migrates `page` to `target`, keeping the heat index in step.
  Status MoveIndexed(PageId page, topology::NodeId target);

  // Ends the current scan interval: advances the recency epoch, starts a
  // fresh touched list and retires the promoted-page list that falls out of
  // the migration-feedback window.
  void AdvanceEpoch();

  // Appends one tick's worth of telemetry (no-op without a sink).
  void EmitTickTelemetry(const TickResult& result, double dt_seconds);

  // Appends this tick's structured events (page_promote / page_demote with
  // reason codes); no-op without a sink. `watermark_demoted` is the portion
  // of result.demoted_pages freed by the watermark branch rather than by
  // DRAM pressure inside the promotion loop.
  void EmitTickEvents(const TickResult& result, uint64_t watermark_demoted);

  PageAllocator& allocator_;
  TieringConfig config_;
  uint32_t epoch_ = 0;  // Scan interval counter (recency stamps).

  // Decision policy: owned instance built from config_ at construction;
  // policy_ points at it unless Attach() supplied an override.
  std::unique_ptr<TieringPolicy> owned_policy_;
  TieringPolicy* policy_ = nullptr;

  // Heat-ordered index of resident pages plus the per-tick cold pool and
  // promoted-page bookkeeping (tiering.cc). Allocated at the first Tick().
  std::unique_ptr<HeatIndex> index_;
  // Pages first touched in the current epoch, appended by RecordAccess and
  // re-filed in the index at the next Tick() entry.
  std::vector<uint32_t> touched_;

  // Migration-outcome bookkeeping feeding TickObservation (observational
  // only — never consulted by the mechanisms themselves).
  uint64_t tick_ping_pong_ = 0;             // Demotions of recently promoted pages.
  uint64_t tick_recent_promoted_ = 0;       // Recently promoted pages seen in DRAM.
  uint64_t tick_recent_promoted_hot_ = 0;   // ...of those, re-accessed this interval.

  // Per-tick transients (candidate lists) bump-allocate here; Reset() at
  // each Tick() entry recycles the blocks, so steady-state ticks do no heap
  // allocation.
  Arena tick_arena_;

  // Telemetry (observational only).
  telemetry::MetricRegistry* telemetry_ = nullptr;
  telemetry::TraceBuffer::TrackId telemetry_track_ = 0;
  double sim_seconds_ = 0.0;  // Sum of Tick() dt_seconds.
  // Cached metric/series handles, resolved lazily at the first emitting tick
  // (so attaching a sink without ever ticking registers nothing, exactly as
  // the by-name path behaved).
  struct TickTelemetryHandles {
    bool attached = false;
    telemetry::TimeSeries* hot_threshold = nullptr;
    telemetry::TimeSeries* candidates = nullptr;
    telemetry::TimeSeries* promote_mbps = nullptr;
    telemetry::TimeSeries* demote_mbps = nullptr;
    telemetry::TimeSeries* rate_limit_saturation = nullptr;
    telemetry::TimeSeries* low_tier_pages = nullptr;
    telemetry::TimeSeries* reaccess_ratio = nullptr;
    telemetry::TimeSeries* ping_pong = nullptr;
    VmCounterSeries vmstat;
    telemetry::Counter* ticks = nullptr;
    telemetry::Counter* promoted_pages = nullptr;
    telemetry::Counter* demoted_pages = nullptr;
    telemetry::Gauge* hot_threshold_gauge = nullptr;
    telemetry::Gauge* rate_limit_saturation_gauge = nullptr;
  };
  TickTelemetryHandles handles_;

  // Fault handling (inert unless an enabled injector is attached).
  const fault::FaultInjector* faults_ = nullptr;
  std::unordered_set<PageId> quarantined_;
  int promotion_failure_streak_ = 0;
  int backoff_ticks_remaining_ = 0;
};

}  // namespace cxl::os

#endif  // CXL_EXPLORER_SRC_OS_TIERING_H_
