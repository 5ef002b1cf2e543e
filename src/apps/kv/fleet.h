// Fleet-serving KV frontend over a rack-scale CXL memory pool.
//
// KvServerSim (server.h) models ONE KeyDB instance op-by-op; KvFleetSim
// models the rack: millions of simulated tenants multiplexed onto N hosts as
// hashed shards, each host backing its working set with local DRAM first and
// pool leases (pool/scheduler.h) for the remainder. The model is fluid — per
// step it converts tenant populations into offered traffic, feeds the
// per-host DRAM, per-host pool link, and per-expander device resources
// through the max-min BandwidthSolver, and derives a per-host mean op
// latency from the blended DRAM / pooled-CXL / unbacked(SSD) stall costs:
//
//   tenants -> shard ops -> bytes/s per resource -> solver -> loaded
//   latency -> per-shard SLO observation ...
//
// Dynamics per simulated day:
//   - diurnal load: lambda(t) = 1 - A*cos(2*pi*t/day) scales both traffic
//     and resident working sets, so pool demand breathes;
//   - hotspot shards: a configurable set of shards runs hot for a window of
//     the day (the multi-tenant skew pooling absorbs);
//   - faults: a FaultPlan down-training one host's pool link mid-run
//     degrades that host's link capacity and inflates its pooled-access
//     latency (same CxlBandwidthFactor/CxlLatencyFactor laws as the
//     single-server path).
//
// Re-sharding: tenants move hosts in whole shards when (a) their host's
// pool link is degraded (reason=degraded_link, attributed to the fault
// window), (b) their host has unbacked demand after a denied grow
// (reason=pressure), or (c) their shard runs hot above the fleet mean
// (reason=hotspot). Every move emits kTenantReshard; a per-step tenant cap
// bounds the churn. SLO burn while tenants ride out the degraded/starved
// interval is accounted by per-shard SloTrackers (telemetry/slo.h).
//
// Determinism: the only RNG draws are the seeded initial shard layout;
// everything else is closed-form per step, so a sweep cell is byte-identical
// at any --jobs fan-out. Telemetry is observational and nullable.
#ifndef CXL_EXPLORER_SRC_APPS_KV_FLEET_H_
#define CXL_EXPLORER_SRC_APPS_KV_FLEET_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/fault/fault.h"
#include "src/mem/profiles.h"
#include "src/pool/scheduler.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/slo.h"
#include "src/util/units.h"

namespace cxl::apps::kv {

struct FleetConfig {
  // Tenant population, hashed onto `shards` shards (ragged +-jitter around
  // the mean so hosts are believably unbalanced).
  uint64_t tenants = 2'000'000;
  int shards = 64;
  double shard_size_jitter = 0.3;
  // Resident working set per tenant at lambda = 1 (scaled by the diurnal
  // demand factor below).
  uint64_t tenant_working_set_bytes = 384 * kKiB;
  // Offered load per tenant and the op's memory footprint.
  double tenant_ops_per_s = 2.0;
  uint64_t value_bytes = 8192;
  // Fraction of an op's cachelines that miss to memory (the stall model).
  double miss_rate = 0.25;
  double base_service_us = 2.0;
  mem::AccessMix mix = mem::AccessMix::Ratio(3, 1);

  // One simulated day.
  int steps = 48;
  double step_seconds = 1800.0;
  // lambda(t) = 1 - amplitude * cos(2*pi*t/day); working sets scale as
  // 0.75 + 0.35 * lambda (capacity breathes less than traffic).
  double diurnal_amplitude = 0.35;

  // Hotspot shards run at `hotspot_factor` x load inside the window
  // [start, end) expressed as fractions of the day.
  int hotspot_shards = 2;
  double hotspot_factor = 3.0;
  double hotspot_start_frac = 0.5;
  double hotspot_end_frac = 0.75;

  // Per-shard SLO (latency objective only; throughput dimension disabled).
  double slo_max_latency_us = 10.0;
  double slo_budget_fraction = 0.05;

  // Host whose pool link the fault plan (if any) degrades.
  int degraded_host = 0;
  // Re-shard churn bound per step, in tenants. Draining a degraded host is
  // not free — shards move one budget's worth per step, so its tenants ride
  // out (and burn SLO through) the early degraded steps.
  uint64_t max_reshard_tenants_per_step = 40'000;
  // A shard is a hotspot-reshard candidate above this multiple of the mean
  // shard rate.
  double hotspot_reshard_factor = 2.0;

  uint64_t seed = 1;
};

struct FleetStepSample {
  double t_ms = 0.0;
  double lambda = 0.0;
  double mean_latency_us = 0.0;   // Tenant-weighted across hosts.
  double worst_latency_us = 0.0;  // Worst host this step.
  double pool_utilization = 0.0;
  uint64_t stranded_bytes = 0;
  uint64_t unbacked_bytes = 0;  // Demand the pool could not back (pays SSD).
  uint64_t resharded_tenants = 0;
};

struct FleetResult {
  std::vector<FleetStepSample> timeline;
  double mean_latency_us = 0.0;
  double peak_latency_us = 0.0;
  double mean_pool_utilization = 0.0;
  double peak_pool_utilization = 0.0;
  // Re-shard churn over the run.
  uint64_t reshard_events = 0;
  uint64_t resharded_tenants = 0;
  // SLO accounting summed over shards; worst_burn_rate is the worst shard.
  int slo_violations = 0;
  double slo_burned_ms = 0.0;
  double worst_burn_rate = 0.0;
  // Scheduler accounting snapshot at the end of the run.
  pool::SchedulerStats scheduler;
};

class KvFleetSim {
 public:
  // `scheduler` must outlive the sim and wrap the rack the fleet runs on.
  // `telemetry` (nullable) receives kTenantReshard / balloon events, series
  // and gauges; `faults` (nullable) drives the degraded-link dynamics.
  KvFleetSim(pool::PoolScheduler& scheduler, FleetConfig config,
             telemetry::MetricRegistry* telemetry = nullptr,
             fault::FaultInjector* faults = nullptr);

  FleetResult Run();

 private:
  // Moves shard `s` to `host`, emitting kTenantReshard (reason, window).
  void MoveShard(int s, int host, int reason, int32_t window, double t_ms);
  // Host with the lowest offered ops this step, excluding `exclude`
  // (ties: lowest id).
  int LeastLoadedHost(const std::vector<double>& host_ops, int exclude) const;

  pool::PoolScheduler& scheduler_;
  FleetConfig config_;
  telemetry::MetricRegistry* telemetry_;
  fault::FaultInjector* faults_;

  std::vector<uint64_t> shard_tenants_;  // Seeded ragged layout.
  std::vector<int> shard_host_;
  std::vector<uint8_t> shard_hot_;  // Hotspot membership.

  // Profiles owned here so solver resources can reference them per step.
  const mem::PathProfile& pool_profile_;
  mem::PathProfile host_dram_profile_;
  std::optional<mem::PathProfile> degraded_link_profile_;
  double degraded_link_factor_ = 0.0;  // Bandwidth factor it was built with.

  std::vector<std::unique_ptr<telemetry::SloTracker>> shard_slo_;

  uint64_t reshard_events_ = 0;
  uint64_t resharded_tenants_ = 0;
  uint64_t step_reshard_budget_ = 0;  // Tenants still movable this step.
};

}  // namespace cxl::apps::kv

#endif  // CXL_EXPLORER_SRC_APPS_KV_FLEET_H_
