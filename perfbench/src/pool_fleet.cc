// Workload `pool-fleet`: the §7.1 rack pool serving a multi-tenant KV fleet.
//
// flat/star/mesh fabric x tight/ample expander capacity x healthy/downtrain,
// 8 hosts and 4 expanders per rack, the bench_pool_rack cell shapes. Each
// cell runs `kDays` consecutive simulated days of the 2M-tenant KvFleetSim
// (48 steps of 30 min each) on one rack, whose leases carry over from day to
// day; every day draws its own tenant layout, and in downtrain cells host
// 0's pool link drops to x4 from 35% to 60% of each day. Every cell records
// into its own MetricRegistry (events, series, SLO trackers); after the
// sweep the registries merge in cell order and export to JSON in memory.
// The pooling-economics table (hosts 2/4/8/16) is the pass's one-time
// set-up.
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "harness.h"
#include "src/apps/kv/fleet.h"
#include "src/fault/fault.h"
#include "src/pool/memory_pool.h"
#include "src/pool/rack.h"
#include "src/pool/scheduler.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace perfbench {
namespace {

using namespace cxl;

constexpr int kDays = 200;
constexpr int kStepsPerDay = 48;
constexpr double kStepSeconds = 1800.0;
constexpr double kDaySeconds = kStepsPerDay * kStepSeconds;

struct RackCell {
  pool::RackTopology topology;
  const char* capacity;
  uint64_t expander_capacity_bytes;
  bool downtrain;
};

void DigestFleet(Digest& d, const apps::kv::FleetResult& r) {
  for (const auto& s : r.timeline) {
    d.Add(s.t_ms)
        .Add(s.lambda)
        .Add(s.mean_latency_us)
        .Add(s.worst_latency_us)
        .Add(s.pool_utilization)
        .Add(s.stranded_bytes)
        .Add(s.unbacked_bytes)
        .Add(s.resharded_tenants);
  }
  d.Add(r.mean_latency_us)
      .Add(r.peak_latency_us)
      .Add(r.mean_pool_utilization)
      .Add(r.peak_pool_utilization)
      .Add(r.reshard_events)
      .Add(r.resharded_tenants)
      .Add(static_cast<uint64_t>(r.slo_violations))
      .Add(r.slo_burned_ms)
      .Add(r.worst_burn_rate);
  const pool::SchedulerStats& s = r.scheduler;
  d.Add(s.grow_requests)
      .Add(s.grows_denied)
      .Add(s.granted_bytes)
      .Add(s.released_bytes)
      .Add(s.spill_grants)
      .Add(s.balloon_reclaims)
      .Add(s.balloon_reclaimed_bytes)
      .Add(s.steps)
      .Add(s.stranded_byte_steps)
      .Add(s.peak_stranded_bytes)
      .Add(s.unmet_byte_steps)
      .Add(s.peak_unmet_bytes);
}

class PoolFleet final : public Workload {
 public:
  PoolFleet() {
    for (const auto topology :
         {pool::RackTopology::kFlat, pool::RackTopology::kStar, pool::RackTopology::kMesh}) {
      // tight: 192 GiB pool, under the ~280 GiB demand peak; ample: 384 GiB.
      for (const auto& [capacity, bytes] :
           {std::pair{"tight", 48 * kGiB}, std::pair{"ample", 96 * kGiB}}) {
        for (const bool downtrain : {false, true}) {
          cells_.push_back({topology, capacity, bytes, downtrain});
          labels_.push_back(std::string(pool::RackTopologyName(topology)) + "/" + capacity +
                            "/" + (downtrain ? "downtrain" : "healthy"));
        }
      }
    }
  }

  const std::vector<std::string>& labels() const override { return labels_; }

  uint64_t SetUp(uint64_t seed, Probe& probe) override {
    sinks_ = std::vector<telemetry::MetricRegistry>(cells_.size());
    return probe.Time(Phase::kSetup, "pool.economics_s", "pool.economics", [&] {
      Digest d;
      for (const int hosts : {2, 4, 8, 16}) {
        pool::PoolingEconomicsConfig cfg;
        cfg.hosts = hosts;
        cfg.seed = SplitMix64(seed + static_cast<uint64_t>(hosts));
        const pool::PoolingEconomicsResult r = pool::EstimatePoolingEconomics(cfg);
        d.Add(r.per_host_provision_gib).Add(r.pooled_provision_gib).Add(r.capacity_saving);
      }
      return d.value();
    });
  }

  CellOutcome RunCell(size_t index, uint64_t seed, Probe& probe) override {
    const RackCell& cell = cells_[index];
    telemetry::MetricRegistry* sink = &sinks_[index];
    CellOutcome out;
    std::optional<pool::Rack> rack;
    std::optional<pool::PoolScheduler> scheduler;
    probe.Time(Phase::kSetup, "pool.rack_ctor_s", "pool.rack_create", [&] {
      pool::RackConfig rack_cfg;
      rack_cfg.hosts = 8;
      rack_cfg.expanders = 4;
      rack_cfg.topology = cell.topology;
      // DRAM-lean hosts: the pool carries a real share of the working set.
      rack_cfg.host_dram_bytes = 80 * kGiB;
      rack_cfg.expander_capacity_bytes = cell.expander_capacity_bytes;
      rack_cfg.slice_bytes = kGiB;
      rack_cfg.per_host_capacity_fraction = 0.75;
      rack.emplace(rack_cfg);
      pool::SchedulerConfig sched_cfg;
      sched_cfg.ballooning = true;
      sched_cfg.sticky_release = true;
      scheduler.emplace(*rack, sched_cfg);
      scheduler->AttachTelemetry(sink);
    });

    std::vector<std::unique_ptr<fault::FaultInjector>> injectors(kDays);
    std::vector<std::unique_ptr<apps::kv::KvFleetSim>> days(kDays);
    probe.Time(Phase::kSetup, "fleet.ctor_s", "fleet.create", [&] {
      for (int day = 0; day < kDays; ++day) {
        const uint64_t day_seed = runner::CellSeed(seed, static_cast<size_t>(day));
        if (cell.downtrain) {
          injectors[day] = std::make_unique<fault::FaultInjector>(
              fault::FaultPlan().Downtrain(0.35 * kDaySeconds, 0.25 * kDaySeconds, 4),
              SplitMix64(day_seed));
          injectors[day]->AttachTelemetry(sink);
        }
        apps::kv::FleetConfig fleet_cfg;
        fleet_cfg.seed = day_seed;
        fleet_cfg.steps = kStepsPerDay;
        fleet_cfg.step_seconds = kStepSeconds;
        days[day] = std::make_unique<apps::kv::KvFleetSim>(*scheduler, fleet_cfg, sink,
                                                           injectors[day].get());
      }
    });

    Digest digest;
    uint64_t reshard_events = 0;
    double slo_burned_ms = 0.0;
    apps::kv::FleetResult last;
    for (int day = 0; day < kDays; ++day) {
      last = probe.Time(Phase::kRun, "fleet.run_s", "fleet.run", [&] { return days[day]->Run(); });
      if (last.timeline.size() != static_cast<size_t>(kStepsPerDay)) {
        out.violations.push_back("day " + std::to_string(day) + " ran " +
                                 std::to_string(last.timeline.size()) + " steps");
      }
      DigestFleet(digest, last);
      reshard_events += last.reshard_events;
      slo_burned_ms += last.slo_burned_ms;
    }
    probe.Time(Phase::kTeardown, "", "cell.destroy", [&] {
      days.clear();
      injectors.clear();
      scheduler.reset();
      rack.reset();
    });

    // The scheduler outlives the days, so its stats are whole-run totals.
    const pool::SchedulerStats& stats = last.scheduler;
    out.digest = digest.value();
    out.facts["stranded_gib"] = stats.MeanStrandedBytes() / static_cast<double>(kGiB);
    out.facts["grows_denied"] = static_cast<double>(stats.grows_denied);
    out.facts["spill_grants"] = static_cast<double>(stats.spill_grants);
    out.facts["balloon_reclaims"] = static_cast<double>(stats.balloon_reclaims);
    out.facts["reshard_events"] = static_cast<double>(reshard_events);
    out.facts["slo_burned_s"] = MsToSec(slo_burned_ms);
    probe.Add("fleet.steps", static_cast<double>(stats.steps));
    probe.Add("pool.grow_requests", static_cast<double>(stats.grow_requests));
    probe.Add("pool.spill_grants", static_cast<double>(stats.spill_grants));
    probe.Add("pool.balloon_reclaims", static_cast<double>(stats.balloon_reclaims));
    probe.Add("pool.grows_denied", static_cast<double>(stats.grows_denied));
    probe.Add("fleet.reshard_events", static_cast<double>(reshard_events));
    return out;
  }

  uint64_t Finish(Probe& probe) override {
    telemetry::MetricRegistry merged;
    probe.Time(Phase::kRun, "telemetry.merge_s", "telemetry.merge", [&] {
      for (size_t i = 0; i < sinks_.size(); ++i) {
        merged.MergeFrom(sinks_[i], labels_[i] + "/");
      }
    });
    probe.Add("telemetry.events", static_cast<double>(merged.events().size()));
    const uint64_t digest = probe.Time(Phase::kRun, "telemetry.export_s", "telemetry.export", [&] {
      std::ostringstream metrics;
      telemetry::WriteMetricsJson(metrics, merged);
      std::ostringstream events;
      telemetry::WriteEventsJsonl(events, merged);
      return Digest().Add(metrics.view()).Add(events.view()).value();
    });
    probe.Time(Phase::kTeardown, "", "telemetry.destroy", [&] {
      merged = telemetry::MetricRegistry();
      sinks_.clear();
    });
    return digest;
  }

  std::vector<Claim> Claims(const std::vector<CellOutcome>& cells) const override {
    const auto fact = [&](const char* label, const char* name) {
      return Fact(labels_, cells, label, name);
    };
    std::vector<Claim> claims;
    const auto check = [&claims](const char* id, double value, bool pass) {
      Claim c;
      c.id = id;
      c.band = "CHECK PASS";
      c.value = value;
      c.in_band = pass;
      claims.push_back(c);
    };
    const double flat_ample_stranded = fact("flat/ample/healthy", "stranded_gib");
    check("rack.flat_ample_healthy.nothing_stranded_or_denied", flat_ample_stranded,
          flat_ample_stranded == 0.0 && fact("flat/ample/healthy", "grows_denied") == 0.0);
    const double star_minus_flat = fact("star/tight/downtrain", "stranded_gib") -
                                   fact("flat/tight/downtrain", "stranded_gib");
    check("rack.star_tight_downtrain.strands_more_than_flat", star_minus_flat,
          star_minus_flat > 0.0);
    const double mesh_spills = fact("mesh/tight/downtrain", "spill_grants");
    check("rack.mesh_tight_downtrain.spills", mesh_spills, mesh_spills > 0.0);
    const double balloons = fact("flat/tight/downtrain", "balloon_reclaims");
    check("rack.flat_tight_downtrain.balloons", balloons, balloons > 0.0);
    const double reshards = fact("flat/ample/downtrain", "reshard_events") -
                            fact("flat/ample/healthy", "reshard_events");
    check("rack.downtrain.reshards_tenants", reshards, reshards > 0.0);
    const double burn = fact("flat/ample/downtrain", "slo_burned_s") -
                        fact("flat/ample/healthy", "slo_burned_s");
    check("rack.downtrain.burns_slo_budget", burn, burn > 0.0);
    return claims;
  }

 private:
  std::vector<RackCell> cells_;
  std::vector<std::string> labels_;
  // One registry per cell for the current pass (single writer each).
  std::vector<telemetry::MetricRegistry> sinks_;
};

}  // namespace

std::unique_ptr<Workload> MakePoolFleet() { return std::make_unique<PoolFleet>(); }

}  // namespace perfbench
