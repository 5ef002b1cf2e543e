#include "src/apps/kv/fleet.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "src/mem/bandwidth_solver.h"
#include "src/pool/memory_pool.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace cxl::apps::kv {

namespace {

// Reason codes of kTenantReshard (events.cc kReshardReasons order).
constexpr int kReasonDegradedLink = 0;
constexpr int kReasonPressure = 1;
constexpr int kReasonHotspot = 2;

constexpr double kPi = 3.14159265358979323846;

// SLO load is reported in kops/s; shard rates are tracked in ops/s.
constexpr double kOpsPerKop = 1000.0;

}  // namespace

KvFleetSim::KvFleetSim(pool::PoolScheduler& scheduler, FleetConfig config,
                       telemetry::MetricRegistry* telemetry, fault::FaultInjector* faults)
    : scheduler_(scheduler),
      config_(config),
      telemetry_(telemetry),
      faults_(faults),
      pool_profile_(pool::PooledCxlProfile()),
      // The calibrated DRAM profile is one 2-channel SNC domain; a fleet host
      // serves from the full 8-channel socket.
      host_dram_profile_(
          mem::GetProfile(mem::MemoryPath::kLocalDram).WithBandwidthScale(4.0, "host-dram")) {
  const int shards = std::max(1, config_.shards);
  const int hosts = scheduler_.rack().hosts();
  Rng rng(config_.seed);

  // Ragged tenant layout: jittered around the mean, round-robin over hosts.
  shard_tenants_.resize(static_cast<size_t>(shards));
  shard_host_.resize(static_cast<size_t>(shards));
  shard_hot_.assign(static_cast<size_t>(shards), 0);
  const double mean = static_cast<double>(config_.tenants) / static_cast<double>(shards);
  const double jitter = std::clamp(config_.shard_size_jitter, 0.0, 0.9);
  for (int s = 0; s < shards; ++s) {
    const double factor = rng.NextDouble(1.0 - jitter, 1.0 + jitter);
    shard_tenants_[static_cast<size_t>(s)] =
        std::max<uint64_t>(1, static_cast<uint64_t>(mean * factor));
    shard_host_[static_cast<size_t>(s)] = s % hosts;
  }
  for (int k = 0; k < std::min(config_.hotspot_shards, shards); ++k) {
    // Rejection-sample distinct hotspot shards (deterministic from the seed).
    int s;
    do {
      s = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(shards)));
    } while (shard_hot_[static_cast<size_t>(s)] != 0);
    shard_hot_[static_cast<size_t>(s)] = 1;
  }

  telemetry::WindowAttributor attributor;
  if (faults_ != nullptr && faults_->enabled()) {
    const fault::FaultPlan& plan = faults_->plan();
    attributor = [&plan](double t_ms) { return fault::AttributeWindowAt(plan, MsToSec(t_ms)); };
  }
  shard_slo_.reserve(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    telemetry::SloSpec spec;
    spec.workload = "kv.shard" + std::to_string(s);
    spec.max_latency_us = config_.slo_max_latency_us;
    spec.budget_fraction = config_.slo_budget_fraction;
    shard_slo_.push_back(std::make_unique<telemetry::SloTracker>(spec, telemetry_, attributor));
  }
}

void KvFleetSim::MoveShard(int s, int host, int reason, int32_t window, double t_ms) {
  const uint64_t tenants = shard_tenants_[static_cast<size_t>(s)];
  shard_host_[static_cast<size_t>(s)] = host;
  ++reshard_events_;
  resharded_tenants_ += tenants;
  step_reshard_budget_ = step_reshard_budget_ > tenants ? step_reshard_budget_ - tenants : 0;
  if (telemetry_ != nullptr) {
    telemetry_->events().Record(
        telemetry::Event(telemetry::EventKind::kTenantReshard, t_ms)
            .WithReason(reason)
            .WithWindow(window)
            .WithA(static_cast<double>(tenants))
            .WithB(static_cast<double>(s)));
    telemetry_->GetCounter("fleet.reshard_events").Increment();
    telemetry_->GetCounter("fleet.resharded_tenants").Add(tenants);
  }
}

int KvFleetSim::LeastLoadedHost(const std::vector<double>& host_ops, int exclude) const {
  int best = -1;
  for (int h = 0; h < static_cast<int>(host_ops.size()); ++h) {
    if (h == exclude) {
      continue;
    }
    if (best < 0 || host_ops[static_cast<size_t>(h)] < host_ops[static_cast<size_t>(best)]) {
      best = h;
    }
  }
  return best;
}

FleetResult KvFleetSim::Run() {
  pool::Rack& rack = scheduler_.rack();
  const int hosts = rack.hosts();
  const int shards = static_cast<int>(shard_tenants_.size());
  const uint64_t host_dram = rack.config().host_dram_bytes;
  const double lines_per_op =
      static_cast<double>(config_.value_bytes) / 64.0 * config_.miss_rate;

  FleetResult result;
  result.timeline.reserve(static_cast<size_t>(config_.steps));

  std::vector<double> host_ops(static_cast<size_t>(hosts));
  std::vector<uint64_t> host_tenants(static_cast<size_t>(hosts));
  std::vector<uint64_t> host_demand(static_cast<size_t>(hosts));
  std::vector<double> host_latency_us(static_cast<size_t>(hosts));

  // One solver serves every step: per-host DRAM and pool-link resources,
  // then one per expander. Only the degraded host's link changes its
  // capacity law, re-pointed each step below.
  mem::BandwidthSolver solver;
  std::vector<mem::BandwidthSolver::ResourceId> dram_r(static_cast<size_t>(hosts));
  std::vector<mem::BandwidthSolver::ResourceId> link_r(static_cast<size_t>(hosts));
  for (int h = 0; h < hosts; ++h) {
    dram_r[static_cast<size_t>(h)] =
        solver.AddResource("dram:" + std::to_string(h), &host_dram_profile_);
    link_r[static_cast<size_t>(h)] =
        solver.AddResource("link:" + std::to_string(h), &pool_profile_);
  }
  std::vector<mem::BandwidthSolver::ResourceId> exp_r(static_cast<size_t>(rack.expanders()));
  for (int e = 0; e < rack.expanders(); ++e) {
    exp_r[static_cast<size_t>(e)] =
        solver.AddResource("exp:" + std::to_string(e), &pool_profile_);
  }
  const bool has_degraded_host = config_.degraded_host >= 0 && config_.degraded_host < hosts;

  // Per-step scratch, sized once: shard rates and each host's flows and
  // traffic split.
  std::vector<double> shard_rate(static_cast<size_t>(shards));
  struct PoolFlowRef {
    int host;
    int flow;
    double share;      // Of the host's pooled traffic.
    double extra_ns;   // Beyond-first-hop switch latency.
  };
  std::vector<int> dram_flow(static_cast<size_t>(hosts));
  std::vector<PoolFlowRef> pool_flows;
  std::vector<double> f_dram(static_cast<size_t>(hosts));
  std::vector<double> f_pool(static_cast<size_t>(hosts));
  std::vector<double> f_unbacked(static_cast<size_t>(hosts));
  std::vector<double> host_gbps(static_cast<size_t>(hosts));
  std::vector<double> host_pool_ns(static_cast<size_t>(hosts));

  double latency_weight_sum = 0.0;
  double latency_weighted_sum = 0.0;
  double util_sum = 0.0;

  for (int step = 0; step < config_.steps; ++step) {
    const double t_s = static_cast<double>(step) * config_.step_seconds;
    const double t_ms = SecToMs(t_s);
    if (faults_ != nullptr) {
      faults_->AdvanceTo(t_s);
    }
    const bool degraded =
        faults_ != nullptr && faults_->enabled() && faults_->LinkDegraded();
    const double frac = static_cast<double>(step) / static_cast<double>(config_.steps);
    const double lambda = 1.0 - config_.diurnal_amplitude * std::cos(2.0 * kPi * frac);
    const bool hot_window = frac >= config_.hotspot_start_frac && frac < config_.hotspot_end_frac;
    // Working sets breathe less than traffic does.
    const double demand_factor = 0.75 + 0.35 * lambda;
    step_reshard_budget_ = config_.max_reshard_tenants_per_step;

    // Per-shard offered rate and per-host aggregates under the current layout.
    std::fill(host_ops.begin(), host_ops.end(), 0.0);
    std::fill(host_tenants.begin(), host_tenants.end(), 0);
    auto recompute_shard = [&](int s) {
      const double hot = hot_window && shard_hot_[static_cast<size_t>(s)] != 0
                             ? config_.hotspot_factor
                             : 1.0;
      shard_rate[static_cast<size_t>(s)] =
          static_cast<double>(shard_tenants_[static_cast<size_t>(s)]) * config_.tenant_ops_per_s *
          lambda * hot;
    };
    for (int s = 0; s < shards; ++s) {
      recompute_shard(s);
      host_ops[static_cast<size_t>(shard_host_[static_cast<size_t>(s)])] +=
          shard_rate[static_cast<size_t>(s)];
      host_tenants[static_cast<size_t>(shard_host_[static_cast<size_t>(s)])] +=
          shard_tenants_[static_cast<size_t>(s)];
    }
    auto move_shard = [&](int s, int to, int reason, int32_t window) {
      const int from = shard_host_[static_cast<size_t>(s)];
      host_ops[static_cast<size_t>(from)] -= shard_rate[static_cast<size_t>(s)];
      host_tenants[static_cast<size_t>(from)] -= shard_tenants_[static_cast<size_t>(s)];
      MoveShard(s, to, reason, window, t_ms);
      host_ops[static_cast<size_t>(to)] += shard_rate[static_cast<size_t>(s)];
      host_tenants[static_cast<size_t>(to)] += shard_tenants_[static_cast<size_t>(s)];
    };
    uint64_t step_moves = 0;

    // (a) Degraded link: drain the degraded host while the window is active.
    if (degraded) {
      const int32_t window = faults_->ActiveLinkWindow();
      for (int s = 0; s < shards; ++s) {
        if (shard_host_[static_cast<size_t>(s)] != config_.degraded_host ||
            shard_tenants_[static_cast<size_t>(s)] > step_reshard_budget_) {
          continue;
        }
        const int to = LeastLoadedHost(host_ops, config_.degraded_host);
        if (to < 0) {
          break;
        }
        step_moves += shard_tenants_[static_cast<size_t>(s)];
        move_shard(s, to, kReasonDegradedLink, window);
      }
    }

    // (c) Hotspot: spread shards running far above the fleet mean, but only
    // when the move actually improves balance (prevents ping-pong).
    const double total_ops = std::accumulate(host_ops.begin(), host_ops.end(), 0.0);
    const double mean_shard_rate = total_ops / static_cast<double>(shards);
    for (int s = 0; s < shards; ++s) {
      if (shard_rate[static_cast<size_t>(s)] <=
              config_.hotspot_reshard_factor * mean_shard_rate ||
          shard_tenants_[static_cast<size_t>(s)] > step_reshard_budget_) {
        continue;
      }
      const int from = shard_host_[static_cast<size_t>(s)];
      if (degraded && from == config_.degraded_host) {
        continue;  // Already handled above.
      }
      const int to = LeastLoadedHost(host_ops, from);
      if (to < 0 || host_ops[static_cast<size_t>(to)] + shard_rate[static_cast<size_t>(s)] >=
                        host_ops[static_cast<size_t>(from)]) {
        continue;
      }
      step_moves += shard_tenants_[static_cast<size_t>(s)];
      move_shard(s, to, kReasonHotspot, telemetry::kNoWindow);
    }

    // Pool demand under the (possibly re-sharded) layout.
    auto pool_demand = [&](int h) {
      const auto demand = static_cast<uint64_t>(
          static_cast<double>(host_tenants[static_cast<size_t>(h)]) *
          static_cast<double>(config_.tenant_working_set_bytes) * demand_factor);
      host_demand[static_cast<size_t>(h)] = demand;
      return demand > host_dram ? demand - host_dram : 0;
    };
    scheduler_.set_now_ms(t_ms);
    for (int h = 0; h < hosts; ++h) {
      (void)scheduler_.SetDemand(h, pool_demand(h));
    }

    // (b) Pressure: a host the pool could not back sheds one shard, then
    // both ends re-declare their demand.
    for (int h = 0; h < hosts; ++h) {
      if (scheduler_.UnmetBytes(h) == 0) {
        continue;
      }
      for (int s = 0; s < shards; ++s) {
        if (shard_host_[static_cast<size_t>(s)] != h ||
            shard_tenants_[static_cast<size_t>(s)] > step_reshard_budget_) {
          continue;
        }
        const int to = LeastLoadedHost(host_ops, h);
        if (to < 0) {
          break;
        }
        step_moves += shard_tenants_[static_cast<size_t>(s)];
        move_shard(s, to, kReasonPressure, telemetry::kNoWindow);
        (void)scheduler_.SetDemand(h, pool_demand(h));
        (void)scheduler_.SetDemand(to, pool_demand(to));
        break;  // One shard per starved host per step bounds the churn.
      }
    }

    // Traffic: per-host DRAM, pool link, and per-expander device resources
    // through the max-min solver.
    if (degraded && (!degraded_link_profile_ ||
                     degraded_link_factor_ != faults_->CxlBandwidthFactor())) {
      degraded_link_factor_ = faults_->CxlBandwidthFactor();
      degraded_link_profile_.emplace(
          pool_profile_.WithBandwidthScale(degraded_link_factor_, "pool-link-degraded"));
    }
    solver.ClearFlows();
    if (has_degraded_host) {
      // Re-pointing invalidates the solver's warm-start cache on every
      // degraded step, so a profile rebuilt in place above never matches it.
      solver.SetResourceProfile(link_r[static_cast<size_t>(config_.degraded_host)],
                                degraded ? &*degraded_link_profile_ : &pool_profile_);
    }

    std::fill(dram_flow.begin(), dram_flow.end(), -1);
    pool_flows.clear();
    std::fill(f_dram.begin(), f_dram.end(), 0.0);
    std::fill(f_pool.begin(), f_pool.end(), 0.0);
    std::fill(f_unbacked.begin(), f_unbacked.end(), 0.0);
    std::fill(host_gbps.begin(), host_gbps.end(), 0.0);
    for (int h = 0; h < hosts; ++h) {
      const uint64_t demand = host_demand[static_cast<size_t>(h)];
      if (demand == 0) {
        continue;
      }
      const uint64_t dram_backed = std::min(demand, host_dram);
      const uint64_t unbacked = scheduler_.UnmetBytes(h);
      const uint64_t pool_backed = demand - dram_backed - std::min(unbacked, demand - dram_backed);
      f_dram[static_cast<size_t>(h)] =
          static_cast<double>(dram_backed) / static_cast<double>(demand);
      f_pool[static_cast<size_t>(h)] =
          static_cast<double>(pool_backed) / static_cast<double>(demand);
      f_unbacked[static_cast<size_t>(h)] =
          1.0 - f_dram[static_cast<size_t>(h)] - f_pool[static_cast<size_t>(h)];
      // Offered bytes/s: ops x footprint, split by where the bytes live.
      const double bytes_per_sec =
          host_ops[static_cast<size_t>(h)] * static_cast<double>(config_.value_bytes);
      const double gbps = bytes_per_sec * 1e-9;
      host_gbps[static_cast<size_t>(h)] = gbps;
      if (gbps <= 0.0) {
        continue;
      }
      dram_flow[static_cast<size_t>(h)] =
          solver.AddFlow(&host_dram_profile_, config_.mix,
                         gbps * f_dram[static_cast<size_t>(h)], {dram_r[static_cast<size_t>(h)]});
      const uint64_t total_lease = rack.HostLeasedBytes(h);
      if (total_lease == 0 || f_pool[static_cast<size_t>(h)] <= 0.0) {
        continue;
      }
      const bool host_degraded = degraded && h == config_.degraded_host;
      const mem::PathProfile* link_profile =
          host_degraded ? &*degraded_link_profile_ : &pool_profile_;
      for (int e : rack.Reachable(h)) {
        const uint64_t lease = rack.expander(e).LeasedBytes(h);
        if (lease == 0) {
          continue;
        }
        const double share = static_cast<double>(lease) / static_cast<double>(total_lease);
        const int flow = solver.AddFlow(
            link_profile, config_.mix, gbps * f_pool[static_cast<size_t>(h)] * share,
            {link_r[static_cast<size_t>(h)], exp_r[static_cast<size_t>(e)]});
        const double extra_ns =
            static_cast<double>(rack.SwitchHops(h, e) - 1) * 2.0 * pool::kCxlSwitchHopNs;
        pool_flows.push_back({h, flow, share, extra_ns});
      }
    }
    const mem::BandwidthSolver::Solution solution = solver.Solve();

    // Per-host mean op latency from the blended stall costs.
    std::fill(host_pool_ns.begin(), host_pool_ns.end(), 0.0);
    for (const PoolFlowRef& ref : pool_flows) {
      const double factor =
          degraded && ref.host == config_.degraded_host ? faults_->CxlLatencyFactor() : 1.0;
      host_pool_ns[static_cast<size_t>(ref.host)] +=
          ref.share *
          (solution.flows[static_cast<size_t>(ref.flow)].latency_ns + ref.extra_ns) * factor;
    }
    const mem::PathProfile& ssd = mem::GetProfile(mem::MemoryPath::kSsd);
    for (int h = 0; h < hosts; ++h) {
      if (host_demand[static_cast<size_t>(h)] == 0 ||
          host_gbps[static_cast<size_t>(h)] <= 0.0) {
        host_latency_us[static_cast<size_t>(h)] = config_.base_service_us;
        continue;
      }
      double mem_ns = 0.0;
      if (dram_flow[static_cast<size_t>(h)] >= 0) {
        mem_ns +=
            f_dram[static_cast<size_t>(h)] *
            solution.flows[static_cast<size_t>(dram_flow[static_cast<size_t>(h)])].latency_ns;
      }
      mem_ns += f_pool[static_cast<size_t>(h)] * host_pool_ns[static_cast<size_t>(h)];
      if (f_unbacked[static_cast<size_t>(h)] > 0.0) {
        mem_ns += f_unbacked[static_cast<size_t>(h)] *
                  ssd.LoadedLatencyNs(config_.mix, host_gbps[static_cast<size_t>(h)] *
                                                       f_unbacked[static_cast<size_t>(h)]);
      }
      host_latency_us[static_cast<size_t>(h)] =
          config_.base_service_us + NsToUs(lines_per_op * mem_ns);
    }

    // SLO observations: a shard inherits its host's latency.
    for (int s = 0; s < shards; ++s) {
      shard_slo_[static_cast<size_t>(s)]->Observe(
          t_ms, host_latency_us[static_cast<size_t>(shard_host_[static_cast<size_t>(s)])],
          shard_rate[static_cast<size_t>(s)] / kOpsPerKop);
    }

    scheduler_.EndStep();

    FleetStepSample sample;
    sample.t_ms = t_ms;
    sample.lambda = lambda;
    double weight = 0.0;
    double weighted = 0.0;
    for (int h = 0; h < hosts; ++h) {
      const auto w = static_cast<double>(host_tenants[static_cast<size_t>(h)]);
      weight += w;
      weighted += w * host_latency_us[static_cast<size_t>(h)];
      sample.worst_latency_us =
          std::max(sample.worst_latency_us, host_latency_us[static_cast<size_t>(h)]);
      sample.unbacked_bytes += scheduler_.UnmetBytes(h);
    }
    sample.mean_latency_us = weight > 0.0 ? weighted / weight : 0.0;
    sample.pool_utilization = rack.Utilization();
    sample.stranded_bytes = scheduler_.StrandedBytes();
    sample.resharded_tenants = step_moves;
    result.timeline.push_back(sample);

    latency_weight_sum += weight;
    latency_weighted_sum += weighted;
    util_sum += sample.pool_utilization;
    result.peak_latency_us = std::max(result.peak_latency_us, sample.worst_latency_us);
    result.peak_pool_utilization =
        std::max(result.peak_pool_utilization, sample.pool_utilization);

    if (telemetry_ != nullptr) {
      telemetry_->timeline().Sample("fleet.mean_latency_us", t_ms, sample.mean_latency_us);
      telemetry_->timeline().Sample("fleet.pool_utilization", t_ms, sample.pool_utilization);
      telemetry_->timeline().Sample("fleet.stranded_gib", t_ms,
                                    BytesToGiB(sample.stranded_bytes));
    }
  }

  for (auto& tracker : shard_slo_) {
    tracker->Finish();
    result.slo_violations += tracker->violations();
    result.slo_burned_ms += tracker->burned_ms();
    result.worst_burn_rate = std::max(result.worst_burn_rate, tracker->burn_rate());
  }
  result.mean_latency_us =
      latency_weight_sum > 0.0 ? latency_weighted_sum / latency_weight_sum : 0.0;
  result.mean_pool_utilization =
      config_.steps > 0 ? util_sum / static_cast<double>(config_.steps) : 0.0;
  result.reshard_events = reshard_events_;
  result.resharded_tenants = resharded_tenants_;
  result.scheduler = scheduler_.stats();

  if (telemetry_ != nullptr) {
    telemetry_->GetGauge("fleet.mean_latency_us").Set(result.mean_latency_us);
    telemetry_->GetGauge("fleet.peak_latency_us").Set(result.peak_latency_us);
    telemetry_->GetGauge("fleet.pool_utilization").Set(result.mean_pool_utilization);
    telemetry_->GetGauge("fleet.slo_burned_ms").Set(result.slo_burned_ms);
  }
  return result;
}

}  // namespace cxl::apps::kv
