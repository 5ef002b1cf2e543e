#include "src/pool/scheduler.h"

#include <algorithm>

#include "src/util/units.h"

namespace cxl::pool {

PoolScheduler::PoolScheduler(Rack& rack, SchedulerConfig config)
    : rack_(rack), config_(config), demand_(static_cast<size_t>(rack.hosts()), 0) {}

uint64_t PoolScheduler::RoundUpToSlices(uint64_t bytes) const {
  const uint64_t slice = rack_.config().slice_bytes;
  return (bytes + slice - 1) / slice * slice;
}

Status PoolScheduler::SetDemand(int host, uint64_t demand_bytes) {
  if (host < 0 || host >= rack_.hosts()) {
    return Status::InvalidArgument("host id out of rack range");
  }
  const uint64_t target = RoundUpToSlices(demand_bytes);
  demand_[static_cast<size_t>(host)] = target;
  const uint64_t held = rack_.HostLeasedBytes(host);

  if (held > target) {
    if (config_.sticky_release) {
      // Keep the leases; the slack above `target` is balloonable by peers.
      return Status::Ok();
    }
    // Shrink, furthest-expander-first: keep the cheap leases.
    uint64_t to_release = held - target;
    const std::vector<int>& order = rack_.Reachable(host);
    for (auto it = order.rbegin(); it != order.rend() && to_release > 0; ++it) {
      const uint64_t lease = rack_.expander(*it).LeasedBytes(host);
      const uint64_t rel = std::min(lease, to_release);
      if (rel > 0) {
        (void)rack_.expander(*it).Release(host, rel);
        to_release -= rel;
        stats_.released_bytes += rel;
      }
    }
    return Status::Ok();
  }
  if (held == target) {
    return Status::Ok();
  }

  ++stats_.grow_requests;
  uint64_t need = target - held;
  need -= GrowFromFree(host, need);
  if (need > 0 && config_.ballooning) {
    BalloonReclaim(host, need);
    need -= GrowFromFree(host, need);
  }
  if (need > 0) {
    ++stats_.grows_denied;
    return Status::ResourceExhausted("pool cannot cover host demand");
  }
  return Status::Ok();
}

uint64_t PoolScheduler::GrowFromFree(int host, uint64_t need) {
  if (need == 0) {
    return 0;
  }
  const uint64_t slice = rack_.config().slice_bytes;
  const int min_hops = rack_.MinHops(host);
  uint64_t granted = 0;
  for (int e : rack_.Reachable(host)) {
    if (granted >= need) {
      break;
    }
    CxlMemoryPool& pool = rack_.expander(e);
    const auto cap_slices = static_cast<uint64_t>(
        pool.config().per_host_capacity_fraction *
        static_cast<double>(pool.config().capacity_bytes / pool.config().slice_bytes));
    const uint64_t cap_bytes = cap_slices * slice;
    const uint64_t held = pool.LeasedBytes(host);
    const uint64_t headroom = cap_bytes > held ? cap_bytes - held : 0;
    uint64_t grant = std::min({need - granted, pool.FreeBytes(), headroom});
    grant = grant / slice * slice;
    if (grant == 0) {
      continue;
    }
    if (!pool.Acquire(host, grant).ok()) {
      continue;  // Unreachable in practice: bounds above mirror Acquire's checks.
    }
    granted += grant;
    stats_.granted_bytes += grant;
    if (rack_.SwitchHops(host, e) > min_hops) {
      ++stats_.spill_grants;
    }
  }
  return granted;
}

uint64_t PoolScheduler::BalloonReclaim(int host, uint64_t need) {
  const uint64_t slice = rack_.config().slice_bytes;
  const uint64_t allowance = config_.balloon_slack_slices * slice;
  // Per-host pooled totals, lowered as each reclaim lands so every test
  // sees the victim's current lease.
  host_held_.resize(static_cast<size_t>(rack_.hosts()));
  for (int h = 0; h < rack_.hosts(); ++h) {
    host_held_[static_cast<size_t>(h)] = rack_.HostLeasedBytes(h);
  }
  uint64_t freed = 0;
  uint64_t victims = 0;
  for (int e : rack_.Reachable(host)) {
    if (freed >= need) {
      break;
    }
    CxlMemoryPool& pool = rack_.expander(e);
    for (int victim = 0; victim < rack_.hosts() && freed < need; ++victim) {
      if (victim == host) {
        continue;
      }
      uint64_t& victim_held = host_held_[static_cast<size_t>(victim)];
      const uint64_t victim_demand = demand_[static_cast<size_t>(victim)] + allowance;
      if (victim_held <= victim_demand) {
        continue;
      }
      const uint64_t slack = victim_held - victim_demand;
      uint64_t reclaim = std::min({slack, pool.LeasedBytes(victim), need - freed});
      reclaim = RoundUpToSlices(reclaim);
      reclaim = std::min(reclaim, std::min(slack, pool.LeasedBytes(victim)));
      if (reclaim == 0) {
        continue;
      }
      (void)pool.Release(victim, reclaim);
      victim_held -= reclaim;
      freed += reclaim;
      ++victims;
      ++stats_.balloon_reclaims;
      stats_.balloon_reclaimed_bytes += reclaim;
    }
  }
  if (freed > 0 && telemetry_ != nullptr) {
    telemetry_->events().Record(
        telemetry::Event(telemetry::EventKind::kPoolBalloonReclaim, now_ms_)
            .WithA(BytesToMiB(freed))
            .WithB(static_cast<double>(victims)));
  }
  return freed;
}

uint64_t PoolScheduler::UnmetBytes(int host) const {
  const uint64_t held = rack_.HostLeasedBytes(host);
  const uint64_t target = demand_[static_cast<size_t>(host)];
  return target > held ? target - held : 0;
}

uint64_t PoolScheduler::TotalUnmetBytes() const {
  uint64_t total = 0;
  for (int h = 0; h < rack_.hosts(); ++h) {
    total += UnmetBytes(h);
  }
  return total;
}

uint64_t PoolScheduler::StrandedBytes() const {
  if (TotalUnmetBytes() == 0) {
    return 0;
  }
  std::vector<uint64_t> unmet(static_cast<size_t>(rack_.hosts()));
  for (int h = 0; h < rack_.hosts(); ++h) {
    unmet[static_cast<size_t>(h)] = UnmetBytes(h);
  }
  const uint64_t slice = rack_.config().slice_bytes;
  uint64_t stranded = 0;
  for (int e = 0; e < rack_.expanders(); ++e) {
    const CxlMemoryPool& pool = rack_.expander(e);
    const uint64_t free_bytes = pool.FreeBytes();
    if (free_bytes == 0) {
      continue;
    }
    // Bytes of this expander's free capacity that starved hosts could still
    // absorb (reachability and per-host cap permitting); the rest is
    // stranded.
    const auto cap_slices = static_cast<uint64_t>(
        pool.config().per_host_capacity_fraction *
        static_cast<double>(pool.config().capacity_bytes / pool.config().slice_bytes));
    const uint64_t cap_bytes = cap_slices * slice;
    uint64_t absorbable = 0;
    for (int h = 0; h < rack_.hosts(); ++h) {
      const uint64_t host_unmet = unmet[static_cast<size_t>(h)];
      if (host_unmet == 0 || !rack_.Reaches(h, e)) {
        continue;
      }
      const uint64_t held = pool.LeasedBytes(h);
      const uint64_t headroom = cap_bytes > held ? cap_bytes - held : 0;
      absorbable += std::min(host_unmet, headroom);
    }
    stranded += free_bytes > absorbable ? free_bytes - absorbable : 0;
  }
  return stranded;
}

void PoolScheduler::EndStep() {
  ++stats_.steps;
  const uint64_t stranded = StrandedBytes();
  const uint64_t unmet = TotalUnmetBytes();
  stats_.stranded_byte_steps += static_cast<double>(stranded);
  stats_.peak_stranded_bytes = std::max(stats_.peak_stranded_bytes, stranded);
  stats_.unmet_byte_steps += static_cast<double>(unmet);
  stats_.peak_unmet_bytes = std::max(stats_.peak_unmet_bytes, unmet);
}

}  // namespace cxl::pool
