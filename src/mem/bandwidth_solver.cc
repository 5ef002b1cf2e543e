#include "src/mem/bandwidth_solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cxl::mem {

namespace {

// Relative convergence tolerance for the outer capacity-blend fixed point
// and the water-filling freeze tests. Far below measurement noise.
constexpr double kRelTol = 1e-9;

// Upper bound on outer capacity-blend rounds. The blend moves only when the
// allocation shifts the demand-weighted read fraction at a resource, which
// damps geometrically; single-digit rounds are typical.
constexpr int kMaxRounds = 40;

bool ApproxEqual(double a, double b) {
  return std::fabs(a - b) <= kRelTol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace

BandwidthSolver::ResourceId BandwidthSolver::AddResource(std::string name,
                                                         const PathProfile* capacity_profile) {
  assert(capacity_profile != nullptr);
  resources_.push_back(Resource{std::move(name), capacity_profile});
  return static_cast<ResourceId>(resources_.size()) - 1;
}

BandwidthSolver::FlowId BandwidthSolver::AddFlow(const PathProfile* latency_profile,
                                                 const AccessMix& mix, double offered_gbps,
                                                 std::vector<ResourceId> resources,
                                                 AccessPattern pattern) {
  assert(latency_profile != nullptr);
  assert(offered_gbps >= 0.0);
  for (auto r = resources.begin(); r != resources.end(); ++r) {
    assert(*r >= 0 && *r < static_cast<ResourceId>(resources_.size()));
    assert(std::find(resources.begin(), r, *r) == r && "path lists a resource twice");
  }
  flows_.push_back(Flow{latency_profile, mix, pattern, offered_gbps, std::move(resources)});
  return static_cast<FlowId>(flows_.size()) - 1;
}

void BandwidthSolver::ClearFlows() { flows_.clear(); }

void BandwidthSolver::SetResourceProfile(ResourceId id, const PathProfile* capacity_profile) {
  assert(capacity_profile != nullptr);
  resources_[static_cast<size_t>(id)].profile = capacity_profile;
  cache_.valid = false;
}

bool BandwidthSolver::CacheMatches() const {
  if (!cache_.valid || cache_.resource_profiles.size() != resources_.size() ||
      cache_.flows.size() != flows_.size()) {
    return false;
  }
  for (size_t r = 0; r < resources_.size(); ++r) {
    if (cache_.resource_profiles[r] != resources_[r].profile) {
      return false;
    }
  }
  for (size_t i = 0; i < flows_.size(); ++i) {
    const Flow& a = flows_[i];
    const Flow& b = cache_.flows[i];
    if (a.profile != b.profile || a.pattern != b.pattern ||
        a.mix.read_fraction != b.mix.read_fraction ||
        a.mix.non_temporal_writes != b.mix.non_temporal_writes ||
        a.offered_gbps != b.offered_gbps || a.resources != b.resources) {
      return false;
    }
  }
  return true;
}

BandwidthSolver::Index BandwidthSolver::BuildIndex() const {
  const size_t nf = flows_.size();
  const size_t nr = resources_.size();

  // Counting pass, then a fill pass in flow order, so each resource's list
  // is ascending.
  size_t* first = scratch_.AllocateArray<size_t>(nr + 1);
  std::fill(first, first + nr + 1, 0);
  for (size_t i = 0; i < nf; ++i) {
    for (ResourceId r : flows_[i].resources) {
      ++first[static_cast<size_t>(r) + 1];
    }
  }
  for (size_t r = 0; r < nr; ++r) {
    first[r + 1] += first[r];
  }
  FlowId* flows = scratch_.AllocateArray<FlowId>(first[nr]);
  size_t* next = scratch_.AllocateArray<size_t>(nr);
  std::copy(first, first + nr, next);
  for (size_t i = 0; i < nf; ++i) {
    for (ResourceId r : flows_[i].resources) {
      flows[next[static_cast<size_t>(r)]++] = static_cast<FlowId>(i);
    }
  }

  auto* by_offered = scratch_.AllocateArray<Demand>(nf);
  size_t demand_flows = 0;
  for (size_t i = 0; i < nf; ++i) {
    if (flows_[i].offered_gbps > 0.0) {
      by_offered[demand_flows++] = Demand{flows_[i].offered_gbps, static_cast<FlowId>(i)};
    }
  }
  std::sort(by_offered, by_offered + demand_flows, [](const Demand& a, const Demand& b) {
    return a.offered_gbps != b.offered_gbps ? a.offered_gbps < b.offered_gbps : a.id < b.id;
  });
  return Index{first, flows, by_offered, demand_flows};
}

double BandwidthSolver::BlendedCapacity(const Index& index, size_t r,
                                        const double* throughput) const {
  double demand = 0.0;
  double read_demand = 0.0;
  bool any_random = false;
  for (size_t k = index.first[r]; k < index.first[r + 1]; ++k) {
    const auto i = static_cast<size_t>(index.flows[k]);
    const Flow& f = flows_[i];
    demand += throughput[i];
    read_demand += throughput[i] * f.mix.read_fraction;
    any_random = any_random || f.pattern == AccessPattern::kRandom;
  }
  if (demand <= 0.0) {
    return resources_[r].profile->PeakBandwidthGBps(AccessMix::ReadOnly());
  }
  const AccessMix blended{read_demand / demand, true};
  const AccessPattern pattern = any_random ? AccessPattern::kRandom : AccessPattern::kSequential;
  return resources_[r].profile->PeakBandwidthGBps(blended, pattern);
}

// Progressive filling: raise every active flow by the largest uniform
// increment no constraint forbids, then freeze the flows whose demand is met
// or whose path saturated. Each pass freezes at least one flow, so the loop
// runs at most once per flow.
//
// Every active flow starts at 0 and gains the same increment each pass, so
// all of them hold one running `level`, and a flow's allocation is the level
// at its freeze. That makes each pass cost what it changes, not the size of
// the topology:
//  - the demand term min_i(offered_i - level) is (min offered) - level,
//    because rounding is monotone, and the least-offered active flow is the
//    first active one in `by_offered`;
//  - demand freezes are tested in `by_offered` order, stopping at the first
//    active flow whose remaining demand exceeds 4 * kRelTol * max(1, offered):
//    ApproxEqual is false for it and for every larger offer;
//  - a resource no active flow crosses ("dead") neither bounds the
//    increment nor loses headroom, and stays dead, so passes visit only the
//    live ones, and a saturated resource freezes its flows through the CSR
//    index.
// Every sum and difference is formed by the same operations, in the same
// order, as in a fill that raises and tests each flow and resource on every
// pass, and every minimum selects the same value, so the result is
// bit-identical to it (tests/mem/water_fill_reference_test.cc).
void BandwidthSolver::WaterFill(const Index& index, const double* capacity, double* alloc) const {
  const size_t nf = flows_.size();
  const size_t nr = resources_.size();
  std::fill(alloc, alloc + nf, 0.0);  // Zero-demand flows are frozen at 0.

  double* headroom = scratch_.AllocateArray<double>(nr);
  for (size_t r = 0; r < nr; ++r) {
    headroom[r] = std::max(0.0, capacity[r] * kCapacityShare);
  }
  // Active flows crossing each resource.
  size_t* active_at = scratch_.AllocateArray<size_t>(nr);
  std::fill(active_at, active_at + nr, 0);
  char* active = scratch_.AllocateArray<char>(nf);
  std::fill(active, active + nf, 0);
  for (size_t k = 0; k < index.demand_flows; ++k) {
    const auto i = static_cast<size_t>(index.by_offered[k].id);
    active[i] = 1;
    for (ResourceId r : flows_[i].resources) {
      ++active_at[static_cast<size_t>(r)];
    }
  }
  // Live resources in ascending id order.
  size_t* live = scratch_.AllocateArray<size_t>(nr);
  size_t n_live = 0;
  for (size_t r = 0; r < nr; ++r) {
    if (active_at[r] > 0) {
      live[n_live++] = r;
    }
  }

  double level = 0.0;
  size_t n_active = index.demand_flows;
  auto freeze = [&](size_t i) {
    active[i] = 0;
    --n_active;
    alloc[i] = level;
    for (ResourceId r : flows_[i].resources) {
      --active_at[static_cast<size_t>(r)];
    }
  };
  size_t cursor = 0;  // Every flow before it in `by_offered` is frozen.
  while (n_active > 0) {
    while (!active[static_cast<size_t>(index.by_offered[cursor].id)]) {
      ++cursor;
    }
    double delta = index.by_offered[cursor].offered_gbps - level;
    size_t kept = 0;
    for (size_t k = 0; k < n_live; ++k) {
      const size_t r = live[k];
      if (active_at[r] > 0) {
        live[kept++] = r;
        delta = std::min(delta, headroom[r] / static_cast<double>(active_at[r]));
      }
    }
    n_live = kept;
    delta = std::max(delta, 0.0);

    level += delta;
    for (size_t k = 0; k < n_live; ++k) {
      headroom[live[k]] -= delta * static_cast<double>(active_at[live[k]]);
    }

    // Freeze flows whose path saturated, then flows that met their demand.
    const size_t before = n_active;
    for (size_t k = 0; k < n_live; ++k) {
      const size_t r = live[k];
      if (headroom[r] > kRelTol * std::max(1.0, capacity[r])) {
        continue;
      }
      for (size_t j = index.first[r]; j < index.first[r + 1]; ++j) {
        const auto i = static_cast<size_t>(index.flows[j]);
        if (active[i]) {
          freeze(i);
        }
      }
    }
    for (size_t k = cursor; k < index.demand_flows; ++k) {
      const auto i = static_cast<size_t>(index.by_offered[k].id);
      if (!active[i]) {
        continue;
      }
      const double offered = index.by_offered[k].offered_gbps;
      if (ApproxEqual(level, offered)) {
        freeze(i);
      } else if (offered - level > 4.0 * kRelTol * std::max(1.0, offered)) {
        break;
      }
    }
    if (n_active == before) {
      // Numerical backstop: the minimum constraint should always freeze a
      // flow; if rounding prevented it, stop rather than spin.
      break;
    }
  }
  for (size_t k = cursor; k < index.demand_flows && n_active > 0; ++k) {
    const auto i = static_cast<size_t>(index.by_offered[k].id);
    if (active[i]) {
      alloc[i] = level;
      --n_active;
    }
  }
}

BandwidthSolver::Solution BandwidthSolver::Solve() const {
  ++solve_calls_;
  // Warm-start fast path: identical inputs reuse the cached Solution, which
  // is bit-identical by construction — it *is* the cold solve of these
  // inputs.
  if (CacheMatches()) {
    ++cache_hits_;
    return cache_.solution;
  }
  Solution sol = SolveMaxMin();
  cache_.valid = true;
  cache_.resource_profiles.resize(resources_.size());
  for (size_t r = 0; r < resources_.size(); ++r) {
    cache_.resource_profiles[r] = resources_[r].profile;
  }
  cache_.flows = flows_;
  cache_.solution = sol;
  return sol;
}

BandwidthSolver::Solution BandwidthSolver::SolveMaxMin() const {
  Solution sol;

  const size_t nf = flows_.size();
  const size_t nr = resources_.size();

  scratch_.Reset();
  const Index index = BuildIndex();
  // The blend basis weights each flow's read fraction by its rate. Offered
  // loads seed the basis; each round re-blends at the previous allocation.
  double* basis = scratch_.AllocateArray<double>(nf);
  for (size_t i = 0; i < nf; ++i) {
    basis[i] = flows_[i].offered_gbps;
  }

  double* capacity = scratch_.AllocateArray<double>(nr);
  std::fill(capacity, capacity + nr, 0.0);
  double* alloc = scratch_.AllocateArray<double>(nf);
  std::fill(alloc, alloc + nf, 0.0);
  for (int round = 0; round < kMaxRounds; ++round) {
    ++sol.iterations;
    for (size_t r = 0; r < nr; ++r) {
      capacity[r] = BlendedCapacity(index, r, basis);
    }
    WaterFill(index, capacity, alloc);
    bool converged = true;
    for (size_t i = 0; i < nf; ++i) {
      converged = converged && ApproxEqual(alloc[i], basis[i]);
    }
    std::copy(alloc, alloc + nf, basis);
    if (converged) {
      break;
    }
  }

  FinishSolution(index, alloc, capacity, &sol);
  return sol;
}

void BandwidthSolver::FinishSolution(const Index& index, const double* throughput,
                                     const double* capacity, Solution* sol) const {
  sol->flows.resize(flows_.size());
  sol->resources.resize(resources_.size());

  for (size_t r = 0; r < resources_.size(); ++r) {
    ResourceResult& rr = sol->resources[r];
    rr.capacity_gbps = capacity[r];
    for (size_t k = index.first[r]; k < index.first[r + 1]; ++k) {
      const auto i = static_cast<size_t>(index.flows[k]);
      rr.demand_gbps += flows_[i].offered_gbps;
      rr.achieved_gbps += throughput[i];
    }
    rr.utilization = rr.capacity_gbps > 0.0 ? rr.achieved_gbps / rr.capacity_gbps : 0.0;
  }

  // Flow results: latency from the most-congested resource on the path.
  for (size_t i = 0; i < flows_.size(); ++i) {
    const Flow& f = flows_[i];
    FlowResult& fr = sol->flows[i];
    fr.achieved_gbps = throughput[i];
    double u = 0.0;
    for (ResourceId r : f.resources) {
      u = std::max(u, sol->resources[static_cast<size_t>(r)].utilization);
    }
    fr.bottleneck_utilization = u;
    fr.latency_ns = f.profile->MakeQueueModel(f.mix, f.pattern).LatencyAt(u);
  }
}

SingleFlowPoint SolveSingleFlow(const PathProfile& profile, const AccessMix& mix,
                                double offered_gbps, AccessPattern pattern) {
  SingleFlowPoint pt;
  pt.achieved_gbps = profile.AchievedBandwidthGBps(mix, offered_gbps, pattern);
  const double peak = profile.PeakBandwidthGBps(mix, pattern);
  pt.utilization = peak > 0.0 ? std::min(offered_gbps / peak, 1.0) : 0.0;
  pt.latency_ns = profile.LoadedLatencyNs(mix, offered_gbps, pattern);
  return pt;
}

}  // namespace cxl::mem
