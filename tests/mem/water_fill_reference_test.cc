// Differential test of the sorted-level water-fill against the progressive
// filling it replaced. The reference below is the earlier solver, kept
// verbatim in shape: every pass recounts the active flows per resource,
// scans every flow and resource for the increment, raises every active flow
// and re-tests every flow's path, and the capacity blend and the resource
// totals search each flow's path with std::find. The solver must return the
// same Solution, bit for bit, on every seeded topology.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/check/invariants.h"
#include "src/mem/access.h"
#include "src/mem/bandwidth_solver.h"
#include "src/mem/profiles.h"
#include "src/pool/memory_pool.h"
#include "src/util/rng.h"
#include "tests/mem/solution_bits.h"

namespace cxl::mem {
namespace {

using Solution = BandwidthSolver::Solution;

struct TopologyFlow {
  const PathProfile* profile;
  AccessMix mix;
  AccessPattern pattern;
  double offered_gbps;
  std::vector<BandwidthSolver::ResourceId> path;
};

struct Topology {
  std::vector<const PathProfile*> resources;
  std::vector<TopologyFlow> flows;
};

void AddTopology(const Topology& topo, BandwidthSolver& solver) {
  for (size_t r = 0; r < topo.resources.size(); ++r) {
    solver.AddResource("r" + std::to_string(r), topo.resources[r]);
  }
  for (const TopologyFlow& f : topo.flows) {
    solver.AddFlow(f.profile, f.mix, f.offered_gbps, f.path, f.pattern);
  }
}

// ---------------------------------------------------------------------------
// Reference: the progressive-filling solver as it stood before the
// sorted-level rewrite (same constants, same summation order).
// ---------------------------------------------------------------------------

constexpr double kRelTol = 1e-9;
constexpr int kMaxRounds = 40;

bool ApproxEqual(double a, double b) {
  return std::fabs(a - b) <= kRelTol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

bool OnPath(const TopologyFlow& f, size_t r) {
  return std::find(f.path.begin(), f.path.end(), static_cast<BandwidthSolver::ResourceId>(r)) !=
         f.path.end();
}

double ReferenceBlendedCapacity(const Topology& topo, size_t r, const std::vector<double>& rate) {
  double demand = 0.0;
  double read_demand = 0.0;
  bool any_random = false;
  for (size_t i = 0; i < topo.flows.size(); ++i) {
    const TopologyFlow& f = topo.flows[i];
    if (!OnPath(f, r)) {
      continue;
    }
    demand += rate[i];
    read_demand += rate[i] * f.mix.read_fraction;
    any_random = any_random || f.pattern == AccessPattern::kRandom;
  }
  if (demand <= 0.0) {
    return topo.resources[r]->PeakBandwidthGBps(AccessMix::ReadOnly());
  }
  const AccessMix blended{read_demand / demand, true};
  const AccessPattern pattern = any_random ? AccessPattern::kRandom : AccessPattern::kSequential;
  return topo.resources[r]->PeakBandwidthGBps(blended, pattern);
}

void ReferenceWaterFill(const Topology& topo, const std::vector<double>& capacity,
                        std::vector<double>& alloc) {
  const size_t nf = topo.flows.size();
  const size_t nr = topo.resources.size();
  std::fill(alloc.begin(), alloc.end(), 0.0);
  std::vector<double> headroom(nr);
  for (size_t r = 0; r < nr; ++r) {
    headroom[r] = std::max(0.0, capacity[r] * BandwidthSolver::kCapacityShare);
  }
  std::vector<char> active(nf, 1);
  size_t n_active = 0;
  for (size_t i = 0; i < nf; ++i) {
    if (topo.flows[i].offered_gbps <= 0.0) {
      active[i] = 0;
    } else {
      ++n_active;
    }
  }
  std::vector<size_t> active_at(nr);
  while (n_active > 0) {
    std::fill(active_at.begin(), active_at.end(), 0);
    for (size_t i = 0; i < nf; ++i) {
      if (!active[i]) {
        continue;
      }
      for (BandwidthSolver::ResourceId r : topo.flows[i].path) {
        ++active_at[static_cast<size_t>(r)];
      }
    }
    double delta = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < nf; ++i) {
      if (active[i]) {
        delta = std::min(delta, topo.flows[i].offered_gbps - alloc[i]);
      }
    }
    for (size_t r = 0; r < nr; ++r) {
      if (active_at[r] > 0) {
        delta = std::min(delta, headroom[r] / static_cast<double>(active_at[r]));
      }
    }
    delta = std::max(delta, 0.0);
    for (size_t i = 0; i < nf; ++i) {
      if (active[i]) {
        alloc[i] += delta;
      }
    }
    for (size_t r = 0; r < nr; ++r) {
      headroom[r] -= delta * static_cast<double>(active_at[r]);
    }
    bool froze = false;
    for (size_t i = 0; i < nf; ++i) {
      if (!active[i]) {
        continue;
      }
      bool freeze = ApproxEqual(alloc[i], topo.flows[i].offered_gbps);
      for (BandwidthSolver::ResourceId r : topo.flows[i].path) {
        const auto rr = static_cast<size_t>(r);
        freeze = freeze || headroom[rr] <= kRelTol * std::max(1.0, capacity[rr]);
      }
      if (freeze) {
        active[i] = 0;
        --n_active;
        froze = true;
      }
    }
    if (!froze) {
      break;
    }
  }
}

Solution ReferenceSolve(const Topology& topo) {
  const size_t nf = topo.flows.size();
  const size_t nr = topo.resources.size();
  Solution sol;
  std::vector<double> basis(nf);
  for (size_t i = 0; i < nf; ++i) {
    basis[i] = topo.flows[i].offered_gbps;
  }
  std::vector<double> capacity(nr, 0.0);
  std::vector<double> alloc(nf, 0.0);
  for (int round = 0; round < kMaxRounds; ++round) {
    ++sol.iterations;
    for (size_t r = 0; r < nr; ++r) {
      capacity[r] = ReferenceBlendedCapacity(topo, r, basis);
    }
    ReferenceWaterFill(topo, capacity, alloc);
    bool converged = true;
    for (size_t i = 0; i < nf; ++i) {
      converged = converged && ApproxEqual(alloc[i], basis[i]);
    }
    basis = alloc;
    if (converged) {
      break;
    }
  }

  sol.flows.resize(nf);
  sol.resources.resize(nr);
  for (size_t r = 0; r < nr; ++r) {
    BandwidthSolver::ResourceResult& rr = sol.resources[r];
    rr.capacity_gbps = capacity[r];
    for (size_t i = 0; i < nf; ++i) {
      if (OnPath(topo.flows[i], r)) {
        rr.demand_gbps += topo.flows[i].offered_gbps;
        rr.achieved_gbps += alloc[i];
      }
    }
    rr.utilization = rr.capacity_gbps > 0.0 ? rr.achieved_gbps / rr.capacity_gbps : 0.0;
  }
  for (size_t i = 0; i < nf; ++i) {
    const TopologyFlow& f = topo.flows[i];
    BandwidthSolver::FlowResult& fr = sol.flows[i];
    fr.achieved_gbps = alloc[i];
    double u = 0.0;
    for (BandwidthSolver::ResourceId r : f.path) {
      u = std::max(u, sol.resources[static_cast<size_t>(r)].utilization);
    }
    fr.bottleneck_utilization = u;
    fr.latency_ns = f.profile->MakeQueueModel(f.mix, f.pattern).LatencyAt(u);
  }
  return sol;
}

// ---------------------------------------------------------------------------
// Seeded topology generators.
// ---------------------------------------------------------------------------

// Capacity laws the generators draw from: the calibrated paths, scaled
// copies (the fleet's 4x host DRAM, a down-trained link) and a
// zero-capacity resource.
class ProfileSet {
 public:
  ProfileSet() {
    for (MemoryPath p : {MemoryPath::kLocalDram, MemoryPath::kRemoteDram, MemoryPath::kLocalCxl,
                         MemoryPath::kRemoteCxl, MemoryPath::kSsd}) {
      all_.push_back(&GetProfile(p));
    }
    all_.push_back(&pool::PooledCxlProfile());
    host_dram_ = Own(GetProfile(MemoryPath::kLocalDram).WithBandwidthScale(4.0, "host-dram"));
    degraded_link_ = Own(pool::PooledCxlProfile().WithBandwidthScale(0.5, "link-degraded"));
    all_.push_back(Own(GetProfile(MemoryPath::kLocalCxl).WithBandwidthScale(0.1, "thin")));
    zero_ = Own(GetProfile(MemoryPath::kLocalDram).WithBandwidthScale(0.0, "zero"));
  }

  const PathProfile* Pick(Rng& rng) const {
    return all_[static_cast<size_t>(rng.NextBounded(all_.size()))];
  }
  const PathProfile* zero() const { return zero_; }
  const PathProfile* host_dram() const { return host_dram_; }
  const PathProfile* degraded_link() const { return degraded_link_; }

 private:
  const PathProfile* Own(PathProfile p) {
    owned_.push_back(std::make_unique<PathProfile>(std::move(p)));
    all_.push_back(owned_.back().get());
    return owned_.back().get();
  }

  std::vector<std::unique_ptr<PathProfile>> owned_;
  std::vector<const PathProfile*> all_;
  const PathProfile* host_dram_ = nullptr;
  const PathProfile* degraded_link_ = nullptr;
  const PathProfile* zero_ = nullptr;
};

AccessMix RandomMix(Rng& rng) {
  static constexpr double kFractions[] = {0.0, 0.25, 0.5, 2.0 / 3.0, 0.7, 1.0};
  const double read = rng.NextBool(0.8) ? kFractions[rng.NextBounded(std::size(kFractions))]
                                        : rng.NextDouble();
  return AccessMix{read, rng.NextBool(0.5)};
}

// Offered loads that stress the freeze tests: ties, 1e-9-relative near-ties
// (inside and just outside ApproxEqual), zero demand and sub-1 GB/s loads
// where the tolerance floor max(1, offered) applies.
double RandomOffered(Rng& rng, const std::vector<double>& earlier) {
  const uint64_t kind = rng.NextBounded(10);
  if (kind == 0) {
    return 0.0;
  }
  if (!earlier.empty() && kind <= 3) {
    const double base = earlier[static_cast<size_t>(rng.NextBounded(earlier.size()))];
    if (kind == 1) {
      return base;
    }
    const double scale = kind == 2 ? 1e-9 : 4e-9;
    return base * (1.0 + scale * rng.NextDouble(-2.0, 2.0));
  }
  if (kind == 4) {
    return rng.NextDouble(0.0, 1.0);
  }
  return rng.NextDouble(0.0, 120.0);
}

Topology RandomTopology(Rng& rng, const ProfileSet& profiles) {
  Topology topo;
  const size_t nr = 1 + rng.NextBounded(20);
  for (size_t r = 0; r < nr; ++r) {
    topo.resources.push_back(rng.NextBool(0.05) ? profiles.zero() : profiles.Pick(rng));
  }
  const bool shared_resource = rng.NextBool(0.2);  // Every flow through resource 0.
  const size_t nf = 1 + rng.NextBounded(32);
  std::vector<double> earlier;
  for (size_t i = 0; i < nf; ++i) {
    TopologyFlow f{profiles.Pick(rng), RandomMix(rng),
                   rng.NextBool(0.3) ? AccessPattern::kRandom : AccessPattern::kSequential,
                   RandomOffered(rng, earlier),
                   {}};
    earlier.push_back(f.offered_gbps);
    if (shared_resource) {
      f.path.push_back(0);
    }
    const uint64_t hops = rng.NextBounded(4);
    for (uint64_t h = 0; h < hops; ++h) {
      const auto r = static_cast<BandwidthSolver::ResourceId>(rng.NextBounded(nr));
      if (std::find(f.path.begin(), f.path.end(), r) == f.path.end()) {
        f.path.push_back(r);
      }
    }
    topo.flows.push_back(std::move(f));
  }
  return topo;
}

// The rack fleet's per-step shape: per-host DRAM and pool-link resources,
// one resource per expander, a DRAM flow per host and one pool flow per
// (host, leased expander) over {link, expander}; flat, star or mesh
// reachability; one host on a down-trained link when degraded.
Topology FleetTopology(Rng& rng, const ProfileSet& profiles, int shape, bool degraded) {
  const int hosts = 2 + static_cast<int>(rng.NextBounded(11));
  const int expanders = 1 + static_cast<int>(rng.NextBounded(4));
  const int degraded_host = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(hosts)));
  const PathProfile* pool = &pool::PooledCxlProfile();
  const AccessMix mix = RandomMix(rng);
  Topology topo;
  for (int h = 0; h < hosts; ++h) {
    topo.resources.push_back(profiles.host_dram());
    topo.resources.push_back(degraded && h == degraded_host ? profiles.degraded_link() : pool);
  }
  for (int e = 0; e < expanders; ++e) {
    topo.resources.push_back(pool);
  }
  // Heavier load late in a diurnal cycle pushes links and expanders past
  // saturation.
  const double load = rng.NextDouble(5.0, 160.0);
  for (int h = 0; h < hosts; ++h) {
    const double gbps = load * rng.NextDouble(0.3, 1.7);
    const double f_dram = rng.NextDouble(0.2, 1.0);
    topo.flows.push_back({profiles.host_dram(), mix, AccessPattern::kSequential, gbps * f_dram,
                          {2 * h}});
    const double f_pool = 1.0 - f_dram;
    const int home = h % expanders;
    for (int e = 0; e < expanders; ++e) {
      const bool reachable = shape != 1 || e == home;  // 0 flat, 1 star, 2 mesh.
      if (!reachable || (e != home && rng.NextBool(0.4))) {
        continue;
      }
      const double share = rng.NextDouble(0.05, 1.0);
      topo.flows.push_back({topo.resources[static_cast<size_t>(2 * h + 1)], mix,
                            AccessPattern::kSequential, gbps * f_pool * share,
                            {2 * h + 1, 2 * hosts + e}});
    }
  }
  return topo;
}

struct Coverage {
  int topologies = 0;
  int multi_round = 0;
  int throttled = 0;
  int near_tie_freezes = 0;
};

void CheckTopology(const Topology& topo, Coverage& coverage) {
  BandwidthSolver solver;
  AddTopology(topo, solver);
  const Solution sol = solver.Solve();
  const Solution ref = ReferenceSolve(topo);
  ExpectSolutionsBitIdentical(sol, ref);
  const std::vector<std::string> violations = check::SolverInvariantViolations(solver, sol);
  EXPECT_TRUE(violations.empty()) << violations.front();

  ++coverage.topologies;
  coverage.multi_round += sol.iterations > 1 ? 1 : 0;
  for (size_t i = 0; i < topo.flows.size(); ++i) {
    const double offered = topo.flows[i].offered_gbps;
    const double achieved = sol.flows[i].achieved_gbps;
    if (achieved < offered && !ApproxEqual(achieved, offered)) {
      ++coverage.throttled;
    } else if (achieved != offered && offered > 0.0) {
      ++coverage.near_tie_freezes;  // Frozen by ApproxEqual short of the exact offer.
    }
  }
}

TEST(WaterFillReferenceTest, RandomTopologiesMatchProgressiveFillingBitwise) {
  const ProfileSet profiles;
  Rng rng(0x3a7e2f11);
  Coverage coverage;
  for (int t = 0; t < 1500; ++t) {
    CheckTopology(RandomTopology(rng, profiles), coverage);
    if (HasFailure()) {
      FAIL() << "topology " << t;
    }
  }
  // The generator must actually reach the corners the rewrite reasons about.
  EXPECT_GT(coverage.multi_round, 500);
  EXPECT_GT(coverage.throttled, 5000);
  EXPECT_GT(coverage.near_tie_freezes, 100);
}

TEST(WaterFillReferenceTest, FleetShapesMatchProgressiveFillingBitwise) {
  const ProfileSet profiles;
  Rng rng(0xf1ee7);
  Coverage coverage;
  for (int t = 0; t < 600; ++t) {
    const int shape = t % 3;
    const bool degraded = (t / 3) % 2 == 1;
    CheckTopology(FleetTopology(rng, profiles, shape, degraded), coverage);
    if (HasFailure()) {
      FAIL() << "fleet topology " << t << " shape " << shape << " degraded " << degraded;
    }
  }
  EXPECT_GT(coverage.multi_round, 100);
  EXPECT_GT(coverage.throttled, 1000);
}

TEST(WaterFillReferenceTest, HandBuiltCornersMatchBitwise) {
  const ProfileSet profiles;
  const PathProfile* dram = &GetProfile(MemoryPath::kLocalDram);
  const AccessMix read = AccessMix::ReadOnly();
  Coverage coverage;

  // Exact ties and 1e-9-relative near-ties on one saturated resource.
  Topology ties{{dram}, {}};
  for (double offered : {20.0, 20.0, 20.0 * (1.0 + 1e-9), 20.0 * (1.0 + 5e-9), 30.0}) {
    ties.flows.push_back({dram, read, AccessPattern::kSequential, offered, {0}});
  }
  CheckTopology(ties, coverage);

  // Zero demand beside a zero-capacity resource and an empty path.
  Topology zeros{{dram, profiles.zero()}, {}};
  zeros.flows.push_back({dram, read, AccessPattern::kSequential, 0.0, {0}});
  zeros.flows.push_back({dram, read, AccessPattern::kSequential, 10.0, {0, 1}});
  zeros.flows.push_back({dram, read, AccessPattern::kSequential, 10.0, {0}});
  zeros.flows.push_back({dram, read, AccessPattern::kSequential, 5.0, {}});
  CheckTopology(zeros, coverage);

  // A path that lists a resource twice is rejected when it is added.
  EXPECT_DEBUG_DEATH(
      {
        BandwidthSolver solver;
        solver.AddResource("r0", dram);
        solver.AddFlow(dram, read, 50.0, {0, 0});
      },
      "twice");

  // Read and write flows sharing a resource re-blend its capacity over
  // several rounds.
  Topology blend{{dram, &GetProfile(MemoryPath::kLocalCxl)}, {}};
  blend.flows.push_back({dram, read, AccessPattern::kSequential, 60.0, {0}});
  blend.flows.push_back({dram, AccessMix::WriteOnly(), AccessPattern::kSequential, 60.0, {0, 1}});
  blend.flows.push_back({dram, AccessMix::Ratio(1, 1), AccessPattern::kSequential, 40.0, {1}});
  CheckTopology(blend, coverage);
  EXPECT_GT(coverage.multi_round, 0);
}

}  // namespace
}  // namespace cxl::mem
