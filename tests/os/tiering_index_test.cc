// Differential test of the tiering daemon's heat index against the
// whole-tier-scan semantics it replaced.
//
// ReferenceDaemon below re-implements TieredMemory::Tick the direct way:
// every tick scans every page for promotion candidates (threshold, recency
// or second-access order), every demotion batch sorts the whole DRAM tier by
// (heat, id), and per-page promote-epoch stamps give the re-access and
// ping-pong counts. Seeded randomized scenarios drive both daemons over two
// identical allocators on every built-in policy and compare each tick's
// TickResult, TickObservation, vmstat counters, backoff state and per-page
// node/heat/recency columns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/fault/fault.h"
#include "src/os/page_allocator.h"
#include "src/os/policy.h"
#include "src/os/policy_registry.h"
#include "src/os/tiering.h"
#include "src/topology/platform.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace cxl::os {
namespace {

using TickResult = TieredMemory::TickResult;

// Delegates to a built-in policy and records every observation.
class RecordingPolicy : public TieringPolicy {
 public:
  RecordingPolicy(const std::string& name, const TieringConfig& config)
      : inner_(std::move(MakeTieringPolicy(name, config)).value()) {}

  const char* name() const override { return inner_->name(); }
  int32_t event_reason() const override { return inner_->event_reason(); }
  TickDecision Decide(const TickContext& ctx) override { return inner_->Decide(ctx); }
  void Observe(const TickObservation& obs) override {
    observations.push_back(obs);
    inner_->Observe(obs);
  }
  double hot_threshold() const override { return inner_->hot_threshold(); }

  std::vector<TickObservation> observations;

 private:
  std::unique_ptr<TieringPolicy> inner_;
};

// The daemon as whole-tier scans: the oracle for TieredMemory.
class ReferenceDaemon {
 public:
  static constexpr uint32_t kStampWindowTicks = 8;

  ReferenceDaemon(PageAllocator& allocator, const TieringConfig& config, TieringPolicy& policy,
                  const fault::FaultInjector* faults)
      : a_(allocator), config_(config), policy_(policy), faults_(faults) {}

  void RecordAccess(PageId page, uint64_t accesses) {
    const double sampled = static_cast<double>(accesses) * config_.hint_fault_sample_rate;
    auto p = a_.page(page);
    p.heat += static_cast<float>(sampled);
    p.last_decay_epoch = epoch_;
    a_.mutable_counters().numa_hint_faults += static_cast<uint64_t>(std::ceil(sampled));
  }

  bool QuarantinePage(PageId page) {
    if (page >= a_.page_count() || !quarantined_.insert(page).second) {
      return false;
    }
    auto p = a_.page(page);
    p.heat = 0.0f;
    if (p.node >= 0 && a_.IsDramNode(p.node)) {
      const topology::NodeId target = PickNode(topology::NodeKind::kCxl);
      if (target >= 0 && a_.MovePage(page, target).ok()) {
        ++a_.mutable_counters().pgdemote;
      }
    }
    return true;
  }

  int backoff_ticks_remaining() const { return backoff_; }

  TickResult Tick(double dt_seconds) {
    TickResult result;
    result.hot_threshold = policy_.hot_threshold();
    if (stamps_.size() < a_.page_count()) {
      stamps_.resize(a_.page_count(), 0);
    }
    if (faults_ != nullptr && faults_->enabled()) {
      if (faults_->DaemonStalled()) {
        ++epoch_;
        return result;
      }
      if (backoff_ > 0) {
        --backoff_;
        ++epoch_;
        return result;
      }
    }
    const double page_bytes = static_cast<double>(a_.page_bytes());
    const double budget_pages_d =
        MbpsToBytesPerSec(config_.promote_rate_limit_mbps) * dt_seconds / page_bytes;
    TickContext ctx;
    ctx.dt_seconds = dt_seconds;
    ctx.base_budget_pages =
        budget_pages_d >= static_cast<double>(std::numeric_limits<uint64_t>::max())
            ? std::numeric_limits<uint64_t>::max()
            : static_cast<uint64_t>(budget_pages_d);
    ctx.dram_free_fraction = a_.DramFreeFraction();
    if (faults_ != nullptr && faults_->enabled()) {
      ctx.link_degraded = faults_->LinkDegraded();
      ctx.cxl_latency_factor = faults_->CxlLatencyFactor();
    }
    const TickDecision decision = policy_.Decide(ctx);
    if (decision.skip_tick) {
      ++epoch_;
      return result;
    }
    const uint64_t budget = decision.budget_pages;
    ping_pong_ = 0;
    uint64_t recent = 0;
    uint64_t recent_hot = 0;

    // One pass over every page slot.
    const bool ranked = decision.scan == CandidateScan::kHotnessRanked;
    const bool has_low_tier = a_.CxlResidentCount() > 0;
    std::vector<std::pair<float, PageId>> hot;
    for (PageId id = 0; id < a_.page_count(); ++id) {
      const auto p = a_.page(id);
      if (p.node < 0) {
        continue;
      }
      if (a_.IsDramNode(p.node)) {
        if (ranked && has_low_tier && stamps_[id] != 0) {
          const uint32_t age = epoch_ - (stamps_[id] - 1);
          if (age >= 1 && age <= kStampWindowTicks) {
            ++recent;
            recent_hot += p.last_decay_epoch == epoch_ ? 1 : 0;
          }
        }
        continue;
      }
      if (quarantined_.count(id) != 0) {
        continue;
      }
      bool candidate = false;
      if (ranked) {
        candidate = has_low_tier && p.heat >= decision.hot_threshold;
      } else if (decision.scan == CandidateScan::kRecency) {
        candidate = p.last_decay_epoch == epoch_ && p.heat > 0.0f;
      } else {
        candidate = p.heat >= 2.0f;
      }
      if (candidate) {
        hot.emplace_back(p.heat, id);
      }
    }
    if (ranked) {
      std::sort(hot.begin(), hot.end(), [](const auto& x, const auto& y) {
        return x.first != y.first ? x.first > y.first : x.second < y.second;
      });
    }
    result.candidates = hot.size();
    a_.mutable_counters().pgpromote_candidate += hot.size();

    uint64_t promoted = 0;
    bool failed = false;
    const uint64_t batch = std::clamp<uint64_t>(budget / 8, 16, 4096);
    for (const auto& [heat, id] : hot) {
      if (promoted >= budget) {
        a_.mutable_counters().promote_rate_limited += hot.size() - promoted;
        break;
      }
      topology::NodeId target = PickNode(topology::NodeKind::kDram);
      if (target < 0) {
        const uint64_t freed = Demote(batch);
        result.demoted_pages += freed;
        result.migrated_bytes += static_cast<double>(freed) * page_bytes;
        target = PickNode(topology::NodeKind::kDram);
        if (target < 0) {
          failed = true;
          break;
        }
      }
      if (a_.MovePage(id, target).ok()) {
        ++promoted;
        ++a_.mutable_counters().pgpromote_success;
        result.migrated_bytes += page_bytes;
        stamps_[id] = epoch_ + 1;
      } else {
        failed = true;
      }
    }
    result.promoted_pages = promoted;

    if (faults_ != nullptr && faults_->enabled()) {
      if (failed) {
        ++failure_streak_;
        const int cap = std::max(1, faults_->tunables().backoff_max_ticks);
        backoff_ = std::min(cap, 1 << std::min(failure_streak_, 16));
      } else {
        failure_streak_ = 0;
      }
    }
    if (a_.DramFreeFraction() < config_.demotion_free_watermark) {
      const uint64_t freed = Demote(batch);
      result.demoted_pages += freed;
      result.migrated_bytes += static_cast<double>(freed) * page_bytes;
    }

    TickObservation obs;
    obs.dt_seconds = dt_seconds;
    obs.candidates = result.candidates;
    obs.promoted_pages = promoted;
    obs.demoted_pages = result.demoted_pages;
    obs.budget_pages = budget;
    obs.migrated_bytes = result.migrated_bytes;
    obs.rate_limit_saturation =
        (budget > 0 && budget != std::numeric_limits<uint64_t>::max())
            ? static_cast<double>(promoted) / static_cast<double>(budget)
            : 0.0;
    obs.promotion_failed = failed;
    obs.dram_free_fraction = a_.DramFreeFraction();
    obs.recent_promoted = recent;
    obs.recent_promoted_hot = recent_hot;
    obs.ping_pong_demotions = ping_pong_;
    obs.link_degraded = ctx.link_degraded;
    obs.cxl_latency_factor = ctx.cxl_latency_factor;
    policy_.Observe(obs);
    result.hot_threshold = policy_.hot_threshold();

    for (PageId id = 0; id < a_.page_count(); ++id) {
      a_.page(id).heat *= 0.5f;
    }
    ++epoch_;
    return result;
  }

 private:
  topology::NodeId PickNode(topology::NodeKind kind) const {
    topology::NodeId best = -1;
    uint64_t best_free = 0;
    for (const auto& n : a_.platform().nodes()) {
      if (n.kind == kind && a_.FreePages(n.id) > best_free) {
        best_free = a_.FreePages(n.id);
        best = n.id;
      }
    }
    return best;
  }

  // Demotes the `count` coldest DRAM pages in ascending (heat, id) order.
  uint64_t Demote(uint64_t count) {
    const uint64_t want = std::min<uint64_t>(count, a_.DramResidentCount());
    std::vector<std::pair<float, PageId>> dram;
    for (PageId id = 0; id < a_.page_count(); ++id) {
      if (a_.NodeOf(id) >= 0 && a_.IsDramNode(a_.NodeOf(id))) {
        dram.emplace_back(a_.page(id).heat, id);
      }
    }
    std::sort(dram.begin(), dram.end());
    uint64_t demoted = 0;
    for (uint64_t i = 0; i < want && i < dram.size(); ++i) {
      const topology::NodeId target = PickNode(topology::NodeKind::kCxl);
      if (target < 0) {
        ++a_.mutable_counters().migrate_failed;
        break;
      }
      const PageId id = dram[i].second;
      if (a_.MovePage(id, target).ok()) {
        ++demoted;
        ++a_.mutable_counters().pgdemote;
        if (stamps_[id] != 0 && epoch_ - (stamps_[id] - 1) <= kStampWindowTicks) {
          ++ping_pong_;
        }
      }
    }
    return demoted;
  }

  PageAllocator& a_;
  TieringConfig config_;
  TieringPolicy& policy_;
  const fault::FaultInjector* faults_;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> stamps_;  // epoch + 1 of the last promotion; 0 = never.
  std::unordered_set<PageId> quarantined_;
  uint64_t ping_pong_ = 0;
  int failure_streak_ = 0;
  int backoff_ = 0;
};

struct Scenario {
  const char* policy = kHotPageSelectionPolicyName;
  uint64_t seed = 1;
  int ticks = 240;
  double rate_limit_mbps = 64.0;  // 64 pages/tick at 1 MiB pages.
  double initial_threshold = 4.0;
  bool dynamic_threshold = true;
  // Touch every page once at the start, so DRAM holds no zero-heat page
  // until the subnormal tail underflows (the cold pool must rank it).
  bool warm_start = false;
  // Allocate every page slot: demotion has nowhere to go.
  bool fill_machine = false;
  // After this tick only a small hot set is touched; the rest idles into
  // the subnormal range and underflows to zero.
  int idle_after = 40;
  // Chance per tick that a random live page is quarantined.
  double quarantine_rate = 0.03;
  fault::FaultPlan faults;
};

std::string Describe(const Scenario& s) {
  return std::string(s.policy) + " seed=" + std::to_string(s.seed) +
         (s.warm_start ? " warm" : "") + (s.fill_machine ? " full" : "") +
         " threshold=" + std::to_string(s.initial_threshold) +
         (s.faults.empty() ? "" : " faults=" + s.faults.ToString());
}

// 2 x 1 GiB DRAM + 2 x 1 GiB CXL at 1 MiB pages: 2048 pages per tier.
topology::Platform SmallPlatform() {
  topology::PlatformOptions opt;
  opt.dram_per_socket = 1ull << 30;
  opt.cxl_card_capacity = 1ull << 30;
  return topology::Platform::Build(opt);
}

constexpr uint64_t kPageBytes = 1ull << 20;

void ExpectSameColumns(const PageAllocator& a, const PageAllocator& b) {
  ASSERT_EQ(a.page_count(), b.page_count());
  const uint64_t n = a.page_count();
  ASSERT_EQ(0, std::memcmp(a.node_column(), b.node_column(), n * sizeof(topology::NodeId)));
  ASSERT_EQ(0, std::memcmp(a.heat_column(), b.heat_column(), n * sizeof(float)));
  ASSERT_EQ(0, std::memcmp(a.epoch_column(), b.epoch_column(), n * sizeof(uint32_t)));
}

void ExpectSameCounters(const VmCounters& a, const VmCounters& b) {
  EXPECT_EQ(a.pgalloc, b.pgalloc);
  EXPECT_EQ(a.pgfree, b.pgfree);
  EXPECT_EQ(a.pgpromote_success, b.pgpromote_success);
  EXPECT_EQ(a.pgpromote_candidate, b.pgpromote_candidate);
  EXPECT_EQ(a.pgdemote, b.pgdemote);
  EXPECT_EQ(a.numa_hint_faults, b.numa_hint_faults);
  EXPECT_EQ(a.migrate_failed, b.migrate_failed);
  EXPECT_EQ(a.promote_rate_limited, b.promote_rate_limited);
}

void ExpectSameObservation(const TickObservation& a, const TickObservation& b) {
  EXPECT_EQ(a.dt_seconds, b.dt_seconds);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.promoted_pages, b.promoted_pages);
  EXPECT_EQ(a.demoted_pages, b.demoted_pages);
  EXPECT_EQ(a.budget_pages, b.budget_pages);
  EXPECT_EQ(a.migrated_bytes, b.migrated_bytes);
  EXPECT_EQ(a.rate_limit_saturation, b.rate_limit_saturation);
  EXPECT_EQ(a.promotion_failed, b.promotion_failed);
  EXPECT_EQ(a.dram_free_fraction, b.dram_free_fraction);
  EXPECT_EQ(a.recent_promoted, b.recent_promoted);
  EXPECT_EQ(a.recent_promoted_hot, b.recent_promoted_hot);
  EXPECT_EQ(a.ping_pong_demotions, b.ping_pong_demotions);
  EXPECT_EQ(a.link_degraded, b.link_degraded);
  EXPECT_EQ(a.cxl_latency_factor, b.cxl_latency_factor);
}

// What a scenario run exercised, so the suite can assert its coverage.
struct Coverage {
  uint64_t promoted = 0;
  uint64_t demoted = 0;
  uint64_t ping_pong = 0;
  uint64_t recent_promoted = 0;
  uint64_t skipped_ticks = 0;     // Ticks that observed nothing.
  uint64_t subnormal_pages = 0;   // Resident pages seen with 0 < heat < FLT_MIN.
  uint64_t underflowed_pages = 0; // ...and later seen at exactly zero.
  uint64_t recycled_ids = 0;
  uint64_t quarantined = 0;
};

void RunScenario(const Scenario& s, Coverage* coverage) {
  SCOPED_TRACE(Describe(s));
  Coverage& cov = *coverage;
  const topology::Platform platform = SmallPlatform();
  PageAllocator alloc_new(platform, kPageBytes);
  PageAllocator alloc_ref(platform, kPageBytes);

  TieringConfig cfg;
  cfg.policy = s.policy;
  cfg.promote_rate_limit_mbps = s.rate_limit_mbps;
  cfg.initial_hot_threshold = s.initial_threshold;
  cfg.dynamic_threshold = s.dynamic_threshold;
  cfg.hint_fault_sample_rate = 0.05;

  fault::FaultInjector faults(s.faults, s.seed);
  const fault::FaultInjector* fault_ptr = s.faults.empty() ? nullptr : &faults;
  RecordingPolicy policy_new(s.policy, cfg);
  RecordingPolicy policy_ref(s.policy, cfg);
  TieredMemory daemon(alloc_new, cfg);
  TieredMemory::Observers obs;
  obs.faults = fault_ptr;
  obs.policy = &policy_new;
  daemon.Attach(obs);
  ReferenceDaemon reference(alloc_ref, cfg, policy_ref, fault_ptr);

  Rng rng(s.seed);
  std::vector<PageId> live;
  // Applies one allocation to both allocators; ids must agree.
  const auto allocate = [&](const NumaPolicy& policy, uint64_t count) {
    auto a = alloc_new.Allocate(policy, count);
    auto b = alloc_ref.Allocate(policy, count);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      ASSERT_EQ(*a, *b);
      live.insert(live.end(), a->begin(), a->end());
    }
  };
  const auto dram = platform.DramNodes();
  const auto cxl = platform.CxlNodes();
  if (s.fill_machine) {
    allocate(NumaPolicy::Bind(dram), alloc_new.FreePages(dram[0]) + alloc_new.FreePages(dram[1]));
    allocate(NumaPolicy::Bind(cxl), alloc_new.FreePages(cxl[0]) + alloc_new.FreePages(cxl[1]));
  } else {
    // DRAM left with a few free pages, CXL with room to demote into.
    allocate(NumaPolicy::WeightedInterleave(dram, cxl, 1, 1), 3900);
  }
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  const auto touch = [&](PageId id, uint64_t accesses) {
    daemon.RecordAccess(id, accesses);
    reference.RecordAccess(id, accesses);
  };
  if (s.warm_start) {
    for (PageId id : live) {
      touch(id, 1 + rng.NextBounded(2000));
    }
  }
  std::vector<uint8_t> seen_subnormal(alloc_new.page_count() + 4096, 0);
  const uint64_t hot_set = 48;
  for (int t = 0; t < s.ticks; ++t) {
    SCOPED_TRACE("tick " + std::to_string(t));
    faults.AdvanceTo(static_cast<double>(t));

    // Allocation churn between ticks: frees put ids on the free list and
    // the next allocation recycles them (stale recency stamps included).
    if (rng.NextBool(0.08) && live.size() > 200) {
      std::vector<PageId> victims;
      for (int k = 0; k < 12; ++k) {
        const size_t i = rng.NextBounded(live.size());
        victims.push_back(live[i]);
        live[i] = live.back();
        live.pop_back();
      }
      // Touch a victim first: a recycled id then carries a current stamp.
      touch(victims.front(), 40);
      alloc_new.Free(PageList(victims));
      alloc_ref.Free(PageList(victims));
      const uint64_t before = alloc_new.page_count();
      allocate(rng.NextBool(0.5) ? NumaPolicy::Bind(dram) : NumaPolicy::Bind(cxl), 8);
      cov.recycled_ids += 8 - std::min<uint64_t>(8, alloc_new.page_count() - before);
      if (!live.empty()) {
        touch(live.back(), rng.NextBounded(3) * 100);
      }
    }
    ASSERT_FALSE(::testing::Test::HasFatalFailure());

    // Accesses: a small stable hot set, a streaming window, and random
    // touches of every strength — zero accesses (stamp only) included.
    const bool idle = t >= s.idle_after;
    for (uint64_t i = 0; i < hot_set && i < live.size(); ++i) {
      touch(live[i], 200);
    }
    const uint64_t window = idle ? 16 : 160;
    const uint64_t start = (static_cast<uint64_t>(t) * window) % std::max<size_t>(1, live.size());
    for (uint64_t i = 0; i < window && i < live.size(); ++i) {
      const PageId id = live[(start + i) % live.size()];
      if (!idle || id < hot_set * 4) {
        touch(id, 400);
      }
    }
    const int random_touches = idle ? 6 : 60;
    for (int k = 0; k < random_touches && !live.empty(); ++k) {
      static constexpr uint64_t kStrengths[] = {0, 1, 3, 20, 41, 400, 1237};
      touch(live[rng.NextBounded(live.size())], kStrengths[rng.NextBounded(7)]);
    }

    if (rng.NextBool(s.quarantine_rate) && !live.empty()) {
      const PageId victim = live[rng.NextBounded(live.size())];
      const bool a = daemon.QuarantinePage(victim);
      const bool b = reference.QuarantinePage(victim);
      ASSERT_EQ(a, b);
      cov.quarantined += a ? 1 : 0;
    }
    ASSERT_NO_FATAL_FAILURE(ExpectSameColumns(alloc_new, alloc_ref));

    const size_t observed = policy_new.observations.size();
    const TickResult r_new = daemon.Tick(1.0);
    const TickResult r_ref = reference.Tick(1.0);
    ASSERT_EQ(r_new.promoted_pages, r_ref.promoted_pages);
    ASSERT_EQ(r_new.demoted_pages, r_ref.demoted_pages);
    ASSERT_EQ(r_new.migrated_bytes, r_ref.migrated_bytes);
    ASSERT_EQ(r_new.hot_threshold, r_ref.hot_threshold);
    ASSERT_EQ(r_new.candidates, r_ref.candidates);
    ASSERT_EQ(daemon.BackoffTicksRemaining(), reference.backoff_ticks_remaining());
    ASSERT_EQ(policy_new.observations.size(), policy_ref.observations.size());
    if (policy_new.observations.size() > observed) {
      ExpectSameObservation(policy_new.observations.back(), policy_ref.observations.back());
      cov.ping_pong += policy_new.observations.back().ping_pong_demotions;
      cov.recent_promoted += policy_new.observations.back().recent_promoted;
    } else {
      ++cov.skipped_ticks;
    }
    ExpectSameCounters(alloc_new.counters(), alloc_ref.counters());
    ASSERT_NO_FATAL_FAILURE(ExpectSameColumns(alloc_new, alloc_ref));
    ASSERT_FALSE(::testing::Test::HasFailure());
    cov.promoted += r_new.promoted_pages;
    cov.demoted += r_new.demoted_pages;

    if (seen_subnormal.size() < alloc_new.page_count()) {
      seen_subnormal.resize(alloc_new.page_count(), 0);
    }
    for (PageId id = 0; id < alloc_new.page_count(); ++id) {
      const float h = alloc_new.heat_column()[id];
      if (alloc_new.NodeOf(id) < 0) {
        seen_subnormal[id] = 0;
      } else if (h > 0.0f && h < std::numeric_limits<float>::min() && seen_subnormal[id] == 0) {
        seen_subnormal[id] = 1;
        ++cov.subnormal_pages;
      } else if (h == 0.0f && seen_subnormal[id] == 1) {
        seen_subnormal[id] = 2;
        ++cov.underflowed_pages;
      }
    }
  }
}

const char* const kPolicies[] = {kHotPageSelectionPolicyName, kMruBalancingPolicyName,
                                 kTppLikePolicyName, kAdaptiveFeedbackPolicyName};

TEST(TieringIndexDifferentialTest, HealthyStreamingAndChurn) {
  for (const char* policy : kPolicies) {
    for (uint64_t seed : {1, 2}) {
      Scenario s;
      s.policy = policy;
      s.seed = seed;
      Coverage cov;
      RunScenario(s, &cov);
      ASSERT_FALSE(HasFailure());
      EXPECT_GT(cov.promoted, 0u) << policy;
      // DRAM starts 98 pages short of full, so demotions mean promotions
      // ran into a full DRAM tier.
      EXPECT_GT(cov.demoted, 0u) << policy;
      EXPECT_GT(cov.quarantined, 0u) << policy;
      EXPECT_GT(cov.recycled_ids, 0u) << policy;
      // Only the hotness-ranked scans count recent promotions.
      const bool ranked = std::string(policy) == kHotPageSelectionPolicyName ||
                          std::string(policy) == kAdaptiveFeedbackPolicyName;
      EXPECT_EQ(cov.recent_promoted > 0, ranked) << policy;
    }
  }
}

// Every page warm at the start, then 200 ticks of near-idleness: the
// coldest DRAM pages go subnormal (rounded halving forms ties that the
// (heat, id) order must break by id) and underflow to zero, so the cold
// pool ranks the merged subnormal group and interleaves fresh zeros with
// the zero group by id.
TEST(TieringIndexDifferentialTest, SubnormalTailAndUnderflow) {
  for (const char* policy : kPolicies) {
    Scenario s;
    s.policy = policy;
    s.seed = 7;
    s.ticks = 240;
    s.warm_start = true;
    s.idle_after = 3;
    Coverage cov;
    RunScenario(s, &cov);
    ASSERT_FALSE(HasFailure());
    EXPECT_GT(cov.subnormal_pages, 0u) << policy;
    EXPECT_GT(cov.underflowed_pages, 0u) << policy;
    EXPECT_GT(cov.demoted, 0u) << policy;
  }
}

// MRU promotes barely-touched pages: they enter DRAM colder than pages the
// cold pool already ranked (below its floor), and the same tick's demotions
// take some of them straight back (same-tick ping-pong).
TEST(TieringIndexDifferentialTest, PromotionBelowPoolFloor) {
  Scenario s;
  s.policy = kMruBalancingPolicyName;
  s.seed = 11;
  s.ticks = 80;
  s.warm_start = true;
  s.rate_limit_mbps = 512.0;
  Coverage cov;
  RunScenario(s, &cov);
  ASSERT_FALSE(HasFailure());
  EXPECT_GT(cov.ping_pong, 0u);
}

// Thresholds at and below the subnormal range: the candidate walk must
// cover the merged group and, at zero, the low tier's zero group.
TEST(TieringIndexDifferentialTest, TinyAndZeroThresholds) {
  for (double threshold : {0.0, 1e-40, 3e-39}) {
    Scenario s;
    s.seed = 5;
    s.ticks = 200;
    s.warm_start = true;
    s.idle_after = 3;
    s.initial_threshold = threshold;
    s.dynamic_threshold = false;
    Coverage cov;
    RunScenario(s, &cov);
    ASSERT_FALSE(HasFailure()) << threshold;
  }
}

// Daemon stalls, policy skips under a degraded link (adaptive feedback) and
// promotion-failure backoff on a full machine all end the epoch without a
// scan; the index must carry the touched pages across them.
TEST(TieringIndexDifferentialTest, StallBackoffAndPolicySkipTicks) {
  for (const char* policy : kPolicies) {
    Scenario s;
    s.policy = policy;
    s.seed = 3;
    s.ticks = 120;
    s.faults = fault::FaultPlan().DaemonStall(10.0, 6.0).Downtrain(30.0, 40.0, 8);
    Coverage cov;
    RunScenario(s, &cov);
    ASSERT_FALSE(HasFailure());
    EXPECT_GT(cov.skipped_ticks, 0u) << policy;
  }
  for (const char* policy : kPolicies) {
    Scenario s;
    s.policy = policy;
    s.seed = 4;
    s.ticks = 60;
    s.fill_machine = true;
    // DRAM pages quarantined while CXL is full stay in DRAM at zero heat,
    // ahead of every warm page once churn frees CXL room to demote into.
    s.quarantine_rate = 0.5;
    s.faults = fault::FaultPlan().Poison(1e6, 1.0, 1e-4);  // Enabled, never opens.
    Coverage cov;
    RunScenario(s, &cov);
    ASSERT_FALSE(HasFailure());
    EXPECT_GT(cov.skipped_ticks, 0u) << policy;
  }
}

// The sparsity claim: with a 1M-page allocator and a few thousand pages
// touched per tick, a tick reads a small multiple of the pages it touches,
// migrates and ranks — not the resident set.
TEST(TieringIndexDifferentialTest, PagesExaminedTracksWorkNotResidentSet) {
  topology::PlatformOptions opt;
  opt.dram_per_socket = 1ull << 30;
  opt.cxl_card_capacity = 1ull << 30;
  const topology::Platform platform = topology::Platform::Build(opt);
  PageAllocator alloc(platform, 4096);  // 2^20 page slots in total.
  TieringConfig cfg;
  cfg.promote_rate_limit_mbps = 16.0;  // ~3900 pages per tick.
  cfg.hint_fault_sample_rate = 0.05;
  TieredMemory daemon(alloc, cfg);
  auto pages = alloc.Allocate(
      NumaPolicy::WeightedInterleave(platform.DramNodes(), platform.CxlNodes(), 1, 1),
      (1u << 20) - 65536);
  ASSERT_TRUE(pages.ok());

  Rng rng(9);
  const uint64_t touched_per_tick = 4000;
  for (int t = 0; t < 24; ++t) {
    for (uint64_t k = 0; k < touched_per_tick; ++k) {
      daemon.RecordAccess((*pages)[rng.NextBounded(pages->size())], 400);
    }
    const TickResult r = daemon.Tick(1.0);
    if (t == 0) {
      EXPECT_GE(r.pages_examined, pages->size());  // The first tick files every page.
      continue;
    }
    const uint64_t work = touched_per_tick + r.promoted_pages + r.demoted_pages;
    EXPECT_LE(r.pages_examined, 12 * work) << "tick " << t;
    EXPECT_LT(r.pages_examined, pages->size() / 8) << "tick " << t;
  }
}

}  // namespace
}  // namespace cxl::os
