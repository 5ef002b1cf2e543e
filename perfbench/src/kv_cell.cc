#include "kv_cell.h"

#include <optional>

#include "src/apps/kv/kvstore.h"
#include "src/apps/kv/server.h"
#include "src/os/page_allocator.h"
#include "src/os/tiering.h"
#include "src/telemetry/epoch_profiler.h"
#include "src/topology/platform.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace perfbench {

using namespace cxl;

namespace {

// Placement granularity of the KV experiments (core::RunKeyDbExperiment and
// the policy tournament use the same 16 KiB pages).
constexpr uint64_t kKvPageBytes = 16 * kKiB;

uint64_t DigestKv(const apps::kv::KvServerSim::Result& r, const os::VmCounters& c,
                  uint64_t ticks) {
  Digest d;
  d.Add(r.throughput_kops)
      .Add(r.read_latency_us)
      .Add(r.update_latency_us)
      .Add(r.all_latency_us)
      .Add(r.dram_share)
      .Add(r.mem_traffic_gbps)
      .Add(r.ssd_read_gbps)
      .Add(r.ssd_write_gbps)
      .Add(r.migrated_bytes)
      .Add(r.avg_service_us);
  for (const auto& e : r.timeline) {
    d.Add(e.end_ms).Add(e.kops).Add(e.migrated_mb).Add(e.mean_latency_us);
  }
  d.Add(r.poisoned_reads)
      .Add(r.poison_retries)
      .Add(r.quarantined_pages)
      .Add(r.flash_errors)
      .Add(r.shed_ops)
      .Add(r.shed_epochs);
  d.Add(c.pgalloc)
      .Add(c.pgfree)
      .Add(c.pgpromote_success)
      .Add(c.pgpromote_candidate)
      .Add(c.pgdemote)
      .Add(c.numa_hint_faults)
      .Add(c.migrate_failed)
      .Add(c.promote_rate_limited);
  return d.Add(ticks).value();
}

}  // namespace

workload::YcsbOp TimedOpSource::Next() {
  const Clock::time_point start = Clock::now();
  const workload::YcsbOp op = inner_.Next();
  elapsed_ += Clock::now() - start;
  ++calls_;
  return op;
}

os::TickDecision TimedPolicy::Decide(const os::TickContext& ctx) {
  const Clock::time_point start = Clock::now();
  const os::TickDecision decision = inner_.Decide(ctx);
  const Clock::time_point end = Clock::now();
  ++ticks_;
  probe_.Add("tiering.ticks", 1.0);
  probe_.Add("tiering.decide_s", Seconds(end - start));
  probe_.Child("tiering.decide", start, end);
  if (decision.skip_tick) {
    probe_.Add("tiering.skipped_ticks", 1.0);  // No Observe() follows.
  }
  body_start_ = end;
  return decision;
}

void TimedPolicy::Observe(const os::TickObservation& obs) {
  const Clock::time_point end = Clock::now();
  probe_.Add("tiering.tick_body_s", Seconds(end - body_start_));
  probe_.Child("tiering.tick_body", body_start_, end);
  probe_.Add("tiering.candidates", static_cast<double>(obs.candidates));
  probe_.Add("tiering.promoted_pages", static_cast<double>(obs.promoted_pages));
  probe_.Add("tiering.demoted_pages", static_cast<double>(obs.demoted_pages));
  probe_.Add("tiering.migrated_gb", BytesToGBd(obs.migrated_bytes));
  probe_.Add("tiering.recent_promoted", static_cast<double>(obs.recent_promoted));
  probe_.Add("tiering.recent_promoted_hot", static_cast<double>(obs.recent_promoted_hot));
  probe_.Add("tiering.ping_pong_pages", static_cast<double>(obs.ping_pong_demotions));
  inner_.Observe(obs);
}

CellOutcome RunKvCell(const KvCellSpec& spec, uint64_t seed, Probe& probe) {
  CellOutcome out;
  const bool hot_promote = spec.config == core::CapacityConfig::kHotPromote;
  const topology::Platform platform =
      probe.Time(Phase::kSetup, "setup.platform_s", "topology.platform", [&] {
        return hot_promote ? core::MakeHotPromotePlatform(spec.dataset_bytes)
                           : topology::Platform::CxlServer(/*snc4=*/false);
      });
  const core::CapacitySetup setup = core::MakeCapacitySetup(spec.config, platform);

  std::optional<os::PageAllocator> allocator;
  probe.Time(Phase::kSetup, "os.alloc_create_s", "os.allocator",
             [&] { allocator.emplace(platform, kKvPageBytes); });
  std::unique_ptr<os::TieredMemory> tiering;
  if (setup.hot_promote) {
    probe.Time(Phase::kSetup, "", "os.tiering", [&] {
      os::TieringConfig tc = core::DefaultTieringConfig();
      tc.policy = spec.tiering_policy;
      if (spec.promote_rate_limit_mbps > 0.0) {
        tc.promote_rate_limit_mbps = spec.promote_rate_limit_mbps;
      }
      tiering = std::make_unique<os::TieredMemory>(*allocator, tc);
    });
  }

  apps::kv::KvStoreConfig store_cfg;
  store_cfg.record_count = spec.dataset_bytes / store_cfg.value_bytes;
  store_cfg.flash = setup.flash;
  if (setup.flash) {
    store_cfg.maxmemory_bytes = static_cast<uint64_t>(
        setup.maxmemory_fraction * static_cast<double>(spec.dataset_bytes));
  }
  auto store = probe.Time(Phase::kSetup, "os.alloc_create_s", "kv.store_create", [&] {
    return apps::kv::KvStore::Create(*allocator, setup.policy, store_cfg, tiering.get());
  });
  if (!store.ok()) {
    out.violations.push_back("KvStore::Create: " + store.status().ToString());
    return out;
  }
  const auto source = probe.Time(Phase::kSetup, "", "workload.create",
                                 [&] { return spec.source(store_cfg.record_count, seed); });
  TimedOpSource timed_source(*source);
  std::unique_ptr<fault::FaultInjector> injector;
  if (!spec.faults.empty()) {
    injector = std::make_unique<fault::FaultInjector>(spec.faults, SplitMix64(seed));
  }
  telemetry::EpochProfiler profiler;
  apps::kv::KvServerConfig server_cfg;
  server_cfg.total_ops = spec.total_ops;
  server_cfg.warmup_ops = spec.warmup_ops;
  server_cfg.seed = seed;
  server_cfg.profiler = probe.traced() ? &profiler : nullptr;
  std::optional<apps::kv::KvServerSim> sim;
  probe.Time(Phase::kSetup, "", "kv.server_create", [&] {
    sim.emplace(platform, *store,
                probe.traced() ? static_cast<workload::OpSource&>(timed_source) : *source,
                server_cfg, tiering.get(), nullptr, injector.get());
  });

  // The decorator is attached only now: with an enabled injector the server
  // constructor re-attaches the daemon's observers with a null policy,
  // which would silently drop an override attached before it.
  std::optional<TimedPolicy> timed_policy;
  if (tiering) {
    timed_policy.emplace(tiering->policy(), probe);
    os::TieredMemory::Observers obs;
    obs.faults = injector != nullptr && injector->enabled() ? injector.get() : nullptr;
    obs.policy = &*timed_policy;
    tiering->Attach(obs);
  }

  const apps::kv::KvServerSim::Result result =
      probe.Time(Phase::kRun, "kv.run_s", "kv.run", [&] { return sim->Run(); });

  const uint64_t ticks = timed_policy ? timed_policy->ticks() : 0;
  if (tiering && ticks == 0) {
    out.violations.push_back("Hot-Promote daemon saw no ticks");
  }
  const uint64_t resident = allocator->allocated_pages();
  if (resident != store->region().page_count()) {
    out.violations.push_back("page conservation: allocator holds " + std::to_string(resident) +
                             " pages, store region " +
                             std::to_string(store->region().page_count()));
  }
  probe.Time(Phase::kTeardown, "os.alloc_free_s", "kv.store_free", [&] { store->Free(); });
  if (allocator->allocated_pages() != 0) {
    out.violations.push_back("page conservation: " +
                             std::to_string(allocator->allocated_pages()) +
                             " pages still allocated after KvStore::Free()");
  }
  out.digest = DigestKv(result, allocator->counters(), ticks);
  out.facts["kops"] = result.throughput_kops;
  out.facts["migrated_bytes"] = result.migrated_bytes;
  probe.Time(Phase::kTeardown, "", "cell.destroy", [&] {
    sim.reset();
    tiering.reset();
    allocator.reset();
  });

  probe.Add("os.pages_allocated", static_cast<double>(resident));
  probe.Add("kv.sim_ops", static_cast<double>(spec.total_ops));
  probe.Add("kv.epochs", static_cast<double>(result.timeline.size()));
  probe.Add("fault.shed_ops", static_cast<double>(result.shed_ops));
  if (probe.traced()) {
    probe.Add("workload.next_calls", static_cast<double>(timed_source.calls()));
    probe.Add("workload.next_s", timed_source.seconds());
    probe.Add("kv.solver_s", profiler.SecondsIn(telemetry::EpochProfiler::kSolver));
  }
  return out;
}

}  // namespace perfbench
