// One KeyDB server cell built from the public API (platform, allocator,
// tiering daemon, store, server simulation), plus the two decorator seams
// that time layers the server only reaches from inside KvServerSim::Run.
#ifndef PERFBENCH_KV_CELL_H_
#define PERFBENCH_KV_CELL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "harness.h"
#include "src/core/configs.h"
#include "src/fault/fault.h"
#include "src/os/policy.h"
#include "src/workload/ycsb.h"

namespace perfbench {

// Times every Next() of the wrapped source (traced passes only: two clock
// reads per simulated op).
class TimedOpSource final : public cxl::workload::OpSource {
 public:
  explicit TimedOpSource(cxl::workload::OpSource& inner) : inner_(inner) {}
  cxl::workload::YcsbOp Next() override;
  double WriteFraction() const override { return inner_.WriteFraction(); }

  uint64_t calls() const { return calls_; }
  double seconds() const { return Seconds(elapsed_); }

 private:
  cxl::workload::OpSource& inner_;
  uint64_t calls_ = 0;
  Clock::duration elapsed_{0};
};

// Forwards every decision to the daemon's own policy and measures the tick
// from outside: Decide() runs at tick start and Observe() at tick end, so
// the interval between them is the daemon's candidate scan, promotion and
// demotion work (the heat decay that follows Observe() is not in it). The
// TickObservation counts are exact. Decisions are unchanged, so results
// are bit-identical to the undecorated daemon.
class TimedPolicy final : public cxl::os::TieringPolicy {
 public:
  TimedPolicy(cxl::os::TieringPolicy& inner, Probe& probe) : inner_(inner), probe_(probe) {}

  const char* name() const override { return inner_.name(); }
  int32_t event_reason() const override { return inner_.event_reason(); }
  cxl::os::TickDecision Decide(const cxl::os::TickContext& ctx) override;
  void Observe(const cxl::os::TickObservation& obs) override;
  double hot_threshold() const override { return inner_.hot_threshold(); }

  uint64_t ticks() const { return ticks_; }

 private:
  cxl::os::TieringPolicy& inner_;
  Probe& probe_;
  uint64_t ticks_ = 0;
  Clock::time_point body_start_;
};

struct KvCellSpec {
  cxl::core::CapacityConfig config = cxl::core::CapacityConfig::kMmem;
  uint64_t dataset_bytes = 0;
  // Hot-Promote only: PolicyRegistry name ("" = the config default) and
  // promotion rate limit (0 = the DefaultTieringConfig value).
  std::string tiering_policy;
  double promote_rate_limit_mbps = 0.0;
  uint64_t total_ops = 0;
  uint64_t warmup_ops = 0;
  // Builds the op source for `records` keys from the cell seed.
  std::function<std::unique_ptr<cxl::workload::OpSource>(uint64_t records, uint64_t seed)>
      source;
  cxl::fault::FaultPlan faults;  // Empty = healthy.
};

// Runs one KV cell. Oracles: every Status OK; page conservation around
// KvStore::Free(); a Hot-Promote cell's daemon ticked. Facts: "kops",
// "migrated_bytes".
CellOutcome RunKvCell(const KvCellSpec& spec, uint64_t seed, Probe& probe);

}  // namespace perfbench

#endif  // PERFBENCH_KV_CELL_H_
