// Workload `tiering-stream`: the promotion daemon on streaming access.
//
// Hot-Promote under each of the four PolicyRegistry policies, healthy and
// with a lane down-train window, over
//   - Spark TPC-H Q5/Q7/Q8/Q9 on the Fig. 7 Hot-Promote cluster (one cell
//     per query; the down-train cells are degraded from t = 0, as in the
//     policy tournament's Spark bracket);
//   - the policy tournament's KV streaming-scan and LLM-serving sources on
//     the 8 GiB Hot-Promote KeyDB (promotion rate limit 256 MB/s, down-train
//     to x8 from 50 ms on);
// plus the Fig. 7 MMEM, 1:3 interleave and MMEM-SSD-0.2 Spark cells once
// each, which the Fig. 7 claims normalize against. Spark cells come first:
// a Hot-Promote query is the sweep's critical path.
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "harness.h"
#include "kv_cell.h"
#include "src/apps/spark/cluster.h"
#include "src/apps/spark/query.h"
#include "src/os/policy_registry.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace perfbench {
namespace {

using namespace cxl;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint64_t kKvDataset = 8 * kGiB;

const char* const kPolicies[] = {os::kHotPageSelectionPolicyName, os::kMruBalancingPolicyName,
                                 os::kTppLikePolicyName, os::kAdaptiveFeedbackPolicyName};
const char* const kQueries[] = {"Q5", "Q7", "Q8", "Q9"};
const char* const kFaultStates[] = {"healthy", "downtrain"};

// Sequential sweeps over the whole keyspace with a large prime stride: every
// access touches a fresh page, so promoted pages are never re-read.
class ScanSource final : public workload::OpSource {
 public:
  explicit ScanSource(uint64_t keys) : keys_(keys) {}
  workload::YcsbOp Next() override {
    cursor_ += 524'287;
    return workload::YcsbOp{workload::YcsbOp::Type::kRead, cursor_ % keys_};
  }
  double WriteFraction() const override { return 0.0; }

 private:
  uint64_t keys_;
  uint64_t cursor_ = 0;
};

// LLM-serving KV-cache shape: 3 of 4 reads re-read a hot prompt prefix
// (1/64 of the keyspace), the rest stream through freshly appended blocks.
class LlmServingSource final : public workload::OpSource {
 public:
  explicit LlmServingSource(uint64_t keys) : keys_(keys), prefix_keys_(keys / 64) {}
  workload::YcsbOp Next() override {
    ++step_;
    if (step_ % 4 != 0) {
      prefix_cursor_ = (prefix_cursor_ + 97) % prefix_keys_;
      return workload::YcsbOp{workload::YcsbOp::Type::kRead, prefix_cursor_};
    }
    tail_cursor_ += 524'287;
    return workload::YcsbOp{workload::YcsbOp::Type::kRead,
                            prefix_keys_ + tail_cursor_ % (keys_ - prefix_keys_)};
  }
  double WriteFraction() const override { return 0.0; }

 private:
  uint64_t keys_;
  uint64_t prefix_keys_;
  uint64_t step_ = 0;
  uint64_t prefix_cursor_ = 0;
  uint64_t tail_cursor_ = 0;
};

struct TierCell {
  enum class Kind { kSparkHotPromote, kSparkStatic, kKvScan, kKvLlm };
  Kind kind = Kind::kSparkStatic;
  apps::spark::SparkConfig spark;
  std::string query;
  std::string policy;
  bool downtrain = false;
};

uint64_t DigestQuery(const apps::spark::QueryResult& r) {
  return Digest()
      .Add(r.compute_seconds)
      .Add(r.shuffle_write_seconds)
      .Add(r.shuffle_read_seconds)
      .Add(r.total_seconds)
      .Add(r.spilled_bytes)
      .Add(r.migrated_bytes)
      .Add(r.cxl_access_share)
      .Add(static_cast<uint64_t>(r.reexecuted_partitions))
      .Add(r.retry_seconds)
      .value();
}

CellOutcome RunSparkCell(const TierCell& cell, uint64_t seed, Probe& probe) {
  CellOutcome out;
  const bool hot_promote = cell.kind == TierCell::Kind::kSparkHotPromote;
  std::optional<fault::FaultInjector> injector;
  if (cell.downtrain) {
    injector.emplace(fault::FaultPlan().Downtrain(0.0, kInf, 4), SplitMix64(seed));
  }
  std::optional<apps::spark::SparkCluster> cluster;
  probe.Time(Phase::kSetup, "spark.ctor_s", "spark.cluster_create", [&] {
    cluster.emplace(cell.spark);
    if (injector) {
      cluster->AttachFaults(&*injector);
    }
  });
  const apps::spark::QueryProfile* query = apps::spark::FindQuery(cell.query);
  if (query == nullptr) {
    out.violations.push_back("unknown query " + cell.query);
    return out;
  }
  const apps::spark::QueryResult r = probe.Time(
      Phase::kRun, hot_promote ? "spark.query_s.hot_promote" : "spark.query_s.static",
      "spark.query", [&] { return cluster->RunQuery(*query); });
  probe.Time(Phase::kTeardown, "", "cell.destroy", [&] { cluster.reset(); });
  if (!(std::isfinite(r.total_seconds) && r.total_seconds > 0.0)) {
    out.violations.push_back("query time not positive and finite");
  }
  out.digest = DigestQuery(r);
  out.facts["total_s"] = r.total_seconds;
  probe.Add("spark.queries", 1.0);
  probe.Add("spark.migrated_gb", BytesToGBd(r.migrated_bytes));
  probe.Add("spark.spilled_gb", BytesToGBd(r.spilled_bytes));
  probe.Add("fault.reexecuted_partitions", static_cast<double>(r.reexecuted_partitions));
  return out;
}

class TieringStream final : public Workload {
 public:
  TieringStream() {
    for (const char* policy : kPolicies) {
      for (const char* state : kFaultStates) {
        for (const char* q : kQueries) {
          apps::spark::SparkConfig cfg = apps::spark::SparkConfig::HotPromote();
          cfg.tiering_policy = policy;
          Add("spark-hp/" + std::string(policy) + "/" + state + "/" + q,
              TierCell::Kind::kSparkHotPromote, cfg, q, policy, state == kFaultStates[1]);
        }
      }
    }
    const std::pair<const char*, apps::spark::SparkConfig> statics[] = {
        {"MMEM", apps::spark::SparkConfig::MmemOnly()},
        {"1:3", apps::spark::SparkConfig::Interleave(1, 3)},
        {"MMEM-SSD-0.2", apps::spark::SparkConfig::Spill(0.8)},
    };
    for (const auto& [name, cfg] : statics) {
      for (const char* q : kQueries) {
        Add("spark/" + std::string(name) + "/" + q, TierCell::Kind::kSparkStatic, cfg, q, "",
            false);
      }
    }
    for (const auto& [name, kind] : {std::pair{"kv-scan", TierCell::Kind::kKvScan},
                                     std::pair{"kv-llm", TierCell::Kind::kKvLlm}}) {
      for (const char* policy : kPolicies) {
        for (const char* state : kFaultStates) {
          Add(std::string(name) + "/" + policy + "/" + state, kind, {}, "", policy,
              state == kFaultStates[1]);
        }
      }
    }
  }

  const std::vector<std::string>& labels() const override { return labels_; }

  CellOutcome RunCell(size_t index, uint64_t seed, Probe& probe) override {
    const TierCell& cell = cells_[index];
    if (cell.kind == TierCell::Kind::kSparkHotPromote ||
        cell.kind == TierCell::Kind::kSparkStatic) {
      return RunSparkCell(cell, seed, probe);
    }
    KvCellSpec spec;
    spec.config = core::CapacityConfig::kHotPromote;
    spec.dataset_bytes = kKvDataset;
    spec.tiering_policy = cell.policy;
    spec.promote_rate_limit_mbps = 256.0;
    spec.total_ops = 150'000;
    spec.warmup_ops = 40'000;
    const bool scan = cell.kind == TierCell::Kind::kKvScan;
    spec.source = [scan](uint64_t records, uint64_t) -> std::unique_ptr<workload::OpSource> {
      if (scan) {
        return std::make_unique<ScanSource>(records);
      }
      return std::make_unique<LlmServingSource>(records);
    };
    if (cell.downtrain) {
      spec.faults = fault::FaultPlan().Downtrain(0.05, kInf, 8);
    }
    return RunKvCell(spec, seed, probe);
  }

  std::vector<Claim> Claims(const std::vector<CellOutcome>& cells) const override {
    const auto fact = [&](const std::string& label, const char* name) {
      return Fact(labels_, cells, label, name);
    };
    std::vector<Claim> claims;
    const auto add = [&claims](std::string id, const char* band, double value, bool in_band) {
      Claim c;
      c.id = std::move(id);
      c.band = band;
      c.value = value;
      c.in_band = in_band;
      claims.push_back(c);
    };
    for (const char* q : kQueries) {
      const std::string query = q;
      const double mmem = fact("spark/MMEM/" + query, "total_s");
      const double interleave = fact("spark/1:3/" + query, "total_s") / mmem;
      add("fig7.interleave_1_3." + query, "1.4-9.8x", interleave,
          interleave >= 1.4 && interleave <= 9.8);
      const double spill = fact("spark/MMEM-SSD-0.2/" + query, "total_s") / mmem;
      add("fig7.spill_0_2." + query, "1.4-9.8x", spill, spill >= 1.4 && spill <= 9.8);
      const double hot =
          fact("spark-hp/hot-page-selection/healthy/" + query, "total_s") / mmem;
      add("fig7.hot_promote." + query, ">1.34x", hot, hot > 1.34);
    }
    // Policy tournament CHECK: on the scan, adaptive feedback migrates less
    // than half of what hot page selection does.
    const double scan_ratio = fact("kv-scan/adaptive-feedback/healthy", "migrated_bytes") /
                              fact("kv-scan/hot-page-selection/healthy", "migrated_bytes");
    add("tournament.kv_scan.adaptive_migration", "<0.5x hot-page-selection", scan_ratio,
        scan_ratio < 0.5);
    return claims;
  }

 private:
  void Add(std::string label, TierCell::Kind kind, const apps::spark::SparkConfig& spark,
           const char* query, const char* policy, bool downtrain) {
    TierCell cell;
    cell.kind = kind;
    cell.spark = spark;
    cell.query = query;
    cell.policy = policy;
    cell.downtrain = downtrain;
    labels_.push_back(std::move(label));
    cells_.push_back(std::move(cell));
  }

  std::vector<TierCell> cells_;
  std::vector<std::string> labels_;
};

}  // namespace

std::unique_ptr<Workload> MakeTieringStream() { return std::make_unique<TieringStream>(); }

}  // namespace perfbench
