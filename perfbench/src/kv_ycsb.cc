// Workload `kv-ycsb`: the Fig. 5 grid. Seven Table 1 placements x YCSB
// A/B/C/D over 32 GiB of 1 KiB records on 16 KiB pages, healthy, driven
// closed-loop by 64 client connections against 7 server threads (§4.1.1).
// Cell order and seeds match bench_fig5_keydb_ycsb, so seed 1 reproduces
// that bench's cells.
#include <vector>

#include "harness.h"
#include "kv_cell.h"
#include "src/util/units.h"

namespace perfbench {
namespace {

using namespace cxl;

constexpr uint64_t kDatasetBytes = 32 * kGiB;
const workload::YcsbWorkload kWorkloads[] = {workload::YcsbWorkload::kA,
                                             workload::YcsbWorkload::kB,
                                             workload::YcsbWorkload::kC,
                                             workload::YcsbWorkload::kD};
constexpr size_t kWorkloadCount = 4;

class KvYcsb final : public Workload {
 public:
  KvYcsb() : configs_(core::AllCapacityConfigs()) {
    for (const core::CapacityConfig config : configs_) {
      for (const workload::YcsbWorkload w : kWorkloads) {
        labels_.push_back(core::ConfigLabel(config) + "/" + workload::YcsbName(w));
      }
    }
  }

  const std::vector<std::string>& labels() const override { return labels_; }

  CellOutcome RunCell(size_t index, uint64_t seed, Probe& probe) override {
    const workload::YcsbWorkload w = kWorkloads[index % kWorkloadCount];
    KvCellSpec spec;
    spec.config = configs_[index / kWorkloadCount];
    spec.dataset_bytes = kDatasetBytes;
    spec.total_ops = 220'000;
    spec.warmup_ops = 60'000;
    spec.source = [w](uint64_t records, uint64_t s) {
      return std::make_unique<workload::YcsbGenerator>(w, records, s);
    };
    return RunKvCell(spec, seed, probe);
  }

  // Slowdowns are MMEM over the placement on YCSB-A, the path
  // examples/make_report and docs/measured.md report.
  std::vector<Claim> Claims(const std::vector<CellOutcome>& cells) const override {
    const auto kops_a = [&](core::CapacityConfig config) {
      return Fact(labels_, cells, core::ConfigLabel(config) + "/YCSB-A", "kops");
    };
    const double mmem = kops_a(core::CapacityConfig::kMmem);
    const auto slowdown = [&](const char* id, core::CapacityConfig config, double lo, double hi,
                              const char* band, const char* deviation) {
      const double kops = kops_a(config);
      Claim c;
      c.id = id;
      c.band = band;
      c.value = mmem / kops;
      c.in_band = c.value >= lo && c.value <= hi;
      c.known_deviation = deviation;
      return c;
    };
    return {
        slowdown("fig5.interleave_3_1.ycsb_a", core::CapacityConfig::kInterleave31, 1.2, 1.5,
                 "1.2-1.5x", ""),
        slowdown("fig5.interleave_1_1.ycsb_a", core::CapacityConfig::kInterleave11, 1.2, 1.5,
                 "1.2-1.5x", ""),
        slowdown("fig5.interleave_1_3.ycsb_a", core::CapacityConfig::kInterleave13, 1.2, 1.5,
                 "1.2-1.5x",
                 "1:3 interleave measures about 1.55x, above the paper's 1.2-1.5x "
                 "(docs/measured.md)"),
        slowdown("fig5.keydb_flash_0_2.ycsb_a", core::CapacityConfig::kMmemSsd02, 1.62, 1.98,
                 "~1.8x (1.62-1.98x)", ""),
    };
  }

 private:
  std::vector<core::CapacityConfig> configs_;
  std::vector<std::string> labels_;
};

}  // namespace

std::unique_ptr<Workload> MakeKvYcsb() { return std::make_unique<KvYcsb>(); }

}  // namespace perfbench
