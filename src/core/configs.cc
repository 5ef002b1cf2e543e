#include "src/core/configs.h"

namespace cxl::core {

using os::NumaPolicy;
using topology::Platform;
using topology::PlatformOptions;

std::string ConfigLabel(CapacityConfig config) {
  switch (config) {
    case CapacityConfig::kMmem:
      return "MMEM";
    case CapacityConfig::kMmemSsd02:
      return "MMEM-SSD-0.2";
    case CapacityConfig::kMmemSsd04:
      return "MMEM-SSD-0.4";
    case CapacityConfig::kInterleave31:
      return "3:1";
    case CapacityConfig::kInterleave11:
      return "1:1";
    case CapacityConfig::kInterleave13:
      return "1:3";
    case CapacityConfig::kHotPromote:
      return "Hot-Promote";
  }
  return "?";
}

std::vector<CapacityConfig> AllCapacityConfigs() {
  return {CapacityConfig::kMmem,         CapacityConfig::kMmemSsd02,
          CapacityConfig::kMmemSsd04,    CapacityConfig::kInterleave31,
          CapacityConfig::kInterleave11, CapacityConfig::kInterleave13,
          CapacityConfig::kHotPromote};
}

CapacitySetup MakeCapacitySetup(CapacityConfig config, const Platform& platform) {
  const std::vector<topology::NodeId> dram = platform.DramNodes();
  const std::vector<topology::NodeId> cxl = platform.CxlNodes();
  switch (config) {
    case CapacityConfig::kMmem:
      return CapacitySetup{NumaPolicy::Bind(dram), 1.0, false, false};
    case CapacityConfig::kMmemSsd02:
      return CapacitySetup{NumaPolicy::Bind(dram), 0.8, true, false};
    case CapacityConfig::kMmemSsd04:
      return CapacitySetup{NumaPolicy::Bind(dram), 0.6, true, false};
    case CapacityConfig::kInterleave31:
      return CapacitySetup{NumaPolicy::WeightedInterleave(dram, cxl, 3, 1), 1.0, false, false};
    case CapacityConfig::kInterleave11:
      return CapacitySetup{NumaPolicy::WeightedInterleave(dram, cxl, 1, 1), 1.0, false, false};
    case CapacityConfig::kInterleave13:
      return CapacitySetup{NumaPolicy::WeightedInterleave(dram, cxl, 1, 3), 1.0, false, false};
    case CapacityConfig::kHotPromote:
      return CapacitySetup{NumaPolicy::WeightedInterleave(dram, cxl, 1, 1), 1.0, false, true};
  }
  return CapacitySetup{NumaPolicy::Bind(dram), 1.0, false, false};
}

Platform MakeHotPromotePlatform(uint64_t dataset_bytes) {
  PlatformOptions opt;  // SNC disabled for capacity experiments (§4.1.1).
  // numactl caps main-memory usage at half the dataset (§4.1.1); realize the
  // cap physically by sizing DRAM to dataset/2 (split over two sockets).
  opt.dram_per_socket = dataset_bytes / 4;
  return Platform::Build(opt);
}

os::TieringConfig DefaultTieringConfig() {
  os::TieringConfig cfg;
  cfg.promote_rate_limit_mbps = 1024.0;  // Finite, as the v6.1 knob intends.
  cfg.dynamic_threshold = true;
  cfg.initial_hot_threshold = 10.0;
  cfg.hint_fault_sample_rate = 0.05;
  return cfg;
}

}  // namespace cxl::core
