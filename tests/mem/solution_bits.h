// Bitwise comparison of two BandwidthSolver::Solution values, shared by the
// solver tests.
#ifndef CXL_EXPLORER_TESTS_MEM_SOLUTION_BITS_H_
#define CXL_EXPLORER_TESTS_MEM_SOLUTION_BITS_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "src/mem/bandwidth_solver.h"

namespace cxl::mem {

// Compares bit patterns, not values: EXPECT_DOUBLE_EQ accepts results up to
// 4 ULPs apart, and the solver's exact paths (a warm-start cache hit, the
// sorted-level water-fill) promise the very same bits.
inline void ExpectSameBits(double a, double b, const char* field, size_t index) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
      << field << "[" << index << "]: " << a << " vs " << b;
}

inline void ExpectSolutionsBitIdentical(const BandwidthSolver::Solution& a,
                                        const BandwidthSolver::Solution& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  ASSERT_EQ(a.resources.size(), b.resources.size());
  EXPECT_EQ(a.iterations, b.iterations);
  for (size_t i = 0; i < a.flows.size(); ++i) {
    ExpectSameBits(a.flows[i].achieved_gbps, b.flows[i].achieved_gbps, "flow.achieved", i);
    ExpectSameBits(a.flows[i].latency_ns, b.flows[i].latency_ns, "flow.latency", i);
    ExpectSameBits(a.flows[i].bottleneck_utilization, b.flows[i].bottleneck_utilization,
                   "flow.bottleneck", i);
  }
  for (size_t r = 0; r < a.resources.size(); ++r) {
    ExpectSameBits(a.resources[r].demand_gbps, b.resources[r].demand_gbps, "resource.demand", r);
    ExpectSameBits(a.resources[r].achieved_gbps, b.resources[r].achieved_gbps,
                   "resource.achieved", r);
    ExpectSameBits(a.resources[r].capacity_gbps, b.resources[r].capacity_gbps,
                   "resource.capacity", r);
    ExpectSameBits(a.resources[r].utilization, b.resources[r].utilization,
                   "resource.utilization", r);
  }
}

}  // namespace cxl::mem

#endif  // CXL_EXPLORER_TESTS_MEM_SOLUTION_BITS_H_
