// Name-keyed construction of the built-in TieringPolicy implementations.
//
// A policy name is the one way a policy is chosen: TieringConfig::policy,
// SparkConfig::tiering_policy and the --tiering-policy bench flag carry a
// name ("hot-page-selection", "adaptive-feedback", ...) that resolves here
// through a fixed table. There is no process-wide mutable registry, so
// nothing here is static simulation state (cxl_lint's CXL-D004).
#ifndef CXL_EXPLORER_SRC_OS_POLICY_REGISTRY_H_
#define CXL_EXPLORER_SRC_OS_POLICY_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/os/policy.h"
#include "src/util/status.h"

namespace cxl::os {

// Canonical names of the built-in policies.
inline constexpr const char kHotPageSelectionPolicyName[] = "hot-page-selection";
inline constexpr const char kMruBalancingPolicyName[] = "mru-balancing";
inline constexpr const char kTppLikePolicyName[] = "tpp-like";
inline constexpr const char kAdaptiveFeedbackPolicyName[] = "adaptive-feedback";

// Instantiates the named policy for `config`. NOT_FOUND (listing the known
// names) for any other name.
StatusOr<std::unique_ptr<TieringPolicy>> MakeTieringPolicy(std::string_view name,
                                                           const TieringConfig& config);

// The built-in policy names in sorted order (for listings and messages).
std::vector<std::string> TieringPolicyNames();

}  // namespace cxl::os

#endif  // CXL_EXPLORER_SRC_OS_POLICY_REGISTRY_H_
