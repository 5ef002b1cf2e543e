#include "src/os/policy_registry.h"

#include <algorithm>

#include "src/os/tiering.h"

namespace cxl::os {

namespace {

template <typename Policy>
std::unique_ptr<TieringPolicy> Make(const TieringConfig& config) {
  return std::make_unique<Policy>(config);
}

struct Entry {
  const char* name;
  std::unique_ptr<TieringPolicy> (*make)(const TieringConfig&);
};

// Sorted by name, so TieringPolicyNames() can list them in table order.
constexpr Entry kPolicies[] = {
    {kAdaptiveFeedbackPolicyName, &Make<AdaptiveFeedbackPolicy>},
    {kHotPageSelectionPolicyName, &Make<HotPageSelectionPolicy>},
    {kMruBalancingPolicyName, &Make<MruBalancingPolicy>},
    {kTppLikePolicyName, &Make<TppLikePolicy>},
};

}  // namespace

StatusOr<std::unique_ptr<TieringPolicy>> MakeTieringPolicy(std::string_view name,
                                                           const TieringConfig& config) {
  const Entry* entry = std::find_if(std::begin(kPolicies), std::end(kPolicies),
                                    [name](const Entry& e) { return name == e.name; });
  if (entry == std::end(kPolicies)) {
    std::string known;
    for (const Entry& e : kPolicies) {
      known += known.empty() ? e.name : std::string(", ") + e.name;
    }
    return Status::NotFound("unknown tiering policy \"" + std::string(name) +
                            "\" (known: " + known + ")");
  }
  return entry->make(config);
}

std::vector<std::string> TieringPolicyNames() {
  std::vector<std::string> names;
  for (const Entry& e : kPolicies) {
    names.emplace_back(e.name);
  }
  return names;
}

}  // namespace cxl::os
