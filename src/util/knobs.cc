#include "src/util/knobs.h"

#include <cassert>

namespace cxl {

void KnobSet::Declare(const std::string& key, double default_value,
                      const std::string& description) {
  entries_[key] = Entry{default_value, default_value, description};
}

Status KnobSet::Set(const std::string& key, double value) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("unknown knob: " + key);
  }
  it->second.value = value;
  return Status::Ok();
}

double KnobSet::Get(const std::string& key) const {
  auto it = entries_.find(key);
  assert(it != entries_.end() && "knob not declared");
  if (it == entries_.end()) {
    return 0.0;
  }
  return it->second.value;
}

void KnobSet::ResetAll() {
  for (auto& [key, entry] : entries_) {
    entry.value = entry.default_value;
  }
}

}  // namespace cxl
