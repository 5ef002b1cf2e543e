#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace cxl::sim {

void EventQueue::ScheduleAt(SimTime when, Callback&& cb) {
  assert(when >= now_ && "cannot schedule into the past");
  uint64_t slot;
  if (free_slots_.empty()) {
    slot = slots_.size();
    slots_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
  }
  heap_.push_back(Key{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool EventQueue::Step() {
  if (heap_.empty()) {
    return false;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  Callback cb = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  now_ = key.time;
  cb();
  return true;
}

uint64_t EventQueue::Run() {
  uint64_t executed = 0;
  while (Step()) {
    ++executed;
  }
  return executed;
}

uint64_t EventQueue::RunUntil(SimTime until) {
  uint64_t executed = 0;
  while (!heap_.empty() && heap_.front().time <= until) {
    Step();
    ++executed;
  }
  if (now_ < until) {
    now_ = until;
  }
  return executed;
}

}  // namespace cxl::sim
