// Discrete-event simulation kernel.
//
// A minimal, deterministic event loop: events are (time, sequence, closure)
// triples ordered by time with FIFO tie-breaking, executed until the queue
// drains or a time/count limit is hit. Each closure is moved into a slot
// when scheduled and out of it when run; only its (time, seq, slot) key
// moves through the heap. The request-level application simulations (KeyDB
// server event loops, Spark stage barriers) run on top of this kernel.
#ifndef CXL_EXPLORER_SRC_SIM_EVENT_QUEUE_H_
#define CXL_EXPLORER_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/small_function.h"

namespace cxl::sim {

// Simulated time in nanoseconds.
using SimTime = double;

// Deterministic discrete-event executor.
class EventQueue {
 public:
  // Inline-storage closure: the per-op completion lambdas capture more than
  // std::function's SBO holds, and at millions of events per cell the heap
  // round-trip per scheduled op was a measurable slice of the epoch cost.
  using Callback = SmallFunction<48>;

  // Schedules `cb` at absolute time `when` (must be >= Now()).
  void ScheduleAt(SimTime when, Callback&& cb);

  // Schedules `cb` `delay` ns after the current time.
  void ScheduleAfter(SimTime delay, Callback&& cb) { ScheduleAt(now_ + delay, std::move(cb)); }

  // Runs until the queue is empty. Returns the number of events executed.
  uint64_t Run();

  // Runs until simulated time exceeds `until` (events at exactly `until`
  // still run) or the queue drains. Returns events executed.
  uint64_t RunUntil(SimTime until);

  // Executes exactly one event if available. Returns false if empty.
  bool Step();

  SimTime Now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }

 private:
  // Heap entry: the closure itself stays parked in slots_[slot], so heap
  // sifts move 24-byte trivially copyable keys instead of calling the
  // closure's move thunk at every level.
  struct Key {
    SimTime time;
    uint64_t seq;
    uint64_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  // Explicit binary heap (std::push_heap/std::pop_heap over a vector),
  // ordered by (time, seq).
  std::vector<Key> heap_;
  // Parked closures, indexed by Key::slot; a closure is moved out of its
  // slot just before it runs (it may schedule events that grow slots_), and
  // the slot goes on free_slots_ for reuse.
  std::vector<Callback> slots_;
  std::vector<uint64_t> free_slots_;
  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
};

}  // namespace cxl::sim

#endif  // CXL_EXPLORER_SRC_SIM_EVENT_QUEUE_H_
