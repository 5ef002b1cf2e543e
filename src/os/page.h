// Page-granular memory bookkeeping shared by the OS-layer components.
//
// The simulator tracks placement and hotness at a fixed page granularity.
// We default to 2 MiB pages (huge-page granularity): large enough to keep
// bookkeeping cheap for multi-hundred-GiB working sets, small enough that
// page-placement policies behave like their kernel counterparts. Hot-page
// clustering (hot keys residing on a small set of hot pages) is what the
// kernel's hot-page selection exploits; the workloads model that clustering
// explicitly.
#ifndef CXL_EXPLORER_SRC_OS_PAGE_H_
#define CXL_EXPLORER_SRC_OS_PAGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "src/topology/platform.h"
#include "src/util/units.h"

namespace cxl::os {

using PageId = uint64_t;
inline constexpr PageId kInvalidPage = std::numeric_limits<PageId>::max();

// Default page granularity for placement bookkeeping.
inline constexpr uint64_t kDefaultPageBytes = 2 * kMiB;

// Per-page metadata, as a value type. PageAllocator stores these fields
// structure-of-arrays (packed node/heat/recency columns, so daemon scans
// stream instead of striding); the struct remains the canonical record shape
// for tests and documentation.
struct Page {
  topology::NodeId node = -1;  // Current placement.
  float heat = 0.0f;           // Decayed (sampled) access count.
  // Daemon epoch of the most recent observed access; drives the
  // MRU-balancing promotion mode (§2.3's earlier NUMA-balancing patch).
  uint32_t last_decay_epoch = 0;
};

// Reference views over one page's columns, returned by PageAllocator::page().
// Field names match `Page`, so `allocator.page(id).heat` reads identically
// whether the backing store is AoS or SoA. Bind with `auto`; the views hold
// references into the allocator's columns and must not outlive it.
struct PageView {
  topology::NodeId& node;
  float& heat;
  uint32_t& last_decay_epoch;
};

struct ConstPageView {
  const topology::NodeId& node;
  const float& heat;
  const uint32_t& last_decay_epoch;
};

// Page ids in allocation order: the listed ids, then one run of consecutive
// ids [run_first, run_first + run_count). PageAllocator::Allocate lists the
// recycled ids it reused and returns its fresh ids as the run, so a region
// carved out of a fresh allocator holds no per-page ids at all (an 8-byte
// id per page was 16 MB for a 2M-page store).
class PageList {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PageId;
    using difference_type = std::ptrdiff_t;
    using pointer = const PageId*;
    using reference = PageId;

    const_iterator(const PageList* list, size_t index) : list_(list), index_(index) {}
    PageId operator*() const { return (*list_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++index_;
      return old;
    }
    bool operator==(const const_iterator& o) const { return index_ == o.index_; }

   private:
    const PageList* list_;
    size_t index_;
  };
  using iterator = const_iterator;
  using value_type = PageId;

  PageList() = default;
  explicit PageList(std::vector<PageId> listed, PageId run_first = 0, uint64_t run_count = 0)
      : listed_(std::move(listed)), run_first_(run_first), run_count_(run_count) {}

  const std::vector<PageId>& listed() const { return listed_; }
  PageId run_first() const { return run_first_; }
  uint64_t run_count() const { return run_count_; }

  size_t size() const { return listed_.size() + run_count_; }
  bool empty() const { return size() == 0; }
  PageId operator[](size_t i) const {
    return i < listed_.size() ? listed_[i] : run_first_ + (i - listed_.size());
  }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

  // Same ids in the same order, however they are split.
  friend bool operator==(const PageList& a, const PageList& b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  std::vector<PageId> listed_;
  PageId run_first_ = 0;
  uint64_t run_count_ = 0;
};

// vmstat-style counters exposed by the tiering subsystem, named after their
// kernel counterparts so experiment logs read like /proc/vmstat.
struct VmCounters {
  uint64_t pgalloc = 0;             // Pages allocated.
  uint64_t pgfree = 0;              // Pages freed.
  uint64_t pgpromote_success = 0;   // Pages promoted low tier -> top tier.
  uint64_t pgpromote_candidate = 0; // Hot pages considered for promotion.
  uint64_t pgdemote = 0;            // Pages demoted top tier -> low tier.
  uint64_t numa_hint_faults = 0;    // Sampled accesses (hint faults).
  uint64_t migrate_failed = 0;      // Migrations skipped (no space / limit).
  uint64_t promote_rate_limited = 0;// Promotions deferred by the rate limit.

  uint64_t MigratedPages() const { return pgpromote_success + pgdemote; }
};

}  // namespace cxl::os

#endif  // CXL_EXPLORER_SRC_OS_PAGE_H_
