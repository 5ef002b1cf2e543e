// Page allocator over a Platform's NUMA nodes.
//
// Tracks free capacity per node and places pages according to a NumaPolicy,
// with kernel-zonelist-style fallback: when the policy's target node is
// full, kPreferred / kInterleave / kWeightedInterleave allocations fall back
// to the node with the most free pages (same-socket DRAM first, then remote
// DRAM, then CXL), while kBind allocations fail.
//
// Page metadata is stored structure-of-arrays: the placement, hotness and
// recency columns are separate dense vectors indexed by PageId, so the
// tiering daemon's decay pass and heat-index rebuilds stream over packed
// columns instead of striding through per-page structs. Callers keep the
// record-like view through page(), which returns a PageView of references
// into the columns (same field names as the old `Page` struct, so call
// sites read unchanged). Whole-column passes stream in id order (freed
// slots have node < 0), which the prefetcher handles better than any
// resident-id list; per-tier occupancy is derived from per-node counts.
#ifndef CXL_EXPLORER_SRC_OS_PAGE_ALLOCATOR_H_
#define CXL_EXPLORER_SRC_OS_PAGE_ALLOCATOR_H_

#include <cstdint>
#include <vector>

#include "src/os/numa_policy.h"
#include "src/os/page.h"
#include "src/topology/platform.h"
#include "src/util/status.h"

namespace cxl::os {

class PageAllocator {
 public:
  // `page_bytes` sets the placement granularity (default 2 MiB).
  explicit PageAllocator(const topology::Platform& platform,
                         uint64_t page_bytes = kDefaultPageBytes);

  // Allocates `count` pages under `policy`. Returns the page ids, or
  // RESOURCE_EXHAUSTED if the policy cannot be satisfied (kBind with full
  // nodes, or the whole machine is full). Recycled ids are reused first, in
  // free-list pop order, and come back listed; the fresh ids after them are
  // consecutive (each is page_count() at its turn) and come back as the run.
  StatusOr<PageList> Allocate(const NumaPolicy& policy, uint64_t count);

  // Frees previously allocated pages; their ids join the free list in order.
  void Free(const PageList& pages);

  // Moves a page to `target`. Returns RESOURCE_EXHAUSTED when the target
  // node is full (the caller — usually MigrationEngine — decides whether to
  // demote something first).
  Status MovePage(PageId page, topology::NodeId target);

  // Current placement of a page.
  topology::NodeId NodeOf(PageId page) const { return node_[page]; }

  // Mutable / const reference views over one page's metadata columns. Field
  // names match the historical `Page` struct; bind with `auto` (the views
  // are proxies of references, cheap to copy, never stored).
  PageView page(PageId id) { return PageView{node_[id], heat_[id], last_epoch_[id]}; }
  ConstPageView page(PageId id) const {
    return ConstPageView{node_[id], heat_[id], last_epoch_[id]};
  }

  // Raw column access for streaming passes (daemon decay sweep, index
  // rebuild). Indexed by PageId over [0, page_count()); freed slots have
  // node < 0.
  const topology::NodeId* node_column() const { return node_.data(); }
  const float* heat_column() const { return heat_.data(); }
  float* mutable_heat_column() { return heat_.data(); }
  const uint32_t* epoch_column() const { return last_epoch_.data(); }

  // Adds to per_node[n] (sized to the node count) the pages of
  // [first, first + count) that sit on node n; freed slots are skipped.
  void CountNodes(PageId first, uint64_t count, std::vector<uint64_t>& per_node) const;

  // Pages currently resident on DRAM / CXL nodes (sums of per-node
  // occupancy). The daemon uses these only to bound selection sizes.
  uint64_t DramResidentCount() const;
  uint64_t CxlResidentCount() const;

  // Whether `node` is a DRAM (top-tier) node, from a cached per-node table.
  bool IsDramNode(topology::NodeId node) const {
    return node_is_dram_[static_cast<size_t>(node)] != 0;
  }

  uint64_t page_bytes() const { return page_bytes_; }
  uint64_t FreePages(topology::NodeId node) const {
    return node_capacity_[static_cast<size_t>(node)] - node_used_[static_cast<size_t>(node)];
  }
  uint64_t TotalPages(topology::NodeId node) const {
    return node_capacity_[static_cast<size_t>(node)];
  }
  uint64_t UsedPages(topology::NodeId node) const {
    return node_used_[static_cast<size_t>(node)];
  }
  // Free fraction across all DRAM nodes (used by demotion watermarks).
  double DramFreeFraction() const;

  uint64_t allocated_pages() const { return allocated_; }
  // Bumped by every Allocate, Free and successful MovePage call. The
  // tiering daemon's heat index compares it against the value it last
  // synced to and rebuilds when placement changed behind its back.
  uint64_t generation() const { return generation_; }
  // Total page slots ever created (freed slots included); PageIds are dense
  // in [0, page_count()), so daemons scan this range and skip node < 0.
  uint64_t page_count() const { return node_.size(); }
  const VmCounters& counters() const { return counters_; }
  VmCounters& mutable_counters() { return counters_; }

  const topology::Platform& platform() const { return platform_; }

 private:
  // Picks a fallback node with space, preferring DRAM over CXL.
  topology::NodeId FallbackNode() const;
  // Node for the next page of an Allocate: the policy's `preferred` node
  // when it has room, else the per-page fallback (the other bound nodes for
  // kBind, FallbackNode() otherwise). -1 when nothing has room.
  topology::NodeId PlaceOne(const NumaPolicy& policy, topology::NodeId preferred) const;

  const topology::Platform& platform_;
  uint64_t page_bytes_;
  // Page metadata columns, indexed by PageId; grow monotonically.
  std::vector<topology::NodeId> node_;
  std::vector<float> heat_;
  std::vector<uint32_t> last_epoch_;
  std::vector<uint8_t> node_is_dram_;
  // Recycled ids, as a stack of ascending id runs. Popping takes the last
  // run's highest id, the order a flat stack of the same ids gives; freeing
  // a whole run pushes one entry instead of one id per page.
  struct IdRun {
    PageId first;
    uint64_t count;
  };
  void PushFree(PageId first, uint64_t count);
  PageId PopFree();
  std::vector<IdRun> free_runs_;
  uint64_t free_ids_ = 0;  // Ids across free_runs_.
  std::vector<uint64_t> node_used_;  // Pages in use per node.
  std::vector<uint64_t> node_capacity_;
  uint64_t allocated_ = 0;
  uint64_t generation_ = 0;
  VmCounters counters_;
};

}  // namespace cxl::os

#endif  // CXL_EXPLORER_SRC_OS_PAGE_ALLOCATOR_H_
