#include "src/os/page_allocator.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace cxl::os {

PageAllocator::PageAllocator(const topology::Platform& platform, uint64_t page_bytes)
    : platform_(platform), page_bytes_(page_bytes) {
  assert(page_bytes > 0);
  node_used_.resize(platform.nodes().size(), 0);
  node_capacity_.resize(platform.nodes().size(), 0);
  node_is_dram_.resize(platform.nodes().size(), 0);
  for (const auto& n : platform.nodes()) {
    node_capacity_[static_cast<size_t>(n.id)] = n.capacity_bytes / page_bytes;
    node_is_dram_[static_cast<size_t>(n.id)] = n.kind == topology::NodeKind::kDram ? 1 : 0;
  }
}

uint64_t PageAllocator::DramResidentCount() const {
  uint64_t total = 0;
  for (size_t n = 0; n < node_used_.size(); ++n) {
    if (node_is_dram_[n] != 0) {
      total += node_used_[n];
    }
  }
  return total;
}

uint64_t PageAllocator::CxlResidentCount() const {
  uint64_t total = 0;
  for (size_t n = 0; n < node_used_.size(); ++n) {
    if (node_is_dram_[n] == 0) {
      total += node_used_[n];
    }
  }
  return total;
}

double PageAllocator::DramFreeFraction() const {
  uint64_t free = 0;
  uint64_t total = 0;
  for (const auto& n : platform_.nodes()) {
    if (n.kind == topology::NodeKind::kDram) {
      free += FreePages(n.id);
      total += TotalPages(n.id);
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(free) / static_cast<double>(total);
}

topology::NodeId PageAllocator::FallbackNode() const {
  // Prefer the DRAM node with the most free pages; fall back to CXL.
  topology::NodeId best = -1;
  uint64_t best_free = 0;
  for (const auto& n : platform_.nodes()) {
    if (n.kind != topology::NodeKind::kDram) {
      continue;
    }
    const uint64_t f = FreePages(n.id);
    if (f > best_free) {
      best_free = f;
      best = n.id;
    }
  }
  if (best >= 0) {
    return best;
  }
  for (const auto& n : platform_.nodes()) {
    if (n.kind == topology::NodeKind::kCxl && FreePages(n.id) > 0) {
      return n.id;
    }
  }
  return -1;
}

topology::NodeId PageAllocator::PlaceOne(const NumaPolicy& policy,
                                         topology::NodeId preferred) const {
  if (FreePages(preferred) > 0) {
    return preferred;
  }
  if (policy.mode() != PolicyMode::kBind) {
    return FallbackNode();
  }
  // Try the other bound nodes before failing.
  for (topology::NodeId n : policy.nodes()) {
    if (FreePages(n) > 0) {
      return n;
    }
  }
  return -1;
}

StatusOr<PageList> PageAllocator::Allocate(const NumaPolicy& policy, uint64_t count) {
  ++generation_;
  const uint64_t recycled = std::min<uint64_t>(count, free_ids_);
  const uint64_t fresh = count - recycled;
  const PageId first = node_.size();
  // Size the columns once for the fresh run (reserve first: growing by
  // resize alone may double the capacity); a failed call trims them back to
  // the slots it handed out.
  node_.reserve(first + fresh);
  heat_.reserve(first + fresh);
  last_epoch_.reserve(first + fresh);
  node_.resize(first + fresh);
  heat_.resize(first + fresh);
  last_epoch_.resize(first + fresh);
  std::vector<PageId> listed;
  listed.reserve(recycled);
  uint64_t placed = 0;  // Fresh pages placed so far.
  const auto fail = [&] {
    node_.resize(first + placed);
    heat_.resize(first + placed);
    last_epoch_.resize(first + placed);
    const PageList partial(std::move(listed), first, placed);
    allocated_ += partial.size();
    counters_.pgalloc += partial.size();
    Free(partial);
    return policy.mode() == PolicyMode::kBind
               ? Status::ResourceExhausted("bind policy: bound nodes are full")
               : Status::ResourceExhausted("machine out of memory");
  };

  // Per-call allocation index drives the policy's round-robin; continuing a
  // global index would skew small allocations, and the kernel's interleave
  // counter is per-task anyway. The policy sequence is one precomputed
  // period walked with a wrapping cursor.
  const std::vector<topology::NodeId> pattern = policy.PeriodPattern();
  size_t pattern_i = 0;
  const auto next = [&] {
    const topology::NodeId n = pattern[pattern_i];
    if (++pattern_i == pattern.size()) {
      pattern_i = 0;
    }
    return n;
  };

  for (uint64_t i = 0; i < recycled; ++i) {
    const topology::NodeId target = PlaceOne(policy, next());
    if (target < 0) {
      return fail();
    }
    const PageId id = PopFree();
    node_[id] = target;
    heat_[id] = 0.0f;
    ++node_used_[static_cast<size_t>(target)];
    listed.push_back(id);
  }

  bool tried_periods = false;
  while (placed < fresh) {
    if (!tried_periods && pattern_i == 0) {
      // Whole periods at once while every node in the period has room for
      // all of its pages in them: no page can then meet a full node, so
      // the per-page path below would place exactly the pattern.
      tried_periods = true;
      std::vector<uint64_t> per_period(node_used_.size(), 0);
      for (topology::NodeId n : pattern) {
        ++per_period[static_cast<size_t>(n)];
      }
      uint64_t periods = (fresh - placed) / pattern.size();
      for (size_t n = 0; n < per_period.size(); ++n) {
        if (per_period[n] > 0) {
          periods = std::min(periods, FreePages(static_cast<topology::NodeId>(n)) / per_period[n]);
        }
      }
      const uint64_t pages = periods * pattern.size();
      if (pages > 0) {
        // One copy of the pattern, then doubling copies of what is filled.
        topology::NodeId* dst = node_.data() + first + placed;
        std::copy(pattern.begin(), pattern.end(), dst);
        for (uint64_t filled = pattern.size(); filled < pages;) {
          const uint64_t n = std::min(filled, pages - filled);
          std::copy(dst, dst + n, dst + filled);
          filled += n;
        }
        for (size_t n = 0; n < per_period.size(); ++n) {
          node_used_[n] += periods * per_period[n];
        }
        placed += pages;
        continue;
      }
    }
    const topology::NodeId target = PlaceOne(policy, next());
    if (target < 0) {
      return fail();
    }
    node_[first + placed] = target;
    ++node_used_[static_cast<size_t>(target)];
    ++placed;
  }
  allocated_ += count;
  counters_.pgalloc += count;
  return PageList(std::move(listed), first, fresh);
}

void PageAllocator::PushFree(PageId first, uint64_t count) {
  if (count == 0) {
    return;
  }
  if (!free_runs_.empty() && free_runs_.back().first + free_runs_.back().count == first) {
    free_runs_.back().count += count;
  } else {
    free_runs_.push_back(IdRun{first, count});
  }
  free_ids_ += count;
}

PageId PageAllocator::PopFree() {
  IdRun& top = free_runs_.back();
  const PageId id = top.first + --top.count;
  if (top.count == 0) {
    free_runs_.pop_back();
  }
  --free_ids_;
  return id;
}

void PageAllocator::CountNodes(PageId first, uint64_t count,
                               std::vector<uint64_t>& per_node) const {
  // Four interleaved histograms, so consecutive pages on one node do not
  // serialize on one counter; slot 0 of each counts freed slots.
  const size_t width = per_node.size() + 1;
  std::vector<uint64_t> lanes(4 * width, 0);
  const topology::NodeId* col = node_.data() + first;
  const auto slot = [&](uint64_t i) { return static_cast<size_t>(col[i] + 1); };
  uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    ++lanes[slot(i)];
    ++lanes[width + slot(i + 1)];
    ++lanes[2 * width + slot(i + 2)];
    ++lanes[3 * width + slot(i + 3)];
  }
  for (; i < count; ++i) {
    ++lanes[slot(i)];
  }
  for (size_t n = 1; n < width; ++n) {
    per_node[n - 1] += lanes[n] + lanes[width + n] + lanes[2 * width + n] + lanes[3 * width + n];
  }
}

void PageAllocator::Free(const PageList& pages) {
  ++generation_;
  for (PageId id : pages.listed()) {
    assert(node_[id] >= 0 && "double free");
    --node_used_[static_cast<size_t>(node_[id])];
    node_[id] = -1;
    PushFree(id, 1);
  }
  std::vector<uint64_t> freed(node_used_.size(), 0);
  CountNodes(pages.run_first(), pages.run_count(), freed);
  [[maybe_unused]] uint64_t counted = 0;
  for (size_t n = 0; n < freed.size(); ++n) {
    node_used_[n] -= freed[n];
    counted += freed[n];
  }
  assert(counted == pages.run_count() && "double free");
  const auto run = node_.begin() + static_cast<std::ptrdiff_t>(pages.run_first());
  std::fill(run, run + static_cast<std::ptrdiff_t>(pages.run_count()), -1);
  PushFree(pages.run_first(), pages.run_count());
  allocated_ -= pages.size();
  counters_.pgfree += pages.size();
}

Status PageAllocator::MovePage(PageId id, topology::NodeId target) {
  const topology::NodeId from = node_[id];
  assert(from >= 0 && "moving a free page");
  if (from == target) {
    return Status::Ok();
  }
  if (FreePages(target) == 0) {
    ++counters_.migrate_failed;
    return Status::ResourceExhausted("target node full");
  }
  --node_used_[static_cast<size_t>(from)];
  ++node_used_[static_cast<size_t>(target)];
  node_[id] = target;
  ++generation_;
  return Status::Ok();
}

}  // namespace cxl::os
