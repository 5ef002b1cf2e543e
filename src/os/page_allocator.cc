#include "src/os/page_allocator.h"

#include <algorithm>
#include <cassert>

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

uint64_t PageAllocator::FreePages(topology::NodeId node) const {
  return node_capacity_[static_cast<size_t>(node)] - node_used_[static_cast<size_t>(node)];
}

uint64_t PageAllocator::TotalPages(topology::NodeId node) const {
  return node_capacity_[static_cast<size_t>(node)];
}

uint64_t PageAllocator::UsedPages(topology::NodeId node) const {
  return node_used_[static_cast<size_t>(node)];
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

StatusOr<std::vector<PageId>> PageAllocator::Allocate(const NumaPolicy& policy, uint64_t count) {
  ++generation_;
  std::vector<PageId> out;
  out.reserve(count);
  // Fresh slots needed beyond the recycled ids: size the columns once up
  // front instead of growing them page by page.
  if (count > free_list_.size()) {
    const size_t grow = node_.size() + (count - free_list_.size());
    node_.reserve(grow);
    heat_.reserve(grow);
    last_epoch_.reserve(grow);
  }
  // Per-call allocation index drives the policy's round-robin; continuing a
  // global index would skew small allocations, and the kernel's interleave
  // counter is per-task anyway. The policy sequence is one precomputed
  // period walked with a wrapping cursor — NodeForIndex(i) without the
  // per-page call and divides.
  const std::vector<topology::NodeId> pattern = policy.PeriodPattern();
  size_t pattern_i = 0;
  for (uint64_t i = 0; i < count; ++i) {
    topology::NodeId target = pattern[pattern_i];
    if (++pattern_i == pattern.size()) {
      pattern_i = 0;
    }
    if (FreePages(target) == 0) {
      if (policy.mode() == PolicyMode::kBind) {
        // Try the other bound nodes before failing.
        target = -1;
        for (topology::NodeId n : policy.nodes()) {
          if (FreePages(n) > 0) {
            target = n;
            break;
          }
        }
        if (target < 0) {
          counters_.pgalloc += out.size();
          Free(out);
          return Status::ResourceExhausted("bind policy: bound nodes are full");
        }
      } else {
        target = FallbackNode();
        if (target < 0) {
          counters_.pgalloc += out.size();
          Free(out);
          return Status::ResourceExhausted("machine out of memory");
        }
      }
    }
    PageId id;
    if (!free_list_.empty()) {
      id = free_list_.back();
      free_list_.pop_back();
      node_[id] = target;
      heat_[id] = 0.0f;
    } else {
      id = node_.size();
      node_.push_back(target);
      heat_.push_back(0.0f);
      last_epoch_.push_back(0);
    }
    ++node_used_[static_cast<size_t>(target)];
    ++allocated_;
    out.push_back(id);
  }
  counters_.pgalloc += count;
  return out;
}

void PageAllocator::Free(const std::vector<PageId>& pages) {
  ++generation_;
  free_list_.reserve(free_list_.size() + pages.size());
  for (PageId id : pages) {
    assert(node_[id] >= 0 && "double free");
    --node_used_[static_cast<size_t>(node_[id])];
    node_[id] = -1;
    free_list_.push_back(id);
    --allocated_;
    ++counters_.pgfree;
  }
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
