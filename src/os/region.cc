#include "src/os/region.h"

#include <cassert>

#include "src/topology/platform.h"

namespace cxl::os {

StatusOr<MemoryRegion> MemoryRegion::Allocate(PageAllocator& allocator, const NumaPolicy& policy,
                                              uint64_t bytes) {
  const uint64_t page_bytes = allocator.page_bytes();
  const uint64_t count = (bytes + page_bytes - 1) / page_bytes;
  auto pages = allocator.Allocate(policy, count);
  if (!pages.ok()) {
    return pages.status();
  }
  return MemoryRegion(&allocator, std::move(pages).value(), bytes);
}

PageId MemoryRegion::PageAtOffset(uint64_t offset) const {
  assert(offset < bytes_);
  return PageAtIndex(offset / allocator_->page_bytes());
}

std::vector<double> MemoryRegion::NodeShares() const {
  std::vector<double> shares(allocator_->platform().nodes().size(), 0.0);
  if (pages_.empty()) {
    return shares;
  }
  // Whole-page counts are exact in a double, so counting per node and
  // dividing once gives the same bits as summing 1.0 per page.
  std::vector<uint64_t> counts(shares.size(), 0);
  for (PageId id : pages_.listed()) {
    const topology::NodeId n = allocator_->NodeOf(id);
    if (n >= 0) {
      ++counts[static_cast<size_t>(n)];
    }
  }
  allocator_->CountNodes(pages_.run_first(), pages_.run_count(), counts);
  for (size_t n = 0; n < shares.size(); ++n) {
    shares[n] = static_cast<double>(counts[n]) / static_cast<double>(pages_.size());
  }
  return shares;
}

double MemoryRegion::DramShare() const {
  const auto shares = NodeShares();
  double dram = 0.0;
  for (const auto& n : allocator_->platform().nodes()) {
    if (n.kind == topology::NodeKind::kDram) {
      dram += shares[static_cast<size_t>(n.id)];
    }
  }
  return dram;
}

void MemoryRegion::Free() {
  if (!pages_.empty()) {
    allocator_->Free(pages_);
    pages_ = PageList();
    bytes_ = 0;
  }
}

}  // namespace cxl::os
