// Bump/arena allocator for per-epoch transients.
//
// The sweep hot paths (daemon tick candidate lists, solver working vectors,
// per-epoch latency batches) allocate short-lived buffers thousands of times
// per cell. An Arena turns each of those into a pointer bump: blocks are
// grabbed from the heap once, then recycled across epochs by Reset(), so
// steady-state epochs do zero heap traffic.
//
// Usage contract: allocations live until the next Reset(). Containers built
// on ArenaAllocator must therefore not outlive the epoch that created them —
// the canonical pattern is a block-scoped ArenaVector per epoch followed by
// arena.Reset() at the epoch boundary.
#ifndef CXL_EXPLORER_SRC_UTIL_ARENA_H_
#define CXL_EXPLORER_SRC_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>
#include "src/util/units.h"

namespace cxl {

class Arena {
 public:
  static constexpr size_t kDefaultBlockBytes = 64 * kKiB;

  explicit Arena(size_t block_bytes = kDefaultBlockBytes)
      : default_block_bytes_(block_bytes == 0 ? kDefaultBlockBytes : block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns `bytes` of storage aligned to `align` (a power of two). The
  // memory is uninitialized and valid until the next Reset().
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    bytes_requested_ += bytes;
    if (block_index_ < blocks_.size()) {
      Block& b = blocks_[block_index_];
      const uintptr_t base = reinterpret_cast<uintptr_t>(b.data.get());
      const size_t aligned = AlignUp(base + offset_, align) - base;
      if (aligned + bytes <= b.capacity) {
        offset_ = aligned + bytes;
        return b.data.get() + aligned;
      }
    }
    return AllocateSlow(bytes, align);
  }

  // Typed helper: uninitialized array of `count` Ts (trivial T only — the
  // arena never runs destructors).
  template <typename T>
  T* AllocateArray(size_t count) {
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  // Rewinds the arena to empty. Blocks are retained for reuse, so a
  // steady-state Allocate/Reset cycle touches the heap zero times.
  void Reset() {
    block_index_ = 0;
    offset_ = 0;
    bytes_requested_ = 0;
  }

  // Observability for tests and sizing.
  size_t block_count() const { return blocks_.size(); }
  size_t bytes_requested() const { return bytes_requested_; }
  size_t bytes_reserved() const {
    size_t total = 0;
    for (const Block& b : blocks_) {
      total += b.capacity;
    }
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    size_t capacity = 0;
  };

  static uintptr_t AlignUp(uintptr_t n, size_t align) { return (n + align - 1) & ~(align - 1); }

  void* AllocateSlow(size_t bytes, size_t align) {
    // Advance past the exhausted block; reuse a retained block when it fits
    // (alignment padding included), otherwise splice in a fresh one.
    if (block_index_ < blocks_.size()) {
      ++block_index_;
    }
    const size_t needed = bytes + align;
    if (block_index_ >= blocks_.size() || blocks_[block_index_].capacity < needed) {
      Block b;
      b.capacity = needed > default_block_bytes_ ? needed : default_block_bytes_;
      b.data = std::make_unique_for_overwrite<std::byte[]>(b.capacity);
      blocks_.insert(blocks_.begin() + static_cast<ptrdiff_t>(block_index_), std::move(b));
    }
    Block& b = blocks_[block_index_];
    const size_t base = AlignUp(reinterpret_cast<uintptr_t>(b.data.get()), align) -
                        reinterpret_cast<uintptr_t>(b.data.get());
    offset_ = base + bytes;
    return b.data.get() + base;
  }

  std::vector<Block> blocks_;
  size_t block_index_ = 0;
  size_t offset_ = 0;
  size_t default_block_bytes_;
  size_t bytes_requested_ = 0;
};

// Minimal std::allocator adapter over an Arena. Deallocation is a no-op;
// storage is reclaimed wholesale by Arena::Reset().
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(size_t n) { return arena_->AllocateArray<T>(n); }
  void deallocate(T* /*p*/, size_t /*n*/) {}

  Arena* arena() const { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAllocator& a, const ArenaAllocator& b) { return !(a == b); }

 private:
  Arena* arena_;
};

// The workhorse container for epoch-scoped scratch lists.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace cxl

#endif  // CXL_EXPLORER_SRC_UTIL_ARENA_H_
