#include "src/os/tiering.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "src/os/policy_registry.h"
#include "src/os/vmstat.h"
#include "src/util/units.h"

namespace cxl::os {

namespace {
// A promotion counts as migration-outcome feedback for this many ticks: a
// demotion (or a re-access check) further from the promotion than this no
// longer counts. Small enough that the signal tracks the current regime,
// large enough to span the heat-decay half-life.
constexpr uint32_t kPromoteStampWindowTicks = 8;
// Per-epoch promoted-page lists kept: the window plus the current epoch.
constexpr uint32_t kPromotedRingSlots = kPromoteStampWindowTicks + 1;

// Tier slots of the heat index: DRAM, and every other node kind.
constexpr int kTopTier = 0;
constexpr int kLowTier = 1;

// Binary exponent of a positive heat: floor(log2(heat)) for normal floats,
// -127 for every subnormal (rounded halving makes their exponents drift, so
// nothing relies on them) and 128 for infinity.
int HeatExponent(float heat) {
  uint32_t bits = 0;
  std::memcpy(&bits, &heat, sizeof(bits));
  const int biased = static_cast<int>((bits >> 23) & 0xffu);
  return biased == 0 ? -127 : biased - 127;
}

bool TestBit(const std::vector<uint64_t>& bits, uint64_t i) {
  return ((bits[i >> 6] >> (i & 63)) & 1u) != 0;
}
void SetBit(std::vector<uint64_t>& bits, uint64_t i) { bits[i >> 6] |= uint64_t{1} << (i & 63); }
void ClearBit(std::vector<uint64_t>& bits, uint64_t i) {
  bits[i >> 6] &= ~(uint64_t{1} << (i & 63));
}

int TierOf(const PageAllocator& allocator, topology::NodeId node) {
  return allocator.IsDramNode(node) ? kTopTier : kLowTier;
}
}  // namespace

// Heat-ordered index of resident pages, one set of buckets per tier.
//
// A page with heat h > 0 is filed under key = exponent(h) + decays, where
// `decays` counts the decay sweeps so far. Decay halves every heat exactly
// while it stays a normal float, so an untouched page keeps its key, and
// the bucket at offset o = key - decays holds exactly the heats in
// [2^o, 2^(o+1)): buckets are disjoint and ordered by key, and only the
// (heat, id) order inside a bucket is unknown — rankers sort the buckets
// they consume. Touched and migrated pages are re-filed by the daemon.
//
// Below FLT_MIN halving rounds: ties form and exponents drift. Every bucket
// at offset <= kMergedMaxOffset therefore ranks as one group (all its heats
// are <= 2^-125, below the next bucket's), and 24 halvings after going
// subnormal a heat is exactly zero, so the bucket reaching kFoldOffset is
// folded into the zero group. Live offsets span (kFoldOffset, kMaxOffset],
// which a ring of kRing bucket slots per tier covers without wrapping.
//
// Zero-heat pages sit in a per-tier bitset, so they come out in id order —
// their tie order — for free. A bucket is an unordered array of ids stored
// in fixed-size blocks drawn from one shared pool, and each filed page
// records its address there, so removal is a swap with the bucket's last
// entry and needs no key. Cost: 4 B of address per page, 4 B per filed
// (heat > 0) page, 2 bits of zero flags per page; blocks are recycled
// between buckets, so memory follows the number of filed pages.
class HeatIndex {
 public:
  static constexpr int kRing = 512;
  static constexpr int kMaxOffset = 128;
  static constexpr int kMergedMaxOffset = -126;
  static constexpr int kFoldOffset = -151;
  static constexpr uint32_t kBlock = 256;  // Ids per storage block.
  static constexpr uint32_t kChunkBlocks = 64;  // Blocks per allocation.

  bool built = false;
  uint64_t synced_generation = 0;  // PageAllocator::generation() at the last sync.

  // Re-creates the index over [0, page_count) with nothing filed. The
  // promoted-page window survives (ids are stable across a rebuild).
  void Reset(uint64_t page_count) {
    // Entry addresses are 32-bit: filed pages plus one partly used block
    // per bucket must fit.
    assert(page_count <= std::numeric_limits<uint32_t>::max() - 2 * kRing * kBlock);
    const uint64_t words = (page_count + 63) / 64;
    for (auto& bucket : buckets_) {
      bucket = Bucket{};
    }
    chunks_.clear();
    owner_.clear();
    free_blocks_.clear();
    address_.resize(page_count);
    for (auto& zero : zero_) {
      zero.assign(words, 0);
    }
    promoted_bits_.resize(words, 0);
    pool_valid_ = false;
  }

  void Link(uint64_t id, int tier, float heat) {
    if (heat == 0.0f) {
      SetBit(zero_[tier], id);
      return;
    }
    const uint32_t slot = Slot(tier, HeatExponent(heat));
    Bucket& bucket = buckets_[slot];
    if (bucket.size % kBlock == 0) {
      bucket.blocks.push_back(NewBlock(slot));
    }
    const uint32_t address = Address(bucket, bucket.size++);
    Entry(address) = static_cast<uint32_t>(id);
    address_[id] = address;
  }

  void Unlink(uint64_t id, int tier) {
    if (TestBit(zero_[tier], id)) {
      ClearBit(zero_[tier], id);
      return;
    }
    Remove(address_[id]);
  }

  // Call after each decay sweep: advances the key origin and folds the
  // bucket that just reached kFoldOffset (all zeros by now) into the zero
  // group. Returns pages folded.
  uint64_t Decay(const float* heat) {
    ++decays_;
    uint64_t folded = 0;
    for (int tier : {kTopTier, kLowTier}) {
      Bucket& bucket = buckets_[Slot(tier, kFoldOffset)];
      ForEach(bucket, [&](uint32_t id) {
        assert(heat[id] == 0.0f);
        SetBit(zero_[tier], id);
      });
      folded += bucket.size;
      free_blocks_.insert(free_blocks_.end(), bucket.blocks.begin(), bucket.blocks.end());
      bucket = Bucket{};
    }
    (void)heat;
    return folded;
  }

  // Calls accept(id) for every low-tier page with heat >= threshold, walking
  // buckets from the top and stopping at the first exactly-scaled bucket
  // wholly below the threshold. Returns pages read.
  template <typename Accept>
  uint64_t CollectLowTier(double threshold, const float* heat, const Accept& accept) const {
    uint64_t examined = 0;
    for (int offset = kMaxOffset; offset > kFoldOffset; --offset) {
      if (offset >= kMergedMaxOffset && std::ldexp(1.0, offset + 1) <= threshold) {
        return examined;
      }
      const Bucket& bucket = buckets_[Slot(kLowTier, offset)];
      examined += bucket.size;
      ForEach(bucket, [&](uint32_t id) {
        // NB: heat is compared against the double threshold — narrowing
        // the threshold to float would flip borderline candidates.
        if (heat[id] >= threshold) {
          accept(id);
        }
      });
    }
    if (threshold <= 0.0) {
      for (uint64_t id = NextZero(kLowTier, 0); id != kNone; id = NextZero(kLowTier, id + 1)) {
        ++examined;
        accept(static_cast<uint32_t>(id));
      }
    }
    return examined;
  }

  // --- Demotion cold pool -------------------------------------------------
  // A prefix of the DRAM pages in ascending (heat, id) order, gathered group
  // by group — zero group in id order, then the merged group, then buckets
  // upward — and ranked lazily: entries [pool_next_, pool_ranked_) are
  // sorted and no larger than any later entry or any page not yet gathered.
  // Heat is constant within a tick, so consuming the prefix demotes exactly
  // the current (heat, id)-minimum DRAM page each time. Invalidated at each
  // tick start and when a page enters DRAM inside a group already gathered.

  void InvalidatePool() { pool_valid_ = false; }

  // Ensures `need` ranked entries are available (fewer only once every DRAM
  // page is gathered). Adds the pages read to *examined.
  void RankPool(uint64_t need, const float* heat, uint64_t* examined) {
    if (!pool_valid_) {
      StartPool(heat, examined);
    }
    while (pool_ranked_ - pool_next_ < need) {
      if (pool_ranked_ < pool_.size()) {
        // Select the m smallest unranked entries in O(unranked), then sort
        // just those: a tick ranks only what it demotes.
        const uint64_t m = std::min<uint64_t>(need - (pool_ranked_ - pool_next_),
                                              pool_.size() - pool_ranked_);
        const auto first = pool_.begin() + static_cast<std::ptrdiff_t>(pool_ranked_);
        const auto middle = first + static_cast<std::ptrdiff_t>(m);
        std::nth_element(first, middle, pool_.end());
        std::sort(first, middle);
        pool_ranked_ += m;
        continue;
      }
      if (pool_phase_ == PoolPhase::kZeros) {
        // Zeros tie on heat, so id order is rank order: gather only what
        // is needed.
        while (pool_ranked_ - pool_next_ < need) {
          const uint64_t id = NextZero(kTopTier, pool_zero_cursor_);
          if (id == kNone) {
            pool_zero_cursor_ = kNone;
            pool_phase_ = PoolPhase::kMerged;
            break;
          }
          pool_.emplace_back(0.0f, static_cast<uint32_t>(id));
          pool_ranked_ = pool_.size();
          pool_zero_cursor_ = id + 1;
          ++*examined;
        }
      } else if (pool_phase_ == PoolPhase::kMerged) {
        for (int offset = kFoldOffset + 1; offset <= kMergedMaxOffset; ++offset) {
          *examined += Gather(offset, heat);
        }
        pool_phase_ = PoolPhase::kBuckets;
      } else if (pool_next_offset_ <= kMaxOffset) {
        *examined += Gather(pool_next_offset_++, heat);
      } else {
        return;  // Every DRAM page is ranked.
      }
    }
  }

  // The next ranked entry, or null when the pool is exhausted.
  const std::pair<float, uint32_t>* PoolFront() const {
    return pool_next_ < pool_ranked_ ? &pool_[pool_next_] : nullptr;
  }
  void PopPool() { ++pool_next_; }

  // Whether a page entering DRAM with `heat` falls inside a group the pool
  // already gathered — it would then be missing from the ranked prefix.
  bool PoolCovers(float heat, uint64_t id) const {
    if (!pool_valid_) {
      return false;
    }
    if (heat == 0.0f) {
      return pool_phase_ != PoolPhase::kZeros || id < pool_zero_cursor_;
    }
    if (pool_phase_ == PoolPhase::kZeros) {
      return false;
    }
    const int offset = HeatExponent(heat);
    if (offset <= kMergedMaxOffset) {
      return pool_phase_ == PoolPhase::kBuckets;
    }
    return offset < pool_next_offset_;
  }

  // --- Promoted-page window -----------------------------------------------
  // One list of promoted ids per epoch for the last kPromotedRingSlots
  // epochs, and a bitset of their union: a page is "recently promoted"
  // exactly when its bit is set.

  void RecordPromotion(uint32_t id, uint32_t epoch) {
    promoted_[epoch % kPromotedRingSlots].push_back(id);
    SetBit(promoted_bits_, id);
  }
  bool RecentlyPromoted(uint64_t id) const { return TestBit(promoted_bits_, id); }

  // Empties the list of the epoch that falls out of the window (`epoch` is
  // the epoch just begun, which reuses its slot).
  void RetireEpoch(uint32_t epoch) {
    auto& expired = promoted_[epoch % kPromotedRingSlots];
    if (expired.empty()) {
      return;
    }
    for (uint32_t id : expired) {
      ClearBit(promoted_bits_, id);
    }
    expired.clear();
    MarkWindow();  // Re-marks pages the expired epoch shared with later ones.
  }

  // Calls visit(id) once per distinct page in the window. Returns list
  // entries read.
  template <typename Visit>
  uint64_t ForEachRecentlyPromoted(const Visit& visit) {
    uint64_t examined = 0;
    for (const auto& list : promoted_) {
      examined += list.size();
      for (uint32_t id : list) {
        if (TestBit(promoted_bits_, id)) {
          ClearBit(promoted_bits_, id);  // Visit each page once.
          visit(id);
        }
      }
    }
    MarkWindow();
    return examined;
  }

 private:
  static constexpr uint64_t kNone = std::numeric_limits<uint64_t>::max();

  enum class PoolPhase { kZeros, kMerged, kBuckets };

  void MarkWindow() {
    for (const auto& list : promoted_) {
      for (uint32_t id : list) {
        SetBit(promoted_bits_, id);
      }
    }
  }

  // Bucket slot of `offset` (= key - decays) in `tier`'s ring.
  uint32_t Slot(int tier, int offset) const {
    const uint64_t key = static_cast<uint64_t>(decays_ + offset);
    return static_cast<uint32_t>(tier * kRing) + static_cast<uint32_t>(key & (kRing - 1));
  }

  // Storage of a bucket: `blocks` in fill order, entries [0, size).
  struct Bucket {
    std::vector<uint32_t> blocks;
    uint32_t size = 0;
  };

  uint32_t Address(const Bucket& bucket, uint32_t index) const {
    return bucket.blocks[index / kBlock] * kBlock + index % kBlock;
  }

  uint32_t& Entry(uint32_t address) const {
    constexpr uint32_t kChunk = kChunkBlocks * kBlock;
    return chunks_[address / kChunk][address % kChunk];
  }

  template <typename Visit>
  void ForEach(const Bucket& bucket, const Visit& visit) const {
    for (uint32_t index = 0; index < bucket.size; ++index) {
      visit(Entry(Address(bucket, index)));
    }
  }

  uint32_t NewBlock(uint32_t slot) {
    uint32_t block = 0;
    if (!free_blocks_.empty()) {
      block = free_blocks_.back();
      free_blocks_.pop_back();
    } else {
      block = static_cast<uint32_t>(owner_.size());
      owner_.push_back(0);
      if (block % kChunkBlocks == 0) {
        // Fixed-size chunks, never reallocated: memory follows the filed
        // pages without a large reservation or copy-on-growth.
        chunks_.emplace_back(new uint32_t[kChunkBlocks * kBlock]);
      }
    }
    owner_[block] = slot;
    return block;
  }

  // Removes the entry at `address` by moving its bucket's last entry into
  // its place; a block left empty returns to the pool.
  void Remove(uint32_t address) {
    Bucket& bucket = buckets_[owner_[address / kBlock]];
    const uint32_t last = Entry(Address(bucket, --bucket.size));
    Entry(address) = last;
    address_[last] = address;
    if (bucket.size % kBlock == 0) {
      free_blocks_.push_back(bucket.blocks.back());
      bucket.blocks.pop_back();
    }
  }

  // First zero-group page of `tier` with id >= from, or kNone.
  uint64_t NextZero(int tier, uint64_t from) const {
    const std::vector<uint64_t>& bits = zero_[tier];
    uint64_t w = from >> 6;
    if (w >= bits.size()) {
      return kNone;
    }
    uint64_t word = bits[w] & (~uint64_t{0} << (from & 63));
    while (word == 0) {
      if (++w == bits.size()) {
        return kNone;
      }
      word = bits[w];
    }
    return (w << 6) + static_cast<uint64_t>(__builtin_ctzll(word));
  }

  // Starts a pool for this tick. Merged-group DRAM pages whose heat has
  // underflowed to zero move to the zero group first, so that the zero
  // group holds every zero-heat DRAM page and its id order is exact.
  void StartPool(const float* heat, uint64_t* examined) {
    for (int offset = kFoldOffset + 1; offset <= kMergedMaxOffset; ++offset) {
      Bucket& bucket = buckets_[Slot(kTopTier, offset)];
      *examined += bucket.size;
      // Backwards: a removal moves the bucket's last, already visited,
      // entry into the hole.
      for (uint32_t index = bucket.size; index-- > 0;) {
        const uint32_t address = Address(bucket, index);
        const uint32_t id = Entry(address);
        if (heat[id] == 0.0f) {
          Remove(address);
          SetBit(zero_[kTopTier], id);
        }
      }
    }
    pool_.clear();
    pool_next_ = 0;
    pool_ranked_ = 0;
    pool_phase_ = PoolPhase::kZeros;
    pool_zero_cursor_ = 0;
    pool_next_offset_ = kMergedMaxOffset + 1;
    pool_valid_ = true;
  }

  // Appends the DRAM bucket at `offset`, unranked. Returns pages read.
  uint64_t Gather(int offset, const float* heat) {
    const Bucket& bucket = buckets_[Slot(kTopTier, offset)];
    ForEach(bucket, [&](uint32_t id) { pool_.emplace_back(heat[id], id); });
    return bucket.size;
  }

  int64_t decays_ = 0;
  // Buckets by slot (tier * kRing + key mod kRing). Block b holds entry
  // addresses [b * kBlock, (b + 1) * kBlock), stored kChunkBlocks blocks
  // per chunk, for bucket slot owner_[b]; address_ maps each filed page to
  // its entry.
  Bucket buckets_[2 * kRing];
  std::vector<std::unique_ptr<uint32_t[]>> chunks_;
  std::vector<uint32_t> owner_;
  std::vector<uint32_t> free_blocks_;
  std::vector<uint32_t> address_;
  std::vector<uint64_t> zero_[2];

  std::vector<std::pair<float, uint32_t>> pool_;
  size_t pool_next_ = 0;
  size_t pool_ranked_ = 0;
  bool pool_valid_ = false;
  PoolPhase pool_phase_ = PoolPhase::kZeros;
  uint64_t pool_zero_cursor_ = 0;
  int pool_next_offset_ = kMergedMaxOffset + 1;

  std::vector<uint32_t> promoted_[kPromotedRingSlots];
  std::vector<uint64_t> promoted_bits_;
};

const char* TieringConfig::PolicyName() const {
  return policy.empty() ? kHotPageSelectionPolicyName : policy.c_str();
}

TieredMemory::TieredMemory(PageAllocator& allocator, TieringConfig config)
    : allocator_(allocator), config_(std::move(config)) {
  auto policy = MakeTieringPolicy(config_.PolicyName(), config_);
  if (!policy.ok()) {
    // Unknown name in config_.policy: callers taking user input validate
    // names up front, so this is a programming error — fall back to
    // hot-page selection rather than crash release builds.
    assert(false && "unknown tiering policy name");
    policy = MakeTieringPolicy(kHotPageSelectionPolicyName, config_);
  }
  owned_policy_ = std::move(policy).value();
  policy_ = owned_policy_.get();
}

TieredMemory::~TieredMemory() = default;

bool TieredMemory::IsTopTier(topology::NodeId node) const {
  return allocator_.IsDramNode(node);
}

void TieredMemory::RecordAccess(PageId page, uint64_t accesses) {
  // Hint-fault sampling: only a fraction of real accesses are observed.
  const double sampled = static_cast<double>(accesses) * config_.hint_fault_sample_rate;
  auto p = allocator_.page(page);
  p.heat += static_cast<float>(sampled);
  if (p.last_decay_epoch != epoch_) {
    // First touch this epoch: the next Tick() re-files the page. (A stale
    // stamp that already equals epoch_ — id recycling, epoch 0 — implies an
    // allocation since the last tick, which rebuilds the index anyway.)
    touched_.push_back(static_cast<uint32_t>(page));
  }
  p.last_decay_epoch = epoch_;  // Recency stamp for the kRecency scan.
  allocator_.mutable_counters().numa_hint_faults += static_cast<uint64_t>(std::ceil(sampled));
}

uint64_t TieredMemory::LowTierPages() const {
  uint64_t total = 0;
  for (const auto& n : allocator_.platform().nodes()) {
    if (n.kind == topology::NodeKind::kCxl) {
      total += allocator_.UsedPages(n.id);
    }
  }
  return total;
}

bool TieredMemory::IndexInSync() const {
  return index_ != nullptr && index_->built &&
         index_->synced_generation == allocator_.generation();
}

uint64_t TieredMemory::SyncIndex() {
  const topology::NodeId* node_col = allocator_.node_column();
  const float* heat_col = allocator_.heat_column();
  if (IndexInSync()) {
    for (uint32_t id : touched_) {
      if (node_col[id] >= 0) {
        const int tier = TierOf(allocator_, node_col[id]);
        index_->Unlink(id, tier);
        index_->Link(id, tier, heat_col[id]);
      }
    }
    return touched_.size();
  }
  // First tick, or pages were allocated, freed or moved behind the daemon's
  // back: file every resident page afresh.
  if (index_ == nullptr) {
    index_ = std::make_unique<HeatIndex>();
  }
  const uint64_t page_count = allocator_.page_count();
  const uint32_t* epoch_col = allocator_.epoch_column();
  index_->Reset(page_count);
  touched_.clear();
  for (PageId id = 0; id < page_count; ++id) {
    if (node_col[id] < 0) {
      continue;
    }
    index_->Link(id, TierOf(allocator_, node_col[id]), heat_col[id]);
    // Recycled ids keep stale recency stamps, so the touched list is
    // recomputed too. Only heat > 0 pages matter to it (the MRU scan needs
    // heat > 0; zero heat means nothing to re-file), and the filter keeps an
    // epoch-0 rebuild from listing every page.
    if (epoch_col[id] == epoch_ && heat_col[id] > 0.0f) {
      touched_.push_back(static_cast<uint32_t>(id));
    }
  }
  index_->built = true;
  index_->synced_generation = allocator_.generation();
  return page_count;
}

Status TieredMemory::MoveIndexed(PageId page, topology::NodeId target) {
  const bool in_sync = IndexInSync();
  if (in_sync) {
    index_->Unlink(page, TierOf(allocator_, allocator_.NodeOf(page)));
  }
  Status status = allocator_.MovePage(page, target);
  if (in_sync) {
    index_->Link(page, TierOf(allocator_, allocator_.NodeOf(page)), allocator_.page(page).heat);
    index_->synced_generation = allocator_.generation();
  }
  return status;
}

void TieredMemory::AdvanceEpoch() {
  ++epoch_;
  touched_.clear();
  index_->RetireEpoch(epoch_);
}

uint64_t TieredMemory::DemoteColdPages(uint64_t count, uint64_t* examined) {
  // Find a demotion target (CXL node with space).
  const auto& platform = allocator_.platform();
  auto pick_cxl = [&]() -> topology::NodeId {
    topology::NodeId best = -1;
    uint64_t best_free = 0;
    for (const auto& n : platform.nodes()) {
      if (n.kind == topology::NodeKind::kCxl && allocator_.FreePages(n.id) > best_free) {
        best_free = allocator_.FreePages(n.id);
        best = n.id;
      }
    }
    return best;
  };

  const uint64_t want = std::min<uint64_t>(count, allocator_.DramResidentCount());
  if (want == 0) {
    return 0;
  }
  index_->RankPool(want, allocator_.heat_column(), examined);

  uint64_t demoted = 0;
  for (uint64_t i = 0; i < want && index_->PoolFront() != nullptr; ++i) {
    const PageId id = index_->PoolFront()->second;
    const topology::NodeId target = pick_cxl();
    if (target < 0) {
      ++allocator_.mutable_counters().migrate_failed;
      break;
    }
    index_->PopPool();
    ++*examined;
    if (MoveIndexed(id, target).ok()) {
      ++demoted;
      ++allocator_.mutable_counters().pgdemote;
      // §4.2.3 ping-pong signature: this page was promoted within the
      // window and is already being demoted again. Observational only —
      // feeds TickObservation, never the demotion choice itself.
      if (index_->RecentlyPromoted(id)) {
        ++tick_ping_pong_;
      }
    }
  }
  return demoted;
}

TieredMemory::TickResult TieredMemory::Tick(double dt_seconds) {
  TickResult result;
  result.hot_threshold = policy_->hot_threshold();

  // Re-file the pages touched since the last tick. This precedes the skip
  // gates below: a skipped tick still ends the epoch and its touched list.
  result.pages_examined = SyncIndex();

  // Degraded-path gates. Both branches leave page state untouched: a wedged
  // daemon thread neither scans nor decays, and a backed-off daemon sits out
  // the tick after repeated promotion failures. Unreachable without an
  // enabled injector, so healthy runs are bit-for-bit unchanged. These run
  // before the policy is consulted — a wedged kernel thread does not make
  // decisions.
  if (faults_ != nullptr && faults_->enabled()) {
    if (faults_->DaemonStalled()) {
      sim_seconds_ += dt_seconds;
      AdvanceEpoch();
      if (telemetry_ != nullptr) {
        telemetry_->GetCounter("tiering.stalled_ticks").Increment();
        // A stall window is active (DaemonStalled), so the id is valid.
        telemetry_->events().Record(
            telemetry::Event(telemetry::EventKind::kDaemonSkippedTick, SecToMs(sim_seconds_))
                .WithWindow(faults_->ActiveWindowOf(fault::FaultType::kDaemonStall))
                .WithReason(0));
      }
      return result;
    }
    if (backoff_ticks_remaining_ > 0) {
      --backoff_ticks_remaining_;
      sim_seconds_ += dt_seconds;
      AdvanceEpoch();
      if (telemetry_ != nullptr) {
        telemetry_->GetCounter("tiering.backoff_ticks").Increment();
        const int32_t window = faults_->AttributedWindow();
        if (window != telemetry::kNoWindow) {
          telemetry_->events().Record(
              telemetry::Event(telemetry::EventKind::kDaemonSkippedTick, SecToMs(sim_seconds_))
                  .WithWindow(window)
                  .WithReason(1));
        }
      }
      return result;
    }
  }

  const auto& platform = allocator_.platform();
  const double page_bytes = static_cast<double>(allocator_.page_bytes());

  // All of this tick's transient lists live in the arena; recycling the
  // blocks here keeps steady-state ticks heap-free.
  tick_arena_.Reset();

  // Base promotion budget from the rate limit (MB/s, decimal, as in the
  // kernel). The policy scales or ignores it (TPP promotes unboundedly).
  const double budget_bytes = MbpsToBytesPerSec(config_.promote_rate_limit_mbps) * dt_seconds;
  const double budget_pages_d = budget_bytes / page_bytes;
  const uint64_t base_budget_pages =
      budget_pages_d >= static_cast<double>(std::numeric_limits<uint64_t>::max())
          ? std::numeric_limits<uint64_t>::max()
          : static_cast<uint64_t>(budget_pages_d);

  TickContext ctx;
  ctx.dt_seconds = dt_seconds;
  ctx.base_budget_pages = base_budget_pages;
  ctx.dram_free_fraction = allocator_.DramFreeFraction();
  if (faults_ != nullptr && faults_->enabled()) {
    ctx.link_degraded = faults_->LinkDegraded();
    ctx.cxl_latency_factor = faults_->CxlLatencyFactor();
  }
  const TickDecision decision = policy_->Decide(ctx);
  if (decision.skip_tick) {
    // The policy's own backoff (e.g. adaptive feedback sitting out a
    // degraded-link window): same no-scan/no-decay semantics as the
    // daemon's promotion-failure backoff, with its own counter and skip
    // reason. The event only records when a fault window is attributable —
    // the diagnosis layer requires every degradation response to join back
    // to a cause.
    sim_seconds_ += dt_seconds;
    AdvanceEpoch();
    if (telemetry_ != nullptr) {
      telemetry_->GetCounter("tiering.policy_backoff_ticks").Increment();
      const int32_t window = (faults_ != nullptr && faults_->enabled())
                                 ? faults_->AttributedWindow()
                                 : telemetry::kNoWindow;
      if (window != telemetry::kNoWindow) {
        telemetry_->events().Record(
            telemetry::Event(telemetry::EventKind::kDaemonSkippedTick, SecToMs(sim_seconds_))
                .WithWindow(window)
                .WithReason(2));
      }
    }
    return result;
  }
  const uint64_t budget_pages = decision.budget_pages;

  // Migration-outcome instrumentation for this tick (observational only).
  tick_ping_pong_ = 0;
  tick_recent_promoted_ = 0;
  tick_recent_promoted_hot_ = 0;

  // Heat changed since the previous tick (decay, sampled accesses), so last
  // tick's cold pool no longer reflects the (heat, id) order.
  index_->InvalidatePool();

  // Gather promotion candidates on the low tier. Quarantined pages are
  // never candidates; the set is empty unless fault paths populated it, so
  // the extra check is one `empty()` load on healthy runs.
  const float* heat_col = allocator_.heat_column();
  const topology::NodeId* node_col = allocator_.node_column();
  const uint32_t* epoch_col = allocator_.epoch_column();
  ArenaVector<std::pair<float, PageId>> hot{
      ArenaAllocator<std::pair<float, PageId>>(&tick_arena_)};
  const auto collect = [&](uint32_t id) {
    if (quarantined_.empty() || quarantined_.count(id) == 0) {
      hot.emplace_back(heat_col[id], id);
    }
  };
  const auto by_id = [](const auto& a, const auto& b) { return a.second < b.second; };
  if (decision.scan == CandidateScan::kHotnessRanked) {
    // With nothing resident on CXL there is nothing to promote, and the
    // migration feedback stays zero (the configs that tick the daemon keep
    // both tiers populated).
    if (allocator_.CxlResidentCount() > 0) {
      // Migration-outcome feedback: how many pages promoted within the
      // window still sit in DRAM, and did the current interval touch them?
      result.pages_examined += index_->ForEachRecentlyPromoted([&](uint32_t id) {
        if (node_col[id] >= 0 && allocator_.IsDramNode(node_col[id])) {
          ++tick_recent_promoted_;
          if (epoch_col[id] == epoch_) {
            ++tick_recent_promoted_hot_;
          }
        }
      });
      result.pages_examined +=
          index_->CollectLowTier(decision.hot_threshold, heat_col, collect);
    }
    // Hottest first, page id breaking heat ties: the rate-limit budget
    // truncates this list, so tie order decides *which* pages promote —
    // without the tie-break that choice is implementation-defined
    // (caught by cxl_lint CXL-D007).
    std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
  } else if (decision.scan == CandidateScan::kRecency) {
    // MRU balancing: everything touched since the last scan qualifies, in
    // id order — no hotness ranking. This is precisely why the earlier
    // patch "may not accurately identify high-demand pages" (§2.3): the
    // budget is spent on recently-touched pages regardless of their heat.
    result.pages_examined += touched_.size();
    for (uint32_t id : touched_) {
      if (node_col[id] >= 0 && !allocator_.IsDramNode(node_col[id]) &&
          epoch_col[id] == epoch_ && heat_col[id] > 0.0f) {
        collect(id);
      }
    }
    std::sort(hot.begin(), hot.end(), by_id);
  } else {
    // TPP-like: second observed access promotes. With the default sampling
    // rate a page needs ~2 sampled hits; accumulated heat >= 2 approximates
    // the active-list check. No ordering, no rate limiting (see below);
    // promoted in id order.
    result.pages_examined += index_->CollectLowTier(2.0, heat_col, collect);
    std::sort(hot.begin(), hot.end(), by_id);
  }
  result.candidates = hot.size();
  allocator_.mutable_counters().pgpromote_candidate += hot.size();

  auto pick_dram = [&]() -> topology::NodeId {
    topology::NodeId best = -1;
    uint64_t best_free = 0;
    for (const auto& n : platform.nodes()) {
      if (n.kind == topology::NodeKind::kDram && allocator_.FreePages(n.id) > best_free) {
        best_free = allocator_.FreePages(n.id);
        best = n.id;
      }
    }
    return best;
  };

  uint64_t promoted = 0;
  bool promotion_failed = false;
  for (const auto& [heat, id] : hot) {
    if (promoted >= budget_pages) {
      allocator_.mutable_counters().promote_rate_limited += hot.size() - promoted;
      break;
    }
    topology::NodeId target = pick_dram();
    if (target < 0) {
      // DRAM full: demote cold pages to make room (kswapd-style), which
      // consumes migration bandwidth too. Demote in small batches.
      const uint64_t batch = std::clamp<uint64_t>(budget_pages / 8, 16, 4096);
      const uint64_t freed = DemoteColdPages(batch, &result.pages_examined);
      result.demoted_pages += freed;
      result.migrated_bytes += static_cast<double>(freed) * page_bytes;
      target = pick_dram();
      if (target < 0) {
        promotion_failed = true;
        break;  // Machine genuinely full.
      }
    }
    ++result.pages_examined;
    if (MoveIndexed(id, target).ok()) {
      ++promoted;
      ++allocator_.mutable_counters().pgpromote_success;
      result.migrated_bytes += page_bytes;
      index_->RecordPromotion(static_cast<uint32_t>(id), epoch_);
      // A page entering DRAM inside a group the cold pool already ranked
      // would be missing from it — drop the pool so the next demotion
      // batch starts over. Promoted pages are hot by construction, so this
      // almost never fires.
      if (index_->PoolCovers(heat, id)) {
        index_->InvalidatePool();
      }
    } else {
      promotion_failed = true;
    }
  }
  result.promoted_pages = promoted;

  // Repeated promotion failure on the degraded path arms exponential
  // backoff: 2, 4, 8, ... skipped ticks up to the tunable cap, so a daemon
  // that cannot make progress stops burning scan cycles and migration
  // bandwidth against a full or failing tier.
  if (faults_ != nullptr && faults_->enabled()) {
    if (promotion_failed) {
      ++promotion_failure_streak_;
      const int cap = std::max(1, faults_->tunables().backoff_max_ticks);
      const int shift = std::min(promotion_failure_streak_, 16);
      backoff_ticks_remaining_ = std::min(cap, 1 << shift);
      if (telemetry_ != nullptr) {
        telemetry_->GetCounter("tiering.promotion_failures").Increment();
        const int32_t window = faults_->AttributedWindow();
        if (window != telemetry::kNoWindow) {
          telemetry_->events().Record(
              telemetry::Event(telemetry::EventKind::kPromotionBackoffArmed,
                               SecToMs(sim_seconds_ + dt_seconds))
                  .WithWindow(window)
                  .WithA(backoff_ticks_remaining_)
                  .WithB(promotion_failure_streak_));
        }
      }
    } else {
      promotion_failure_streak_ = 0;
    }
  }

  // Demotion under DRAM pressure even without promotions (watermark).
  uint64_t watermark_demoted = 0;
  if (allocator_.DramFreeFraction() < config_.demotion_free_watermark) {
    const uint64_t freed = DemoteColdPages(std::clamp<uint64_t>(budget_pages / 8, 16, 4096),
                                           &result.pages_examined);
    watermark_demoted = freed;
    result.demoted_pages += freed;
    result.migrated_bytes += static_cast<double>(freed) * page_bytes;
  }

  // Close the loop: report the tick's outcome to the policy. This is where
  // the hot-page-selection threshold adjustment now lives (it ran at this
  // exact point in the pre-policy daemon, after the watermark demotions).
  TickObservation obs;
  obs.dt_seconds = dt_seconds;
  obs.candidates = result.candidates;
  obs.promoted_pages = result.promoted_pages;
  obs.demoted_pages = result.demoted_pages;
  obs.budget_pages = budget_pages;
  obs.migrated_bytes = result.migrated_bytes;
  obs.rate_limit_saturation =
      (budget_pages > 0 && budget_pages != std::numeric_limits<uint64_t>::max())
          ? static_cast<double>(promoted) / static_cast<double>(budget_pages)
          : 0.0;
  obs.promotion_failed = promotion_failed;
  obs.dram_free_fraction = allocator_.DramFreeFraction();
  obs.recent_promoted = tick_recent_promoted_;
  obs.recent_promoted_hot = tick_recent_promoted_hot_;
  obs.ping_pong_demotions = tick_ping_pong_;
  obs.link_degraded = ctx.link_degraded;
  obs.cxl_latency_factor = ctx.cxl_latency_factor;
  policy_->Observe(obs);
  result.hot_threshold = policy_->hot_threshold();

  // Decay heat for the next interval: one sequential (vectorizable) sweep
  // over the packed heat column. The sweep also halves freed slots' stale
  // values, which is unobservable: allocation resets heat to zero and every
  // reader filters on node >= 0. The index keys need no update — halving
  // keeps every untouched page's exponent relative to the decay count.
  {
    float* heat_mut = allocator_.mutable_heat_column();
    const uint64_t n = allocator_.page_count();
    for (uint64_t id = 0; id < n; ++id) {
      heat_mut[id] *= kHeatDecay;
    }
  }
  result.pages_examined += index_->Decay(heat_col);
  AdvanceEpoch();

  sim_seconds_ += dt_seconds;
  EmitTickTelemetry(result, dt_seconds);
  EmitTickEvents(result, watermark_demoted);
  return result;
}

void TieredMemory::Attach(const Observers& observers) {
  if (observers.telemetry != telemetry_) {
    telemetry_ = observers.telemetry;
    // Cached handles point into the previous sink; re-resolve on first emit.
    handles_ = TickTelemetryHandles{};
    if (telemetry_ != nullptr) {
      telemetry_track_ = telemetry_->trace().Track("promotion-daemon");
    }
  }
  faults_ = observers.faults;
  policy_ = observers.policy != nullptr ? observers.policy : owned_policy_.get();
}

bool TieredMemory::QuarantinePage(PageId page) {
  if (page == kInvalidPage || page >= allocator_.page_count()) {
    return false;
  }
  if (!quarantined_.insert(page).second) {
    return false;  // Already quarantined.
  }
  auto p = allocator_.page(page);
  if (p.node >= 0 && IndexInSync()) {
    // The heat reset re-files the page under the zero group.
    const int tier = TierOf(allocator_, p.node);
    index_->Unlink(page, tier);
    index_->Link(page, tier, 0.0f);
  }
  p.heat = 0.0f;
  if (p.node >= 0 && IsTopTier(p.node)) {
    // Evict the poisoned page from the hot tier: it must not occupy DRAM
    // the daemon would otherwise give to healthy hot pages.
    const auto& platform = allocator_.platform();
    topology::NodeId target = -1;
    uint64_t best_free = 0;
    for (const auto& n : platform.nodes()) {
      if (n.kind == topology::NodeKind::kCxl && allocator_.FreePages(n.id) > best_free) {
        best_free = allocator_.FreePages(n.id);
        target = n.id;
      }
    }
    if (target >= 0 && MoveIndexed(page, target).ok()) {
      ++allocator_.mutable_counters().pgdemote;
    }
  }
  if (telemetry_ != nullptr) {
    telemetry_->GetCounter("tiering.quarantined_pages").Increment();
    // Stamped on the fault clock when one is attached (quarantine happens
    // mid-epoch, triggered by the caller's poison sample).
    const double t_ms = (faults_ != nullptr && faults_->enabled()) ? SecToMs(faults_->now_s())
                                                                   : SecToMs(sim_seconds_);
    const int32_t window =
        (faults_ != nullptr && faults_->enabled())
            ? faults_->ActiveWindowOf(fault::FaultType::kPoisonedCacheline)
            : telemetry::kNoWindow;
    telemetry_->events().Record(
        telemetry::Event(telemetry::EventKind::kPageDemote, t_ms)
            .WithWindow(window)
            .WithReason(2)
            .WithA(1.0)
            .WithB(BytesToMB(allocator_.page_bytes())));
  }
  return true;
}


void TieredMemory::EmitTickTelemetry(const TickResult& result, double dt_seconds) {
  if (telemetry_ == nullptr || dt_seconds <= 0.0) {
    return;
  }
  // Resolve all handles once, at the first emitting tick — every subsequent
  // tick appends through the cached pointers with no string lookups. Lazy so
  // a sink that never sees a tick registers nothing (as before).
  if (!handles_.attached) {
    telemetry::Timeline& timeline = telemetry_->timeline();
    handles_.hot_threshold = &timeline.Series("tiering.hot_threshold");
    handles_.candidates = &timeline.Series("tiering.candidates");
    handles_.promote_mbps = &timeline.Series("tiering.promote_mbps");
    handles_.demote_mbps = &timeline.Series("tiering.demote_mbps");
    handles_.rate_limit_saturation = &timeline.Series("tiering.rate_limit_saturation");
    handles_.low_tier_pages = &timeline.Series("tiering.low_tier_pages");
    handles_.reaccess_ratio = &timeline.Series("tiering.promote_reaccess_ratio");
    handles_.ping_pong = &timeline.Series("tiering.ping_pong_demotions");
    handles_.vmstat = AttachVmCounterSeries(timeline);
    handles_.ticks = &telemetry_->GetCounter("tiering.ticks");
    handles_.promoted_pages = &telemetry_->GetCounter("tiering.promoted_pages");
    handles_.demoted_pages = &telemetry_->GetCounter("tiering.demoted_pages");
    handles_.hot_threshold_gauge = &telemetry_->GetGauge("tiering.hot_threshold");
    handles_.rate_limit_saturation_gauge = &telemetry_->GetGauge("tiering.rate_limit_saturation");
    handles_.attached = true;
  }
  const double t_ms = SecToMs(sim_seconds_);
  const double page_bytes = static_cast<double>(allocator_.page_bytes());
  const double promote_mbps =
      static_cast<double>(result.promoted_pages) * page_bytes / static_cast<double>(kMB) / dt_seconds;
  const double demote_mbps =
      static_cast<double>(result.demoted_pages) * page_bytes / static_cast<double>(kMB) / dt_seconds;

  handles_.hot_threshold->Sample(t_ms, result.hot_threshold);
  handles_.candidates->Sample(t_ms, static_cast<double>(result.candidates));
  handles_.promote_mbps->Sample(t_ms, promote_mbps);
  handles_.demote_mbps->Sample(t_ms, demote_mbps);
  // How much of the kernel.numa_balancing_promote_rate_limit_MBps budget the
  // daemon consumed this tick (>= ~1.0 means it is promotion-rate bound —
  // the §4.2.2 thrashing precondition).
  const double saturation =
      config_.promote_rate_limit_mbps > 0.0 ? promote_mbps / config_.promote_rate_limit_mbps : 0.0;
  handles_.rate_limit_saturation->Sample(t_ms, saturation);
  handles_.low_tier_pages->Sample(t_ms, static_cast<double>(LowTierPages()));
  // Migration-outcome feedback, exposed so the diagnosis layer (and humans)
  // can see what the adaptive policy sees: the fraction of recently promoted
  // pages still being touched, and §4.2.3 ping-pong volume.
  const double reaccess =
      tick_recent_promoted_ > 0
          ? static_cast<double>(tick_recent_promoted_hot_) /
                static_cast<double>(tick_recent_promoted_)
          : 0.0;
  handles_.reaccess_ratio->Sample(t_ms, reaccess);
  handles_.ping_pong->Sample(t_ms, static_cast<double>(tick_ping_pong_));
  SampleVmCounters(handles_.vmstat, t_ms, allocator_.counters());

  handles_.ticks->Increment();
  handles_.promoted_pages->Add(result.promoted_pages);
  handles_.demoted_pages->Add(result.demoted_pages);
  handles_.hot_threshold_gauge->Set(result.hot_threshold);
  handles_.rate_limit_saturation_gauge->Set(saturation);

  telemetry_->trace().Span(
      telemetry_track_, "tick", t_ms - SecToMs(dt_seconds), SecToMs(dt_seconds),
      {{"promoted_pages", static_cast<double>(result.promoted_pages)},
       {"demoted_pages", static_cast<double>(result.demoted_pages)},
       {"hot_threshold", result.hot_threshold},
       {"migrated_mb", BytesToMBd(result.migrated_bytes)}});
}

void TieredMemory::EmitTickEvents(const TickResult& result, uint64_t watermark_demoted) {
  if (telemetry_ == nullptr) {
    return;
  }
  const double t_ms = SecToMs(sim_seconds_);
  const double page_mb = BytesToMB(allocator_.page_bytes());
  // Routine tiering activity attributes best-effort: the responsible window
  // while one is open, kNoWindow on healthy runs (promotion bursts matter
  // for the ping-pong detector even without faults).
  const int32_t window = (faults_ != nullptr && faults_->enabled())
                             ? faults_->AttributedWindow()
                             : telemetry::kNoWindow;
  if (result.candidates > 0 || result.promoted_pages > 0) {
    telemetry_->events().Record(
        telemetry::Event(telemetry::EventKind::kPagePromote, t_ms)
            .WithWindow(window)
            .WithReason(policy_->event_reason())
            .WithA(static_cast<double>(result.promoted_pages))
            .WithB(static_cast<double>(result.candidates)));
  }
  const uint64_t pressure_demoted = result.demoted_pages - watermark_demoted;
  if (pressure_demoted > 0) {
    telemetry_->events().Record(
        telemetry::Event(telemetry::EventKind::kPageDemote, t_ms)
            .WithWindow(window)
            .WithReason(0)
            .WithA(static_cast<double>(pressure_demoted))
            .WithB(static_cast<double>(pressure_demoted) * page_mb));
  }
  if (watermark_demoted > 0) {
    telemetry_->events().Record(
        telemetry::Event(telemetry::EventKind::kPageDemote, t_ms)
            .WithWindow(window)
            .WithReason(1)
            .WithA(static_cast<double>(watermark_demoted))
            .WithB(static_cast<double>(watermark_demoted) * page_mb));
  }
}

}  // namespace cxl::os
