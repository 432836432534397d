// Reusable per-engine scratch memory.
//
// The host execution path needs a handful of O(n) and O(k) scratch arrays
// (sublist boundary bitmap, heads/sums/tails, the head-ownership table).
// Allocating them per call dominates the cost of ranking short lists and
// fragments the heap under batched traffic, so an Engine owns one Workspace
// and every run re-fits the same buffers: capacity only ever grows, and a
// warmed-up workspace serves steady-state traffic with zero allocations.
//
// Two hot-path refinements live here as well:
//
//  * the slab buffer -- the host kernels' single-gather representation
//    (lists/encode.hpp): one 8-byte hot word per vertex (hot_pack: link,
//    32-bit value lane, sublist-tail flag) or, for values that need all
//    64 bits, one 16-byte wide record (HotWide). ONE buffer serves both
//    widths, so a workspace that runs both holds the larger slab, never
//    the sum. Building it is one sequential O(n) pass; the slab is cached
//    under a content key so a batch of runs over the same list (the
//    serving layer's collapsed hot-key traffic) builds it once. The cache
//    is only trusted inside an Engine batch, where the caller's thread is
//    blocked inside run_batch and cannot mutate the list behind the key's
//    pointers.
//  * the head-ownership lookup -- phase 2 maps a sublist's successor
//    vertex to the sublist it heads, for the k sublist heads only, so an
//    open-addressed table of O(k) slots answers it; nothing n-sized is
//    filled or held resident for it.
//
// The counters make reuse observable: `allocations()` increments whenever a
// fit must grow a buffer, `reuse_hits()` whenever existing capacity was
// enough, `packed_builds()` whenever the packed slab is (re)built rather
// than served from cache. Tests assert that a batch of same-shaped requests
// stops allocating after the first one.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "lists/encode.hpp"
#include "lists/linked_list.hpp"
#include "support/rng.hpp"

namespace lr90 {

/// An immutable, shareable copy of the packed hot-path artifacts: the
/// single-gather slab (lists/encode.hpp hot_pack words) plus the sublist
/// heads it was decomposed under. Exported from a Workspace after a build
/// (export_packed_slab) and installed into any Workspace before a run
/// (install_shared_slab), it lets a serving layer cache the dominant fixed
/// cost of the packed path -- the O(n) slab build -- across requests and
/// across workers. Holders share it by shared_ptr-to-const; the struct is
/// never mutated after export.
struct PackedSlab {
  std::vector<index_t> heads;   ///< sublist head vertices (decomposition)
  std::vector<packed_t> words;  ///< hot_pack word per vertex
  std::size_t n = 0;            ///< list length the slab was built from
  bool ones = false;            ///< value lane forced to 1 (ranking)

  /// Approximate resident footprint, for byte-budget cache accounting.
  std::size_t bytes() const {
    return heads.capacity() * sizeof(index_t) +
           words.capacity() * sizeof(packed_t) + sizeof(*this);
  }
};

/// Reusable per-engine scratch memory: capacity only grows, so a warmed-up
/// workspace serves steady-state traffic with zero allocations. Not
/// thread-safe -- each Engine (and each EngineServer worker) owns one.
class Workspace {
 public:
  // -- scratch buffers (backends wire these directly) --------------------
  std::vector<std::uint8_t> is_tail;      ///< by vertex: sublist tail flag
  std::vector<index_t> heads;             ///< sublist head vertices
  std::vector<index_t> tails;             ///< sublist tail vertices
  std::vector<index_t> picks;             ///< chosen boundary vertices
  std::vector<value_t> sums;              ///< per-sublist inclusive sums
  std::vector<value_t> headscan;          ///< per-sublist exclusive scan
  std::vector<index_t> order;             ///< sublist ids in list order (ph 2)
  std::vector<value_t> block_sums;        ///< per-worker phase-2 block sums
  std::vector<value_t> verify;            ///< serial reference (verify_output)
  LinkedList scratch_list;                ///< mutable copy of an input list

  /// RNG used for boundary picks; reseeded per run from the engine options
  /// so results do not depend on what ran before.
  Rng rng{kDefaultSeed};

  Workspace() = default;
  /// Workspaces move with their Engine (buffers transfer, counters copy).
  Workspace(Workspace&& other) noexcept
      : is_tail(std::move(other.is_tail)),
        heads(std::move(other.heads)),
        tails(std::move(other.tails)),
        picks(std::move(other.picks)),
        sums(std::move(other.sums)),
        headscan(std::move(other.headscan)),
        order(std::move(other.order)),
        block_sums(std::move(other.block_sums)),
        verify(std::move(other.verify)),
        scratch_list(std::move(other.scratch_list)),
        rng(other.rng),
        shared_slab_(std::move(other.shared_slab_)),
        owner_slots_(std::move(other.owner_slots_)),
        owner_mask_(other.owner_mask_),
        slab_(std::move(other.slab_)),
        slab_lines_(std::exchange(other.slab_lines_, 0)),
        packed_key_(other.packed_key_),
        packed_live_(other.packed_live_),
        packed_trusted_(other.packed_trusted_),
        allocations_(other.allocations()),
        reuse_hits_(other.reuse_hits()),
        packed_builds_(other.packed_builds()) {}
  /// Move-assignment counterpart of the move constructor.
  Workspace& operator=(Workspace&& other) noexcept {
    is_tail = std::move(other.is_tail);
    heads = std::move(other.heads);
    tails = std::move(other.tails);
    picks = std::move(other.picks);
    sums = std::move(other.sums);
    headscan = std::move(other.headscan);
    order = std::move(other.order);
    block_sums = std::move(other.block_sums);
    verify = std::move(other.verify);
    scratch_list = std::move(other.scratch_list);
    rng = other.rng;
    shared_slab_ = std::move(other.shared_slab_);
    owner_slots_ = std::move(other.owner_slots_);
    owner_mask_ = other.owner_mask_;
    slab_ = std::move(other.slab_);
    slab_lines_ = std::exchange(other.slab_lines_, 0);
    packed_key_ = other.packed_key_;
    packed_live_ = other.packed_live_;
    packed_trusted_ = other.packed_trusted_;
    allocations_.store(other.allocations(), std::memory_order_relaxed);
    reuse_hits_.store(other.reuse_hits(), std::memory_order_relaxed);
    packed_builds_.store(other.packed_builds(), std::memory_order_relaxed);
    return *this;
  }

  /// Buffer-growth events: a fit() that had to (re)allocate. The counters
  /// are atomic so a serving layer's telemetry can read them while the
  /// owning worker runs (the buffers themselves remain single-threaded).
  std::uint64_t allocations() const {
    return allocations_.load(std::memory_order_relaxed);
  }
  /// Fits served entirely from existing capacity.
  std::uint64_t reuse_hits() const {
    return reuse_hits_.load(std::memory_order_relaxed);
  }
  /// Times the packed hot-path slab was (re)built; a batch of runs over
  /// the same list should count one.
  std::uint64_t packed_builds() const {
    return packed_builds_.load(std::memory_order_relaxed);
  }

  /// Zeroes all counters (buffers and their capacity are untouched), so a
  /// serving layer's stats reset can restart the allocation bookkeeping
  /// from a warmed state. Call at a quiescent point: concurrent fits on
  /// the owning thread may be lost from the new tallies.
  void reset_counters() {
    allocations_.store(0, std::memory_order_relaxed);
    reuse_hits_.store(0, std::memory_order_relaxed);
    packed_builds_.store(0, std::memory_order_relaxed);
  }

  /// Sizes `v` to n elements, all set to `init`, reusing capacity.
  template <class T>
  std::vector<T>& fit(std::vector<T>& v, std::size_t n, T init) {
    note(v.capacity() >= n);
    v.assign(n, init);
    return v;
  }

  /// Sizes `v` to n elements without initializing new content.
  template <class T>
  std::vector<T>& fit_uninit(std::vector<T>& v, std::size_t n) {
    note(v.capacity() >= n);
    v.clear();
    v.resize(n);
    return v;
  }

  // -- head-ownership lookup ----------------------------------------------

  /// Opens a fresh head -> sublist map for `k` sublist heads: an
  /// open-addressed table of at least 2k slots (power of two), so the
  /// per-run cost is O(k) however long the list is.
  void owner_begin(std::size_t k) {
    std::size_t slots = 16;
    while (slots < 2 * k) slots *= 2;
    owner_mask_ = slots - 1;
    fit(owner_slots_, slots, OwnerSlot{kNoVertex, kNoVertex});
  }
  /// Records vertex `v` as the head of sublist `j` (heads are distinct).
  void owner_set(index_t v, index_t j) {
    std::size_t s = owner_slot(v);
    while (owner_slots_[s].head != kNoVertex) s = (s + 1) & owner_mask_;
    owner_slots_[s] = OwnerSlot{v, j};
  }
  /// The sublist headed by `v`, or kNoVertex if `v` heads none.
  index_t owner_get(index_t v) const {
    for (std::size_t s = owner_slot(v);; s = (s + 1) & owner_mask_) {
      const OwnerSlot& e = owner_slots_[s];
      if (e.head == v || e.head == kNoVertex)
        return e.head == v ? e.sublist : kNoVertex;
    }
  }

  // -- the hot-path slab ---------------------------------------------------

  /// Sizes the slab buffer for `n` records of type Rec (packed_t hot
  /// words or HotWide records) and returns it, contents unspecified. One
  /// buffer serves both widths. Growth frees the old buffer before
  /// allocating -- never both resident at once -- and leaves the new
  /// pages untouched: the build writes every record, so they fault in
  /// across its workers instead of behind a serial zero-fill.
  template <class Rec>
  Rec* fit_slab(std::size_t n) {
    const std::size_t lines =
        (n * sizeof(Rec) + sizeof(SlabLine) - 1) / sizeof(SlabLine);
    note(slab_lines_ >= lines);
    if (slab_lines_ < lines) {
      slab_.reset();
      slab_.reset(new SlabLine[lines]);
      slab_lines_ = lines;
    }
    return reinterpret_cast<Rec*>(slab_.get());
  }
  /// The slab buffer viewed as records of type Rec.
  template <class Rec>
  const Rec* slab() const {
    return reinterpret_cast<const Rec*>(slab_.get());
  }

  // -- packed-slab cache -------------------------------------------------

  /// Identity of a packed slab: which arrays it was built from (by
  /// pointer: the cache is only trusted while the caller is blocked
  /// inside a batch and cannot mutate them), the sublist-boundary inputs
  /// (count and the RNG state the picks were drawn from), whether values
  /// were overridden to ones (ranking), and the record width.
  struct PackedKey {
    const void* next_data = nullptr;   ///< the list's link array
    const void* value_data = nullptr;  ///< the value array; null when `ones`
    std::size_t n = 0;                 ///< list length
    index_t head = kNoVertex;          ///< list head vertex
    std::size_t sublists = 0;  ///< boundary count the picks targeted
    bool ones = false;         ///< value lane forced to 1 (ranking)
    bool wide = false;         ///< HotWide records, not 8-byte hot words
    Rng rng_at_entry{0};       ///< draws repeat iff entry state matches

    /// Same arrays and boundary inputs: the slab holds the same vertices
    /// under the same decomposition, whatever its record width.
    bool same_source(const PackedKey& o) const {
      return next_data == o.next_data && value_data == o.value_data &&
             n == o.n && head == o.head && sublists == o.sublists &&
             ones == o.ones && rng_at_entry == o.rng_at_entry;
    }
  };

  /// True iff the cached slab (and the ws.heads it was built with) was
  /// built from `key`'s source at a width `key` can read -- and the cache
  /// is currently trusted. A wide run (key.wide) needs wide records; a
  /// hot-word run reads either width, since a wide record holds the full
  /// value (packed_wide() says which one is live). Trust is granted only
  /// by Engine::run_batch (see set_packed_trusted): the key identifies
  /// arrays by pointer, which is only sound while the caller is provably
  /// unable to mutate them, so a direct host_exec caller never hits the
  /// cache.
  bool packed_cache_hit(const PackedKey& key) const {
    return packed_trusted_ && packed_live_ && packed_key_.same_source(key) &&
           (packed_key_.wide || !key.wide);
  }
  /// True iff the live slab holds wide records.
  bool packed_wide() const { return packed_key_.wide; }
  /// Grants (or revokes) cache trust; only an Engine batch scope -- where
  /// the caller's thread is blocked and cannot mutate the keyed arrays --
  /// may grant it.
  void set_packed_trusted(bool trusted) { packed_trusted_ = trusted; }
  /// Marks the current slab + heads as built under `key`, and counts the
  /// build.
  void packed_cache_store(const PackedKey& key) {
    packed_key_ = key;
    packed_live_ = true;
    packed_builds_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Drops the cached slab identity (the memory stays for reuse). Called
  /// outside batches -- where the caller could have mutated the list
  /// behind the key's pointers -- and whenever another path clobbers
  /// ws.heads.
  void invalidate_packed() { packed_live_ = false; }

  // -- shared (cross-request) slab -------------------------------------

  /// Installs an externally cached slab for the next run (null clears).
  /// The hot path uses it -- skipping boundary choice and the slab build
  /// entirely -- when its (n, ones, head count) match the run's plan;
  /// a mismatch falls back to the normal build. The caller (the serving
  /// layer) guarantees the slab outlives the run and matches the list
  /// being ranked: slabs must only ever be keyed on immutable snapshots.
  void install_shared_slab(std::shared_ptr<const PackedSlab> slab) {
    shared_slab_ = std::move(slab);
  }
  /// The installed shared slab, or null. Read by the hot path per run.
  const PackedSlab* shared_slab() const { return shared_slab_.get(); }
  /// Copies the live packed slab + heads out as an immutable PackedSlab
  /// for a cross-request cache, or returns null when no hot-word slab is
  /// live (wide slabs are not exported). Copies -- rather than moves -- so
  /// the workspace keeps its warmed capacity and steady state stays
  /// allocation-free.
  std::shared_ptr<const PackedSlab> export_packed_slab(bool ones) const {
    if (!packed_live_ || packed_key_.wide) return nullptr;
    auto out = std::make_shared<PackedSlab>();
    out->heads = heads;
    const packed_t* words = slab<packed_t>();
    out->words.assign(words, words + packed_key_.n);
    out->n = packed_key_.n;
    out->ones = ones;
    return out;
  }

  /// Copies `src` into the scratch list, reusing its capacity. Algorithms
  /// that mutate their input (the simulated Reid-Miller path) run on this
  /// copy so the caller's list stays const without a per-call allocation.
  LinkedList& fit_list(const LinkedList& src) {
    note(scratch_list.next.capacity() >= src.next.size() &&
         scratch_list.value.capacity() >= src.value.size());
    scratch_list.next = src.next;
    scratch_list.value = src.value;
    scratch_list.head = src.head;
    scratch_list.tail = src.tail;
    return scratch_list;
  }

  /// Copies `src`'s structure with every value forced to one (list ranking
  /// as a scan of all-ones), reusing capacity.
  LinkedList& fit_ones(const LinkedList& src) {
    note(scratch_list.next.capacity() >= src.next.size() &&
         scratch_list.value.capacity() >= src.next.size());
    scratch_list.next = src.next;
    scratch_list.value.assign(src.next.size(), 1);
    scratch_list.head = src.head;
    scratch_list.tail = src.tail;
    return scratch_list;
  }

  /// Releases all held memory (counters are kept).
  void release() {
    is_tail = {};
    heads = {};
    tails = {};
    picks = {};
    sums = {};
    headscan = {};
    order = {};
    block_sums = {};
    verify = {};
    scratch_list = {};
    shared_slab_ = nullptr;
    owner_slots_ = {};
    slab_.reset();
    slab_lines_ = 0;
    packed_live_ = false;
    packed_trusted_ = false;
  }

 private:
  void note(bool fits) {
    if (fits) {
      reuse_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      allocations_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// One slot of the head-ownership table (head == kNoVertex: empty).
  struct OwnerSlot {
    index_t head;
    index_t sublist;
  };
  /// The cache line the slab buffer is allocated in (aligned, and left
  /// uninitialized by new[]).
  struct alignas(64) SlabLine {
    unsigned char bytes[64];
  };

  std::size_t owner_slot(index_t v) const {
    return static_cast<std::size_t>(
               (std::uint64_t{v} * 0x9e3779b97f4a7c15ULL) >> 32) &
           owner_mask_;
  }

  std::shared_ptr<const PackedSlab> shared_slab_;  ///< cross-request slab
  std::vector<OwnerSlot> owner_slots_;      ///< head -> sublist, open-addressed
  std::size_t owner_mask_ = 0;              ///< owner_slots_.size() - 1
  std::unique_ptr<SlabLine[]> slab_;        ///< the slab buffer
  std::size_t slab_lines_ = 0;              ///< its capacity in lines
  PackedKey packed_key_;                    ///< identity of the live slab
  bool packed_live_ = false;                ///< packed_key_ is meaningful
  bool packed_trusted_ = false;             ///< an Engine batch is active
  std::atomic<std::uint64_t> allocations_{0};
  std::atomic<std::uint64_t> reuse_hits_{0};
  std::atomic<std::uint64_t> packed_builds_{0};
};

}  // namespace lr90
