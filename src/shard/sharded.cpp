#include "shard/sharded.hpp"

#include <atomic>
#include <filesystem>
#include <vector>

#include <new>

#include "analysis/tuner.hpp"
#include "core/host_exec.hpp"
#include "support/faultpoint.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace lr90::shard {

namespace {

// The allocation edge of a sharded run: the O(m) reduced-list scratch
// (totals, exits, prefixes). Firing here simulates std::bad_alloc without
// depending on the allocator.
fault::FaultSite f_scratch_alloc{"shard.scratch.alloc",
                                 "reduced-list scratch allocation fails"};

/// Reduced lists below this length take the serial second-level scan; the
/// parallel sublist kernel's fork/join cannot pay off on fewer nodes.
constexpr std::size_t kSecondLevelParallelMin = 8192;

/// A fresh per-run spill directory under the system temp dir, unique per
/// process + run (ephemeral: removed by the ShardStore when the run ends).
std::string ephemeral_spill_dir() {
  static std::atomic<std::uint64_t> seq{0};
  unsigned long pid = 0;
#if defined(__unix__) || defined(__APPLE__)
  pid = static_cast<unsigned long>(::getpid());
#endif
  std::error_code ec;
  const std::string base = std::filesystem::temp_directory_path(ec).string();
  return (base.empty() ? std::string{"."} : base) + "/lr90-shards-" +
         std::to_string(pid) + "-" +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

/// Pass A over one shard: every segment's operator total and exit vertex.
/// A segment ends where its successor leaves the shard (or at the global
/// tail's self-link).
template <ListOp Op, bool kOnes>
void pass_totals(const ShardView& view, const std::vector<index_t>& heads,
                 std::size_t seg_base, unsigned threads, Op op,
                 std::vector<value_t>& totals, std::vector<index_t>& exits) {
  host_exec::claim_blocks(threads, heads.size(), [&](std::size_t j) {
    value_t acc = Op::identity();
    index_t v = heads[j];
    for (;;) {
      const std::size_t i = v - view.begin;
      acc = op(acc, kOnes ? value_t{1} : view.value[i]);
      const index_t gn = view.next[i];
      if (gn == v || gn < view.begin || gn >= view.end) {
        totals[seg_base + j] = acc;
        exits[seg_base + j] = gn == v ? kNoVertex : gn;
        return;
      }
      v = gn;
    }
  });
}

/// Pass C over one shard: re-walk each segment with the accumulator seeded
/// at its global prefix, writing the final exclusive scan.
template <ListOp Op, bool kOnes>
void pass_expand(const ShardView& view, const std::vector<index_t>& heads,
                 std::size_t seg_base, unsigned threads, Op op,
                 const std::vector<value_t>& seg_pref,
                 std::span<value_t> out) {
  host_exec::claim_blocks(threads, heads.size(), [&](std::size_t j) {
    value_t acc = seg_pref[seg_base + j];
    index_t v = heads[j];
    for (;;) {
      const std::size_t i = v - view.begin;
      out[v] = acc;
      acc = op(acc, kOnes ? value_t{1} : view.value[i]);
      const index_t gn = view.next[i];
      if (gn == v || gn < view.begin || gn >= view.end) return;
      v = gn;
    }
  });
}

template <ListOp Op, bool kOnes>
Status run_sharded(const LinkedList& list, const ShardedList& sharded,
                   const ShardExec& exec, Op op, double op_factor,
                   Workspace& ws,
                   std::span<value_t> out, ShardStore& store,
                   ShardRunStats& stats) {
  const std::size_t m = sharded.segments;
  std::vector<value_t> totals(m);
  std::vector<index_t> exits(m);

  // Pass A: per-shard segment totals + exits, one resident shard at a time.
  for (unsigned p = 0; p < sharded.shards; ++p) {
    if (sharded.heads_of[p].empty()) continue;
    const ShardView view = store.acquire(p);
    if (view.next == nullptr)
      return store.last_error() == StoreError::kCorrupt
                 ? Status::corrupt_slab(
                       "sharded scan: unrecoverable slab (pass A)")
                 : Status::resource_exhausted(
                       "sharded scan: shard load failed (pass A)");
    pass_totals<Op, kOnes>(view, sharded.heads_of[p], sharded.seg_base[p],
                           exec.threads, op, totals, exits);
    store.release(p);
  }

  // Pass B: the second-level Reid-Miller pass over the reduced list (one
  // node per segment). O(m), all in RAM.
  LinkedList reduced;
  reduced.next.resize(m);
  reduced.value = std::move(totals);
  for (std::size_t s = 0; s < m; ++s) {
    if (exits[s] == kNoVertex) {
      reduced.next[s] = static_cast<index_t>(s);  // global tail's segment
      reduced.tail = static_cast<index_t>(s);
      continue;
    }
    const auto it = sharded.seg_of_head.find(exits[s]);
    if (it == sharded.seg_of_head.end())
      return Status::invalid(
          "sharded scan: dangling cross-shard link (malformed list)");
    reduced.next[s] = it->second;
  }
  const auto head_it = sharded.seg_of_head.find(list.head);
  if (head_it == sharded.seg_of_head.end())
    return Status::invalid("sharded scan: list head owns no segment");
  reduced.head = head_it->second;
  std::vector<value_t> seg_pref(m);
  if (m >= kSecondLevelParallelMin && exec.threads > 1) {
    // Shape this scan for the m-node reduced list it walks, not for a
    // shard: the host cost model picks the workers (up to exec.threads)
    // and W, unless the caller pinned W.
    const HostTuneResult ht = host_tune(static_cast<double>(m), op_factor,
                                        exec.threads, 0, exec.interleave);
    const host_exec::HostPlan plan2{
        ht.threads,
        std::min<std::size_t>(m / 2,
                              static_cast<std::size_t>(ht.threads) * 64),
        ht.interleave};
    host_exec::scan_into<Op, false>(reduced, op, plan2, ws, seg_pref);
    // The second-level scan may have rebuilt the slab for the (local,
    // about-to-die) reduced list; its batch-cache identity must not
    // survive this call.
    ws.invalidate_packed();
  } else {
    host_exec::serial_scan_into(reduced, std::span<value_t>(seg_pref), op);
  }

  // Pass C: per-shard expansion from the segment prefixes.
  for (unsigned p = 0; p < sharded.shards; ++p) {
    if (sharded.heads_of[p].empty()) continue;
    const ShardView view = store.acquire(p);
    if (view.next == nullptr)
      return store.last_error() == StoreError::kCorrupt
                 ? Status::corrupt_slab(
                       "sharded scan: unrecoverable slab (pass C)")
                 : Status::resource_exhausted(
                       "sharded scan: shard load failed (pass C)");
    pass_expand<Op, kOnes>(view, sharded.heads_of[p], sharded.seg_base[p],
                           exec.threads, op, seg_pref, out);
    store.release(p);
  }
  stats.shards = sharded.shards;
  stats.segments = m;
  return Status::success();
}

}  // namespace

Status sharded_scan(const LinkedList& list, bool rank, ScanOp op,
                    const ShardExec& exec, Workspace& ws,
                    std::span<value_t> out, ShardRunStats& stats) {
  stats = ShardRunStats{};
  const std::size_t n = list.size();
  if (n == 0) return Status::success();
  const ShardedList sharded = ShardedList::build(list, exec.shards);
  ShardStore store;
  const bool spill = exec.byte_budget > 0;
  const std::string dir =
      spill ? (exec.spill_dir.empty() ? ephemeral_spill_dir() : exec.spill_dir)
            : std::string{};
  if (!store.prepare(list, sharded, exec.byte_budget, dir, exec.prefetch,
                     exec.keep_files, exec.degrade)) {
    stats.store = store.stats();
    return store.last_error() == StoreError::kIo
               ? Status::resource_exhausted(
                     "sharded scan: spill write failed under " + dir)
               : Status::unavailable(
                     "sharded scan: spill directory unusable: " + dir);
  }
  Status st;
  try {
    if (f_scratch_alloc.fire()) throw std::bad_alloc{};
    if (rank) {
      st = run_sharded<OpPlus, true>(list, sharded, exec, OpPlus{},
                                     op_cost_factor(ScanOp::kPlus), ws, out,
                                     store, stats);
    } else {
      st = with_scan_op(op, [&](auto typed) {
        return run_sharded<decltype(typed), false>(list, sharded, exec, typed,
                                                   op_cost_factor(op), ws,
                                                   out, store, stats);
      });
    }
  } catch (const std::bad_alloc&) {
    // The O(m) scratch did not fit: a typed answer, not a crash -- the
    // caller can retry smaller or shed load.
    st = Status::resource_exhausted(
        "sharded scan: scratch allocation failed");
  }
  stats.store = store.stats();
  return st;
}

}  // namespace lr90::shard
