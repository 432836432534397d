// The host execution kernel: Reid-Miller's three-phase sublist scan on real
// hardware (a persistent std::thread worker team), generic over the
// operator and allocation-free given a warmed-up Workspace. lr90::Engine's
// HostBackend runs it with a workspace reused across calls; the sharded
// executor (shard/sharded.cpp) runs it for its second-level scan.
//
// Same structure as the paper's algorithm, non-destructively: sublist
// boundaries live in a bitmap instead of planted self-loops, so the input
// list stays shared read-only across threads.
//
// Phases 1 and 3 walk one single-gather slab -- the modern-CPU analog of
// the paper's VL=64 vector gathers -- built once per run (and cached
// across same-list batch runs). The slab holds one record per vertex in
// one of two widths (lists/encode.hpp): the 8-byte hot word (hot_pack:
// link + 32-bit value lane + sublist-tail flag) for ranking and the
// lane-32 operators, or the 16-byte wide record (HotWide: link, tail
// flag, full 64-bit value) for seg-sum, affine and max-plus and for any
// run whose values miss the lane. Either way: one random load per
// element. One kernel family walks it, the packed multi-cursor kernels
// (KernelTier::kPackedCursors): each worker advances W independent sublist
// cursors round-robin with software prefetch on every next hop, so the
// core overlaps W dependent-load chains instead of stalling a full memory
// round-trip per element, exactly as the C90 overlapped the 64 lanes of a
// vector gather. Cursors that finish their sublist refill from a shared
// claim counter; the last < W sublists drain with shrinking parallelism.
// A plan with interleave == 0 runs at W = 1.
//
// Lists past the slab's 31-bit link bound (n > kHotMaxVertices) and
// sublist counts below 2 take the serial walk.
//
// Every phase scales across worker threads (the paper's Section 5
// multiprocessor dimension, Fig. 11): the slab build splits into
// per-thread ranges, phases 1 and 3 feed each worker its own W-cursor set
// from the shared claim counter, and phase 2's reduced-list scan runs as
// a blocked two-pass prefix over operator-splittable prefixes once the
// sublist count is large enough to pay for it. Workers come from one
// persistent std::thread team per calling thread (run_workers), so the
// TSan job exercises exactly the substrate every build ships.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/kernel_tier.hpp"
#include "core/workspace.hpp"
#include "lists/encode.hpp"
#include "lists/linked_list.hpp"
#include "lists/ops.hpp"
#include "support/rng.hpp"

namespace lr90::host_exec {

/// Execution shape chosen by the Planner.
struct HostPlan {
  /// Worker threads to use (already resolved; >= 1).
  unsigned threads = 1;
  /// Total sublist count target; < 2 selects the serial fallback.
  std::size_t sublists = 0;
  /// Cursors in flight per worker (clamped to [1, kMaxInterleave]; 0 runs
  /// at W = 1).
  unsigned interleave = 0;
};

/// What one scan_into/rank_into call actually executed, for RunResult
/// stats and benches (cursors-in-flight and thread-scaling reporting).
struct ExecInfo {
  /// Cursors in flight per worker: W on the sublist path, 1 on the serial
  /// walk, 0 when nothing ran (empty list).
  unsigned interleave = 0;
  /// Worker threads the run used: on the sublist path the fewest that any
  /// of its fan-outs actually ran on (a helper that failed to start is
  /// not counted), 1 on the serial walk, 0 when nothing ran (empty list).
  unsigned threads = 0;
  bool wide = false;          ///< the slab held 16-byte wide records
  bool packed_cached = false; ///< the slab came from a cache or shared slab
  bool phase2_parallel = false;  ///< phase 2 ran the blocked parallel scan
  std::size_t sublists = 0;   ///< sublists used (0 = serial walk)
  /// The kernel family that ran: kPackedCursors for the packed phases
  /// (either record width), kLegacy for the serial walk, kAuto when
  /// nothing ran (empty list).
  KernelTier tier = KernelTier::kAuto;

  // Per-phase wall clock, for parallel-efficiency reporting (zero on the
  // serial walk, which has no phases). build_ns covers boundary choice,
  // head collection, and the slab build; it is zero on a batch cache hit.
  double build_ns = 0.0;   ///< boundaries + heads + packed-slab build
  double phase1_ns = 0.0;  ///< per-sublist inclusive scans
  double phase2_ns = 0.0;  ///< reduced-list scan over sublist sums
  double phase3_ns = 0.0;  ///< per-sublist expansion

  /// Share of the phase wall clock spent in the multi-worker phases
  /// (build + 1 + 3, plus 2 when it ran blocked): the Amdahl fraction a
  /// bench divides by to judge thread scaling. 0 when nothing was timed.
  double parallel_frac() const {
    const double par =
        build_ns + phase1_ns + phase3_ns + (phase2_parallel ? phase2_ns : 0.0);
    const double total = build_ns + phase1_ns + phase2_ns + phase3_ns;
    return total > 0.0 ? par / total : 0.0;
  }
};

/// Hard cap on cursors per worker (stack-resident cursor state).
inline constexpr unsigned kMaxInterleave = 64;

/// Hard cap on worker threads per run (per-thread scratch such as the
/// phase-2 block sums is sized by this).
inline constexpr unsigned kMaxThreads = 256;

/// Smallest sublist count phase 2 parallelizes its reduced-list scan at;
/// below it the serial scan wins on fork/join overhead alone.
inline constexpr std::size_t kPhase2MinParallelSublists = 64;

/// Worker threads actually available for `requested` (0 = library default:
/// the hardware thread count).
inline unsigned effective_threads(unsigned requested) {
  if (requested > 0) return std::min(requested, kMaxThreads);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? std::min(hw, kMaxThreads) : 1;
}

/// Runs fn(ctx) on the calling thread and on up to `threads` - 1 helpers
/// of the caller's persistent worker team, returning once every call has
/// returned. The team is thread_local: it grows on demand to the largest
/// count its caller has asked for and is joined when the caller exits.
/// Between runs a helper spins briefly while the process's team threads
/// fit the hardware threads, and parks on a condition variable otherwise.
/// A helper that cannot be created (std::system_error) is done without:
/// fn then runs fewer than `threads` times. A call made from inside a
/// running fn runs fn(ctx) once, inline. Returns how many times fn ran.
unsigned run_team(unsigned threads, void (*fn)(void*), void* ctx);

/// Helper threads in the calling thread's team (0 before its first
/// multi-worker run).
unsigned team_helpers();

/// Runs fn() concurrently on `threads` workers (the caller plus helpers of
/// its persistent team, see run_team) and waits for all of them: the one
/// worker-orchestration primitive every parallel kernel here uses. The
/// team may deliver fewer workers than requested, so workers must divide
/// their work dynamically (the kernels here claim fixed blocks from an
/// atomic counter) rather than by worker id. Returns how many workers ran.
template <class Fn>
unsigned run_workers(unsigned threads, Fn&& fn) {
  threads = std::clamp(threads, 1u, kMaxThreads);
  if (threads == 1) {
    fn();
    return 1;
  }
  using F = std::remove_reference_t<Fn>;
  return run_team(
      threads, [](void* f) noexcept { (*static_cast<F*>(f))(); },
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
}

/// The b-th of `blocks` contiguous balanced ranges over `count` items
/// (empty ranges when b >= count are fine). Workers claim block ids from
/// a shared atomic, so coverage is exact for any actual team size.
inline std::pair<std::size_t, std::size_t> block_range(std::size_t count,
                                                       std::size_t blocks,
                                                       std::size_t b) {
  const std::size_t base = count / blocks;
  const std::size_t extra = count % blocks;
  const std::size_t begin = b * base + std::min(b, extra);
  return {begin, begin + base + (b < extra ? 1 : 0)};
}

/// Fans block ids [0, count) out to `threads` workers through a shared
/// claim counter and calls body(block) for each: the one claim
/// discipline every parallel kernel here uses (exact coverage whatever
/// team size run_workers actually delivers). Returns how many workers ran.
template <class Body>
unsigned claim_blocks(unsigned threads, std::size_t count, Body&& body) {
  std::atomic<std::size_t> next{0};
  return run_workers(threads, [&] {
    for (std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
         b < count; b = next.fetch_add(1, std::memory_order_relaxed))
      body(b);
  });
}

/// Read-prefetch of the cache line holding `addr` (no-op when the
/// compiler has no intrinsic). The packed kernels issue one per cursor
/// per element, which is what keeps W load chains in flight.
inline void prefetch_ro(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/0);
#else
  (void)addr;
#endif
}

/// Serial walk fallback, used when parallelism cannot pay off.
template <ListOp Op>
void serial_scan_into(const LinkedList& list, std::span<value_t> out,
                      Op op = {}) {
  value_t acc = Op::identity();
  for_each_in_order(list, [&](index_t v, std::size_t) {
    out[v] = acc;
    acc = op(acc, list.value[v]);
  });
}

/// Serial rank: each vertex's position in traversal order.
inline void serial_rank_into(const LinkedList& list, std::span<value_t> out) {
  for_each_in_order(list, [&](index_t v, std::size_t pos) {
    out[v] = static_cast<value_t>(pos);
  });
}

/// Chooses `count` distinct sublist boundary vertices (plus the global
/// tail) into ws.is_tail / ws.picks. Rejection sampling against the bitmap
/// needs no per-call set: the pick density is at most 1/2, so the expected
/// number of retries per pick is below one.
inline void choose_boundaries(const LinkedList& list, std::size_t count,
                              Workspace& ws, index_t global_tail) {
  const std::size_t n = list.size();
  ws.fit(ws.is_tail, n, std::uint8_t{0});
  ws.fit_uninit(ws.picks, count);
  ws.picks.clear();  // keep capacity, refill below
  ws.is_tail[global_tail] = 1;
  while (ws.picks.size() < count) {
    const auto r = static_cast<index_t>(ws.rng.uniform(n));
    if (ws.is_tail[r]) continue;  // duplicate or the global tail: redraw
    ws.is_tail[r] = 1;
    ws.picks.push_back(r);
  }
}

/// Builds the single-gather slab into the workspace's slab buffer from
/// the list and the per-run boundary bitmap (ws.is_tail must already be
/// chosen): record v = (is_tail[v], next[v], value[v]) as an 8-byte hot
/// word (Rec = packed_t, lists/encode.hpp hot_pack) or a 16-byte wide
/// record (Rec = HotWide). One O(n) pass, split into per-thread index
/// ranges (hot_pack_range) claimed from an atomic counter. `kOnes` forces
/// every value to 1 (ranking). Returns false -- slab contents unspecified
/// -- iff a hot-word build meets a value that does not round-trip through
/// the signed 32-bit lane; ranking and wide builds cannot fail. Lowers
/// `ran` to the worker count the build ran on.
template <class Rec, bool kOnes>
bool build_packed(const LinkedList& list, unsigned threads, Workspace& ws,
                  unsigned& ran) {
  const std::size_t n = list.size();
  Rec* out = ws.fit_slab<Rec>(n);
  const index_t* next = list.next.data();
  const value_t* val = kOnes ? nullptr : list.value.data();
  const std::uint8_t* tail = ws.is_tail.data();
  const std::size_t blocks = std::max<std::size_t>(1, threads);
  std::atomic<bool> ok{true};
  ran = std::min(ran, claim_blocks(threads, blocks, [&](std::size_t b) {
    const auto [begin, end] = block_range(n, blocks, b);
    if (!hot_pack_range(next, val, tail, out, begin, end))
      ok.store(false, std::memory_order_relaxed);
  }));
  return ok.load(std::memory_order_relaxed);
}

/// The multi-cursor driver shared by the packed phases, over either
/// record width (Rec = packed_t hot words or HotWide records): walks all
/// `k` sublists over `threads` workers, each keeping up to `W` cursors in
/// flight. Per element: ONE gather of the vertex's record from the slab,
/// a prefetch of the next hop, then `step(vertex, record, acc)`; at a
/// sublist tail, `finish(sublist, tail_vertex, acc)` runs and the cursor
/// refills from the shared claim counter (perfect load balance; the final
/// < W sublists drain with shrinking parallelism). `init(sublist)` seeds
/// the accumulator. Returns how many workers ran.
template <class Rec, class AccInit, class Step, class Finish>
unsigned interleave_sublists(const Rec* slab, const index_t* heads,
                             std::size_t k, unsigned threads, unsigned W,
                             AccInit init, Step step, Finish finish) {
  W = std::clamp(W, 1u, kMaxInterleave);
  std::atomic<std::size_t> next_claim{0};
  auto worker = [&]() {
    struct Cursor {
      index_t v;    ///< current vertex
      index_t j;    ///< owning sublist
      value_t acc;  ///< running combine
    };
    Cursor cur[kMaxInterleave];
    std::size_t active = 0;
    auto claim = [&]() -> bool {
      const std::size_t j =
          next_claim.fetch_add(1, std::memory_order_relaxed);
      if (j >= k) return false;
      cur[active] = Cursor{heads[j], static_cast<index_t>(j), init(j)};
      prefetch_ro(&slab[heads[j]]);
      ++active;
      return true;
    };
    for (unsigned i = 0; i < W && claim(); ++i) {
    }
    while (active > 0) {
      for (std::size_t i = 0; i < active;) {
        Cursor& c = cur[i];
        const Rec w = slab[c.v];
        prefetch_ro(&slab[hot_link(w)]);
        step(c.v, w, c.acc);
        if (!hot_tail(w)) {
          c.v = hot_link(w);
          ++i;
          continue;
        }
        finish(c.j, c.v, c.acc);
        const std::size_t j =
            next_claim.fetch_add(1, std::memory_order_relaxed);
        if (j < k) {
          c = Cursor{heads[j], static_cast<index_t>(j), init(j)};
          prefetch_ro(&slab[heads[j]]);
          ++i;
        } else {
          --active;  // drain: rerun index i with the swapped-in cursor
          cur[i] = cur[active];
        }
      }
    }
  };
  return run_workers(threads, worker);
}

/// Exclusive list scan into `out` (sized n) per the plan, reusing `ws`.
/// Preconditions: `list` is a valid LinkedList, out.size() == list.size().
/// `kOnes` treats every value as 1 regardless of list.value (ranking);
/// only rank_into sets it.
template <ListOp Op, bool kOnes = false>
ExecInfo scan_into(const LinkedList& list, Op op, const HostPlan& plan,
                   Workspace& ws, std::span<value_t> out) {
  ExecInfo info;
  const std::size_t n = list.size();
  if (n == 0) return info;
  info.interleave = 1;
  info.threads = 1;
  info.tier = KernelTier::kLegacy;
  std::size_t want = std::min(plan.sublists, n / 2);
  // The slab's 31-bit links bound the sublist path; past it (and below
  // two sublists) the serial walk runs.
  if (want < 2 || n > kHotMaxVertices) {
    if constexpr (kOnes)
      serial_rank_into(list, out);
    else
      serial_scan_into(list, out, op);
    return info;
  }

  // Can the values live in the hot word's 32-bit lane? Ranking packs the
  // constant 1 and lane-capable operators their values; the 64-bit
  // operators take the wide record -- and so, decided at build time
  // below, do lane operators whose values miss the lane.
  bool wide = !(kOnes || kOpLane32<Op>);
  const unsigned W = std::clamp(plan.interleave, 1u, kMaxInterleave);
  const unsigned threads = plan.threads;
  // The fewest workers any fan-out below actually ran on (phases 1 and 3
  // always fan out, so this ends at a count that really ran).
  unsigned ran = kMaxThreads;
  // A shared (cross-request) slab, installed by the serving layer for
  // immutable snapshot lists, replaces both boundary choice and the slab
  // build outright when its shape matches this run's plan. Shared slabs
  // hold 8-byte hot words only, so a wide run never takes one. Like the
  // batch-cache hit below, the RNG is left undrawn -- answers are exact
  // under any sublist decomposition.
  const PackedSlab* ext = nullptr;
  if (!wide) {
    const PackedSlab* s = ws.shared_slab();
    if (s && s->n == n && s->ones == kOnes && s->heads.size() == want &&
        !s->words.empty())
      ext = s;
  }
  Workspace::PackedKey key;
  bool cache_hit = false;
  if (!ext) {
    key.next_data = list.next.data();
    key.value_data = kOnes ? nullptr : list.value.data();
    key.n = n;
    key.head = list.head;
    key.sublists = want;
    key.ones = kOnes;
    key.wide = wide;
    key.rng_at_entry = ws.rng;  // before any draws: picks would repeat
    cache_hit = ws.packed_cache_hit(key);
    // A hot-word run may ride a wide slab of the same list (a wide
    // record holds the full value), but only the cursor tier reads it.
    if (cache_hit) wide = ws.packed_wide();
  }
  using Clock = std::chrono::steady_clock;
  const auto since_ns = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
  };
  const auto t_build = Clock::now();
  if (!ext && !cache_hit) {
    choose_boundaries(list, want - 1, ws, list.find_tail());
    // Sublist heads: the whole-list head plus each pick's successor. A
    // pick whose successor is itself a tail yields a single-vertex
    // sublist.
    ws.fit_uninit(ws.heads, want);
    ws.heads.clear();
    ws.heads.push_back(list.head);
    for (const index_t r : ws.picks) ws.heads.push_back(list.next[r]);
    // A value missing the 32-bit lane repacks the same decomposition into
    // wide records -- still the packed kernels, never a wrong answer.
    if (!wide) wide = !build_packed<packed_t, kOnes>(list, threads, ws, ran);
    if (wide) build_packed<HotWide, kOnes>(list, threads, ws, ran);
    key.wide = wide;
    ws.packed_cache_store(key);
  }
  // Slab pointers: the shared slab when installed, the workspace's own
  // otherwise. Resolved after the build section -- ws.heads and the slab
  // buffer may have reallocated during it.
  const packed_t* words = ext ? ext->words.data() : ws.slab<packed_t>();
  const HotWide* records = ws.slab<HotWide>();
  const index_t* heads = ext ? ext->heads.data() : ws.heads.data();
  const std::size_t k = ext ? ext->heads.size() : ws.heads.size();
  info.build_ns = (ext || cache_hit) ? 0.0 : since_ns(t_build);

  // Runs the cursor driver over whichever record width the slab holds.
  const auto cursors = [&](auto init, auto step, auto finish) {
    ran = std::min(
        ran, wide ? interleave_sublists(records, heads, k, threads, W, init,
                                        step, finish)
                  : interleave_sublists(words, heads, k, threads, W, init,
                                        step, finish));
  };

  // Phase 1: per-sublist inclusive sums; record each sublist's tail.
  const auto t_phase1 = Clock::now();
  ws.fit(ws.sums, k, Op::identity());
  ws.fit(ws.tails, k, kNoVertex);
  cursors([&](std::size_t) { return Op::identity(); },
          [&](index_t, const auto& w, value_t& acc) {
            acc = op(acc, hot_value(w));
          },
          [&](index_t j, index_t v, value_t acc) {
            ws.sums[j] = acc;
            ws.tails[j] = v;
          });
  info.phase1_ns = since_ns(t_phase1);

  // Phase 2: order the sublists by chaining tail -> successor head (a
  // serial O(k) pointer-chase through the O(k) head-ownership table),
  // then exclusive-scan their sums in that order. Large sublist counts
  // scan blocked across the workers: contiguous prefixes of the order
  // reduce in parallel, a serial pass turns the block sums into block
  // offsets, and the workers expand their blocks -- combine order is
  // preserved throughout, so associativity alone (no commutativity)
  // keeps the non-commutative operators bit-exact. Successor links come
  // from the SLAB, never the live list: a cache-hit run then reads only
  // the self-consistent snapshot taken at build time, so a caller
  // mutating the list between the runs of a batch (e.g. after an earlier
  // future resolved) gets the coherent as-of-build answer instead of a
  // stale/live mix.
  const auto t_phase2 = Clock::now();
  ws.owner_begin(k);
  for (std::size_t j = 0; j < k; ++j)
    ws.owner_set(heads[j], static_cast<index_t>(j));
  ws.fit_uninit(ws.order, k);
  ws.order.clear();
  {
    std::size_t j = 0;  // the first sublist starts at the list head
    for (std::size_t seen = 0; seen < k; ++seen) {
      ws.order.push_back(static_cast<index_t>(j));
      const index_t t = ws.tails[j];
      const index_t nt = wide ? hot_link(records[t]) : hot_link(words[t]);
      if (nt == t) break;  // the global tail ends the chain
      const index_t owner = ws.owner_get(nt);
      if (owner == kNoVertex) break;  // defensive: malformed snapshot
      j = owner;
    }
  }
  // Sublists a malformed snapshot left out of the chain keep identity.
  ws.fit(ws.headscan, k, Op::identity());
  const std::size_t ordered = ws.order.size();
  if (threads > 1 && ordered >= kPhase2MinParallelSublists) {
    info.phase2_parallel = true;
    const std::size_t blocks = threads;
    ws.fit(ws.block_sums, blocks, Op::identity());
    ran = std::min(ran, claim_blocks(threads, blocks, [&](std::size_t b) {
      const auto [begin, end] = block_range(ordered, blocks, b);
      value_t acc = Op::identity();
      for (std::size_t i = begin; i < end; ++i)
        acc = op(acc, ws.sums[ws.order[i]]);
      ws.block_sums[b] = acc;
    }));
    value_t acc = Op::identity();  // block sums -> exclusive block offsets
    for (std::size_t b = 0; b < blocks; ++b) {
      const value_t sum = ws.block_sums[b];
      ws.block_sums[b] = acc;
      acc = op(acc, sum);
    }
    ran = std::min(ran, claim_blocks(threads, blocks, [&](std::size_t b) {
      const auto [begin, end] = block_range(ordered, blocks, b);
      value_t acc = ws.block_sums[b];
      for (std::size_t i = begin; i < end; ++i) {
        const index_t j = ws.order[i];
        ws.headscan[j] = acc;
        acc = op(acc, ws.sums[j]);
      }
    }));
  } else {
    value_t acc = Op::identity();
    for (std::size_t i = 0; i < ordered; ++i) {
      const index_t j = ws.order[i];
      ws.headscan[j] = acc;
      acc = op(acc, ws.sums[j]);
    }
  }
  info.phase2_ns = since_ns(t_phase2);

  // Phase 3: expand each sublist from its head's scan value.
  const auto t_phase3 = Clock::now();
  value_t* o = out.data();
  cursors([&](std::size_t j) { return ws.headscan[j]; },
          [&](index_t v, const auto& w, value_t& acc) {
            o[v] = acc;
            acc = op(acc, hot_value(w));
          },
          [](index_t, index_t, value_t) {});
  info.phase3_ns = since_ns(t_phase3);

  info.interleave = W;
  info.threads = ran;
  info.wide = wide;
  info.packed_cached = cache_hit || ext != nullptr;
  info.sublists = k;
  info.tier = KernelTier::kPackedCursors;
  return info;
}

/// Exclusive list rank into `out`: the all-ones scan without ever
/// materializing a ones copy -- the slab's value lane is the constant 1
/// and the serial fallback writes positions directly. Correct for any
/// plan.
inline ExecInfo rank_into(const LinkedList& list, const HostPlan& plan,
                          Workspace& ws, std::span<value_t> out) {
  return scan_into<OpPlus, /*kOnes=*/true>(list, OpPlus{}, plan, ws, out);
}

}  // namespace lr90::host_exec
