// The paper's single-gather encoding for list ranking (Section 3, Phase 1):
//
//   "we encode the link and value data for a vertex into a w-bit integer
//    value, which we can do as long as the list length (and therefore the
//    maximum rank) is no more than 2^(w/2)."
//
// The Cray C90 can issue only one gather or scatter at a time, so halving
// the gathers in the dominant traversal loops nearly halves their cost
// (T_InitialScan drops from 3.4x+35 to the rank kernel's 2.1x+30).
//
// Encoding: word = (link << 32) | (value & 0xffffffff). Values must fit in
// an unsigned 32-bit lane; for ranking they are 0 or 1 and partial sums stay
// below n <= 2^32.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "lists/linked_list.hpp"
#include "support/cpu_features.hpp"

#if LR90_SIMD_GATHER_COMPILED
#include <immintrin.h>
#endif

namespace lr90 {

using packed_t = std::uint64_t;

inline constexpr unsigned kPackShift = 32;
inline constexpr packed_t kPackValueMask = 0xffffffffULL;

inline packed_t pack_link_value(index_t link, std::uint32_t value) {
  return (static_cast<packed_t>(link) << kPackShift) |
         static_cast<packed_t>(value);
}
inline index_t packed_link(packed_t w) {
  return static_cast<index_t>(w >> kPackShift);
}
inline std::uint32_t packed_value(packed_t w) {
  return static_cast<std::uint32_t>(w & kPackValueMask);
}

// -- the host hot-path word ("tail-flag-in-word") ---------------------------
//
// The host traversal kernels (core/host_exec.hpp) extend the single-gather
// idea with the per-run sublist-tail flag, stolen from the top bit of the
// link lane (links only need 31 bits, bounding n by 2^31 on this path):
//
//   word = (is_sublist_tail << 63) | (next << 32) | (value & 0xffffffff)
//
// so the inner loop issues exactly ONE random load per element -- link,
// value, and stop condition arrive together, where the seed kernel paid a
// dependent load on `next`, a second gather on `value`, and a third random
// access into the `is_tail` bitmap. The value lane is the low 32 bits of
// value_t, reread back sign-extended; a list qualifies only when every
// value round-trips (hot_value_fits).

/// The sublist-tail flag bit of a hot word.
inline constexpr packed_t kHotTailBit = 0x8000000000000000ULL;
/// Mask of the 31-bit link lane (bits 32..62).
inline constexpr packed_t kHotLinkMask = 0x7fffffffULL;
/// The largest list the hot path can encode (links must fit 31 bits).
inline constexpr std::size_t kHotMaxVertices = std::size_t{1} << 31;

/// Packs (sublist-tail flag, link, value lane) into one hot word.
inline constexpr packed_t hot_pack(bool tail, index_t link,
                                   std::uint32_t value) {
  return (tail ? kHotTailBit : 0) |
         ((static_cast<packed_t>(link) & kHotLinkMask) << kPackShift) |
         static_cast<packed_t>(value);
}
/// True iff the word's vertex ends its sublist.
inline constexpr bool hot_tail(packed_t w) { return (w & kHotTailBit) != 0; }
/// The word's successor index.
inline constexpr index_t hot_link(packed_t w) {
  return static_cast<index_t>((w >> kPackShift) & kHotLinkMask);
}
/// The word's value lane, sign-extended back to value_t.
inline constexpr value_t hot_value(packed_t w) {
  return static_cast<value_t>(
      static_cast<std::int32_t>(static_cast<std::uint32_t>(w)));
}
/// True iff `v` survives the lane round-trip (fits a signed 32-bit lane).
inline constexpr bool hot_value_fits(value_t v) {
  return v == static_cast<value_t>(static_cast<std::int32_t>(
                  static_cast<std::uint32_t>(v)));
}

/// Packs hot words for the index range [begin, end): the per-thread unit
/// of the parallel slab build (core/host_exec.hpp build_packed). `value`
/// == nullptr packs the constant 1 into every value lane (ranking).
/// Returns false -- packed contents of the range unspecified -- if any
/// value misses the signed 32-bit lane; always true when ranking. The
/// pass is branch-light and sequential over the range, so per-thread
/// ranges stream independently at full bandwidth.
inline bool hot_pack_range(const index_t* next, const value_t* value,
                           const std::uint8_t* is_tail, packed_t* out,
                           std::size_t begin, std::size_t end) {
  bool ok = true;
  for (std::size_t i = begin; i < end; ++i) {
    const value_t v = value == nullptr ? value_t{1} : value[i];
    ok = ok && hot_value_fits(v);
    out[i] = hot_pack(is_tail[i] != 0, next[i],
                      static_cast<std::uint32_t>(static_cast<std::uint64_t>(v)));
  }
  return ok;
}

#if LR90_SIMD_GATHER_COMPILED
/// AVX2 flavour of hot_pack_range: packs four hot words per iteration --
/// links widen/mask/shift, value lanes mask, tail flags turn into bit 63,
/// all in vector registers -- with the same contract (false if any value
/// misses the signed 32-bit lane; `value` == nullptr packs the constant
/// 1). Compiled into every binary behind the target attribute; callers
/// must gate on simd_gather_available() at run time. The < 4-element
/// remainder reuses the scalar pass.
LR90_TARGET_AVX2 inline bool hot_pack_range_simd(
    const index_t* next, const value_t* value, const std::uint8_t* is_tail,
    packed_t* out, std::size_t begin, std::size_t end) {
  const __m256i link_mask = _mm256_set1_epi64x(
      static_cast<long long>(kHotLinkMask));
  const __m256i val_mask = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i tail_bit = _mm256_set1_epi64x(
      static_cast<long long>(kHotTailBit));
  const __m256i ones = _mm256_set1_epi64x(1);
  const __m256i zero = _mm256_setzero_si256();
  // Lane picker: the low 32 bits of each 64-bit lane, packed to the low
  // 128 bits (indices 0,2,4,6 of the eight 32-bit lanes).
  const __m256i pick_even = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  __m256i ok = _mm256_set1_epi64x(-1);
  std::size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m128i nx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(next + i));
    const __m256i link =
        _mm256_and_si256(_mm256_cvtepu32_epi64(nx), link_mask);
    __m256i v;
    if (value == nullptr) {
      v = ones;
    } else {
      v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(value + i));
      // The lane-fit check: v must equal the sign-extension of its low
      // 32 bits (hot_value_fits, four at a time).
      const __m256i lo = _mm256_permutevar8x32_epi32(v, pick_even);
      const __m256i sext =
          _mm256_cvtepi32_epi64(_mm256_castsi256_si128(lo));
      ok = _mm256_and_si256(ok, _mm256_cmpeq_epi64(v, sext));
    }
    std::uint32_t t4;  // four boundary-bitmap bytes -> four bit-63 flags
    std::memcpy(&t4, is_tail + i, sizeof t4);
    const __m256i tails =
        _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(t4)));
    const __m256i tail_mask =
        _mm256_and_si256(_mm256_cmpgt_epi64(tails, zero), tail_bit);
    const __m256i w = _mm256_or_si256(
        tail_mask, _mm256_or_si256(_mm256_slli_epi64(link, 32),
                                   _mm256_and_si256(v, val_mask)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), w);
  }
  bool all_fit =
      value == nullptr ||
      _mm256_movemask_epi8(ok) == -1;
  if (i < end) all_fit = hot_pack_range(next, value, is_tail, out, i, end) && all_fit;
  return all_fit;
}
#endif  // LR90_SIMD_GATHER_COMPILED

// -- the wide hot record ----------------------------------------------------
//
// The hot word only has room for a 32-bit value lane. Operators whose
// values need all 64 bits (seg-sum, affine, max-plus: lists/ops.hpp
// kOpLane32 is false), and lane-capable scans whose values miss the lane
// at run time, keep the single gather by widening it instead:
//
//   record = { u32 link, u32 tail flag, i64 value }   (16 bytes, aligned)
//
// The 16-byte alignment keeps every record inside one cache line, so a hop
// is still ONE random load -- a 128-bit one -- carrying link, value and
// stop condition together. Same kernels, same slab buffer, twice the
// bytes per vertex. The accessors overload hot_link/hot_tail/hot_value so
// the traversal driver (core/host_exec.hpp interleave_sublists) is one
// template over both record widths.

/// One vertex of the wide single-gather slab.
struct alignas(16) HotWide {
  std::uint32_t link;  ///< successor index
  std::uint32_t tail;  ///< nonzero iff the vertex ends its sublist
  value_t value;       ///< the vertex's full 64-bit value
};
static_assert(sizeof(HotWide) == 16 && alignof(HotWide) == 16,
              "a wide record must fill exactly one aligned 16-byte slot");

/// True iff the record's vertex ends its sublist.
inline constexpr bool hot_tail(const HotWide& r) { return r.tail != 0; }
/// The record's successor index.
inline constexpr index_t hot_link(const HotWide& r) { return r.link; }
/// The record's value, all 64 bits.
inline constexpr value_t hot_value(const HotWide& r) { return r.value; }

/// Wide-record flavour of hot_pack_range over [begin, end): same
/// arguments, but every value fits, so it always returns true.
inline bool hot_pack_range(const index_t* next, const value_t* value,
                           const std::uint8_t* is_tail, HotWide* out,
                           std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i)
    out[i] = HotWide{next[i], is_tail[i], value == nullptr ? 1 : value[i]};
  return true;
}

/// True iff every value of `list` fits the 32-bit value lane and n itself
/// cannot overflow a 32-bit partial rank (the paper's n <= 2^(w/2) bound).
bool can_encode(const LinkedList& list);

/// Packs (next, value) per vertex into one 64-bit word each.
std::vector<packed_t> encode_list(const LinkedList& list);

/// Reverses encode_list; `head` must be supplied (it is not encoded).
LinkedList decode_list(const std::vector<packed_t>& packed, index_t head);

}  // namespace lr90
