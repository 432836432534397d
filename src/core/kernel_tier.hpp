// lr90::KernelTier -- the host kernel-family axis of the public API.
//
// Lives in its own header (included and re-exported by core/engine.hpp,
// where the rest of the Engine API is declared) so the execution kernel
// layer (core/host_exec.hpp) can name tiers without depending on the
// Engine facade.
#pragma once

namespace lr90 {

/// Which host traversal kernel family serves the hot phases (1 + 3). The
/// Planner resolves kAuto per run; Planner::Decision::tier and
/// RunStats::kernel_tier report what was planned and what actually ran (a
/// run can downgrade: kSimdGather drops to kPackedCursors on CPUs without
/// usable AVX2 and whenever the slab holds 16-byte wide records -- a
/// 64-bit operator, or a value missing the 32-bit lane -- typed
/// fallbacks, never a wrong answer).
enum class KernelTier {
  kAuto,           ///< Planner's pick from the cost model + CPUID
  /// A plain walk over the list arrays, no slab: the serial walk, or the
  /// per-shard segment walks of a sharded run. Reported only: as an
  /// EngineOptions::tier pin it selects nothing (it plans like
  /// kPackedCursors).
  kLegacy,
  kPackedCursors,  ///< packed slab (either width) + W prefetching cursors
  kSimdGather,     ///< packed slab + AVX2 vector gather (VL=64's literal analog)
};

/// Short stable name of `t` ("auto", "legacy", "packed-cursors",
/// "simd-gather") for tables/CLIs/STATS text.
inline constexpr const char* kernel_tier_name(KernelTier t) {
  switch (t) {
    case KernelTier::kAuto: return "auto";
    case KernelTier::kLegacy: return "legacy";
    case KernelTier::kPackedCursors: return "packed-cursors";
    case KernelTier::kSimdGather: return "simd-gather";
  }
  return "?";
}

}  // namespace lr90
