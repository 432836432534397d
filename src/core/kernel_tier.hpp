// lr90::KernelTier -- the host kernel-family axis of the public API.
//
// Lives in its own header (included and re-exported by core/engine.hpp,
// where the rest of the Engine API is declared) so the execution kernel
// layer (core/host_exec.hpp) can name tiers without depending on the
// Engine facade.
#pragma once

namespace lr90 {

/// How the host walked the list in its hot phases (1 + 3): over the packed
/// slab with W cursors, or as a plain walk. One kernel family remains, so
/// this reports what ran (Planner::Decision::tier, RunStats::kernel_tier)
/// and selects nothing: every EngineOptions::tier pin plans the same.
enum class KernelTier {
  kAuto,  ///< the default; reported when no host kernel ran (empty list)
  /// A plain walk over the list arrays, no slab: the serial walk, or the
  /// per-shard segment walks of a sharded run.
  kLegacy,
  kPackedCursors,  ///< packed slab (either width) + W prefetching cursors
  /// Never produced; a pin plans kPackedCursors. Kept for lr90bench.
  kSimdGather,
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
