// CPU-feature probe, kept for run provenance (benchmarks print which
// vector extensions the machine had when it produced a number). No kernel
// dispatches on it: the host hot path is one scalar multi-cursor family
// (core/host_exec.hpp) on every machine.
#pragma once

namespace lr90 {

/// What the running CPU (and OS) can execute, probed once via CPUID.
struct CpuFeatures {
  /// AVX2 present and the OS saves YMM state (XCR0 bits 1+2).
  bool avx2 = false;
  /// AVX-512F present and the OS saves ZMM state (XCR0 bits 5..7) too.
  bool avx512f = false;
  /// Always false: kept for lr90bench's provenance check.
  bool forced_scalar = false;
};

/// The probed features of this process's CPU (cached after the first
/// call; thread-safe).
const CpuFeatures& cpu_features();

/// Always false: the SIMD gather tier is gone; kept for lr90bench.
inline bool simd_gather_available() { return false; }

}  // namespace lr90
