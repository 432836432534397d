#include "support/cpu_features.hpp"

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#include <cpuid.h>
#define LR90_HAVE_CPUID 1
#endif

namespace lr90 {

namespace {

/// XCR0 via xgetbv: which register state the OS actually saves/restores.
/// AVX needs bits 1+2 (XMM+YMM); AVX-512 additionally bits 5..7
/// (opmask + the ZMM halves). CPUID alone is not enough -- a kernel
/// booted with AVX disabled leaves the bits clear.
#if defined(LR90_HAVE_CPUID)
unsigned long long read_xcr0() {
  unsigned eax = 0, edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<unsigned long long>(edx) << 32) | eax;
}
#endif

CpuFeatures probe() {
  CpuFeatures f;
#if defined(LR90_HAVE_CPUID)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;
  const bool osxsave = (ecx & (1u << 27)) != 0;  // xgetbv is legal
  const bool avx = (ecx & (1u << 28)) != 0;
  if (!osxsave || !avx) return f;
  const unsigned long long xcr0 = read_xcr0();
  const bool ymm_saved = (xcr0 & 0x6) == 0x6;  // XMM + YMM state
  if (!ymm_saved) return f;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return f;
  f.avx2 = (ebx & (1u << 5)) != 0;
  const bool avx512f = (ebx & (1u << 16)) != 0;
  const bool zmm_saved = (xcr0 & 0xe6) == 0xe6;  // + opmask, ZMM halves
  f.avx512f = avx512f && zmm_saved;
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = probe();  // magic static: thread-safe
  return f;
}

}  // namespace lr90
