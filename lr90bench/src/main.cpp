// lr90bench -- the listrank90 end-to-end benchmark, one workload per run.
//
//   lr90bench --workload <bulk-random|tcp-snapshot|out-of-core>
//             --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//             [--git-sha <sha>]
//
// Prints provenance, diagnostics and every metric by name with its unit,
// then, as the last line, one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// (from spans and the library's public counters) with --trace 1. A failed
// operation -- a wrong answer, a typed error, a transport error -- exits 1
// without a result line, and so does an end-to-end metric that was not
// measured; a build or environment whose numbers would not be comparable
// (unoptimised, LR90_FORCE_SCALAR, an armed fault site) is refused with
// exit 3.
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.hpp"
#include "support/cpu_features.hpp"
#include "support/faultpoint.hpp"

#ifdef LISTRANK90_HAVE_OPENMP
#include <omp.h>
#endif

#ifndef LR90BENCH_BUILD_TYPE
#define LR90BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace lr90bench;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, printed with --trace 0 on every workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"idle_latency_p50_ms", "ms"},
    {"idle_latency_p75_ms", "ms"},
    {"loaded_req_per_s", "req/s"},
    {"loaded_latency_p50_ms", "ms"},
    {"loaded_latency_p75_ms", "ms"},
    {"rank_ns_per_elem", "ns"},
    {"lane32_scan_ns_per_elem", "ns"},
    {"wide_scan_ns_per_elem", "ns"},
};

/// The per-layer metrics, printed with --trace 1 on every workload; a
/// metric whose layer call is not on a workload's path reads 0 there.
std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> defs = {
      {"net.client_encode_us", "us"},
      {"net.client_decode_us", "us"},
      {"net.server_decode_us", "us"},
      {"net.server_encode_us", "us"},
      {"net.transport_us", "us"},
      {"net.bytes_per_req", "bytes"},
      {"net.retry_after", "count"},
      {"net.protocol_errors", "count"},
      {"net.busiest_thread_cpu_frac", "ratio"},
      {"serve.handoff_us", "us"},
      {"serve.batch_mean", "count"},
      {"serve.collapsed", "count"},
      {"serve.queue_depth_hwm", "count"},
      {"serve.result_hit_ratio", "ratio"},
      {"serve.slab_hit_ratio", "ratio"},
      {"serve.result_evictions", "count"},
      {"serve.slab_evictions", "count"},
      {"serve.engine_runs_per_req", "ratio"},
      {"serve.update_us", "us"},
      {"serve.rejected", "count"},
      {"serve.stale_rejections", "count"},
      {"serve.deadline_expired", "count"},
      {"core.engine_run_us", "us"},
  };
  // core.<class>.<field> for every request class.
  constexpr MetricDef kPerClass[] = {
      {"build_ns_per_elem", "ns"},  {"phase1_ns_per_elem", "ns"},
      {"phase2_ns_per_elem", "ns"}, {"phase3_ns_per_elem", "ns"},
      {"parallel_frac", "ratio"},   {"legacy_runs", "count"},
      {"packed_runs", "count"},     {"simd_runs", "count"},
      {"threads", "count"},         {"interleave", "count"},
  };
  static std::vector<std::string> names;  // storage behind defs' names
  if (names.empty())
    for (OpClass c : kOpClasses)
      for (const MetricDef& f : kPerClass)
        names.push_back(std::string("core.") + op_class_name(c) + "." +
                        f.name);
  for (std::size_t i = 0; i < names.size(); ++i)
    defs.push_back({names[i].c_str(), kPerClass[i % std::size(kPerClass)].unit});
  const MetricDef tail[] = {
      {"analysis.auto_plan_regret", "ratio"},
      {"lists.validate_us", "us"},
      {"shard.count", "count"},
      {"shard.segments", "count"},
      {"shard.loads", "count"},
      {"shard.spills", "count"},
      {"shard.prefetch_hit_ratio", "ratio"},
      {"shard.degraded", "count"},
      {"shard.corrupt_slabs", "count"},
      {"shard.repacks", "count"},
      {"proc.cpu_s_per_req", "s"},
      {"trace.overhead_us", "us"},
  };
  defs.insert(defs.end(), std::begin(tail), std::end(tail));
  return defs;
}

/// Why numbers from this build or environment must not be compared, or
/// "" when they may.
std::string refusal() {
#ifndef __OPTIMIZE__
  return "the benchmark was built without optimisation";
#endif
  if (lr90::cpu_features().forced_scalar)
    return "LR90_FORCE_SCALAR is set: the SIMD kernel tier is disabled";
  if (lr90::fault::enabled()) return "fault injection is enabled";
  for (const lr90::fault::FaultSite* site : lr90::fault::registered_sites())
    if (site->armed())
      return std::string("fault site ") + site->name() + " is armed";
  return "";
}

/// CPU time the hypervisor gave to other guests, summed over every CPU
/// (the "steal" column of /proc/stat), in seconds; 0 when unavailable.
double steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  return got == 8 ? static_cast<double>(v[7]) /
                        static_cast<double>(sysconf(_SC_CLK_TCK))
                  : 0.0;
}

long cache_bytes(int level) {
  const std::string path = "/sys/devices/system/cpu/cpu0/cache/index" +
                           std::to_string(level) + "/size";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  long kb = 0;
  char unit = 'K';
  const int got = std::fscanf(f, "%ld%c", &kb, &unit);
  std::fclose(f);
  if (got < 1) return 0;
  return unit == 'M' ? kb << 20 : kb << 10;
}

void print_provenance(const RunConfig& cfg, const std::string& sha,
                      const Report& rep) {
  const lr90::CpuFeatures& cpu = lr90::cpu_features();
#ifdef LISTRANK90_HAVE_OPENMP
  const int omp_threads = omp_get_max_threads();
#else
  const int omp_threads = 0;
#endif
#ifdef __OPTIMIZE__
  const bool optimised = true;
#else
  const bool optimised = false;
#endif
  // cache index 2 is L2 and index 3 is L3 on x86 (0/1 are L1d/L1i).
  std::printf(
      "# provenance {\"git_sha\":\"%s\",\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"optimised\":%s,\"openmp_threads\":%d,"
      "\"nproc\":%u,\"l2_bytes\":%ld,\"l3_bytes\":%ld,"
      "\"kernel_tier\":\"%s\",\"avx2\":%s,\"avx512f\":%s,"
      "\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"working_set_bytes\":%llu}\n",
      sha.c_str(), __VERSION__, LR90BENCH_BUILD_TYPE,
      optimised ? "true" : "false", omp_threads,
      std::thread::hardware_concurrency(), cache_bytes(2), cache_bytes(3),
      lr90::simd_gather_available() ? "simd-gather" : "packed-cursors",
      cpu.avx2 ? "true" : "false", cpu.avx512f ? "true" : "false",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.seconds, cfg.trace ? 1 : 0,
      static_cast<unsigned long long>(rep.working_set_bytes));
}

int usage(const char* why) {
  std::fprintf(stderr,
               "lr90bench: %s\nusage: lr90bench --workload <bulk-random|"
               "tcp-snapshot|out-of-core> --seed <n> --seconds <s> "
               "--trace <0|1> --scratch <dir> [--git-sha <sha>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = v;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(v, &end);
      if (*end != '\0' || cfg.seconds <= 0) return usage("bad --seconds");
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        return usage("--trace takes 0 or 1");
      cfg.trace = v[0] == '1';
    } else if (arg == "--scratch") {
      cfg.scratch = v;
    } else if (arg == "--git-sha") {
      sha = v;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (cfg.scratch.empty()) return usage("--scratch is required");
  Report (*run)(const RunConfig&) = nullptr;
  if (cfg.workload == "bulk-random") run = run_bulk_random;
  if (cfg.workload == "tcp-snapshot") run = run_tcp_snapshot;
  if (cfg.workload == "out-of-core") run = run_out_of_core;
  if (run == nullptr) return usage("unknown --workload");

  if (const std::string why = refusal(); !why.empty()) {
    std::fprintf(stderr, "lr90bench: refusing to measure: %s\n", why.c_str());
    return 3;
  }
  // Spill files of the out-of-core workload go under the scratch
  // directory, not the system temp dir.
  const std::string tmp = cfg.scratch + "/tmp";
  ::mkdir(cfg.scratch.c_str(), 0755);
  ::mkdir(tmp.c_str(), 0755);
  ::setenv("TMPDIR", tmp.c_str(), 1);

  const double steal0 = steal_s(), wall0 = now_s();
  Report rep = run(cfg);
  print_provenance(cfg, sha, rep);
  // Other tenants' load is the main source of run-to-run spread.
  std::printf("# cpu steal during the run: %.2f s of %.1f s x %u cpus\n",
              steal_s() - steal0, now_s() - wall0,
              std::thread::hardware_concurrency());
  for (const std::string& n : rep.notes) std::printf("# %s\n", n.c_str());
  const double fail_ratio =
      rep.attempted > 0 ? static_cast<double>(rep.failed) /
                              static_cast<double>(rep.attempted)
                        : 1.0;
  std::printf("# attempted=%llu failed=%llu retries=%llu fail_ratio=%.6g\n",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.retries), fail_ratio);
  // A run with any failed operation prints no numbers: a request class
  // whose requests all failed would otherwise read as infinitely fast.
  if (rep.attempted == 0 || rep.failed > 0) {
    std::fprintf(stderr, "lr90bench: %s; no result printed\n",
                 rep.attempted == 0  ? "no operation completed"
                 : rep.mismatches > 0 ? "wrong answers"
                                      : "operations failed");
    return 1;
  }

  std::vector<MetricDef> defs;
  if (cfg.trace)
    defs = per_layer_defs();
  else
    defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  std::string json;
  for (const MetricDef& d : defs) {
    auto it = rep.metrics.find(d.name);
    // Every end-to-end metric is a positive measurement; 0 would only
    // mean that nothing was measured.
    const bool measured = it != rep.metrics.end() &&
                          std::isfinite(it->second.value) &&
                          it->second.value > 0.0;
    if (!cfg.trace && !measured) {
      std::fprintf(stderr, "lr90bench: %s was not measured\n", d.name);
      return 1;
    }
    if (it == rep.metrics.end()) {
      it = rep.metrics.emplace(d.name, Metric{0.0, d.unit}).first;
      std::printf("# %s: not on this workload's path\n", d.name);
    }
    std::printf("metric %-36s %.10g %s\n", d.name, it->second.value, d.unit);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", d.name, it->second.value, d.unit);
    json += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              rep.failed == 0 && rep.mismatches == 0 ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed), json.c_str());
  return 0;
}
