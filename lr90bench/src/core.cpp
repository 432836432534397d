// Engine-level measurement shared by every workload: checked runs, the
// core and shard per-layer metrics read from RunStats, and the planner
// regret probe.
#include <cstdio>
#include <thread>

#include "common.hpp"
#include "support/cpu_features.hpp"

namespace lr90bench {

using lr90::Engine;
using lr90::EngineOptions;
using lr90::KernelTier;
using lr90::RunResult;

double median_of(const std::vector<CoreSample>& v, OpClass c,
                 double (*f)(const CoreSample&)) {
  std::vector<double> xs;
  for (const CoreSample& s : v)
    if (op_class(s.kind) == c) xs.push_back(f(s));
  return percentile(xs, 50.0);
}

CoreRun run_core(Engine& engine, const OrderedList& input, const OpKind& k) {
  lr90::Request req;
  req.list = &input.list;
  req.rank = k.rank;
  req.op = k.op;
  CoreRun run;
  const double t0 = now_s();
  run.result = engine.run(req);
  run.sample = CoreSample{k, now_s() - t0, run.result.stats};
  return run;
}

bool check_core(const OrderedList& input, const CoreRun& run, Report& rep) {
  const OpKind& k = run.sample.kind;
  ++rep.attempted;
  if (!run.result.ok()) {
    ++rep.failed;
    rep.note(op_kind_name(k) + " failed: " + run.result.status.message);
    return false;
  }
  if (const std::uint64_t bad = count_mismatches(input, k, run.result.scan)) {
    ++rep.failed;
    ++rep.mismatches;
    rep.note(op_kind_name(k) + ": " + std::to_string(bad) +
             " vertices differ from the serial oracle");
    return false;
  }
  return true;
}

double auto_plan_regret(const OrderedList& input, const EngineOptions& base,
                        int reps, Report& rep) {
  // Median rank time of one configuration after a warm-up run; 0 when a
  // run fails.
  const auto rank_time = [&](const EngineOptions& o) {
    Engine e(o);
    std::vector<double> times;
    for (int i = 0; i <= reps; ++i) {
      const CoreRun run = run_core(e, input, OpKind{});
      if (!check_core(input, run, rep)) return 0.0;
      if (i > 0) times.push_back(run.sample.wall_s);
    }
    return percentile(times, 50.0);
  };
  const double auto_s = rank_time(base);
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<KernelTier> tiers{KernelTier::kPackedCursors};
  if (lr90::simd_gather_available()) tiers.push_back(KernelTier::kSimdGather);
  double best = 0.0;
  std::string best_name;
  for (KernelTier tier : tiers) {
    for (unsigned w : {8u, 16u, 32u}) {
      EngineOptions o = base;
      o.tier = tier;
      o.threads = threads;
      o.interleave = w;
      const double t = rank_time(o);
      if (t > 0.0 && (best == 0.0 || t < best)) {
        best = t;
        best_name = std::string(lr90::kernel_tier_name(tier)) + " T=" +
                    std::to_string(threads) + " W=" + std::to_string(w);
      }
    }
  }
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "analysis: auto-plan rank %.4g ms, best pinned (%s) %.4g ms",
                auto_s * 1e3, best_name.c_str(), best * 1e3);
  rep.note(buf);
  return best > 0.0 ? auto_s / best : 0.0;
}

void core_layer_metrics(const std::vector<CoreSample>& samples, std::size_t n,
                   Report& rep) {
  const double dn = static_cast<double>(n);
  std::vector<double> run_us;
  for (const CoreSample& s : samples) run_us.push_back(s.wall_s * 1e6);
  rep.set("core.engine_run_us", percentile(run_us, 50.0), "us");
  for (OpClass c : kOpClasses) {
    const std::string p = std::string("core.") + op_class_name(c) + ".";
    const auto per_elem = [&](double (*f)(const CoreSample&)) {
      return median_of(samples, c, f) / dn;
    };
    rep.set(p + "build_ns_per_elem",
            per_elem([](const CoreSample& s) { return s.stats.host_build_ns; }),
            "ns");
    rep.set(p + "phase1_ns_per_elem",
            per_elem([](const CoreSample& s) { return s.stats.host_phase1_ns; }),
            "ns");
    rep.set(p + "phase2_ns_per_elem",
            per_elem([](const CoreSample& s) { return s.stats.host_phase2_ns; }),
            "ns");
    rep.set(p + "phase3_ns_per_elem",
            per_elem([](const CoreSample& s) { return s.stats.host_phase3_ns; }),
            "ns");
    rep.set(p + "parallel_frac",
            median_of(samples, c,
                      [](const CoreSample& s) { return s.stats.host_parallel_frac; }),
            "ratio");
    rep.set(p + "threads",
            median_of(samples, c,
                      [](const CoreSample& s) {
                        return static_cast<double>(s.stats.host_threads);
                      }),
            "count");
    rep.set(p + "interleave",
            median_of(samples, c,
                      [](const CoreSample& s) {
                        return static_cast<double>(s.stats.host_interleave);
                      }),
            "count");
    double legacy = 0, packed = 0, simd = 0;
    for (const CoreSample& s : samples) {
      if (op_class(s.kind) != c) continue;
      legacy += s.stats.kernel_tier == KernelTier::kLegacy ? 1 : 0;
      packed += s.stats.kernel_tier == KernelTier::kPackedCursors ? 1 : 0;
      simd += s.stats.kernel_tier == KernelTier::kSimdGather ? 1 : 0;
    }
    rep.set(p + "legacy_runs", legacy, "count");
    rep.set(p + "packed_runs", packed, "count");
    rep.set(p + "simd_runs", simd, "count");
  }

  // Shard counters: per-request means, the prefetch ratio over all loads,
  // and totals for the failure-path counters (0 on a healthy run).
  double count = 0, segments = 0, loads = 0, spills = 0, hits = 0;
  double degraded = 0, corrupt = 0, repacks = 0;
  for (const CoreSample& s : samples) {
    count += s.stats.shard_count;
    segments += static_cast<double>(s.stats.shard_segments);
    loads += static_cast<double>(s.stats.shard_loads);
    spills += static_cast<double>(s.stats.shard_spills);
    hits += static_cast<double>(s.stats.shard_prefetch_hits);
    degraded += static_cast<double>(s.stats.shard_degraded);
    corrupt += static_cast<double>(s.stats.shard_corrupt_slabs);
    repacks += static_cast<double>(s.stats.shard_repacks);
  }
  const double reqs = std::max<double>(1.0, samples.size());
  rep.set("shard.count", count / reqs, "count");
  rep.set("shard.segments", segments / reqs, "count");
  rep.set("shard.loads", loads / reqs, "count");
  rep.set("shard.spills", spills / reqs, "count");
  rep.set("shard.prefetch_hit_ratio", loads > 0 ? hits / loads : 0.0,
          "ratio");
  rep.set("shard.degraded", degraded, "count");
  rep.set("shard.corrupt_slabs", corrupt, "count");
  rep.set("shard.repacks", repacks, "count");
}

}  // namespace lr90bench
