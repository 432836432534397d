// The in-process workloads: one caller drives lr90::Engine directly, so
// core, lists, analysis and (out-of-core) shard do the work while the
// serve and net layers are bypassed.
//
//   bulk-random  random_list(2^24), default EngineOptions
//   out-of-core  blocked_list(2^24, 8192) under a shard byte budget of
//                about two shards, so the spill tier streams the rest
//
// Both run the same closed loop of whole request cycles -- four ranks,
// three 32-bit-lane scans and one wide scan, the scans rotating through
// their operators -- until the timed calls add up to --seconds. Whole
// cycles keep the mix, and with it the p50/p75 of the mixed latency
// sample, the same on every run; the one wide scan per cycle leaves most
// of the time to the shorter requests, which need more samples for a
// steady median.
// Every answer is checked against the serial oracle outside the timed
// call.
#include <memory>

#include "common.hpp"
#include "shard/shard_file.hpp"

namespace lr90bench {
namespace {

using lr90::Engine;
using lr90::EngineOptions;

constexpr std::size_t kBulkN = std::size_t{1} << 24;
constexpr int kSetupReps = 3;

/// Request cycle `c`: rank and lane-32 scans in turn, then a wide scan.
std::vector<OpKind> request_cycle(std::size_t c) {
  constexpr ScanOp kLane32[] = {ScanOp::kPlus, ScanOp::kMin, ScanOp::kMax,
                                ScanOp::kXor};
  constexpr ScanOp kWide[] = {ScanOp::kSegSum, ScanOp::kAffine,
                              ScanOp::kMaxPlus};
  std::vector<OpKind> cycle;
  for (std::size_t i = 0; i < 3; ++i) {
    cycle.push_back(OpKind{});
    cycle.push_back(OpKind{false, kLane32[(3 * c + i) % 4]});
  }
  cycle.push_back(OpKind{});
  cycle.push_back(OpKind{false, kWide[c % 3]});
  return cycle;
}

Report run_inproc(const RunConfig& cfg, const OrderedList& input,
                  const EngineOptions& opt) {
  Report rep;
  const std::size_t n = input.list.size();
  rep.working_set_bytes =
      n * (sizeof(index_t) + 2 * sizeof(value_t));  // list + answer

  // Set-up: a fresh Engine through its first (warm-up) request, several
  // times; the last engine serves the timed loop. The clock stops when the
  // warm-up run returns, before its answer is checked.
  std::vector<double> setups;
  std::unique_ptr<Engine> engine;
  for (int i = 0; i < kSetupReps; ++i) {
    engine.reset();
    const double t0 = now_s();
    engine = std::make_unique<Engine>(opt);
    const CoreRun warm = run_core(*engine, input, OpKind{});
    setups.push_back(now_s() - t0);
    if (!check_core(input, warm, rep)) return rep;
  }

  SpanRecorder spans(cfg.trace);
  std::vector<CoreSample> samples;
  double busy_s = 0.0, cpu_s = 0.0;
  std::uint64_t request = 0;
  for (std::size_t c = 0; busy_s < cfg.seconds || samples.empty(); ++c) {
    for (const OpKind& k : request_cycle(c)) {
      const double c0 = process_cpu_s();
      const std::uint32_t span = spans.begin("core.engine_run", ++request);
      CoreRun run = run_core(*engine, input, k);
      spans.end(span);
      cpu_s += process_cpu_s() - c0;
      if (!check_core(input, run, rep)) return rep;
      busy_s += run.sample.wall_s;
      samples.push_back(std::move(run.sample));
    }
  }
  if (samples.empty()) return rep;

  std::vector<double> lat_ms;
  for (const CoreSample& s : samples) lat_ms.push_back(s.wall_s * 1e3);
  rep.note(describe_latency("request latency (mixed cycle)", lat_ms, "ms"));
  const auto class_ns = [&](OpClass c) {
    return median_of(samples, c, [](const CoreSample& s) { return s.wall_s; }) *
           1e9 / static_cast<double>(n);
  };

  if (!cfg.trace) {
    rep.set("setup_s", percentile(setups, 50.0), "s");
    rep.set("idle_latency_p50_ms", percentile(lat_ms, 50.0), "ms");
    rep.set("idle_latency_p75_ms", percentile(lat_ms, 75.0), "ms");
    // One caller is the whole load: the engine already spreads each
    // request over every hardware thread.
    rep.set("loaded_req_per_s", static_cast<double>(samples.size()) / busy_s,
            "req/s");
    rep.set("loaded_latency_p50_ms", percentile(lat_ms, 50.0), "ms");
    rep.set("loaded_latency_p75_ms", percentile(lat_ms, 75.0), "ms");
    rep.set("rank_ns_per_elem", class_ns(OpClass::kRank), "ns");
    rep.set("lane32_scan_ns_per_elem", class_ns(OpClass::kLane32), "ns");
    rep.set("wide_scan_ns_per_elem", class_ns(OpClass::kWide), "ns");
    rep.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return rep;
  }

  core_layer_metrics(samples, n, rep);
  rep.set("proc.cpu_s_per_req",
          cpu_s / static_cast<double>(samples.size()), "s");
  rep.set("analysis.auto_plan_regret", auto_plan_regret(input, opt, 1, rep),
          "ratio");
  const std::string path = cfg.scratch + "/spans-" + cfg.workload + "-" +
                           std::to_string(cfg.seed) + ".jsonl";
  if (spans.write_jsonl(path))
    rep.note("spans: " + std::to_string(spans.spans().size()) + " -> " + path);
  return rep;
}

}  // namespace

Report run_bulk_random(const RunConfig& cfg) {
  lr90::Rng rng(cfg.seed);
  const OrderedList input = random_ordered(kBulkN, rng);
  return run_inproc(cfg, input, EngineOptions{});
}

Report run_out_of_core(const RunConfig& cfg) {
  constexpr std::size_t kBlock = 8192;
  constexpr std::size_t kPlannedShards = 8;
  lr90::Rng rng(cfg.seed);
  const OrderedList input = blocked_ordered(kBulkN, kBlock, rng);
  EngineOptions opt;
  // Room for about two of the planner's shards: passes that touch the
  // others stream them through the spill files.
  opt.shard.byte_budget =
      2 * lr90::shard::shard_payload_bytes(kBulkN / kPlannedShards) + 4096;
  return run_inproc(cfg, input, opt);
}

}  // namespace lr90bench
