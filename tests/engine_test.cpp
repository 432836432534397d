#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "analysis/tuner.hpp"
#include "core/host_exec.hpp"
#include "lists/generators.hpp"
#include "lists/validate.hpp"
#include "test_util.hpp"

namespace lr90 {
namespace {

EngineOptions backend_options(BackendKind kind) {
  EngineOptions eo;
  eo.backend = kind;
  if (kind == BackendKind::kHost) eo.threads = 2;
  return eo;
}

// -- backend parity ---------------------------------------------------------

TEST(Engine, BackendsAgreeOnRankAcrossSizes) {
  Rng rng(1);
  for (const std::size_t n : testutil::sweep_sizes()) {
    const LinkedList l = random_list(n, rng);
    const auto want = reference_rank(l);
    for (const BackendKind kind :
         {BackendKind::kSerial, BackendKind::kSim, BackendKind::kHost}) {
      Engine engine(backend_options(kind));
      const RunResult r = engine.rank(l);
      ASSERT_TRUE(r.ok()) << backend_name(kind) << " n=" << n << ": "
                          << r.status.message;
      EXPECT_EQ(r.backend, kind);
      testutil::expect_scan_eq(r.scan, want);
    }
  }
}

TEST(Engine, BackendsAgreeOnDegenerateLayouts) {
  for (const std::size_t n : {1u, 2u, 5u, 300u}) {
    for (const bool reversed : {false, true}) {
      const LinkedList l =
          reversed ? reversed_list(n) : sequential_list(n);
      const auto want = reference_rank(l);
      for (const BackendKind kind :
           {BackendKind::kSerial, BackendKind::kSim, BackendKind::kHost}) {
        Engine engine(backend_options(kind));
        const RunResult r = engine.rank(l);
        ASSERT_TRUE(r.ok());
        testutil::expect_scan_eq(r.scan, want);
      }
    }
  }
}

TEST(Engine, BackendsAgreeOnEveryScanOp) {
  Rng rng(2);
  const LinkedList base = random_list(3000, rng, ValueInit::kSigned);
  for (const ScanOp op : kAllScanOps) {
    // The packed operators read their value as 32-bit lanes; keep the
    // magnitudes in-lane so every combine is exact (max-plus especially).
    LinkedList l = base;
    if (op == ScanOp::kSegSum || op == ScanOp::kAffine ||
        op == ScanOp::kMaxPlus) {
      for (value_t& v : l.value) v &= 0xffff;
    }
    const std::vector<value_t> want = with_scan_op(
        op, [&](auto o) { return testutil::expected_scan(l, o); });
    for (const BackendKind kind :
         {BackendKind::kSerial, BackendKind::kSim, BackendKind::kHost}) {
      Engine engine(backend_options(kind));
      const RunResult r = engine.run(OpRequest{&l, op});
      ASSERT_TRUE(r.ok()) << backend_name(kind) << " op "
                          << scan_op_name(op) << ": " << r.status.message;
      testutil::expect_scan_eq(r.scan, want);
    }
  }
}

TEST(Engine, EmptyAndSingleVertexLists) {
  for (const BackendKind kind :
       {BackendKind::kSerial, BackendKind::kSim, BackendKind::kHost}) {
    Engine engine(backend_options(kind));

    const LinkedList empty;
    const RunResult r0 = engine.rank(empty);
    ASSERT_TRUE(r0.ok());
    EXPECT_TRUE(r0.scan.empty());

    const LinkedList one = sequential_list(1);
    const RunResult r1 = engine.rank(one);
    ASSERT_TRUE(r1.ok());
    ASSERT_EQ(r1.scan.size(), 1u);
    EXPECT_EQ(r1.scan[0], 0);
    const RunResult s1 = engine.scan(one, ScanOp::kMin);
    ASSERT_TRUE(s1.ok());
    EXPECT_EQ(s1.scan[0], OpMin::identity());
  }
}

// -- merged stats -----------------------------------------------------------

TEST(Engine, SimStatsCarrySimulatedFigures) {
  Rng rng(3);
  const LinkedList l = random_list(5000, rng);
  Engine engine(backend_options(BackendKind::kSim));
  const RunResult r = engine.rank(l, Method::kReidMiller);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.stats.has_sim);
  EXPECT_GT(r.stats.sim_cycles, 0.0);
  EXPECT_GT(r.stats.sim_ns, 0.0);
  EXPECT_GT(r.stats.sim_ns_per_vertex, 0.0);
  EXPECT_GT(r.stats.algo.link_steps, 0u);
  EXPECT_GE(r.stats.wall_ns, 0.0);
  ASSERT_NE(engine.sim_machine(), nullptr);
  EXPECT_DOUBLE_EQ(engine.sim_machine()->max_cycles(), r.stats.sim_cycles);
}

TEST(Engine, HostStatsHaveNoSimFigures) {
  Rng rng(4);
  const LinkedList l = random_list(5000, rng);
  Engine engine(backend_options(BackendKind::kHost));
  const RunResult r = engine.rank(l);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.stats.has_sim);
  EXPECT_EQ(r.stats.sim_cycles, 0.0);
  EXPECT_GE(r.stats.wall_ns, 0.0);
  EXPECT_EQ(engine.sim_machine(), nullptr);
}

// -- typed errors -----------------------------------------------------------

TEST(Engine, NullListIsInvalidInput) {
  Engine engine;
  const RunResult r = engine.run(Request{});
  EXPECT_EQ(r.status.code, StatusCode::kInvalidInput);
}

TEST(Engine, MalformedListIsInvalidInputWhenValidating) {
  LinkedList bad;
  bad.next = {1, 0};  // two-cycle, no tail
  bad.value = {1, 1};
  bad.head = 0;
  EngineOptions eo = backend_options(BackendKind::kSim);
  eo.validate_input = true;
  Engine engine(std::move(eo));
  const RunResult r = engine.rank(bad);
  EXPECT_EQ(r.status.code, StatusCode::kInvalidInput);
}

TEST(Engine, UnsupportedCombinationsAreTypedNotThrown) {
  Rng rng(5);
  const LinkedList l = random_list(100, rng);
  {
    Engine sim(backend_options(BackendKind::kSim));
    const RunResult r = sim.scan(l, ScanOp::kPlus,
                                 Method::kReidMillerEncoded);
    EXPECT_EQ(r.status.code, StatusCode::kUnsupported);
  }
  {
    Engine host(backend_options(BackendKind::kHost));
    const RunResult r = host.rank(l, Method::kWyllie);
    EXPECT_EQ(r.status.code, StatusCode::kUnsupported);
  }
  {
    Engine serial(backend_options(BackendKind::kSerial));
    const RunResult r = serial.rank(l, Method::kMillerReif);
    EXPECT_EQ(r.status.code, StatusCode::kUnsupported);
  }
}

// -- batches ----------------------------------------------------------------

TEST(Engine, RunBatchMixedSizesAndKinds) {
  Rng rng(6);
  std::vector<LinkedList> lists;
  for (const std::size_t n : {0u, 1u, 2u, 17u, 500u, 4096u})
    lists.push_back(random_list(n, rng, ValueInit::kSigned));

  std::vector<Request> requests;
  for (const LinkedList& l : lists) {
    requests.push_back(RankRequest{&l});
    requests.push_back(ScanRequest{&l, ScanOp::kPlus});
    requests.push_back(ScanRequest{&l, ScanOp::kMax});
  }

  for (const BackendKind kind :
       {BackendKind::kSerial, BackendKind::kSim, BackendKind::kHost}) {
    Engine engine(backend_options(kind));
    const std::vector<RunResult> results = engine.run_batch(requests);
    ASSERT_EQ(results.size(), requests.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Request& req = requests[i];
      const RunResult& r = results[i];
      ASSERT_TRUE(r.ok()) << backend_name(kind) << " request " << i << ": "
                          << r.status.message;
      if (req.rank) {
        testutil::expect_scan_eq(r.scan, reference_rank(*req.list));
      } else if (req.op == ScanOp::kPlus) {
        testutil::expect_scan_eq(r.scan,
                                 testutil::expected_scan(*req.list, OpPlus{}));
      } else {
        testutil::expect_scan_eq(r.scan,
                                 testutil::expected_scan(*req.list, OpMax{}));
      }
    }
  }
}

TEST(Engine, BatchFailuresAreIsolatedPerRequest) {
  Rng rng(7);
  const LinkedList good = random_list(50, rng);
  const Request requests[] = {
      RankRequest{&good},
      Request{},  // null list: fails alone
      RankRequest{&good},
  };
  Engine engine;
  const auto results = engine.run_batch(requests);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status.code, StatusCode::kInvalidInput);
  EXPECT_TRUE(results[2].ok());
}

// -- workspace reuse --------------------------------------------------------

TEST(Engine, WorkspaceStopsAllocatingAfterWarmup) {
  // The acceptance bar: a 100-request batch on the host backend performs
  // no more than one workspace allocation after warm-up.
  constexpr std::size_t kRequests = 100;
  constexpr std::size_t kVertices = 20000;
  Rng rng(8);
  std::vector<LinkedList> lists;
  lists.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i)
    lists.push_back(random_list(kVertices, rng));

  Engine engine(backend_options(BackendKind::kHost));
  // Warm-up: the first run grows every buffer to the working size.
  const RunResult warm = engine.rank(lists[0]);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm.method_used, Method::kReidMiller)
      << "list too small to exercise the parallel path";
  const std::uint64_t after_warmup = engine.workspace().allocations();
  ASSERT_GT(after_warmup, 0u);

  std::vector<Request> requests;
  requests.reserve(kRequests);
  for (const LinkedList& l : lists) requests.push_back(RankRequest{&l});
  const auto results = engine.run_batch(requests);
  for (const RunResult& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.method_used, Method::kReidMiller);
  }

  EXPECT_LE(engine.workspace().allocations(), after_warmup + 1);
  EXPECT_GT(engine.workspace().reuse_hits(), 0u);
  // Spot-check the last answer; the batch above already verified sizes.
  testutil::expect_scan_eq(results.back().scan,
                           reference_rank(lists.back()));
}

TEST(Engine, SimWorkspaceReusesScratchListAcrossCalls) {
  Rng rng(9);
  const LinkedList l = random_list(4096, rng);
  Engine engine(backend_options(BackendKind::kSim));
  ASSERT_TRUE(engine.rank(l, Method::kReidMiller).ok());
  const std::uint64_t after_warmup = engine.workspace().allocations();
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(engine.rank(l, Method::kReidMiller).ok());
  EXPECT_EQ(engine.workspace().allocations(), after_warmup);
}

TEST(Engine, RepeatedRunsAreDeterministic) {
  Rng rng(10);
  const LinkedList l = random_list(10000, rng);
  Engine engine(backend_options(BackendKind::kSim));
  const RunResult a = engine.rank(l, Method::kReidMiller);
  const RunResult b = engine.rank(l, Method::kReidMiller);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.scan, b.scan);
  EXPECT_DOUBLE_EQ(a.stats.sim_cycles, b.stats.sim_cycles);
}

// -- planner ----------------------------------------------------------------

TEST(Planner, SimCrossoversAtLegacyBoundaries) {
  // The fixed Fig. 1 thresholds the cost model replaced: serial up to 128
  // vertices, Wyllie up to 1024, Reid-Miller beyond.
  constexpr std::size_t kAutoSerialMax = 128;
  constexpr std::size_t kAutoWyllieMax = 1024;
  const Planner planner(backend_options(BackendKind::kSim));
  for (const bool rank : {false, true}) {
    // At the legacy serial/Wyllie boundary the model still prefers serial
    // (the fixed threshold under-used it; see Fig. 1's measured curves).
    EXPECT_EQ(planner.decide(kAutoSerialMax, Method::kAuto, rank).method,
              Method::kSerial);
    EXPECT_EQ(planner.decide(kAutoSerialMax + 1, Method::kAuto, rank).method,
              Method::kSerial);
    // At the legacy Wyllie/Reid-Miller boundary the model and the fixed
    // threshold agree: Reid-Miller from ~1k vertices on.
    const auto at_boundary =
        planner.decide(kAutoWyllieMax, Method::kAuto, rank);
    EXPECT_EQ(at_boundary.method, Method::kReidMiller);
    const auto past_boundary =
        planner.decide(kAutoWyllieMax + 1, Method::kAuto, rank);
    EXPECT_EQ(past_boundary.method, Method::kReidMiller);
    EXPECT_GT(past_boundary.sublists, 0.0);
    EXPECT_GT(past_boundary.s1, 0.0);
    EXPECT_GT(past_boundary.predicted_cycles, 0.0);
  }
  // The model's own serial/Wyllie crossover sits between the legacy
  // thresholds.
  EXPECT_EQ(planner.decide(512, Method::kAuto, false).method,
            Method::kWyllie);
}

TEST(Planner, SimAutoIsMonotoneInN) {
  const Planner planner(backend_options(BackendKind::kSim));
  auto phase = [](Method m) {
    return m == Method::kSerial ? 0 : m == Method::kWyllie ? 1 : 2;
  };
  int prev = 0;
  for (std::size_t n = 2; n <= (1u << 20); n = n * 5 / 4 + 1) {
    const Method m = planner.decide(n, Method::kAuto, false).method;
    EXPECT_GE(phase(m), prev) << "regressed at n=" << n;
    prev = phase(m);
  }
  EXPECT_EQ(prev, 2) << "never reached reid-miller";
}

TEST(Planner, EstimatesBackTheDecision) {
  const Planner planner(backend_options(BackendKind::kSim));
  for (const std::size_t n : {64u, 512u, 4096u, 65536u}) {
    const auto d = planner.decide(n, Method::kAuto, false);
    const double chosen = d.predicted_cycles;
    EXPECT_LE(chosen, planner.serial_cycles(n, false));
    EXPECT_LE(chosen, planner.wyllie_cycles(n, false));
    EXPECT_LE(chosen, planner.reid_miller_cycles(n, false));
  }
}

TEST(Planner, ExplicitMethodIsHonoured) {
  const Planner planner(backend_options(BackendKind::kSim));
  EXPECT_EQ(planner.decide(10, Method::kReidMiller, false).method,
            Method::kReidMiller);
  EXPECT_EQ(planner.decide(1u << 20, Method::kSerial, true).method,
            Method::kSerial);
}

TEST(Planner, OperatorCostScalesTheModel) {
  // A costlier combine must raise every per-element estimate, never the
  // startups alone, and the kAuto pick must still be the cheapest of the
  // three candidates under that operator's costs.
  const Planner planner(backend_options(BackendKind::kSim));
  for (const std::size_t n : {64u, 512u, 4096u, 65536u}) {
    EXPECT_GT(planner.serial_cycles(n, false, ScanOp::kAffine),
              planner.serial_cycles(n, false, ScanOp::kPlus));
    EXPECT_GT(planner.wyllie_cycles(n, false, ScanOp::kAffine),
              planner.wyllie_cycles(n, false, ScanOp::kPlus));
    if (n >= 2) {
      EXPECT_GT(planner.reid_miller_cycles(n, false, ScanOp::kAffine),
                planner.reid_miller_cycles(n, false, ScanOp::kPlus));
    }
    for (const ScanOp op : {ScanOp::kSegSum, ScanOp::kAffine,
                            ScanOp::kMaxPlus}) {
      const auto d = planner.decide(n, Method::kAuto, false, op);
      EXPECT_LE(d.predicted_cycles, planner.serial_cycles(n, false, op));
      EXPECT_LE(d.predicted_cycles, planner.wyllie_cycles(n, false, op));
      EXPECT_LE(d.predicted_cycles,
                planner.reid_miller_cycles(n, false, op));
    }
  }
  // Ranking is all-ones addition regardless of the request's operator.
  EXPECT_EQ(planner.decide(4096, Method::kAuto, true, ScanOp::kAffine)
                .predicted_cycles,
            planner.decide(4096, Method::kAuto, true, ScanOp::kPlus)
                .predicted_cycles);
}

TEST(Planner, HostShedsThreadsBeforeGoingSerial) {
  EngineOptions eo = backend_options(BackendKind::kHost);
  eo.threads = 8;
  const Planner planner(eo);

  const auto big = planner.decide(1u << 20, Method::kAuto, true);
  EXPECT_EQ(big.method, Method::kReidMiller);
  EXPECT_EQ(big.threads, 8u);
  EXPECT_EQ(big.sublists, 8.0 * eo.sublists_per_thread);

  // Medium lists keep some parallelism with fewer threads.
  const auto medium = planner.decide(8192, Method::kAuto, true);
  EXPECT_EQ(medium.method, Method::kReidMiller);
  EXPECT_EQ(medium.threads, 4u);

  // Tiny lists fall back to the serial walk.
  EXPECT_EQ(planner.decide(100, Method::kAuto, true).method,
            Method::kSerial);
  EXPECT_EQ(planner.decide(3, Method::kAuto, true).method, Method::kSerial);
}

TEST(Planner, SerialBackendAlwaysWalksSerially) {
  const Planner planner(backend_options(BackendKind::kSerial));
  EXPECT_EQ(planner.decide(1u << 20, Method::kAuto, true).method,
            Method::kSerial);
}

TEST(Planner, PicksPackedInterleavedForLargeN) {
  // The acceptance bar of the latency-hiding PR: large-n packed-capable
  // requests must route to the packed multi-cursor path automatically --
  // even on a single thread, where the seed planner fell back to the
  // serial walk (one dependent load chain, a full stall per element).
  for (const unsigned threads : {1u, 2u, 8u}) {
    EngineOptions eo = backend_options(BackendKind::kHost);
    eo.threads = threads;
    const Planner planner(eo);
    const auto d = planner.decide(1u << 20, Method::kAuto, /*rank=*/true);
    EXPECT_EQ(d.method, Method::kReidMiller) << threads << " threads";
    EXPECT_GT(d.interleave, 1u) << threads << " threads";
    // Lane-capable scans interleave too, and so do the 64-bit-value
    // operators: their wide records run the scalar cursor family.
    const auto scan =
        planner.decide(1u << 20, Method::kAuto, false, ScanOp::kMin);
    EXPECT_GT(scan.interleave, 1u);
    const auto wide =
        planner.decide(1u << 20, Method::kAuto, false, ScanOp::kAffine);
    EXPECT_GT(wide.interleave, 1u);
    EXPECT_EQ(wide.tier, KernelTier::kPackedCursors);
  }
  // Tiny lists still take the serial walk.
  EngineOptions one = backend_options(BackendKind::kHost);
  one.threads = 1;
  const Planner planner(one);
  EXPECT_EQ(planner.decide(100, Method::kAuto, true).method,
            Method::kSerial);
  // A pinned W=1 on one thread is modelled at that width: the packed
  // path cannot hide latency with one cursor, so kAuto keeps the serial
  // walk instead of justifying the choice with the auto-optimal W.
  EngineOptions pinned1 = backend_options(BackendKind::kHost);
  pinned1.threads = 1;
  pinned1.interleave = 1;
  const Planner p1(pinned1);
  EXPECT_EQ(p1.decide(1u << 20, Method::kAuto, true).method,
            Method::kSerial);
}

TEST(Planner, SlablessSublistRequestsPlanTheSerialWalk) {
  // Past the slab's 31-bit link bound with auto-shard off.
  EngineOptions unsharded = backend_options(BackendKind::kHost);
  unsharded.shard.auto_shard = false;
  const Planner pu(unsharded);
  for (const ScanOp op : {ScanOp::kPlus, ScanOp::kAffine}) {
    const auto d = pu.decide(kHotMaxVertices + 1, Method::kAuto,
                             /*rank=*/false, op);
    EXPECT_EQ(d.shard_count, 0u);
    EXPECT_EQ(d.method, Method::kSerial);
    EXPECT_EQ(d.tier, KernelTier::kLegacy);
  }
}

TEST(Engine, LargeRankRunsPackedAndReportsCursors) {
  Rng rng(21);
  const LinkedList l = random_list(1u << 17, rng);
  Engine engine(backend_options(BackendKind::kHost));
  const RunResult r = engine.rank(l);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.method_used, Method::kReidMiller);
  EXPECT_TRUE(r.stats.host_packed);
  EXPECT_GT(r.stats.host_interleave, 1u);
  EXPECT_FALSE(r.stats.host_packed_cached);  // single run: no batch cache
  testutil::expect_scan_eq(r.scan, reference_rank(l));
}

TEST(Engine, PinnedInterleaveIsHonoured) {
  Rng rng(22);
  const LinkedList l = random_list(50000, rng);
  for (const unsigned w : {1u, 2u, 4u, 8u, 16u, 32u}) {
    EngineOptions eo = backend_options(BackendKind::kHost);
    eo.interleave = w;
    Engine engine(std::move(eo));
    const RunResult r = engine.rank(l);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.stats.host_packed);
    EXPECT_EQ(r.stats.host_interleave, w);
    testutil::expect_scan_eq(r.scan, reference_rank(l));
  }
}

TEST(Engine, WideValuesRepackIntoWideRecordsNeverWrong) {
  // Values outside the signed 32-bit lane fail the pack-time fit check
  // of an auto-planned plus scan; the run must repack the same
  // decomposition into wide records and stay bit-exact on the packed
  // cursors.
  Rng rng(23);
  LinkedList l = random_list(1u << 16, rng, ValueInit::kSigned);
  l.value[12345] = value_t{1} << 40;
  l.value[777] = std::numeric_limits<value_t>::min() / 4;
  Engine engine(backend_options(BackendKind::kHost));
  const RunResult r = engine.run(OpRequest{&l, ScanOp::kPlus});
  ASSERT_TRUE(r.ok()) << r.status.message;
  ASSERT_EQ(r.method_used, Method::kReidMiller);
  EXPECT_TRUE(r.stats.host_packed);
  EXPECT_EQ(r.stats.kernel_tier, KernelTier::kPackedCursors);
  EXPECT_GT(r.stats.host_interleave, 1u);
  testutil::expect_scan_eq(r.scan,
                           testutil::expected_scan(l, OpPlus{}));
  // The same engine still packs hot words for the next lane-clean
  // request.
  const LinkedList clean = random_list(30000, rng);
  const RunResult r2 = engine.rank(clean);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.stats.host_packed);
  testutil::expect_scan_eq(r2.scan, reference_rank(clean));
}

TEST(Engine, FewerSublistsThanCursorsDrainCorrectly) {
  // The k < W edge of the multi-cursor driver: fewer sublists than
  // cursors means the initial claims exhaust immediately and the drain
  // (swap-with-last) path does all the work. Explicit kReidMiller skips
  // the planner's serial shed for tiny lists.
  Rng rng(25);
  for (const std::size_t n : {4u, 5u, 9u, 17u, 40u, 64u}) {
    const LinkedList l = random_list(n, rng, ValueInit::kSigned);
    for (const unsigned w : {8u, 32u, 64u}) {
      EngineOptions eo = backend_options(BackendKind::kHost);
      eo.interleave = w;
      Engine engine(std::move(eo));
      const RunResult r = engine.rank(l, Method::kReidMiller);
      ASSERT_TRUE(r.ok()) << "n=" << n << " W=" << w;
      EXPECT_TRUE(r.stats.host_packed);
      testutil::expect_scan_eq(r.scan, reference_rank(l));
      const RunResult s =
          engine.scan(l, ScanOp::kMin, Method::kReidMiller);
      ASSERT_TRUE(s.ok());
      testutil::expect_scan_eq(s.scan,
                               testutil::expected_scan(l, OpMin{}));
    }
  }
}

TEST(Engine, BatchCachesThePackedSlabAcrossSameListRuns) {
  // A batch of requests over one list (the serving layer's collapsed
  // hot-key traffic) must build the single-gather slab once; distinct
  // lists and non-batch runs must rebuild.
  Rng rng(24);
  const LinkedList a = random_list(40000, rng);
  const LinkedList b = random_list(40000, rng);
  Engine engine(backend_options(BackendKind::kHost));

  const std::vector<Request> same(5, Request{RankRequest{&a}});
  const auto results = engine.run_batch(same);
  const std::uint64_t builds_after_batch = engine.workspace().packed_builds();
  EXPECT_EQ(builds_after_batch, 1u) << "one build for five same-list runs";
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_TRUE(results[i].stats.host_packed);
    EXPECT_EQ(results[i].stats.host_packed_cached, i > 0);
    EXPECT_EQ(results[i].scan, results[0].scan) << "cache changed answers";
  }
  testutil::expect_scan_eq(results[0].scan, reference_rank(a));

  // Alternating lists in one batch: every switch re-keys the slab.
  const std::vector<Request> mixed{RankRequest{&a}, RankRequest{&b},
                                   RankRequest{&a}};
  for (const RunResult& r : engine.run_batch(mixed)) {
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.stats.host_packed_cached);
  }
  EXPECT_EQ(engine.workspace().packed_builds(), builds_after_batch + 3);

  // Outside a batch the cache is never trusted (the caller could mutate
  // the list between runs).
  ASSERT_TRUE(engine.rank(a).ok());
  ASSERT_TRUE(engine.rank(a).ok());
  EXPECT_EQ(engine.workspace().packed_builds(), builds_after_batch + 5);
}

TEST(Engine, BatchSlabCacheIsKeyedOnRecordWidth) {
  // A plus scan and a seg-sum scan of one list agree on every other key
  // field. The seg-sum run must not read the plus run's 8-byte hot words;
  // the plus run after it may ride the seg-sum run's wide records, which
  // hold the full values. Two builds, three bit-exact answers. Pinned
  // threads and the cursor tier give both operators the same sublist
  // count, so only the width tells the keys apart.
  Rng rng(27);
  const LinkedList l = random_list(40000, rng, ValueInit::kSigned);
  EngineOptions eo = backend_options(BackendKind::kHost);
  eo.threads = 2;
  eo.tier = KernelTier::kPackedCursors;
  Engine engine(std::move(eo));
  const std::vector<Request> batch{OpRequest{&l, ScanOp::kPlus},
                                   OpRequest{&l, ScanOp::kSegSum},
                                   OpRequest{&l, ScanOp::kPlus}};
  const auto results = engine.run_batch(batch);
  ASSERT_EQ(results.size(), 3u);
  for (const RunResult& r : results) {
    ASSERT_TRUE(r.ok()) << r.status.message;
    EXPECT_TRUE(r.stats.host_packed);
  }
  testutil::expect_scan_eq(results[0].scan,
                           testutil::expected_scan(l, OpPlus{}));
  testutil::expect_scan_eq(results[1].scan,
                           testutil::expected_scan(l, OpSegSum{}));
  testutil::expect_scan_eq(results[2].scan,
                           testutil::expected_scan(l, OpPlus{}));
  EXPECT_FALSE(results[1].stats.host_packed_cached);
  EXPECT_TRUE(results[2].stats.host_packed_cached);
  EXPECT_EQ(engine.workspace().packed_builds(), 2u);
}

TEST(Engine, PinnedS1SurvivesAutoM) {
  // Regression: a caller-pinned first balance interval must not be
  // overwritten by the planner's tuned value when m is left on auto.
  Rng rng(12);
  const LinkedList l = random_list(100000, rng);

  EngineOptions auto_opts;
  auto_opts.backend = BackendKind::kSim;
  Engine tuned_engine(std::move(auto_opts));
  const RunResult tuned = tuned_engine.rank(l, Method::kReidMiller);

  EngineOptions pinned_opts;
  pinned_opts.backend = BackendKind::kSim;
  pinned_opts.reid_miller.s1 = 5;  // far from any tuned value
  Engine pinned_engine(std::move(pinned_opts));
  const RunResult pinned = pinned_engine.rank(l, Method::kReidMiller);

  ASSERT_TRUE(tuned.ok());
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(tuned.scan, pinned.scan);
  // A 5-link first interval forces a very different balance schedule; the
  // knob being live must show up in the simulated cost.
  EXPECT_NE(tuned.stats.sim_cycles, pinned.stats.sim_cycles);
}

TEST(Planner, AutoThreadsComeFromTheJointGrid) {
  // threads = 0: the planner resolves the worker count from the joint
  // (threads x W) grid, capped at the machine. The pick must agree with
  // the model evaluated at the same cap, whatever this machine is.
  EngineOptions eo;
  eo.backend = BackendKind::kHost;
  eo.threads = 0;
  const Planner planner(eo);
  const unsigned eff = host_exec::effective_threads(0);
  const auto d = planner.decide(1u << 22, Method::kAuto, /*rank=*/true);
  ASSERT_EQ(d.method, Method::kReidMiller);
  const HostTuneResult ht = host_tune(1u << 22, 1.0, eff);
  EXPECT_EQ(d.threads, std::max(1u, std::min(ht.threads, eff)));
  EXPECT_EQ(d.interleave, ht.interleave);
  EXPECT_EQ(d.tier, KernelTier::kPackedCursors);

  // On an (emulated) 8-thread machine the joint grid wants real thread
  // parallelism for a DRAM-resident list, and W re-tuned at that count.
  EngineOptions big = eo;
  big.threads = 8;
  const Planner p8(big);
  const auto d8 = p8.decide(1u << 22, Method::kAuto, /*rank=*/true);
  ASSERT_EQ(d8.method, Method::kReidMiller);
  EXPECT_EQ(d8.threads, 8u);
  EXPECT_EQ(d8.interleave, host_tune(1u << 22, 1.0, 8, 8).interleave);
}

TEST(Engine, ReportsThreadsAndPerPhaseTimings) {
  Rng rng(26);
  const LinkedList l = random_list(1u << 16, rng);
  Engine engine(backend_options(BackendKind::kHost));  // threads = 2
  const RunResult r = engine.rank(l);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.method_used, Method::kReidMiller);
  EXPECT_EQ(r.stats.host_threads, 2u);
  EXPECT_GT(r.stats.host_build_ns, 0.0);
  EXPECT_GT(r.stats.host_phase1_ns, 0.0);
  EXPECT_GT(r.stats.host_phase3_ns, 0.0);
  EXPECT_GT(r.stats.host_parallel_frac, 0.0);
  EXPECT_LE(r.stats.host_parallel_frac, 1.0);

  // The serial walk has no phases to time and one worker by definition.
  const RunResult s = engine.rank(l, Method::kSerial);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.stats.kernel_tier, KernelTier::kLegacy);
  EXPECT_EQ(s.stats.host_threads, 1u);
  EXPECT_EQ(s.stats.host_phase1_ns, 0.0);
  EXPECT_EQ(s.stats.host_parallel_frac, 0.0);
}

}  // namespace
}  // namespace lr90
