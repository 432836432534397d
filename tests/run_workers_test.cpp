// The host fan-out primitive (core/host_exec.hpp run_workers / claim_blocks)
// and the persistent per-caller worker team behind it: exact block
// coverage, one fn call per worker, helper reuse across runs, concurrent
// callers, and a helper that fails to start (the host.workers.spawn fault
// site) degrading the run instead of aborting it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/host_exec.hpp"
#include "lists/generators.hpp"
#include "lists/ops.hpp"
#include "support/faultpoint.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace lr90 {
namespace {

/// Runs body on a fresh thread, so it starts with an empty team.
template <class Body>
void on_fresh_thread(Body body) {
  std::thread th(body);
  th.join();
}

/// The thread ids fn ran on, one entry per call, for one run_workers run.
std::vector<std::thread::id> worker_ids(unsigned threads) {
  std::mutex mu;
  std::vector<std::thread::id> ids;
  host_exec::run_workers(threads, [&] {
    std::lock_guard<std::mutex> lock(mu);
    ids.push_back(std::this_thread::get_id());
  });
  return ids;
}

TEST(RunWorkers, ClaimBlocksCoversEveryBlockExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                    std::size_t{7}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(count);
      host_exec::claim_blocks(threads, count, [&](std::size_t b) {
        hits[b].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t b = 0; b < count; ++b)
        ASSERT_EQ(hits[b].load(), 1)
            << "block " << b << " of " << count << ", threads " << threads;
    }
  }
}

TEST(RunWorkers, FnRunsOncePerWorkerOnDistinctThreads) {
  on_fresh_thread([] {
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      const std::vector<std::thread::id> ids = worker_ids(threads);
      EXPECT_EQ(ids.size(), threads);
      const std::set<std::thread::id> distinct(ids.begin(), ids.end());
      EXPECT_EQ(distinct.size(), threads);
      EXPECT_EQ(distinct.count(std::this_thread::get_id()), 1u)
          << "the caller is one of the workers";
    }
  });
}

TEST(RunWorkers, SecondCallReusesTheHelpers) {
  on_fresh_thread([] {
    EXPECT_EQ(host_exec::team_helpers(), 0u);
    const std::vector<std::thread::id> first = worker_ids(4);
    EXPECT_EQ(host_exec::team_helpers(), 3u);
    const std::vector<std::thread::id> second = worker_ids(4);
    EXPECT_EQ(host_exec::team_helpers(), 3u) << "no new thread started";
    EXPECT_EQ(std::set<std::thread::id>(first.begin(), first.end()),
              std::set<std::thread::id>(second.begin(), second.end()));
    // A smaller run draws on the same helpers, and only on as many as it
    // asked for.
    for (int rep = 0; rep < 20; ++rep) {
      const std::vector<std::thread::id> small = worker_ids(2);
      EXPECT_EQ(small.size(), 2u);
      for (const std::thread::id id : small)
        EXPECT_EQ(std::count(first.begin(), first.end(), id), 1);
    }
    EXPECT_EQ(host_exec::team_helpers(), 3u);
  });
}

TEST(RunWorkers, ConcurrentCallersBothComplete) {
  constexpr int kRuns = 200;
  constexpr std::size_t kBlocks = 1000;
  std::atomic<int> wrong{0};
  const auto caller = [&] {
    for (int r = 0; r < kRuns; ++r) {
      std::vector<std::uint8_t> hits(kBlocks, 0);
      host_exec::claim_blocks(3, kBlocks, [&](std::size_t b) { ++hits[b]; });
      for (const std::uint8_t h : hits)
        if (h != 1) wrong.fetch_add(1);
    }
  };
  std::thread a(caller);
  std::thread b(caller);
  a.join();
  b.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(RunWorkers, NestedCallRunsInline) {
  on_fresh_thread([] {
    std::atomic<int> outer{0};
    std::atomic<int> inner{0};
    host_exec::run_workers(3, [&] {
      outer.fetch_add(1);
      const std::thread::id me = std::this_thread::get_id();
      host_exec::run_workers(4, [&] {
        EXPECT_EQ(std::this_thread::get_id(), me);
        inner.fetch_add(1);
      });
    });
    EXPECT_EQ(outer.load(), 3);
    EXPECT_EQ(inner.load(), 3);
    EXPECT_EQ(host_exec::team_helpers(), 2u);
  });
}

// -- a helper that cannot be started -----------------------------------------

/// Arms host.workers.spawn with `t`; returns the site.
fault::FaultSite* arm_spawn(const fault::Trigger& t) {
  fault::FaultSite* site = fault::find_site("host.workers.spawn");
  EXPECT_NE(site, nullptr);
  if (site != nullptr) site->arm(t);
  return site;
}

/// A T=4 rank and an affine scan over a fixed 2^18-vertex random list,
/// checked bit for bit against the serial oracle.
struct HelperSpawnFailure : ::testing::Test {
  HelperSpawnFailure() {
    Rng rng(0x5a4e);
    list = random_list(1u << 18, rng);
    LinkedList ones = list;
    for (value_t& v : ones.value) v = 1;
    rank_oracle = testutil::expected_scan(ones, OpPlus{});
    maps = list;
    for (std::size_t i = 0; i < maps.size(); ++i)
      maps.value[i] = affine_pack(static_cast<std::int32_t>(i % 5) - 2,
                                  static_cast<std::int32_t>(i % 11) - 5);
    affine_oracle = testutil::expected_scan(maps, OpAffine{});
  }
  ~HelperSpawnFailure() override { fault::disarm_all(); }

  void expect_exact(Engine& engine, bool rank) {
    const RunResult r =
        rank ? engine.rank(list) : engine.scan(maps, ScanOp::kAffine);
    ASSERT_TRUE(r.ok()) << r.status.message;
    EXPECT_EQ(r.stats.host_threads, 4u) << "the plan asked for four";
    testutil::expect_scan_eq(r.scan, rank ? rank_oracle : affine_oracle);
  }

  static Engine four_thread_engine() {
    EngineOptions eo;
    eo.backend = BackendKind::kHost;
    eo.threads = 4;
    return Engine(eo);
  }

  LinkedList list, maps;
  std::vector<value_t> rank_oracle, affine_oracle;
};

TEST_F(HelperSpawnFailure, FailedHelperStartDegradesAndStaysBitExact) {
  for (const bool rank : {true, false}) {
    // A fresh caller grows its team on the run's first fan-out; the
    // second helper fails to start, so that fan-out runs on the caller
    // and one helper, and a later fan-out grows the team the rest of
    // the way.
    on_fresh_thread([&] {
      Engine engine = four_thread_engine();
      fault::Trigger t;
      t.fail_nth = 2;
      t.max_fires = 1;
      fault::FaultSite* site = arm_spawn(t);
      expect_exact(engine, rank);
      EXPECT_EQ(site->stats().fires, 1u);
      EXPECT_EQ(host_exec::team_helpers(), 3u);
    });
  }
}

TEST_F(HelperSpawnFailure, TeamRunsWithTheHelpersItHas) {
  on_fresh_thread([&] {
    Engine engine = four_thread_engine();
    host_exec::run_workers(2, [] {});  // one helper, then no more
    fault::Trigger t;
    t.probability = 1.0;
    fault::FaultSite* site = arm_spawn(t);
    for (const bool rank : {true, false}) {
      expect_exact(engine, rank);
      EXPECT_EQ(host_exec::team_helpers(), 1u);
    }
    EXPECT_GE(site->stats().fires, 2u);
    // Once threads can start again, the team grows on the next run.
    fault::disarm_all();
    expect_exact(engine, true);
    EXPECT_EQ(host_exec::team_helpers(), 3u);
  });
}

}  // namespace
}  // namespace lr90
