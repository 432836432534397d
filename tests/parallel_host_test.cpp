// The host backend's parallel sublist path through the Engine: answers
// match the serial oracle across sizes, thread counts, sublist counts,
// seeds and operators, and the input list is left untouched.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "lists/generators.hpp"
#include "lists/validate.hpp"
#include "test_util.hpp"

namespace lr90 {
namespace {

EngineOptions host_options(unsigned threads = 0) {
  EngineOptions eo;
  eo.backend = BackendKind::kHost;
  eo.threads = threads;
  return eo;
}

std::vector<value_t> host_rank(const LinkedList& l,
                               const EngineOptions& eo = host_options()) {
  Engine engine(eo);
  RunResult r = engine.rank(l);
  EXPECT_TRUE(r.ok()) << r.status.message;
  EXPECT_EQ(r.backend, BackendKind::kHost);
  return std::move(r.scan);
}

std::vector<value_t> host_scan(const LinkedList& l, ScanOp op,
                               const EngineOptions& eo = host_options()) {
  Engine engine(eo);
  RunResult r = engine.scan(l, op);
  EXPECT_TRUE(r.ok()) << scan_op_name(op) << ": " << r.status.message;
  EXPECT_EQ(r.backend, BackendKind::kHost);
  return std::move(r.scan);
}

TEST(ParallelHost, RankMatchesReferenceAcrossSizes) {
  // kAuto plans small sizes onto the serial walk; an explicit reid-miller
  // request runs the sublist kernel wherever two sublists fit.
  Rng rng(1);
  Engine engine(host_options());
  for (const std::size_t n : testutil::sweep_sizes()) {
    const LinkedList l = random_list(n, rng);
    for (const Method m : {Method::kAuto, Method::kReidMiller}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " " + method_name(m));
      const RunResult r = engine.rank(l, m);
      ASSERT_TRUE(r.ok()) << r.status.message;
      if (m == Method::kReidMiller) {
        EXPECT_EQ(r.method_used, Method::kReidMiller);
        EXPECT_EQ(r.stats.host_packed, n >= 4);
      }
      testutil::expect_scan_eq(r.scan, reference_rank(l));
    }
  }
}

TEST(ParallelHost, ScanMatchesReference) {
  Rng rng(2);
  for (const std::size_t n : {3u, 100u, 10000u, 100000u}) {
    const LinkedList l = random_list(n, rng, ValueInit::kUniformSmall);
    testutil::expect_scan_eq(host_scan(l, ScanOp::kPlus),
                             testutil::expected_scan(l, OpPlus{}));
  }
}

TEST(ParallelHost, ExplicitThreadCounts) {
  Rng rng(3);
  const LinkedList l = random_list(20000, rng, ValueInit::kUniformSmall);
  const auto want = testutil::expected_scan(l, OpPlus{});
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    testutil::expect_scan_eq(host_scan(l, ScanOp::kPlus, host_options(threads)),
                             want);
  }
}

TEST(ParallelHost, MinMaxXorOperators) {
  Rng rng(4);
  const LinkedList l = random_list(5000, rng, ValueInit::kSigned);
  const EngineOptions eo = host_options(4);
  testutil::expect_scan_eq(host_scan(l, ScanOp::kMin, eo),
                           testutil::expected_scan(l, OpMin{}));
  testutil::expect_scan_eq(host_scan(l, ScanOp::kMax, eo),
                           testutil::expected_scan(l, OpMax{}));
  testutil::expect_scan_eq(host_scan(l, ScanOp::kXor, eo),
                           testutil::expected_scan(l, OpXor{}));
}

TEST(ParallelHost, ManySublistsPerThread) {
  Rng rng(5);
  const LinkedList l = random_list(50000, rng);
  EngineOptions eo = host_options(2);
  eo.sublists_per_thread = 500;
  testutil::expect_scan_eq(host_rank(l, eo), reference_rank(l));
}

TEST(ParallelHost, SublistCountClampedForTinyLists) {
  // 8000 sublists requested for 6 vertices: the explicit reid-miller run
  // clamps to what fits and still takes the sublist kernel.
  Rng rng(6);
  const LinkedList l = random_list(6, rng, ValueInit::kUniformSmall);
  EngineOptions eo = host_options(8);
  eo.sublists_per_thread = 1000;
  Engine engine(eo);
  const RunResult r = engine.scan(l, ScanOp::kPlus, Method::kReidMiller);
  ASSERT_TRUE(r.ok()) << r.status.message;
  EXPECT_EQ(r.method_used, Method::kReidMiller);
  EXPECT_TRUE(r.stats.host_packed);
  testutil::expect_scan_eq(r.scan, testutil::expected_scan(l, OpPlus{}));
}

TEST(ParallelHost, SeedInvariance) {
  Rng rng(7);
  const LinkedList l = random_list(30000, rng, ValueInit::kUniformSmall);
  const auto want = testutil::expected_scan(l, OpPlus{});
  for (const std::uint64_t seed : {1ULL, 42ULL, 777ULL}) {
    EngineOptions eo = host_options(3);
    eo.seed = seed;
    testutil::expect_scan_eq(host_scan(l, ScanOp::kPlus, eo), want);
  }
}

TEST(ParallelHost, InputUntouched) {
  Rng rng(8);
  const LinkedList l = random_list(10000, rng, ValueInit::kUniformSmall);
  const LinkedList copy = l;
  host_scan(l, ScanOp::kPlus, host_options(4));
  EXPECT_TRUE(lists_equal(l, copy));
}

TEST(ParallelHost, SequentialLayout) {
  const LinkedList l = sequential_list(8192);
  testutil::expect_scan_eq(host_rank(l, host_options(4)), reference_rank(l));
}

}  // namespace
}  // namespace lr90
