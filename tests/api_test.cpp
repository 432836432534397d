// The public run contract on the simulated C90: what an Engine run
// returns (method_used, the answer, the simulated figures) for every
// method, and which stable names the tables and CLIs print.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "lists/generators.hpp"
#include "lists/validate.hpp"
#include "test_util.hpp"

namespace lr90 {
namespace {

Engine sim_engine(unsigned processors = 1,
                  std::uint64_t seed = kDefaultSeed) {
  EngineOptions eo;
  eo.backend = BackendKind::kSim;
  eo.processors = processors;
  eo.seed = seed;
  return Engine(std::move(eo));
}

TEST(Api, AutoDispatchBySize) {
  // kAuto resolves per run: the serial walk on tiny lists, Reid-Miller
  // once the list is long enough; the resolved method is reported.
  Rng rng(1);
  Engine engine = sim_engine();
  const LinkedList tiny = random_list(10, rng);
  const RunResult r_tiny = engine.rank(tiny);
  ASSERT_TRUE(r_tiny.ok()) << r_tiny.status.message;
  EXPECT_EQ(r_tiny.method_used, Method::kSerial);
  testutil::expect_scan_eq(r_tiny.scan, reference_rank(tiny));

  const LinkedList big = random_list(20000, rng);
  const RunResult r_big = engine.rank(big);
  ASSERT_TRUE(r_big.ok()) << r_big.status.message;
  EXPECT_EQ(r_big.method_used, Method::kReidMiller);
  testutil::expect_scan_eq(r_big.scan, reference_rank(big));

  // An explicit method is honoured whatever the size.
  const LinkedList five = random_list(5, rng);
  const RunResult r_five = engine.rank(five, Method::kWyllie);
  ASSERT_TRUE(r_five.ok()) << r_five.status.message;
  EXPECT_EQ(r_five.method_used, Method::kWyllie);
  testutil::expect_scan_eq(r_five.scan, reference_rank(five));
}

TEST(Api, AllMethodsAgreeOnRank) {
  Rng rng(1);
  const LinkedList l = random_list(3000, rng);
  const auto want = reference_rank(l);
  Engine engine = sim_engine();
  for (const Method method :
       {Method::kSerial, Method::kWyllie, Method::kMillerReif,
        Method::kAndersonMiller, Method::kReidMiller,
        Method::kReidMillerEncoded}) {
    const RunResult r = engine.rank(l, method);
    ASSERT_TRUE(r.ok()) << method_name(method) << ": " << r.status.message;
    EXPECT_EQ(r.method_used, method);
    testutil::expect_scan_eq(r.scan, want);
    EXPECT_GT(r.stats.sim_cycles, 0.0) << method_name(method);
  }
}

TEST(Api, AllMethodsAgreeOnScan) {
  Rng rng(2);
  const LinkedList l = random_list(2000, rng, ValueInit::kUniformSmall);
  const auto want = testutil::expected_scan(l, OpPlus{});
  Engine engine = sim_engine();
  for (const Method method :
       {Method::kSerial, Method::kWyllie, Method::kMillerReif,
        Method::kAndersonMiller, Method::kReidMiller}) {
    const RunResult r = engine.scan(l, ScanOp::kPlus, method);
    ASSERT_TRUE(r.ok()) << method_name(method) << ": " << r.status.message;
    EXPECT_EQ(r.method_used, method);
    testutil::expect_scan_eq(r.scan, want);
  }
}

TEST(Api, EncodedRejectsScan) {
  // The encoded fast path ranks only: a scan with it is a typed
  // kUnsupported result, not an exception.
  Rng rng(3);
  const LinkedList l = random_list(100, rng);
  Engine engine = sim_engine();
  const RunResult r = engine.scan(l, ScanOp::kPlus, Method::kReidMillerEncoded);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code, StatusCode::kUnsupported);
  EXPECT_FALSE(r.status.message.empty());
}

TEST(Api, InputListIsNotModified) {
  Rng rng(4);
  const LinkedList l = random_list(5000, rng, ValueInit::kUniformSmall);
  const LinkedList copy = l;
  Engine engine = sim_engine();
  ASSERT_TRUE(engine.scan(l, ScanOp::kPlus, Method::kReidMiller).ok());
  EXPECT_TRUE(lists_equal(l, copy));
}

TEST(Api, NsConsistentWithCycles) {
  // Simulated time follows the configured clock, not a fixed 4.2 ns.
  Rng rng(5);
  const LinkedList l = random_list(4000, rng);
  EngineOptions eo;
  eo.backend = BackendKind::kSim;
  eo.machine.clock_ns = 2.0;
  Engine engine(std::move(eo));
  const RunResult r = engine.rank(l);
  ASSERT_TRUE(r.ok()) << r.status.message;
  EXPECT_NEAR(r.stats.sim_ns, r.stats.sim_cycles * 2.0, 1e-6);
  EXPECT_NEAR(r.stats.sim_ns_per_vertex, r.stats.sim_ns / 4000.0, 1e-9);
}

TEST(Api, EmptyAndSingletonLists) {
  Engine engine = sim_engine();
  const LinkedList empty;
  const RunResult r0 = engine.rank(empty);
  ASSERT_TRUE(r0.ok()) << r0.status.message;
  EXPECT_TRUE(r0.scan.empty());

  LinkedList one;
  one.next = {0};
  one.value = {7};
  one.head = 0;
  const RunResult r1 = engine.scan(one);
  ASSERT_TRUE(r1.ok()) << r1.status.message;
  ASSERT_EQ(r1.scan.size(), 1u);
  EXPECT_EQ(r1.scan[0], 0);
}

TEST(Api, ProcessorsReduceSimulatedTime) {
  Rng rng(6);
  const LinkedList l = random_list(200000, rng);
  Engine e1 = sim_engine(1);
  Engine e8 = sim_engine(8);
  const RunResult r1 = e1.rank(l, Method::kReidMiller);
  const RunResult r8 = e8.rank(l, Method::kReidMiller);
  ASSERT_TRUE(r1.ok() && r8.ok());
  testutil::expect_scan_eq(r8.scan, r1.scan);
  EXPECT_LT(r8.stats.sim_ns, r1.stats.sim_ns / 4.0);
}

TEST(Api, MethodNamesAreStable) {
  EXPECT_STREQ(method_name(Method::kSerial), "serial");
  EXPECT_STREQ(method_name(Method::kWyllie), "wyllie");
  EXPECT_STREQ(method_name(Method::kReidMiller), "reid-miller");
  EXPECT_STREQ(backend_name(BackendKind::kSerial), "serial");
  EXPECT_STREQ(backend_name(BackendKind::kSim), "sim");
  EXPECT_STREQ(backend_name(BackendKind::kHost), "host");
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "ok");
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidInput), "invalid-input");
}

TEST(Api, SeedChangesNothingButCost) {
  Rng rng(7);
  const LinkedList l = random_list(10000, rng);
  Engine ea = sim_engine(1, 1);
  Engine eb = sim_engine(1, 999);
  const RunResult ra = ea.rank(l, Method::kReidMiller);
  const RunResult rb = eb.rank(l, Method::kReidMiller);
  ASSERT_TRUE(ra.ok() && rb.ok());
  testutil::expect_scan_eq(ra.scan, rb.scan);
  testutil::expect_scan_eq(ra.scan, reference_rank(l));
}

}  // namespace
}  // namespace lr90
