// Shared pieces of the listrank90 end-to-end benchmark: the run
// configuration, the report every workload fills, the answer checker,
// list generation and process counters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "baselines/serial.hpp"
#include "core/engine.hpp"
#include "lists/generators.hpp"
#include "lists/linked_list.hpp"
#include "lists/ops.hpp"
#include "trace.hpp"

namespace lr90bench {

using lr90::index_t;
using lr90::LinkedList;
using lr90::ScanOp;
using lr90::value_t;

/// What one invocation runs.
struct RunConfig {
  std::string workload;  ///< workload name
  std::uint64_t seed = 1;  ///< input seed
  double seconds = 10.0;  ///< measured time
  bool trace = false;     ///< traced run: per-layer metrics, spans kept
  std::string scratch;    ///< directory for spans and spill files
};

/// A metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything a workload reports.
struct Report {
  std::uint64_t attempted = 0;   ///< operations issued
  std::uint64_t failed = 0;      ///< transport/typed errors, wrong answers
  std::uint64_t mismatches = 0;  ///< answers that were not bit-exact
  std::uint64_t retries = 0;     ///< STALE_GENERATION retargets
  std::map<std::string, Metric> metrics;  ///< end-to-end or per-layer
  std::vector<std::string> notes;         ///< human-readable diagnostics
  std::uint64_t working_set_bytes = 0;    ///< input + answer bytes in use

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// One request shape: rank, or a scan under `op`.
struct OpKind {
  bool rank = true;
  ScanOp op = ScanOp::kPlus;
};

/// The three request classes the per-element metrics are split by.
enum class OpClass { kRank, kLane32, kWide };
inline constexpr OpClass kOpClasses[] = {OpClass::kRank, OpClass::kLane32,
                                         OpClass::kWide};
const char* op_class_name(OpClass c);  ///< "rank", "lane32", "wide"
OpClass op_class(const OpKind& k);
std::string op_kind_name(const OpKind& k);  ///< "rank", "plus", ...

/// A generated list together with its traversal order (order[0] = head).
struct OrderedList {
  LinkedList list;
  std::vector<index_t> order;
};

/// The paper's random layout with signed values; the same list
/// lr90::random_list builds from `rng`, plus the order it was built from.
OrderedList random_ordered(std::size_t n, lr90::Rng& rng);
/// lr90::blocked_list with signed values, plus its walked order.
OrderedList blocked_ordered(std::size_t n, std::size_t block, lr90::Rng& rng);

/// The exact expected answer of `kind` on `l` over traversal positions
/// [lo, hi), from baselines::serial_scan_host (rank = plus-scan of ones)
/// run over consecutive stretches of the traversal order and stitched with
/// the operator -- exact because every ScanOp is associative -- so a
/// 2^24-vertex answer is checked without a second n-sized array. `carry`
/// is the operator's fold of every earlier position. Calls
/// sink(vertex, expected) per position.
template <class Op, class Sink>
void expected_range(const OrderedList& l, bool rank, Op op, std::size_t lo,
                    std::size_t hi, value_t carry, Sink&& sink) {
  constexpr std::size_t kStretch = std::size_t{1} << 16;
  LinkedList stretch;
  std::vector<value_t> out;
  for (; lo < hi; lo += kStretch) {
    const std::size_t len = std::min(kStretch, hi - lo);
    if (len != stretch.size()) stretch = lr90::sequential_list(len);
    for (std::size_t i = 0; i < len; ++i)
      stretch.value[i] = rank ? 1 : l.list.value[l.order[lo + i]];
    out.resize(len);
    lr90::serial_scan_host(stretch, std::span<value_t>(out), op);
    for (std::size_t i = 0; i < len; ++i)
      sink(l.order[lo + i], op(carry, out[i]));
    carry = op(carry, op(out[len - 1], stretch.value[len - 1]));
  }
}

/// Number of vertices where `got` differs from the expected answer.
std::uint64_t count_mismatches(const OrderedList& l, const OpKind& kind,
                               std::span<const value_t> got);
/// The whole expected answer, indexed by vertex.
std::vector<value_t> expected_vector(const OrderedList& l, const OpKind& kind);

// -- engine runs -------------------------------------------------------------

/// One timed Engine run.
struct CoreSample {
  OpKind kind;
  double wall_s = 0.0;  ///< the timed Engine::run call
  lr90::RunStats stats;
};

/// One Engine run with its answer, not yet checked.
struct CoreRun {
  CoreSample sample;
  lr90::RunResult result;
};

/// Runs `k` on `input`, timing only the Engine::run call.
CoreRun run_core(lr90::Engine& engine, const OrderedList& input,
                 const OpKind& k);

/// Counts `run` in `rep` and checks its answer against the serial oracle;
/// false when the run failed or was wrong. Call it after every clock of
/// the measurement has stopped: the check is the oracle's time.
bool check_core(const OrderedList& input, const CoreRun& run, Report& rep);

/// Median of f over the samples of class `c`; 0 when there are none.
double median_of(const std::vector<CoreSample>& v, OpClass c,
                 double (*f)(const CoreSample&));

/// Sets core.* (per request class) and shard.* from the samples' RunStats.
void core_layer_metrics(const std::vector<CoreSample>& samples, std::size_t n,
                        Report& rep);

/// Auto-plan rank time divided by the best rank time over a small pinned
/// (tier, threads, W) grid on the same list; each configuration is timed
/// `reps` times after a warm-up run and its median taken.
double auto_plan_regret(const OrderedList& input,
                        const lr90::EngineOptions& base, int reps,
                        Report& rep);

// -- process counters --------------------------------------------------------

double now_s();             ///< steady clock, seconds
double peak_rss_mb();       ///< ru_maxrss in MiB
double process_cpu_s();     ///< user + system CPU of the process
/// One thread's name and CPU seconds so far.
struct ThreadCpu {
  std::string name;
  double cpu_s = 0.0;
};
/// Every thread of the process by id, from /proc/self/task/*/stat.
std::map<long, ThreadCpu> thread_cpu();

/// The p50 and the highest tail percentile of a latency sample, with its
/// sample counts, in the unit given.
std::string describe_latency(const std::string& label,
                             const std::vector<double>& samples,
                             const char* unit);

// -- workloads ---------------------------------------------------------------

Report run_bulk_random(const RunConfig& cfg);
Report run_out_of_core(const RunConfig& cfg);
Report run_tcp_snapshot(const RunConfig& cfg);

}  // namespace lr90bench
