#include "common.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace lr90bench {
namespace {

/// Runs f(0) .. f(count - 1), each on its own thread.
template <class F>
void parallel_for(std::size_t count, F&& f) {
  std::vector<std::thread> threads;
  for (std::size_t i = 1; i < count; ++i) threads.emplace_back(f, i);
  f(0);
  for (std::thread& t : threads) t.join();
}

}  // namespace

const char* op_class_name(OpClass c) {
  switch (c) {
    case OpClass::kRank: return "rank";
    case OpClass::kLane32: return "lane32";
    case OpClass::kWide: return "wide";
  }
  return "?";
}

OpClass op_class(const OpKind& k) {
  if (k.rank) return OpClass::kRank;
  switch (k.op) {
    case ScanOp::kSegSum:
    case ScanOp::kAffine:
    case ScanOp::kMaxPlus:
      return OpClass::kWide;
    default:
      return OpClass::kLane32;
  }
}

std::string op_kind_name(const OpKind& k) {
  return k.rank ? "rank" : lr90::scan_op_name(k.op);
}

OrderedList random_ordered(std::size_t n, lr90::Rng& rng) {
  OrderedList l;
  l.order.resize(n);
  rng.permutation(l.order);
  l.list = lr90::list_from_order(l.order, lr90::ValueInit::kSigned, &rng);
  return l;
}

OrderedList blocked_ordered(std::size_t n, std::size_t block, lr90::Rng& rng) {
  OrderedList l;
  l.list = lr90::blocked_list(n, block, rng, lr90::ValueInit::kSigned);
  l.order = lr90::order_of(l.list);
  return l;
}

std::uint64_t count_mismatches(const OrderedList& l, const OpKind& kind,
                               std::span<const value_t> got) {
  const std::size_t n = l.order.size();
  if (got.size() != n) return n + 1;
  // Blocks of the traversal are checked in parallel: a first pass folds
  // each block, the prefix of those folds is each block's carry.
  const std::size_t blocks = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, std::max<std::size_t>(1, n >> 16));
  std::vector<std::uint64_t> bad(blocks, 0);
  lr90::with_scan_op(kind.rank ? ScanOp::kPlus : kind.op, [&](auto op) {
    using Op = decltype(op);
    const auto bounds = [&](std::size_t b) {
      return std::pair{n * b / blocks, n * (b + 1) / blocks};
    };
    std::vector<value_t> carry(blocks, Op::identity());
    parallel_for(blocks, [&](std::size_t b) {
      if (b + 1 == blocks) return;
      const auto [lo, hi] = bounds(b);
      value_t acc = Op::identity();
      for (std::size_t i = lo; i < hi; ++i)
        acc = op(acc, kind.rank ? 1 : l.list.value[l.order[i]]);
      carry[b + 1] = acc;
    });
    for (std::size_t b = 1; b < blocks; ++b)
      carry[b] = op(carry[b - 1], carry[b]);
    parallel_for(blocks, [&](std::size_t b) {
      const auto [lo, hi] = bounds(b);
      expected_range(l, kind.rank, op, lo, hi, carry[b],
                     [&](index_t v, value_t want) {
                       bad[b] += got[v] != want ? 1 : 0;
                     });
    });
  });
  std::uint64_t total = 0;
  for (std::uint64_t b : bad) total += b;
  return total;
}

std::vector<value_t> expected_vector(const OrderedList& l,
                                     const OpKind& kind) {
  std::vector<value_t> out(l.order.size());
  lr90::with_scan_op(kind.rank ? ScanOp::kPlus : kind.op, [&](auto op) {
    expected_range(l, kind.rank, op, 0, l.order.size(),
                   decltype(op)::identity(),
                   [&](index_t v, value_t want) { out[v] = want; });
  });
  return out;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(u.ru_utime) + sec(u.ru_stime);
}

std::map<long, ThreadCpu> thread_cpu() {
  std::map<long, ThreadCpu> out;
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    const std::string base = std::string("/proc/self/task/") + e->d_name;
    std::ifstream stat(base + "/stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    // Fields after the parenthesised comm: state is field 3, utime 14,
    // stime 15.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    double utime = 0.0, stime = 0.0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::stod(field);
      if (i == 15) stime = std::stod(field);
    }
    std::ifstream comm(base + "/comm");
    ThreadCpu t;
    std::getline(comm, t.name);
    t.cpu_s = (utime + stime) / tick;
    out[std::stol(e->d_name)] = t;
  }
  closedir(dir);
  return out;
}

std::string describe_latency(const std::string& label,
                             const std::vector<double>& samples,
                             const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s: n=%zu p50=%.4g %s", label.c_str(),
                samples.size(), percentile(samples, 50.0), unit);
  std::string s = buf;
  if (const auto tail = highest_tail(samples)) {
    std::snprintf(buf, sizeof buf, " p%g=%.4g %s (%zu samples beyond)",
                  tail->p, tail->value, unit, tail->beyond);
    s += buf;
  } else {
    s += " (too few samples for a tail percentile)";
  }
  return s;
}

}  // namespace lr90bench
