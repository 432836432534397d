// The persistent worker team behind host_exec::run_workers. See
// host_exec.hpp (run_team).
#include "core/host_exec.hpp"

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <system_error>

#include "support/faultpoint.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace lr90::host_exec {

namespace {

fault::FaultSite f_spawn{
    "host.workers.spawn",
    "helper std::thread creation fails (EAGAIN); the run goes on with the "
    "helpers the team has"};

/// Threads of every team's latest multi-worker run (callers included),
/// process-wide: what decides whether waiting may spin.
std::atomic<unsigned> g_team_threads{0};

using std::chrono::microseconds;

/// Longest a waiting team thread spins before it parks while the team
/// threads fit the hardware threads (see may_spin).
constexpr microseconds kSpin{1000};

/// Past that, only a caller waiting for its helpers spins, and briefly:
/// they already run its work, so one sleep and wake-up is often saved.
constexpr microseconds kCallerSpin{30};

/// True on a team's helpers, and on a caller while its own fn runs: a
/// run_workers call made there runs inline (one level of parallelism).
thread_local bool t_in_team = false;

/// libgomp's rule: spin only while every team thread can own a hardware
/// thread; past that a spinner steals the core the thread it waits for
/// needs.
bool may_spin() {
  static const unsigned hw =
      std::max(1u, std::thread::hardware_concurrency());
  return g_team_threads.load(std::memory_order_relaxed) <= hw;
}

/// Spins until done() or for at most `budget`; returns done().
template <class Done>
bool spin_until(microseconds budget, Done done) {
  if (budget.count() == 0) return done();
  const auto until = std::chrono::steady_clock::now() + budget;
  for (unsigned i = 1;; ++i) {
    if (done()) return true;
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#endif
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= until)
      return done();
  }
}

/// One caller's helpers. Each run is published as one word, (sequence <<
/// 16) | helpers wanted, so a helper reads both atomically; helper i
/// joins a run iff i < wanted. The caller writes fn_/ctx_ only after every
/// helper of the previous run has counted pending_ down.
class Team {
 public:
  ~Team() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& th : helpers_) th.join();
    g_team_threads.fetch_sub(size_, std::memory_order_relaxed);
  }

  unsigned helpers() const { return static_cast<unsigned>(helpers_.size()); }

  void run(unsigned threads, void (*fn)(void*), void* ctx) {
    grow(threads - 1);
    const unsigned want = std::min(threads - 1, helpers());
    if (want + 1 != size_) {  // unsigned wrap-around subtracts
      g_team_threads.fetch_add(want + 1 - size_, std::memory_order_relaxed);
      size_ = want + 1;
    }
    if (want > 0) {
      fn_ = fn;
      ctx_ = ctx;
      pending_.store(want, std::memory_order_relaxed);
      run_.store((++seq_ << 16) | want, std::memory_order_release);
      { std::lock_guard<std::mutex> lock(mu_); }  // no lost wake-up
      start_cv_.notify_all();
    }
    t_in_team = true;
    fn(ctx);
    t_in_team = false;
    const auto done = [&] {
      return pending_.load(std::memory_order_acquire) == 0;
    };
    if (!spin_until(may_spin() ? kSpin : kCallerSpin, done)) {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, done);
    }
  }

 private:
  /// Starts helpers until there are `n`. A failed start ends the growth:
  /// the run goes on with fewer workers, and the kernels' claim counters
  /// keep coverage exact.
  void grow(unsigned n) {
    while (helpers_.size() < n) {
      if (f_spawn.fire()) return;
      try {
        helpers_.emplace_back(
            [this, id = helpers(), seen = seq_] { helper(id, seen); });
      } catch (const std::system_error&) {
        return;
      }
    }
  }

  void helper(unsigned id, std::uint64_t seen) {
    t_in_team = true;
    bool joined_last = true;  // a helper is started for the run ahead
    for (;;) {
      std::uint64_t run = 0;
      const auto fresh = [&] {
        run = run_.load(std::memory_order_acquire);
        return (run >> 16) != seen;
      };
      // A helper the last run left out parks at once: it is not needed.
      const bool spin = joined_last && may_spin();
      if (!spin_until(spin ? kSpin : microseconds{0}, fresh)) {
        std::unique_lock<std::mutex> lock(mu_);
        start_cv_.wait(lock, [&] { return stop_ || fresh(); });
        if (stop_) return;
      }
      seen = run >> 16;
      joined_last = id < (run & 0xffff);
      if (!joined_last) continue;
      fn_(ctx_);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        { std::lock_guard<std::mutex> lock(mu_); }  // no lost wake-up
        done_cv_.notify_one();
      }
    }
  }

  std::vector<std::thread> helpers_;  ///< caller-only
  std::uint64_t seq_ = 0;             ///< caller-only: runs published
  unsigned size_ = 0;  ///< caller-only: this team's share of g_team_threads

  std::atomic<std::uint64_t> run_{0};  ///< (seq << 16) | helpers wanted
  std::atomic<unsigned> pending_{0};   ///< helpers still in the run
  void (*fn_)(void*) = nullptr;        ///< the run's work (see class doc)
  void* ctx_ = nullptr;

  std::mutex mu_;  ///< guards stop_; pairs with both condition variables
  std::condition_variable start_cv_;  ///< parked helpers wait for a run
  std::condition_variable done_cv_;   ///< a parked caller waits for helpers
  bool stop_ = false;
};

Team& my_team() {
  thread_local Team team;
  return team;
}

}  // namespace

void run_team(unsigned threads, void (*fn)(void*), void* ctx) {
  if (threads <= 1 || t_in_team) {
    fn(ctx);
    return;
  }
  my_team().run(std::min(threads, kMaxThreads), fn, ctx);
}

unsigned team_helpers() { return my_team().helpers(); }

}  // namespace lr90::host_exec
