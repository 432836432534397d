// The benchmark's in-memory span recorder and its percentile math.
//
// A span is one timed call into a listrank90 layer, recorded from the
// benchmark's side of the call: name, start, end, the span that caused it
// and the request it belongs to. Spans stay in memory while the benchmark
// runs and are written out once, when it ends, so recording costs two
// clock reads and a vector push. A recorder is confined to one thread.
//
// Percentiles are nearest-rank: the p-th percentile of N sorted samples is
// the sample at 1-based rank ceil(p/100 * N). A percentile is only
// reported as a tail figure when at least kMinBeyond samples lie beyond
// it, so a "p99" of 50 samples is never printed.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lr90bench {

// -- percentile math ---------------------------------------------------------

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
inline std::size_t nearest_rank(double p, std::size_t n) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
inline std::size_t samples_beyond(double p, std::size_t n) {
  return n == 0 ? 0 : n - nearest_rank(p, n);
}

/// Nearest-rank percentile of `sorted` (ascending); 0 when empty.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(p, sorted.size()) - 1];
}

/// Nearest-rank percentile of unsorted samples; 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, p);
}

/// A tail percentile together with the evidence behind it.
struct Tail {
  double p = 0.0;           ///< the percentile (e.g. 99.0)
  double value = 0.0;       ///< its nearest-rank sample
  std::size_t samples = 0;  ///< all samples
  std::size_t beyond = 0;   ///< samples strictly beyond it (>= kMinBeyond)
};

/// The highest percentile of the ladder 90, 99, 99.9, ... that has at
/// least kMinBeyond samples beyond it; nullopt when not even p90 does
/// (fewer than 100 samples).
inline std::optional<Tail> highest_tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::optional<Tail> best;
  for (double p : {90.0, 99.0, 99.9, 99.99, 99.999}) {
    const std::size_t beyond = samples_beyond(p, v.size());
    if (beyond < kMinBeyond) break;
    best = Tail{p, percentile_sorted(v, p), v.size(), beyond};
  }
  return best;
}

// -- spans -------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// One recorded call. Ids are 1-based; parent 0 marks a root span.
struct Span {
  const char* name = "";     ///< layer.call, a string literal
  std::int64_t start_ns = 0;  ///< since the recorder's epoch
  std::int64_t end_ns = 0;    ///< since the recorder's epoch
  std::uint32_t parent = 0;   ///< enclosing span id, 0 = root
  std::uint64_t request = 0;  ///< request the span served
};

/// Per span: its duration minus the part of its interval that its direct
/// children cover (overlapping children are counted once).
inline std::vector<double> self_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent != 0) kids[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

/// Spans of one thread, kept in memory until write_jsonl().
class SpanRecorder {
 public:
  /// A disabled recorder records nothing and hands out span id 0.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its id (0 when disabled).
  std::uint32_t begin(const char* name, std::uint64_t request,
                      std::uint32_t parent = 0) {
    if (!enabled_) return 0;
    spans_.push_back(Span{name, now_ns(), 0, parent, request});
    return static_cast<std::uint32_t>(spans_.size());
  }

  /// Closes span `id` (no-op for id 0).
  void end(std::uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = now_ns();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self times in microseconds, grouped by span name.
  std::map<std::string, std::vector<double>> self_us_by_name() const {
    const std::vector<double> self = self_ns(spans_);
    std::map<std::string, std::vector<double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name].push_back(self[i] / 1e3);
    return out;
  }

  /// Writes one JSON object per span; false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<double> self = self_ns(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%u,\"request\":%llu,"
                   "\"self_ns\":%.0f}\n",
                   i + 1, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request), self[i]);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace lr90bench
