// Shared pieces of the whole-system benchmark: options, the result record
// every workload fills in, order statistics, spans for the traced run, and
// the host fingerprint.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "nn/sequential.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock instants.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny run for the self-test: same code paths, a fraction of the work.
  bool smoke = false;
  /// Flips one bit of one checked output before it is compared (self-test
  /// hook: the run must then report a mismatch and exit non-zero).
  bool corrupt = false;
  /// Where the traced run writes its Chrome trace ("" = nowhere).
  std::string trace_out;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `attempted` counts checked operations
/// (forward passes, training steps, requests, simulations) and `failed`
/// those that produced a wrong output, a non-finite loss or a request that
/// was not answered kOk. `mismatched` counts the wrong outputs among them:
/// any makes the run incorrect (non-zero exit).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable lines printed before the JSON result (sample counts,
  /// workload-specific figures that the JSON folds into generic metrics).
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records one checked output and whether it was correct.
  void check(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      ++mismatched;
    }
  }
  /// Records one operation that completed correctly or did not complete.
  void count(bool completed) {
    ++attempted;
    if (!completed) ++failed;
  }
};

/// Order statistic with linear interpolation between closest ranks.
/// q in [0, 1].
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// The `across`-quantile (default the median) over consecutive windows of
/// `window` samples (in time order) of each window's q-quantile: a stall of
/// the host moves the windows it hits, not the figure. The whole sample's
/// quantile below three windows.
double windowed_quantile(const std::vector<double>& v, double q,
                         std::size_t window, double across = 0.5);

/// True when at least ten samples lie beyond quantile q — the benchmark's
/// rule for reporting a percentile at all.
bool tail_supported(std::size_t samples, double q);

/// Median of `reps` timed calls of `fn` — the set-up time estimator.
template <typename Fn>
double median_time_s(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_between(t0, Clock::now()));
  }
  return median(t);
}

/// Runs `body(i)` until `seconds` have passed and at least `min_iters`
/// calls were made (hard cap: 4x the time); returns the per-call times in s.
/// A body that returns a double reports its own time (to leave input
/// preparation out of it).
template <typename Body>
std::vector<double> timed_loop(double seconds, std::size_t min_iters,
                               Body&& body) {
  std::vector<double> t;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_between(start, Clock::now());
    if ((elapsed >= seconds && t.size() >= min_iters) ||
        elapsed >= 4 * seconds)
      break;
    if constexpr (std::is_same_v<decltype(body(i)), double>) {
      t.push_back(body(i));
    } else {
      const auto t0 = Clock::now();
      body(i);
      t.push_back(seconds_between(t0, Clock::now()));
    }
  }
  return t;
}

/// Fixed-point rendering for the human-readable lines.
std::string fmt(double v, int prec = 4);

/// Peak resident set size of this process in MB (getrusage).
double peak_rss_mb();

/// Bitwise equality of two float buffers.
bool same_bits(const float* a, const float* b, std::size_t n);

/// One complete span of the traced run. `parent` is 0 for a root span;
/// `request` is the request id of a serving span, or -1.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::string category;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::int64_t request = -1;
  std::uint32_t tid = 1;
};

/// In-memory span store of the traced run. Spans are recorded by the
/// benchmark around its own calls into each layer, kept in memory and
/// written out as a Chrome trace (through obs::TraceSession) at the end.
/// Thread-safe: the serving wrapper records from the engine's threads.
class Tracer {
 public:
  /// Microseconds since the tracer was created.
  double now_us() const;
  /// The same time base for an instant taken elsewhere.
  double us(Clock::time_point t) const;
  /// Reserves a span id, so children can name their parent before it ends.
  std::uint64_t next_id();
  void record(Span s);
  std::vector<Span> spans() const;
  /// Writes every span as a complete event with {"id","parent"[,"req"]}.
  void write_chrome_trace(const std::string& path) const;

 private:
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// RAII span: times its own lifetime and records it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string category, std::string name,
             std::uint64_t parent, std::int64_t request = -1,
             std::uint32_t tid = 1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

/// Per-root means of the spans below a root name: the root's duration, and
/// for each descendant name its total duration and its self time (duration
/// minus its children's). The roots' own self time is reported under
/// "unattributed".
struct SpanBreakdown {
  std::size_t roots = 0;
  double root_ms = 0.0;
  std::map<std::string, double> total_ms;
  std::map<std::string, double> self_ms;

  double self(const std::string& name) const { return get(self_ms, name); }
  double total(const std::string& name) const { return get(total_ms, name); }

 private:
  static double get(const std::map<std::string, double>& m,
                    const std::string& name) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  }
};
SpanBreakdown breakdown(const std::vector<Span>& spans,
                        const std::string& root_name);

/// Layer-type name a span is recorded under: core.bcm_conv, nn.conv2d,
/// nn.batchnorm, nn.relu, nn.pool, nn.linear (or nn.other).
std::string layer_kind(const rpbcm::nn::Layer& layer);

/// Model seed of the VGG proxy. Fixed, so every --seed runs the same
/// network (same pruning mask, same operation count); the seed varies only
/// the inputs.
inline constexpr std::uint64_t kModelSeed = 42;
/// Global pruning ratio of the infer and serve workloads.
inline constexpr float kAlpha = 0.84F;

/// hadaBCM VGG-16 proxy (width 32, BS 8), pruned to `alpha` with
/// Algorithm-1 l2 ranking, every BCM layer prepared for inference.
std::unique_ptr<rpbcm::nn::Sequential> build_vgg(float alpha);

/// Host fingerprint carried by every output: cores, pool threads, eMAC
/// dispatch, compiler, build type and the RPBCM_* build/env settings.
std::string fingerprint_json();
/// False for any build that is not Release: its figures are not comparable.
bool comparable_build();

/// Every per-layer metric name with its unit, for every workload. A traced
/// run prints all of them; a layer the workload bypasses reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

// Workload entry points (one file each).
Result run_infer(const Options& opt);
Result run_train(const Options& opt);
Result run_serve(const Options& opt);
Result run_hw_sweep(const Options& opt);

}  // namespace perfbench
