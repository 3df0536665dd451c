#pragma once

/// \file bench.h
/// Shared plumbing of the haxbench workloads: command-line options, the
/// per-run report (end-to-end metrics, per-layer metrics, output-check
/// failures), wall-clock helpers and the in-memory span recorder.
///
/// Every layer is timed from outside, around calls into its public
/// functions; nothing here reaches into the library's internals.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/json.h"

namespace haxbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

/// Linear-interpolated percentile, `p` in [0, 100]; 0 for an empty sample.
[[nodiscard]] double percentile(std::span<const double> xs, double p);
[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double median(std::vector<double> xs);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (relative to the working directory) that receives the
  /// Chrome trace of a traced run.
  std::string out_dir = ".bench_build/out";
};

/// A metric as the benchmark reports it: a value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Outcome of one workload run. `metrics` carries the result-line
/// vocabulary (the end-to-end names in BENCHMARK.json, or the per-layer
/// names in a traced run); `named` carries the same numbers under the workload's own
/// names (schedule_p50_ms, serve_p99_ms, ...) for the human-readable
/// report; `labels` marks each measurement cold (fresh state) or warm.
struct Report {
  bool correct = true;  ///< every output check passed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed or refused operations plus failed checks
  std::vector<std::string> failures;  ///< first few diagnostics
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> named;
  std::map<std::string, std::string> labels;
  /// Within-run spread (IQR / median) of the repetitions behind a metric.
  std::map<std::string, double> within_run_spread;

  /// Records one output check; a failed check marks the run incorrect and
  /// counts as a failed operation.
  void check(bool ok, const std::string& what);
  /// Counts an operation that failed or was refused (not an output error).
  void fail(const std::string& what);

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void name(const std::string& name, double value, const std::string& unit) {
    named[name] = {value, unit};
  }
  /// Records (q3 - q1) / median of the repetitions behind `metric`.
  void spread_of(const std::string& metric, const std::vector<double>& reps);
};

/// In-memory span recorder: name, start, end and parent, kept until the
/// run ends and then written as Chrome-trace JSON (loadable in Perfetto
/// next to sim/trace_export output). Disabled recorders cost one branch
/// per span. Aggregates (count, total, self time) are kept for every
/// span even after the stored-span cap is reached.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  class Scope {
   public:
    Scope(Spans* owner, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* owner_;
    const char* name_;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
    Clock::time_point start_;
  };

  [[nodiscard]] Scope scope(const char* name) { return Scope(enabled_ ? this : nullptr, name); }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Traced workloads run an untraced pass first (the overhead baseline);
  /// toggled only while no span is open.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  struct Aggregate {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< total minus time covered by child spans
  };
  [[nodiscard]] Aggregate aggregate(const std::string& name) const;
  /// Mean duration of the spans called `name`; 0 when there are none.
  [[nodiscard]] double mean_ms(const std::string& name) const;
  /// Every span name's aggregate.
  [[nodiscard]] std::map<std::string, Aggregate> aggregates() const;
  [[nodiscard]] std::size_t recorded() const;

  /// Writes every stored span as Chrome-trace "X" events (microseconds).
  void write_chrome_trace(const std::string& path, const std::string& process_name) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint32_t thread;
    double start_us;
    double end_us;
  };
  void finish(const char* name, std::uint32_t id, std::uint32_t parent, Clock::time_point start,
              Clock::time_point end);

  static constexpr std::size_t kMaxStored = 400'000;

  bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::uint32_t next_id_ = 1;
  std::vector<Span> spans_;
  std::map<std::string, Aggregate> aggregates_;
  /// Child time accumulated per open span id, subtracted at its close.
  std::map<std::uint32_t, double> child_ms_;
};

/// Per-layer metric vocabulary of a traced run, with units. Every traced
/// run reports all of them; a layer the workload does not cross reads 0.
/// Times of layers that only some workloads cross stay out of the result
/// line (`in_result` false: they would read 0 ms on every run of the other
/// workloads) and appear in the report and the record.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
  bool in_result = true;
};
[[nodiscard]] std::span<const LayerMetricSpec> layer_metric_specs();

// Workload entry points (one translation unit each).
void run_cold_solve(const Options& options, Report& report, Spans& spans);
void run_serve_drift(const Options& options, Report& report, Spans& spans);
void run_sim_stream(const Options& options, Report& report, Spans& spans);
void run_fleet_replay(const Options& options, Report& report, Spans& spans);

/// Set-up repetitions (seconds); the median is reported.
struct SetupTiming {
  std::vector<double> seconds;
  void record(Clock::time_point t0) { seconds.push_back(ms_since(t0) / 1000.0); }
  void report_to(Report& report) const;
};

/// Number of set-up repetitions per run (the median is reported).
inline constexpr int kSetupReps = 3;

}  // namespace haxbench
