#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>

namespace haxbench {

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double median(std::vector<double> xs) { return percentile(xs, 50.0); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  fail("check failed: " + what);
}

void Report::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Report::spread_of(const std::string& metric, const std::vector<double>& reps) {
  const double med = median(reps);
  if (med > 0.0) {
    within_run_spread[metric] = (percentile(reps, 75.0) - percentile(reps, 25.0)) / med;
  }
}

void SetupTiming::report_to(Report& report) const {
  const double med = median(seconds);
  report.set("setup_s", med, "s");
  report.name("setup_s", med, "s");
  report.labels["setup_s"] = "cold";
  report.spread_of("setup_s", seconds);
}

// ---------------------------------------------------------------- spans --

namespace {

thread_local std::uint32_t t_open_span = 0;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace

Spans::Scope::Scope(Spans* owner, const char* name) : owner_(owner), name_(name) {
  if (owner_ == nullptr) return;
  {
    const std::lock_guard<std::mutex> lock(owner_->mu_);
    id_ = owner_->next_id_++;
  }
  parent_ = t_open_span;
  t_open_span = id_;
  start_ = Clock::now();
}

Spans::Scope::~Scope() {
  if (owner_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  t_open_span = parent_;
  owner_->finish(name_, id_, parent_, start_, end);
}

void Spans::finish(const char* name, std::uint32_t id, std::uint32_t parent,
                   Clock::time_point start, Clock::time_point end) {
  const double dur_ms = ms_between(start, end);
  const std::lock_guard<std::mutex> lock(mu_);
  double child_ms = 0.0;
  if (const auto it = child_ms_.find(id); it != child_ms_.end()) {
    child_ms = it->second;
    child_ms_.erase(it);
  }
  if (parent != 0) child_ms_[parent] += dur_ms;
  Aggregate& agg = aggregates_[name];
  ++agg.count;
  agg.total_ms += dur_ms;
  agg.self_ms += dur_ms - child_ms;
  if (spans_.size() < kMaxStored) {
    spans_.push_back({name, id, parent, thread_index(),
                      std::chrono::duration<double, std::micro>(start - epoch_).count(),
                      std::chrono::duration<double, std::micro>(end - epoch_).count()});
  }
}

Spans::Aggregate Spans::aggregate(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = aggregates_.find(name);
  return it == aggregates_.end() ? Aggregate{} : it->second;
}

std::map<std::string, Spans::Aggregate> Spans::aggregates() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return aggregates_;
}

double Spans::mean_ms(const std::string& name) const {
  const Aggregate a = aggregate(name);
  return a.count == 0 ? 0.0 : a.total_ms / static_cast<double>(a.count);
}

std::size_t Spans::recorded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Spans::write_chrome_trace(const std::string& path, const std::string& process_name) const {
  using hax::json::Object;
  using hax::json::Value;
  hax::json::Array events;
  Object meta;
  meta.emplace("name", "process_name");
  meta.emplace("ph", "M");
  meta.emplace("pid", 2);
  meta.emplace("args", Object{{"name", Value(process_name)}});
  events.emplace_back(std::move(meta));
  {
    const std::lock_guard<std::mutex> lock(mu_);
    events.reserve(spans_.size() + 1);
    for (const Span& s : spans_) {
      Object e;
      e.emplace("name", s.name);
      e.emplace("ph", "X");
      e.emplace("pid", 2);
      e.emplace("tid", static_cast<int>(s.thread));
      e.emplace("ts", s.start_us);
      e.emplace("dur", s.end_us - s.start_us);
      e.emplace("args", Object{{"id", Value(static_cast<int>(s.id))},
                               {"parent", Value(static_cast<int>(s.parent))}});
      events.emplace_back(std::move(e));
    }
  }
  Object doc;
  doc.emplace("traceEvents", std::move(events));
  doc.emplace("displayTimeUnit", "ms");
  std::ofstream out(path);
  out << Value(std::move(doc)).dump() << '\n';
}

// ------------------------------------------------------ layer vocabulary --

std::span<const LayerMetricSpec> layer_metric_specs() {
  static constexpr LayerMetricSpec kSpecs[] = {
      // front end: nn, grouping, perf, contention via HaxConn::make_problem
      {"front.zoo_ms", "ms"},
      {"front.make_problem_ms", "ms"},
      // sched + solver
      {"solve.ms", "ms", false},
      {"solve.calls", "count"},
      {"solve.eps_retries", "count"},
      {"bnb.nodes", "count"},
      {"bnb.pruned", "count"},
      {"bnb.leaves", "count"},
      {"space.lower_bound_calls", "count"},
      {"space.lower_bound_ms", "ms", false},
      {"space.candidates_ms", "ms", false},
      {"space.evaluate_calls", "count"},
      {"space.evaluate_ms", "ms", false},
      {"bnb.bookkeeping_ms", "ms", false},
      {"memo.hit_ratio", "ratio"},
      {"solve.proven_optimal_frac", "ratio"},
      {"core.fallback_ms", "ms", false},
      {"core.fallback_frac", "ratio"},
      // sim
      {"sim.runs", "count"},
      {"sim.ms", "ms", false},
      {"sim.records", "count"},
      {"sim.us_per_record", "us", false},
      {"sim.avg_slowdown", "ratio"},
      {"sim.transition_share", "ratio"},
      {"sim.gain_pct", "%"},
      // sched predictor
      {"predict.calls", "count"},
      {"predict.ms", "ms"},
      {"predict.error_pct", "%"},
      // serve
      {"serve.submit_us_p50", "us", false},
      {"serve.submit_us_p99", "us", false},
      {"serve.hit_ratio", "ratio"},
      {"serve.warm_start_ratio", "ratio"},
      {"serve.solves", "count"},
      {"serve.deadline_limited", "count"},
      {"serve.rejected", "count"},
      {"serve.expired", "count"},
      {"serve.peak_queue", "count"},
      {"cache.evictions", "count"},
      {"cache.improvements", "count"},
      {"cache.publish_rejected", "count"},
      {"gen.late_p99_ms", "ms", false},
      // fleet
      {"fleet.submit_ns", "ns", false},
      {"fleet.pump_ms", "ms", false},
      {"fleet.pump_applied", "count"},
      {"fleet.snapshot_ms", "ms", false},
      {"fleet.restart_ms", "ms", false},
      {"fleet.hit_ratio", "ratio"},
      {"fleet.solves", "count"},
      {"fleet.virtual_rps", "1/s"},
      // the traced pass against the untraced pass of the same inputs
      {"trace.overhead_pct", "%"},
  };
  return kSpecs;
}

}  // namespace haxbench
