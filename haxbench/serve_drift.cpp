/// \file serve_drift.cpp
/// serve-drift: one generator thread driving a 2-worker
/// serve::SchedulerService (library defaults) with requests drawn from a
/// seeded popularity mix over drifted scenario variants:
///   - repeats of known variants (cache hits, skewed toward the hot set),
///   - drifted variants of known scenarios (misses that warm-start),
///   - scenarios never seen before (cold misses),
///   - refresh requests, which re-solve a cached variant so cache writes
///     arrive beside reads.
/// Priorities and deadlines are mixed. Two phases: an open loop at a
/// fixed reference rate, each request timed from its due time, then a
/// closed loop (a window of requests in flight) that measures the rate
/// the service sustains on the same mix.

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/haxconn.h"
#include "nn/zoo.h"
#include "sched/fingerprint.h"
#include "sched/formulation.h"
#include "sched/validate.h"
#include "serve/service.h"
#include "soc/platform.h"

namespace haxbench {

namespace {

using hax::serve::Priority;
using hax::serve::ServeOutcome;

/// Open-loop reference rate, well below the service's knee on this mix.
constexpr double kReferenceRps = 200.0;
/// Share of the window spent in the open loop; the rest is the closed loop.
constexpr double kOpenLoopShare = 0.6;
/// Requests in flight during the closed loop (two per worker).
constexpr std::size_t kWindow = 4;
/// Drift buckets per scenario: each is a variant whose ε moved by 1%
/// (540 scenarios x 24 buckets = 12,960 variants).
constexpr int kDriftBuckets = 24;
/// Variants solved and cached during set-up (the initial hot set).
constexpr std::size_t kPrimed = 32;
constexpr int kPipelineFrames = 2;

/// Request kinds per cycle of kCycle requests (their positions within a
/// cycle are seeded): repeats of known variants fill the rest.
constexpr std::size_t kCycle = 25;
constexpr std::size_t kNovelPerCycle = 1;    ///< scenario never requested before
constexpr std::size_t kDriftPerCycle = 2;    ///< drifted variant of a known scenario
constexpr std::size_t kRefreshPerCycle = 1;  ///< re-solve of a cached variant

struct Workload {
  std::vector<hax::soc::Platform> platforms;
  std::vector<std::unique_ptr<hax::sched::ProblemInstance>> bases;  ///< seeded order
  /// variants[base * kDriftBuckets + bucket]
  std::vector<hax::sched::Problem> variants;
  std::vector<hax::sched::CanonicalScenario> canons;
};

/// The scenarios, in the order clients introduce them. Order and stage
/// directions are the same for every seed (a fixed interleave of the
/// strata): which scenarios a run solves sets the miss-solve cost, and with
/// it the sustained rate, and a seeded order moved that rate by ~10%
/// between seeds. The seed drives the request stream (see Generator).
Workload build(Spans& spans) {
  Workload w;
  w.platforms = {hax::soc::Platform::orin(), hax::soc::Platform::xavier(),
                 hax::soc::Platform::sd865()};
  const std::vector<std::string> names = hax::nn::zoo::evaluation_set();
  struct BaseSpec {
    int platform;
    hax::sched::Objective objective;
    std::size_t a, b;
    bool pipelined;
  };
  std::vector<BaseSpec> specs;
  for (int p = 0; p < 3; ++p) {
    for (const auto objective :
         {hax::sched::Objective::MinMaxLatency, hax::sched::Objective::MaxThroughput}) {
      for (std::size_t a = 0; a < names.size(); ++a) {
        for (std::size_t b = a + 1; b < names.size(); ++b) {
          specs.push_back({p, objective, a, b, false});
          // Alternate the stage order of the pipelines.
          const bool forward = (a + b) % 2 == 0;
          specs.push_back({p, objective, forward ? a : b, forward ? b : a, true});
        }
      }
    }
  }
  hax::Rng interleave(0x5E4E);
  for (std::size_t i = specs.size(); i > 1; --i) {
    std::swap(specs[i - 1], specs[interleave.uniform_index(i)]);
  }

  for (const BaseSpec& s : specs) {
    hax::core::HaxConnOptions hopts;
    hopts.objective = s.objective;
    const hax::core::HaxConn hax(w.platforms[static_cast<std::size_t>(s.platform)], hopts);
    std::vector<hax::core::WorkloadDnn> dnns;
    {
      const auto span = spans.scope("front.zoo");
      dnns.push_back({hax::nn::zoo::by_name(names[s.a]), -1, s.pipelined ? kPipelineFrames : 1});
      dnns.push_back({hax::nn::zoo::by_name(names[s.b]), s.pipelined ? 0 : -1,
                      s.pipelined ? kPipelineFrames : 1});
    }
    const auto span = spans.scope("front.make_problem");
    w.bases.push_back(
        std::make_unique<hax::sched::ProblemInstance>(hax.make_problem(std::move(dnns))));
  }
  w.variants.reserve(w.bases.size() * kDriftBuckets);
  for (const auto& base : w.bases) {
    for (int k = 0; k < kDriftBuckets; ++k) {
      hax::sched::Problem v = base->problem();
      v.epsilon_ms *= 1.0 + 0.01 * k;
      w.variants.push_back(std::move(v));
    }
  }
  w.canons.reserve(w.variants.size());
  for (const hax::sched::Problem& v : w.variants) w.canons.push_back(hax::sched::canonicalize(v));
  return w;
}

/// The seeded request stream: which variant, with which class, deadline
/// and refresh flag. Tracks which scenarios and variants clients know.
class Generator {
 public:
  Generator(std::uint64_t seed, const Workload& w)
      : rng_(seed * 0xE7037ED1A0B428DBull + 7), w_(w), used_buckets_(w.bases.size(), 0) {}

  /// Introduces the next unseen scenario (bucket 0) and returns its variant.
  std::size_t novel() {
    const std::size_t base = next_base_ % w_.bases.size();
    ++next_base_;
    known_bases_.push_back(base);
    used_buckets_[base] = std::max(used_buckets_[base], 1);
    return remember(base * kDriftBuckets);
  }

  hax::serve::ScenarioRequest next(std::size_t& variant) {
    if (cycle_.empty()) refill_cycle();
    const Kind kind = cycle_.back();
    cycle_.pop_back();
    hax::serve::ScenarioRequest r;
    switch (kind) {
      case Kind::kNovel:
        variant = novel();
        break;
      case Kind::kDrift:
        variant = drift();
        break;
      case Kind::kRepeat: {
        // Popularity skew: u^3 favours the earliest (hottest) variants.
        const double v = rng_.uniform();
        variant = known_[static_cast<std::size_t>(v * v * v * static_cast<double>(known_.size()))];
        break;
      }
      case Kind::kRefresh:
        // Uniform over known variants: with the popularity skew a fifth of
        // all refreshes would re-solve the single hottest variant, and its
        // solve cost would set the sustained rate for the whole seed.
        variant = known_[rng_.uniform_index(known_.size())];
        r.refresh = true;
        break;
    }
    r.problem = &w_.variants[variant];
    r.canon = &w_.canons[variant];
    r.priority = static_cast<Priority>(rng_.uniform_index(3));
    // Generous deadlines: below the knee no request should expire.
    if (r.priority == Priority::kHigh) r.deadline_ms = 1000.0;
    if (r.priority == Priority::kLow) r.deadline_ms = 3000.0;
    return r;
  }

 private:
  enum class Kind { kRepeat, kNovel, kDrift, kRefresh };

  void refill_cycle() {
    cycle_.assign(kCycle, Kind::kRepeat);
    std::fill_n(cycle_.begin(), kNovelPerCycle, Kind::kNovel);
    std::fill_n(cycle_.begin() + kNovelPerCycle, kDriftPerCycle, Kind::kDrift);
    std::fill_n(cycle_.begin() + kNovelPerCycle + kDriftPerCycle, kRefreshPerCycle,
                Kind::kRefresh);
    for (std::size_t i = cycle_.size(); i > 1; --i) {
      std::swap(cycle_[i - 1], cycle_[rng_.uniform_index(i)]);
    }
  }

  /// The next drift bucket of the known scenarios, round robin.
  std::size_t drift() {
    for (std::size_t tried = 0; tried < known_bases_.size(); ++tried) {
      const std::size_t base = known_bases_[drift_cursor_++ % known_bases_.size()];
      if (used_buckets_[base] < kDriftBuckets) {
        return remember(base * kDriftBuckets + static_cast<std::size_t>(used_buckets_[base]++));
      }
    }
    return novel();
  }
  std::size_t remember(std::size_t variant) {
    known_.push_back(variant);
    return variant;
  }

  hax::Rng rng_;
  const Workload& w_;
  std::vector<Kind> cycle_;
  std::size_t next_base_ = 0;
  std::size_t drift_cursor_ = 0;
  std::vector<std::size_t> known_;
  std::vector<std::size_t> known_bases_;
  std::vector<int> used_buckets_;
};

struct Sent {
  std::size_t variant = 0;
  Clock::time_point due;
  Clock::time_point submitted;
  double submit_us = 0.0;  ///< the submit call alone
  double send_us = 0.0;    ///< the submit call with its span, if tracing
  hax::serve::ScheduleTicket ticket;
};

struct PhaseResult {
  std::vector<Sent> sent;
  double elapsed_s = 0.0;
};

Sent send(hax::serve::SchedulerService& svc, Generator& gen, Clock::time_point due,
          Spans& spans) {
  Sent s;
  const hax::serve::ScenarioRequest r = gen.next(s.variant);
  s.due = due;
  const Clock::time_point t0 = Clock::now();
  {
    const auto span = spans.scope("serve.submit");
    s.submitted = Clock::now();
    s.ticket = svc.submit(r);
    s.submit_us = ms_since(s.submitted) * 1000.0;
  }
  s.send_us = ms_since(t0) * 1000.0;
  return s;
}

PhaseResult open_loop(hax::serve::SchedulerService& svc, Generator& gen, double seconds,
                      std::uint64_t seed, Spans& spans) {
  hax::Rng arrivals(seed * 0x94D049BB133111EBull + 3);
  PhaseResult pr;
  const Clock::time_point start = Clock::now();
  double offset_ms = 0.0;
  while (true) {
    // Poisson arrivals at the reference rate.
    offset_ms += -std::log(1.0 - arrivals.uniform()) * 1000.0 / kReferenceRps;
    if (offset_ms >= seconds * 1000.0) break;
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(offset_ms));
    std::this_thread::sleep_until(due);
    pr.sent.push_back(send(svc, gen, due, spans));
  }
  for (const Sent& s : pr.sent) s.ticket.wait();
  pr.elapsed_s = ms_since(start) / 1000.0;
  return pr;
}

PhaseResult closed_loop(hax::serve::SchedulerService& svc, Generator& gen, double seconds,
                        Spans& spans) {
  PhaseResult pr;
  std::deque<std::size_t> in_flight;
  const Clock::time_point start = Clock::now();
  while (ms_since(start) < seconds * 1000.0) {
    while (!in_flight.empty() && pr.sent[in_flight.front()].ticket.done()) in_flight.pop_front();
    if (in_flight.size() >= kWindow) {
      pr.sent[in_flight.front()].ticket.wait();
      continue;
    }
    pr.sent.push_back(send(svc, gen, Clock::now(), spans));
    in_flight.push_back(pr.sent.size() - 1);
  }
  for (const std::size_t i : in_flight) pr.sent[i].ticket.wait();
  pr.elapsed_s = ms_since(start) / 1000.0;
  return pr;
}

/// Due-time latencies (ms) of the replies.
std::vector<double> latencies(const PhaseResult& pr) {
  std::vector<double> out;
  out.reserve(pr.sent.size());
  for (const Sent& s : pr.sent) {
    out.push_back(ms_between(s.due, s.submitted) + s.ticket.reply().latency_ms);
  }
  return out;
}

/// Output checks on every reply: served, valid, and its objective equal
/// to the predictor's verdict on the served schedule.
void check_replies(const Workload& w, const PhaseResult& pr, Report& report, Spans& spans,
                   std::map<std::size_t, std::unique_ptr<hax::sched::Formulation>>& formulations,
                   double& predict_ms, std::uint64_t& predict_calls) {
  for (const Sent& s : pr.sent) {
    ++report.attempted;
    const hax::serve::ServeReply reply = s.ticket.reply();
    if (reply.outcome != ServeOutcome::kHit && reply.outcome != ServeOutcome::kSolved) {
      report.fail(std::string("request not served: ") + hax::serve::to_string(reply.outcome));
      continue;
    }
    const hax::sched::Problem& problem = w.variants[s.variant];
    report.check(hax::sched::validate_schedule(problem, reply.schedule,
                                               {.enforce_transition_budget = false})
                     .ok(),
                 "served schedule fails validation");
    auto& f = formulations[s.variant];
    if (!f) f = std::make_unique<hax::sched::Formulation>(problem);
    const auto span = spans.scope("predict");
    const Clock::time_point t0 = Clock::now();
    const double predicted = f->predict(reply.schedule).objective_value;
    predict_ms += ms_since(t0);
    ++predict_calls;
    report.check(predicted == reply.objective,
                 "served objective differs from Formulation::predict of the served schedule");
  }
}

}  // namespace

void run_serve_drift(const Options& options, Report& report, Spans& spans) {
  const bool traced = spans.enabled();
  SetupTiming setup;
  Workload w;
  std::unique_ptr<hax::serve::SchedulerService> svc;
  std::unique_ptr<Generator> gen;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    spans.set_enabled(traced && rep == kSetupReps - 1);
    svc.reset();
    gen.reset();
    const Clock::time_point t0 = Clock::now();
    w = build(spans);
    svc = std::make_unique<hax::serve::SchedulerService>();
    gen = std::make_unique<Generator>(options.seed, w);
    // Prime the hot set: solve and cache the first variants.
    std::vector<hax::serve::ScheduleTicket> primed;
    for (std::size_t i = 0; i < kPrimed; ++i) {
      const std::size_t v = gen->novel();
      hax::serve::ScenarioRequest r;
      r.problem = &w.variants[v];
      r.canon = &w.canons[v];
      primed.push_back(svc->submit(r));
    }
    for (const hax::serve::ScheduleTicket& t : primed) t.wait();
    setup.record(t0);
  }
  spans.set_enabled(false);
  setup.report_to(report);

  std::map<std::size_t, std::unique_ptr<hax::sched::Formulation>> formulations;
  double predict_ms = 0.0;
  std::uint64_t predict_calls = 0;
  const double window = traced ? options.seconds / 2.0 : options.seconds;

  const PhaseResult open = open_loop(*svc, *gen, window * kOpenLoopShare, options.seed, spans);
  const PhaseResult closed = closed_loop(*svc, *gen, window * (1.0 - kOpenLoopShare), spans);
  check_replies(w, open, report, spans, formulations, predict_ms, predict_calls);
  check_replies(w, closed, report, spans, formulations, predict_ms, predict_calls);

  const std::vector<double> lat = latencies(open);
  const double p50 = percentile(lat, 50.0);
  const double p99 = percentile(lat, 99.0);
  const double max_rps = static_cast<double>(closed.sent.size()) / closed.elapsed_s;
  report.set("p50_ms", p50, "ms");
  report.set("tail_ms", p99, "ms");
  report.set("throughput_per_s", max_rps, "1/s");
  report.name("serve_p50_ms", p50, "ms");
  report.name("serve_p99_ms", p99, "ms");
  report.name("serve_max_rps", max_rps, "1/s");
  report.name("reference_rps", kReferenceRps, "1/s");
  report.name("open_loop_requests", static_cast<double>(open.sent.size()), "count");
  report.name("closed_loop_requests", static_cast<double>(closed.sent.size()), "count");
  report.name("variants", static_cast<double>(w.variants.size()), "count");
  for (const char* m : {"serve_p50_ms", "serve_p99_ms", "serve_max_rps"}) {
    report.labels[m] = "warm";  // the hot set is cached during set-up
  }

  if (!traced) return;

  // Traced phases continue on the same (now warmer) service and stream.
  const auto send_mean_us = [](const PhaseResult& pr) {
    double sum = 0.0;
    for (const Sent& s : pr.sent) sum += s.send_us;
    return pr.sent.empty() ? 0.0 : sum / static_cast<double>(pr.sent.size());
  };
  spans.set_enabled(true);
  const PhaseResult t_open = open_loop(*svc, *gen, window * kOpenLoopShare, options.seed + 1, spans);
  const PhaseResult t_closed = closed_loop(*svc, *gen, window * (1.0 - kOpenLoopShare), spans);
  const hax::serve::ServiceStats t_stats = svc->stats();
  check_replies(w, t_open, report, spans, formulations, predict_ms, predict_calls);
  check_replies(w, t_closed, report, spans, formulations, predict_ms, predict_calls);
  spans.set_enabled(false);
  report.set("trace.overhead_pct",
             (send_mean_us(t_open) / send_mean_us(open) - 1.0) * 100.0, "%");

  std::vector<double> submit_us;
  std::vector<double> late_ms;
  for (const PhaseResult* pr : {&t_open, &t_closed}) {
    for (const Sent& s : pr->sent) submit_us.push_back(s.submit_us);
  }
  for (const Sent& s : t_open.sent) late_ms.push_back(ms_between(s.due, s.submitted));
  // Service counters cover the whole run (untraced and traced phases).
  const hax::serve::ClassStats& total = t_stats.total;
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  report.set("front.zoo_ms", spans.mean_ms("front.zoo"), "ms");
  report.set("front.make_problem_ms", spans.mean_ms("front.make_problem"), "ms");
  report.set("predict.calls", static_cast<double>(predict_calls), "count");
  report.set("predict.ms", predict_calls == 0 ? 0.0 : predict_ms / predict_calls, "ms");
  report.set("serve.submit_us_p50", percentile(submit_us, 50.0), "us");
  report.set("serve.submit_us_p99", percentile(submit_us, 99.0), "us");
  report.set("serve.hit_ratio", ratio(total.cache_hits, total.completed), "ratio");
  report.set("serve.warm_start_ratio", ratio(total.warm_started, total.solved), "ratio");
  report.set("serve.solves", static_cast<double>(t_stats.solves_started), "count");
  report.set("serve.deadline_limited", static_cast<double>(total.deadline_limited), "count");
  report.set("serve.rejected", static_cast<double>(total.rejected), "count");
  report.set("serve.expired", static_cast<double>(total.expired), "count");
  report.set("serve.peak_queue", static_cast<double>(t_stats.peak_queue_depth), "count");
  report.set("cache.evictions", static_cast<double>(t_stats.cache.evictions), "count");
  report.set("cache.improvements", static_cast<double>(t_stats.cache.improvements), "count");
  report.set("cache.publish_rejected", static_cast<double>(t_stats.cache.rejected), "count");
  report.set("gen.late_p99_ms", percentile(late_ms, 99.0), "ms");
}

}  // namespace haxbench
