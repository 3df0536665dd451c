/// \file sim_stream.cpp
/// sim-stream: closed loop over fixed schedules of long pipelined 2- and
/// 3-DNN streams (16 frames). Every schedule (each baselines::Kind plus
/// seeded random feasible assignments) goes through both core::evaluate,
/// the discrete-event simulator, and Formulation::predict; a seeded share
/// runs under a faults::FaultPlan::random timeline. No solver runs here,
/// so this is the one workload where simulator speed is visible.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "bench.h"
#include "common/rng.h"
#include "core/evaluate.h"
#include "core/haxconn.h"
#include "faults/fault_plan.h"
#include "nn/zoo.h"
#include "sched/formulation.h"
#include "sched/search_space.h"
#include "sched/validate.h"
#include "soc/platform.h"

namespace haxbench {

namespace {

constexpr int kFrames = 16;
constexpr int kRandomSchedules = 3;
constexpr std::size_t kTriplesPerPlatform = 3;
/// One item in this many runs under a random fault plan.
constexpr std::uint64_t kFaultEvery = 4;

struct Stream {
  std::unique_ptr<hax::sched::ProblemInstance> instance;
  std::unique_ptr<hax::sched::Formulation> formulation;
};

struct Item {
  std::size_t stream = 0;
  hax::sched::Schedule schedule;
  std::unique_ptr<hax::faults::FaultPlan> faults;  ///< null: fault-free run
};

struct Workload {
  std::vector<hax::soc::Platform> platforms;
  std::vector<Stream> streams;
  std::vector<Item> items;
};

const hax::sched::PredictOptions kLenient{.enforce_transition_budget = false,
                                          .enforce_epsilon = false};

/// A uniformly drawn feasible assignment: a random descent through the
/// search space's candidate lists (support and transition budget hold by
/// construction). Dead ends restart the descent.
bool random_schedule(const hax::sched::ScheduleSpace& space, hax::Rng& rng,
                     hax::sched::Schedule& out) {
  std::vector<int> prefix;
  std::vector<int> candidates;
  for (int attempt = 0; attempt < 64; ++attempt) {
    prefix.clear();
    while (static_cast<int>(prefix.size()) < space.variable_count()) {
      space.candidates(prefix, candidates);
      if (candidates.empty()) break;
      prefix.push_back(candidates[rng.uniform_index(candidates.size())]);
    }
    if (static_cast<int>(prefix.size()) == space.variable_count()) {
      out = space.to_schedule(prefix);
      return true;
    }
  }
  return false;
}

/// Streams of fixed composition: on every platform, every pair of
/// evaluation-set DNNs as a two-stage pipeline in a seeded stage order,
/// plus three triples from a fixed cyclic design (DNNs i, i+1, i+3). The
/// seed picks the stage orders, the random schedules and which runs see a
/// fault plan (and the plan); a free sample of DNN combinations would move
/// the per-run cost by more than the bound between seeds.
Workload build(std::uint64_t seed, Spans& spans, Report& report) {
  hax::Rng rng(seed * 0xD1B54A32D192ED03ull + 0x5157);
  Workload w;
  w.platforms = {hax::soc::Platform::orin(), hax::soc::Platform::xavier(),
                 hax::soc::Platform::sd865()};
  const std::vector<std::string> names = hax::nn::zoo::evaluation_set();
  const std::size_t n = names.size();
  for (std::size_t p = 0; p < w.platforms.size(); ++p) {
    hax::core::HaxConnOptions hopts;
    hopts.objective = hax::sched::Objective::MaxThroughput;
    const hax::core::HaxConn hax(w.platforms[p], hopts);
    std::vector<std::vector<std::string>> stages;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        stages.push_back(rng.uniform_index(2) == 0 ? std::vector{names[a], names[b]}
                                                   : std::vector{names[b], names[a]});
      }
    }
    for (std::size_t t = 0; t < kTriplesPerPlatform; ++t) {
      const std::size_t i = (p + 3 * t) % n;
      stages.push_back({names[i], names[(i + 1) % n], names[(i + 3) % n]});
    }
    for (const std::vector<std::string>& order : stages) {
      std::vector<hax::core::WorkloadDnn> dnns;
      {
        const auto s = spans.scope("front.zoo");
        for (std::size_t d = 0; d < order.size(); ++d) {
          dnns.push_back({hax::nn::zoo::by_name(order[d]), static_cast<int>(d) - 1, kFrames});
        }
      }
      Stream stream;
      {
        const auto s = spans.scope("front.make_problem");
        stream.instance =
            std::make_unique<hax::sched::ProblemInstance>(hax.make_problem(std::move(dnns)));
      }
      const hax::sched::Problem& problem = stream.instance->problem();
      stream.formulation = std::make_unique<hax::sched::Formulation>(problem);
      const std::size_t index = w.streams.size();

      std::vector<hax::sched::Schedule> schedules;
      for (const hax::baselines::Kind kind : hax::baselines::all_kinds()) {
        schedules.push_back(hax::baselines::make(kind, problem));
      }
      const hax::sched::ScheduleSpace space(problem, {.memo_cache = false});
      for (int r = 0; r < kRandomSchedules; ++r) {
        hax::sched::Schedule s;
        if (random_schedule(space, rng, s)) schedules.push_back(std::move(s));
      }
      for (hax::sched::Schedule& s : schedules) {
        report.check(
            hax::sched::validate_schedule(problem, s, {.enforce_transition_budget = false})
                .ok(),
            "invalid stream schedule");
        Item item{index, std::move(s), nullptr};
        if (rng.uniform_index(kFaultEvery) == 0) {
          hax::faults::FaultPlan::RandomOptions fopts;
          fopts.horizon_ms = stream.formulation->predict(item.schedule, kLenient).makespan_ms;
          item.faults = std::make_unique<hax::faults::FaultPlan>(
              hax::faults::FaultPlan::random(rng.next(), w.platforms[p], fopts));
        }
        w.items.push_back(std::move(item));
      }
      w.streams.push_back(std::move(stream));
    }
  }
  return w;
}

struct ItemResult {
  double sim_makespan = 0.0;
  double predicted_makespan = 0.0;
};

struct PassStats {
  std::uint64_t records = 0;
  double transition_ms = 0.0, record_ms = 0.0;
  double slowdown_sum = 0.0;
  int slowdown_tasks = 0;
  double sim_ms = 0.0, predict_ms = 0.0;
  double error_sum = 0.0;
  int error_n = 0;
};

struct LoopResult {
  std::vector<double> item_ms;
  std::vector<double> pass_rate;  ///< items per second of each whole pass
  double elapsed_s = 0.0;
  double mean_item_ms = 0.0;
  PassStats first_pass;
};

LoopResult closed_loop(const Workload& w, double seconds, Spans& spans, Report& report,
                       std::vector<ItemResult>& reference) {
  LoopResult lr;
  const Clock::time_point start = Clock::now();
  const auto open = [&] { return ms_since(start) < seconds * 1000.0; };
  for (int pass = 0; pass == 0 || open(); ++pass) {
    const Clock::time_point pass_start = Clock::now();
    std::size_t i = 0;
    for (; i < w.items.size() && (pass == 0 || open()); ++i) {
      const Item& item = w.items[i];
      const Stream& stream = w.streams[item.stream];
      const hax::sched::Problem& problem = stream.instance->problem();
      hax::core::EvalOptions eo;
      eo.record_trace = true;
      eo.faults = item.faults.get();

      const auto item_span = spans.scope("stream.item");
      const Clock::time_point t0 = Clock::now();
      hax::core::EvalResult sim;
      {
        const auto s = spans.scope("sim.evaluate");
        sim = hax::core::evaluate(problem, item.schedule, eo);
      }
      const Clock::time_point t1 = Clock::now();
      hax::sched::Prediction pred;
      {
        const auto s = spans.scope("predict");
        pred = stream.formulation->predict(item.schedule, kLenient);
      }
      const Clock::time_point t2 = Clock::now();
      lr.item_ms.push_back(ms_between(t0, t2));
      ++report.attempted;

      const ItemResult got{sim.sim.makespan_ms, pred.makespan_ms};
      if (std::isnan(reference[i].sim_makespan)) {
        reference[i] = got;
        report.check(std::isfinite(got.sim_makespan) && got.sim_makespan > 0.0 &&
                         std::isfinite(got.predicted_makespan) && got.predicted_makespan > 0.0,
                     "non-positive simulated or predicted makespan");
      } else {
        report.check(reference[i].sim_makespan == got.sim_makespan &&
                         reference[i].predicted_makespan == got.predicted_makespan,
                     "simulated or predicted makespan differs between passes");
      }
      if (pass == 0) {
        PassStats& ps = lr.first_pass;
        ps.sim_ms += ms_between(t0, t1);
        ps.predict_ms += ms_between(t1, t2);
        ps.records += sim.sim.trace.records().size();
        for (const hax::sim::TraceRecord& r : sim.sim.trace.records()) {
          ps.record_ms += r.end - r.start;
          if (r.kind != hax::sim::SegmentKind::Exec) ps.transition_ms += r.end - r.start;
        }
        for (const hax::sim::TaskResult& t : sim.sim.tasks) {
          ps.slowdown_sum += t.avg_slowdown;
          ++ps.slowdown_tasks;
        }
        if (item.faults == nullptr) {
          ps.error_sum += std::abs(got.predicted_makespan - got.sim_makespan) / got.sim_makespan;
          ++ps.error_n;
        }
      }
    }
    if (i == w.items.size()) {  // whole passes only
      lr.pass_rate.push_back(static_cast<double>(i) / ms_since(pass_start) * 1000.0);
    }
  }
  lr.elapsed_s = ms_since(start) / 1000.0;
  lr.mean_item_ms = mean(lr.item_ms);
  return lr;
}

}  // namespace

void run_sim_stream(const Options& options, Report& report, Spans& spans) {
  const bool traced = spans.enabled();
  SetupTiming setup;
  Workload w;
  // Set-up: streams, schedules and fault plans, then one warm-up pass.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // The traced run records the front end during its last set-up.
    spans.set_enabled(traced && rep == kSetupReps - 1);
    const Clock::time_point t0 = Clock::now();
    Report scratch;
    w = build(options.seed, spans, rep == kSetupReps - 1 ? report : scratch);
    // One untimed pass warms code and allocator pools.
    spans.set_enabled(false);
    std::vector<ItemResult> warm(w.items.size(), ItemResult{NAN, NAN});
    (void)closed_loop(w, 0.0, spans, scratch, warm);
    setup.record(t0);
  }
  setup.report_to(report);

  std::vector<ItemResult> reference(w.items.size(), ItemResult{NAN, NAN});
  const double window = traced ? options.seconds / 2.0 : options.seconds;
  const LoopResult plain = closed_loop(w, window, spans, report, reference);
  const PassStats& fp = plain.first_pass;

  const double p50 = percentile(plain.item_ms, 50.0);
  // p90 rather than p99: the rarest runs (faults, triples) made the p99
  // move by twice as much as the median between runs of the same code.
  const double p90 = percentile(plain.item_ms, 90.0);
  // Median over whole passes: a transient slowdown of the host moves a few
  // passes, not the reported rate.
  const double rate = median(plain.pass_rate);
  report.spread_of("throughput_per_s", plain.pass_rate);
  const double error_pct = fp.error_n == 0 ? 0.0 : fp.error_sum / fp.error_n * 100.0;
  report.set("p50_ms", p50, "ms");
  report.set("tail_ms", p90, "ms");
  report.set("throughput_per_s", rate, "1/s");
  report.name("eval_p50_ms", p50, "ms");
  report.name("eval_p90_ms", p90, "ms");
  report.name("evals_per_s", rate, "1/s");
  report.name("pred_error_pct", error_pct, "%");
  report.name("streams", static_cast<double>(w.streams.size()), "count");
  report.name("schedules", static_cast<double>(w.items.size()), "count");
  for (const char* m : {"eval_p50_ms", "eval_p90_ms", "evals_per_s"}) report.labels[m] = "warm";
  report.labels["pred_error_pct"] = "simulated";

  if (!traced) return;

  spans.set_enabled(true);
  const LoopResult traced_loop = closed_loop(w, window, spans, report, reference);
  spans.set_enabled(false);
  report.set("trace.overhead_pct", (traced_loop.mean_item_ms / plain.mean_item_ms - 1.0) * 100.0,
             "%");
  const double runs = static_cast<double>(w.items.size());
  report.set("front.zoo_ms", spans.mean_ms("front.zoo"), "ms");
  report.set("front.make_problem_ms", spans.mean_ms("front.make_problem"), "ms");
  report.set("sim.runs", runs, "count");
  report.set("sim.ms", spans.mean_ms("sim.evaluate"), "ms");
  report.set("sim.records", static_cast<double>(fp.records), "count");
  report.set("sim.us_per_record", fp.sim_ms * 1000.0 / static_cast<double>(fp.records), "us");
  report.set("sim.avg_slowdown", fp.slowdown_sum / fp.slowdown_tasks, "ratio");
  report.set("sim.transition_share", fp.transition_ms / fp.record_ms, "ratio");
  report.set("predict.calls", runs, "count");
  report.set("predict.ms", spans.mean_ms("predict"), "ms");
  report.set("predict.error_pct", error_pct, "%");
}

}  // namespace haxbench
