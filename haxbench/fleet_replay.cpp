/// \file fleet_replay.cpp
/// fleet-replay: a virtual-time fleet::SchedulerFleet (4 brokers,
/// replication on) replaying a fleet::DeviceFleetSim request trace: 1000
/// devices with seeded calibration drift, replication pumped every 10k
/// requests, and one snapshot/restart drill per replay (the owner of
/// variant 0 snapshotted at 40% of the trace, killed and restored at
/// 50%). Every replay starts from a fresh fleet and a fresh trace, so all
/// replays of one seed must give byte-identical FleetStats JSON. This is
/// the workload where the router, the bus, restore and the
/// single-threaded cache-hit path are measured.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/haxconn.h"
#include "fleet/devices.h"
#include "fleet/fleet.h"
#include "nn/zoo.h"
#include "sched/formulation.h"
#include "sched/validate.h"
#include "soc/platform.h"

namespace haxbench {

namespace {

constexpr std::size_t kRequests = 200'000;  ///< per replay
constexpr std::size_t kPumpEvery = 10'000;
constexpr std::size_t kChunk = 1'000;       ///< submits per timed chunk
constexpr std::size_t kPoolSize = 8;
/// The fleet configuration bench_fleet uses: coarse grouping keeps each
/// node-limited solve cheap, so replays are dominated by the fleet's own
/// paths rather than by the 256 cold solves of the drifted variants.
constexpr int kMaxGroups = 5;

struct Workload {
  hax::soc::Platform platform = hax::soc::Platform::xavier();
  std::vector<std::unique_ptr<hax::sched::ProblemInstance>> instances;
  std::vector<const hax::sched::Problem*> pool;
};

/// The scenario pool: four pairs and four singles of evaluation-set DNNs,
/// all distinct (no permuted twins: the fleet needs fingerprint
/// diversity). The pool is the same for every seed; the seed drives the
/// device trace (arrivals, device-to-drift-bucket assignment, variants).
/// A seeded pool would move the 256 cold solves' cost, and with it every
/// timing, by tens of percent between seeds.
std::unique_ptr<Workload> build(Spans& spans) {
  auto w = std::make_unique<Workload>();
  hax::core::HaxConnOptions hopts;
  hopts.grouping.max_groups = kMaxGroups;
  const hax::core::HaxConn hax(w->platform, hopts);
  const std::vector<std::string> names = hax::nn::zoo::evaluation_set();
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    std::vector<hax::core::WorkloadDnn> dnns;
    {
      const auto s = spans.scope("front.zoo");
      if (i < kPoolSize / 2) {
        dnns.push_back({hax::nn::zoo::by_name(names[2 * i])});
        dnns.push_back({hax::nn::zoo::by_name(names[2 * i + 1])});
      } else {
        dnns.push_back({hax::nn::zoo::by_name(names[(2 * i) % names.size()])});
      }
    }
    const auto s = spans.scope("front.make_problem");
    w->instances.push_back(
        std::make_unique<hax::sched::ProblemInstance>(hax.make_problem(std::move(dnns))));
    w->pool.push_back(&w->instances.back()->problem());
  }
  return w;
}

hax::fleet::FleetOptions fleet_options() {
  hax::fleet::FleetOptions o;
  o.brokers = 4;
  o.replicate = true;
  // Virtual time needs inline brokers and a node-limited (not wall-clock)
  // solve budget; everything else is the library default.
  o.service.workers = 0;
  o.service.virtual_time = true;
  o.service.default_budget_ms = 0.0;
  o.service.default_node_limit = 4000;
  return o;
}

hax::fleet::DeviceFleetOptions trace_options(std::uint64_t seed) {
  hax::fleet::DeviceFleetOptions o;
  o.devices = 1000;
  o.drift_buckets = 32;
  o.seed = seed;
  o.mean_gap_ms = 0.005;
  return o;
}

struct Replay {
  std::string stats_json;
  hax::fleet::FleetStats stats;
  std::vector<double> chunk_ms;  ///< wall time per kPumpEvery requests
  double replay_ms = 0.0;
  std::size_t pump_applied = 0;
  double predict_ms = 0.0;
  std::uint64_t predict_calls = 0;
};

/// Output checks on a sample of replies (the first request of every
/// chunk): served, valid, and the objective equal to the predictor's
/// verdict on the served schedule.
void check_sample(const hax::fleet::DeviceFleetSim& sim,
                  const std::vector<std::pair<std::size_t, hax::serve::ScheduleTicket>>& sample,
                  Report& report, Spans& spans, Replay& r) {
  std::map<std::size_t, std::unique_ptr<hax::sched::Formulation>> formulations;
  for (const auto& [variant, ticket] : sample) {
    const hax::serve::ServeReply reply = ticket.reply();
    if (reply.outcome != hax::serve::ServeOutcome::kHit &&
        reply.outcome != hax::serve::ServeOutcome::kSolved) {
      report.check(false, "sampled fleet request not served");
      continue;
    }
    const hax::sched::Problem& problem = sim.problem(variant);
    report.check(hax::sched::validate_schedule(problem, reply.schedule,
                                               {.enforce_transition_budget = false})
                     .ok(),
                 "served fleet schedule fails validation");
    auto& f = formulations[variant];
    if (!f) f = std::make_unique<hax::sched::Formulation>(problem);
    const auto span = spans.scope("predict");
    const Clock::time_point t0 = Clock::now();
    const double predicted = f->predict(reply.schedule).objective_value;
    r.predict_ms += ms_since(t0);
    ++r.predict_calls;
    report.check(predicted == reply.objective,
                 "served fleet objective differs from Formulation::predict");
  }
}

/// One replay from a fresh fleet; `checks` (may be null) receives the
/// sampled output checks.
Replay replay(const Workload& w, std::uint64_t seed, Spans& spans, Report* checks) {
  Replay r;
  std::vector<std::pair<std::size_t, hax::serve::ScheduleTicket>> sample;
  hax::fleet::SchedulerFleet fleet(fleet_options());
  hax::fleet::DeviceFleetSim sim(w.pool, trace_options(seed));
  const std::size_t victim = fleet.router().route(sim.canon(0).fingerprint);
  const std::size_t snapshot_at = kRequests * 2 / 5;
  const std::size_t restart_at = kRequests / 2;
  hax::json::Value snapshot;

  const auto replay_span = spans.scope("fleet.replay");
  const Clock::time_point start = Clock::now();
  Clock::time_point chunk_start = start;
  for (std::size_t i = 0; i < kRequests; i += kChunk) {
    if (i == snapshot_at) {
      const auto s = spans.scope("fleet.snapshot");
      snapshot = fleet.snapshot_broker(victim);
    }
    if (i == restart_at) {
      const auto s = spans.scope("fleet.restart");
      fleet.restart_broker(victim, &snapshot);
      r.pump_applied += fleet.pump_replication();  // boot-time catch-up
    }
    {
      const auto s = spans.scope("fleet.submit_chunk");
      for (std::size_t j = 0; j < kChunk; ++j) {
        const hax::fleet::DeviceRequest req = sim.next();
        hax::serve::ScenarioRequest sr;
        sr.problem = &sim.problem(req.variant);
        sr.canon = &sim.canon(req.variant);
        hax::serve::ScheduleTicket ticket = fleet.submit_at(sr, req.arrival_ms);
        if (j == 0 && checks != nullptr) sample.emplace_back(req.variant, std::move(ticket));
      }
    }
    if ((i + kChunk) % kPumpEvery == 0) {
      {
        const auto s = spans.scope("fleet.pump");
        r.pump_applied += fleet.pump_replication();
      }
      const Clock::time_point now = Clock::now();
      r.chunk_ms.push_back(ms_between(chunk_start, now));
      chunk_start = now;
    }
  }
  r.replay_ms = ms_since(start);
  r.stats = fleet.stats();
  r.stats_json = r.stats.to_json().dump();
  if (checks != nullptr) check_sample(sim, sample, *checks, spans, r);
  return r;
}

}  // namespace

void run_fleet_replay(const Options& options, Report& report, Spans& spans) {
  const bool traced = spans.enabled();
  SetupTiming setup;
  std::unique_ptr<Workload> w;
  // Set-up: the scenario pool, then one warm-up replay.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    spans.set_enabled(traced && rep == kSetupReps - 1);
    const Clock::time_point t0 = Clock::now();
    w = build(spans);
    spans.set_enabled(false);
    (void)replay(*w, options.seed, spans, nullptr);
    setup.record(t0);
  }
  setup.report_to(report);

  std::string reference;
  hax::fleet::FleetStats first_stats;
  std::size_t first_applied = 0;
  double predict_ms = 0.0;
  std::uint64_t predict_calls = 0;
  const auto run_window = [&](double seconds, std::vector<double>& chunks,
                              std::vector<double>& worst_chunk, std::vector<double>& replay_rate,
                              double& busy_ms, std::size_t& requests) {
    const Clock::time_point start = Clock::now();
    do {
      const Replay r = replay(*w, options.seed, spans, reference.empty() ? &report : nullptr);
      predict_ms += r.predict_ms;
      predict_calls += r.predict_calls;
      chunks.insert(chunks.end(), r.chunk_ms.begin(), r.chunk_ms.end());
      worst_chunk.push_back(*std::max_element(r.chunk_ms.begin(), r.chunk_ms.end()));
      busy_ms += r.replay_ms;
      replay_rate.push_back(static_cast<double>(kRequests) / r.replay_ms * 1000.0);
      requests += kRequests;
      report.attempted += r.stats.submitted;
      const std::uint64_t served = r.stats.hits + r.stats.solved;
      if (served < r.stats.submitted) {
        report.fail("fleet requests not served");
        report.failed += r.stats.submitted - served - 1;
      }
      if (reference.empty()) {
        reference = r.stats_json;
        first_stats = r.stats;
        first_applied = r.pump_applied;
      } else {
        report.check(r.stats_json == reference,
                     "FleetStats JSON differs between replays of one seed");
      }
    } while (ms_since(start) < seconds * 1000.0);
  };

  const double window = traced ? options.seconds / 2.0 : options.seconds;
  std::vector<double> chunks;
  std::vector<double> worst_chunk;
  std::vector<double> replay_rate;
  double busy_ms = 0.0;
  std::size_t requests = 0;
  run_window(window, chunks, worst_chunk, replay_rate, busy_ms, requests);

  const double p50 = percentile(chunks, 50.0);
  // The tail is each replay's slowest pump interval (the one its 256 cold
  // solves land in), median over replays. A percentile over all intervals
  // falls where the few slow intervals thin out (p99 among the cold-solve
  // intervals, p90 among restart and catch-up ones) and read 15-20% apart
  // between runs of the same code.
  const double worst = median(worst_chunk);
  // Median over replays: a transient slowdown of the host moves a few
  // replays, not the reported rate.
  const double rate = median(replay_rate);
  report.spread_of("throughput_per_s", replay_rate);
  report.set("p50_ms", p50, "ms");
  report.set("tail_ms", worst, "ms");
  report.set("throughput_per_s", rate, "1/s");
  report.name("chunk_p50_ms", p50, "ms");
  report.name("worst_chunk_ms", worst, "ms");
  report.name("fleet_reqs_per_s", rate, "1/s");
  report.name("fleet_virtual_rps", first_stats.throughput_rps, "1/s");
  report.name("fleet_virtual_p99_ms", first_stats.p99_ms, "ms");
  report.name("fleet_hit_ratio", first_stats.hit_rate(), "ratio");
  report.name("replays", static_cast<double>(requests / kRequests), "count");
  for (const char* m : {"chunk_p50_ms", "worst_chunk_ms", "fleet_reqs_per_s"}) {
    report.labels[m] = "cold";  // each replay starts from a fresh fleet
  }
  for (const char* m : {"fleet_virtual_rps", "fleet_virtual_p99_ms", "fleet_hit_ratio"}) {
    report.labels[m] = "simulated";
  }

  if (!traced) return;

  spans.set_enabled(true);
  std::vector<double> t_chunks;
  std::vector<double> t_worst_chunk;
  std::vector<double> t_replay_rate;
  double t_busy_ms = 0.0;
  std::size_t t_requests = 0;
  run_window(window, t_chunks, t_worst_chunk, t_replay_rate, t_busy_ms, t_requests);
  spans.set_enabled(false);
  report.set("trace.overhead_pct",
             ((t_busy_ms / t_requests) / (busy_ms / requests) - 1.0) * 100.0, "%");
  report.set("front.zoo_ms", spans.mean_ms("front.zoo"), "ms");
  report.set("front.make_problem_ms", spans.mean_ms("front.make_problem"), "ms");
  report.set("predict.calls", static_cast<double>(predict_calls), "count");
  report.set("predict.ms", predict_calls == 0 ? 0.0 : predict_ms / predict_calls, "ms");
  report.set("fleet.submit_ns", spans.mean_ms("fleet.submit_chunk") * 1e6 / kChunk, "ns");
  report.set("fleet.pump_ms", spans.mean_ms("fleet.pump"), "ms");
  report.set("fleet.pump_applied", static_cast<double>(first_applied), "count");
  report.set("fleet.snapshot_ms", spans.mean_ms("fleet.snapshot"), "ms");
  report.set("fleet.restart_ms", spans.mean_ms("fleet.restart"), "ms");
  report.set("fleet.hit_ratio", first_stats.hit_rate(), "ratio");
  report.set("fleet.solves", static_cast<double>(first_stats.solved), "count");
  report.set("fleet.virtual_rps", first_stats.throughput_rps, "1/s");
}

}  // namespace haxbench
