/// \file main.cpp
/// haxbench: the repository benchmark's measuring program. One run
/// executes one workload for a fixed wall-clock window and prints, as its
/// last line, the result object
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// with the end-to-end metrics (--trace 0) or the per-layer metrics
/// (--trace 1). Lines before it are a human-readable report under each
/// workload's own metric names. A full record (both vocabularies, labels,
/// within-run spreads, provenance) and, for traced runs, a Chrome trace
/// of the benchmark's spans are written under --out-dir.
///
///   haxbench --workload cold-solve --seed 1 --seconds 10 --trace 0
///
/// Exits 1 when an output check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

#ifndef HAXBENCH_BUILD_TYPE
#define HAXBENCH_BUILD_TYPE "unknown"
#endif
#ifndef HAXBENCH_CXX_FLAGS
#define HAXBENCH_CXX_FLAGS ""
#endif

using namespace haxbench;
using hax::json::Object;
using hax::json::Value;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "haxbench: %s\nusage: haxbench --workload cold-solve|serve-drift|sim-stream|"
               "fleet-replay --seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (arg == "--out-dir") {
        o.out_dir = value;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  return o;
}

Object metrics_json(const std::map<std::string, Metric>& metrics) {
  Object out;
  for (const auto& [name, m] : metrics) {
    out.emplace(name, Object{{"value", Value(m.value)}, {"unit", Value(m.unit)}});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Report report;
  Spans spans(options.trace);

  try {
    if (options.workload == "cold-solve") {
      run_cold_solve(options, report, spans);
    } else if (options.workload == "serve-drift") {
      run_serve_drift(options, report, spans);
    } else if (options.workload == "sim-stream") {
      run_sim_stream(options, report, spans);
    } else if (options.workload == "fleet-replay") {
      run_fleet_replay(options, report, spans);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    // An exception out of the library is a failed run, not a crash: report
    // it through the result object so the caller sees correct=false.
    report.check(false, std::string("exception: ") + e.what());
    if (report.attempted == 0) report.attempted = 1;
  }

  const double rss = peak_rss_mb();
  report.set("peak_rss_mb", rss, "MB");
  report.name("peak_rss_mb", rss, "MB");
  const double fail_frac = report.attempted == 0
                               ? 1.0
                               : static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted);
  report.name("fail_frac", fail_frac, "ratio");

  // Per-layer vocabulary for traced runs: every name, 0 where the workload
  // does not cross the layer; `layer_result` is the result line's subset.
  std::map<std::string, Metric> layer;
  std::map<std::string, Metric> layer_result;
  for (const LayerMetricSpec& spec : layer_metric_specs()) {
    const auto it = report.metrics.find(spec.name);
    layer[spec.name] = {it == report.metrics.end() ? 0.0 : it->second.value, spec.unit};
    if (spec.in_result) layer_result[spec.name] = layer[spec.name];
  }
  std::map<std::string, Metric> end_to_end;
  for (const char* name : {"setup_s", "p50_ms", "tail_ms", "throughput_per_s", "peak_rss_mb"}) {
    const auto it = report.metrics.find(name);
    if (it == report.metrics.end()) {
      report.check(false, std::string("workload did not measure ") + name);
      continue;
    }
    end_to_end[name] = it->second;
  }

  // Human-readable report, under the workload's own names.
  std::printf("haxbench %s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const auto& [name, m] : report.named) {
    const auto label = report.labels.find(name);
    std::printf("  %-24s %16.6f %-6s %s\n", name.c_str(), m.value, m.unit.c_str(),
                label == report.labels.end() ? "" : label->second.c_str());
  }
  if (options.trace) {
    for (const auto& [name, m] : layer) {
      std::printf("  %-24s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const std::string& f : report.failures) std::printf("  FAILURE: %s\n", f.c_str());

  // Full record and (traced runs) the Chrome trace.
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0");
  if (options.trace) {
    spans.write_chrome_trace(stem + ".trace.json", "haxbench " + options.workload);
  }
  {
    Object spread;
    for (const auto& [name, s] : report.within_run_spread) spread.emplace(name, s);
    Object labels;
    for (const auto& [name, l] : report.labels) labels.emplace(name, l);
    hax::json::Array failures;
    for (const std::string& f : report.failures) failures.emplace_back(f);
    Object record;
    record.emplace("workload", options.workload);
    record.emplace("seed", static_cast<double>(options.seed));
    record.emplace("seconds", options.seconds);
    record.emplace("trace", options.trace);
    record.emplace("correct", report.correct);
    record.emplace("attempted", static_cast<double>(report.attempted));
    record.emplace("failed", static_cast<double>(report.failed));
    record.emplace("failures", std::move(failures));
    record.emplace("end_to_end", metrics_json(end_to_end));
    record.emplace("named", metrics_json(report.named));
    if (options.trace) record.emplace("per_layer", metrics_json(layer));
    record.emplace("labels", std::move(labels));
    record.emplace("within_run_spread", std::move(spread));
    record.emplace("spans_recorded", static_cast<double>(spans.recorded()));
    if (options.trace) {
      // Per span name: calls, total time and self time (total minus the
      // time its child spans cover).
      Object layers;
      for (const auto& [name, a] : spans.aggregates()) {
        layers.emplace(name, Object{{"count", Value(static_cast<double>(a.count))},
                                    {"total_ms", Value(a.total_ms)},
                                    {"self_ms", Value(a.self_ms)}});
      }
      record.emplace("spans", std::move(layers));
    }
    record.emplace("build", Object{{"type", Value(HAXBENCH_BUILD_TYPE)},
                                   {"cxx_flags", Value(HAXBENCH_CXX_FLAGS)},
                                   {"nproc", Value(static_cast<int>(
                                                 std::thread::hardware_concurrency()))}});
    std::ofstream(stem + ".record.json") << Value(std::move(record)).dump(2) << '\n';
  }

  Object result;
  result.emplace("correct", report.correct);
  result.emplace("attempted", static_cast<double>(report.attempted));
  result.emplace("failed", static_cast<double>(report.failed));
  result.emplace("metrics", metrics_json(options.trace ? layer_result : end_to_end));
  std::printf("%s\n", Value(std::move(result)).dump().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
