#include "solver_split.h"

#include "bench.h"
#include "sched/search_space.h"
#include "solver/bnb.h"

namespace haxbench {

namespace {

/// Forwards every SearchSpace call to the wrapped space and adds call
/// counts and wall time per call kind to `total`. Only the serial engine
/// drives it, so the counters need no synchronization.
class TimedSpace final : public hax::solver::SearchSpace {
 public:
  TimedSpace(const hax::solver::SearchSpace& inner, SolverSplit& total)
      : inner_(inner), split_(total) {}

  [[nodiscard]] int variable_count() const override { return inner_.variable_count(); }

  void candidates(std::span<const int> prefix, std::vector<int>& out) const override {
    const Clock::time_point t0 = Clock::now();
    inner_.candidates(prefix, out);
    split_.candidates_ms += ms_since(t0);
  }

  [[nodiscard]] double lower_bound(std::span<const int> prefix) const override {
    const Clock::time_point t0 = Clock::now();
    const double bound = inner_.lower_bound(prefix);
    split_.lower_bound_ms += ms_since(t0);
    ++split_.lower_bound_calls;
    return bound;
  }

  [[nodiscard]] double evaluate(std::span<const int> assignment) const override {
    const Clock::time_point t0 = Clock::now();
    const double objective = inner_.evaluate(assignment);
    split_.evaluate_ms += ms_since(t0);
    ++split_.evaluate_calls;
    return objective;
  }

  void evaluate_batch(std::span<const int> assignments, int n,
                      std::span<double> out) const override {
    const Clock::time_point t0 = Clock::now();
    inner_.evaluate_batch(assignments, n, out);
    split_.evaluate_ms += ms_since(t0);
    split_.evaluate_calls += static_cast<std::uint64_t>(n);
  }

  [[nodiscard]] hax::MemoCacheStats cache_stats() const noexcept override {
    return inner_.cache_stats();
  }

 private:
  const hax::solver::SearchSpace& inner_;
  SolverSplit& split_;
};

}  // namespace

bool split_solve(const hax::sched::Problem& problem, const hax::sched::ScheduleSolution& reported,
                 SolverSplit& total) {
  hax::sched::Problem attempt = problem;
  hax::solver::SolveResult result;
  // HaxConn::schedule: one solve, then ε relaxed 4x per retry (at most 3)
  // while no feasible schedule exists.
  for (int retry = 0; retry <= 3; ++retry) {
    if (retry > 0) attempt.epsilon_ms *= 4.0;
    const hax::sched::ScheduleSpace space(attempt);
    const TimedSpace timed(space, total);
    const Clock::time_point t0 = Clock::now();
    result = hax::solver::BranchAndBound().solve(timed, hax::solver::SolveOptions{});
    total.bnb_ms += ms_since(t0);
    ++total.solve_calls;
    if (result.best.has_value()) break;
  }
  return result.stats.nodes_explored == reported.stats.nodes_explored &&
         result.stats.leaves_evaluated == reported.stats.leaves_evaluated;
}

}  // namespace haxbench
