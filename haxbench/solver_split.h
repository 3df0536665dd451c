#pragma once

/// \file solver_split.h
/// Traced solver split: re-runs the serial branch-and-bound over a timing
/// wrapper of sched::ScheduleSpace, replaying the solve sequence of
/// core::HaxConn::schedule (one ε-bounded solve, then up to three solves
/// with ε relaxed 4x while none is feasible), and splits the solve into
/// lower-bound, candidate, leaf-evaluation and bookkeeping time. The
/// re-run must explore exactly the nodes and leaves the schedule call
/// reported, so the split describes the same search.

#include <cstdint>

#include "sched/problem.h"
#include "sched/solve.h"

namespace haxbench {

/// Totals over every re-run solve.
struct SolverSplit {
  int solve_calls = 0;  ///< solve_schedule calls HaxConn::schedule makes
  std::uint64_t lower_bound_calls = 0;
  std::uint64_t evaluate_calls = 0;
  double lower_bound_ms = 0.0;
  double candidates_ms = 0.0;
  double evaluate_ms = 0.0;
  double bnb_ms = 0.0;  ///< whole BranchAndBound::solve calls
};

/// Replays the solves behind `reported` (the result of HaxConn::schedule
/// on `problem` with library defaults) through the timing wrapper, adding
/// to `total`. Returns whether the last re-run explored exactly the nodes
/// and leaves `reported` gives.
[[nodiscard]] bool split_solve(const hax::sched::Problem& problem,
                               const hax::sched::ScheduleSolution& reported, SolverSplit& total);

}  // namespace haxbench
