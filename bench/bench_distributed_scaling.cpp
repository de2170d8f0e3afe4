// E19 — BDHLS strong scaling to 10^6 simulated processors.
//
// Sweeps the classical SUMMA schedule (grids up to 1024 x 1024 =
// 1,048,576 processors) and the Strassen-like CAPS schedule (7^l
// processors up to 5,764,801) across three memory regimes — minimal
// M = 3n^2/P, the knee M = n^2/P^{2/omega0} (where the
// Ballard-Demmel-Holtz-Schwartz-Lipshitz perfect-scaling range ends),
// and unbounded — on the sparse superstep machine. Every point records
// exact u64 machine counters plus the memory-dependent and
// memory-independent lower bounds; the curves show the classical
// P^{2/3} wall against the fast P^{2/omega0} falloff.
//
// Hard gates (exit 1), in the spirit of bench_implicit's RSS gate:
//   * the whole sweep must finish within --budget-seconds (default 20)
//     — the point of the aggregate machine is that a 10^6-processor
//     superstep costs O(classes), so wall-clock blowup means the
//     sparse path regressed;
//   * both schedules must actually reach P >= 10^6.
// The emitted BENCH_distributed_scaling.json is the pr_bench_gate
// baseline: counts exact, timings soft.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pathrouting/parallel/scaling.hpp"
#include "pathrouting/support/cli.hpp"
#include "pathrouting/support/table.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using support::fmt_count;
using support::fmt_fixed;
using support::fmt_sci;

const char* const kRegimes[] = {"minimal", "knee", "unbounded"};

parallel::ScalingPoint run_point(const parallel::ScalingSpec& spec,
                                 bench::BenchJson& json,
                                 std::vector<parallel::ScalingPoint>& out) {
  const parallel::ScalingPoint point = parallel::run_scaling_point(spec);
  parallel::fill_scaling_record(point, json.add_record());
  out.push_back(point);
  return point;
}

std::string fmt_memory(const parallel::ScalingPoint& point) {
  return point.spec.regime == "unbounded" ? "unbounded"
                                          : fmt_count(point.local_memory);
}

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli(argc, argv);
  const double budget_seconds = cli.flag_double(
      "budget-seconds", 20.0, "wall-clock budget of the whole sweep");
  cli.finish("E19: BDHLS strong scaling to 10^6 simulated processors.");

  const bench::Stopwatch total;
  bench::BenchJson json("distributed_scaling");
  std::vector<parallel::ScalingPoint> points;

  bench::print_banner(
      "E19a: classical SUMMA strong scaling (n = 8192)",
      "Bandwidth 4n^2/sqrt(P) against the classical omega0 = 3 bounds:\n"
      "the ratio to max(LBs) grows like P^{1/6} past the knee — the\n"
      "P^{2/3} memory-independent wall no 2D classical schedule beats.");
  {
    support::Table table({"P", "regime", "M", "bandwidth", "supersteps",
                          "lb mem-dep", "lb mem-ind", "ratio"});
    for (const std::uint64_t grid : {8ull, 32ull, 128ull, 512ull, 1024ull}) {
      for (const char* regime : kRegimes) {
        parallel::ScalingSpec spec;
        spec.schedule = "summa";
        spec.algorithm = "classical";
        spec.regime = regime;
        spec.n = 8192;
        spec.grid = grid;
        spec.panel = spec.n / grid;
        const parallel::ScalingPoint point = run_point(spec, json, points);
        table.add_row({fmt_count(point.procs), regime, fmt_memory(point),
                       fmt_sci(static_cast<double>(point.bandwidth_cost)),
                       fmt_count(point.supersteps),
                       fmt_sci(point.lb_mem_dependent),
                       fmt_sci(point.lb_mem_independent),
                       fmt_fixed(point.ratio_vs_lb, 2)});
      }
    }
    table.print(std::cout);
  }

  bench::print_banner(
      "E19b: CAPS (Strassen) strong scaling, P = 7^l, n = 1024",
      "The superstep-machine replay of the CAPS BFS/DFS schedule: with\n"
      "memory at the knee or above, bandwidth tracks the\n"
      "memory-independent n^2/P^{2/omega0} falloff (omega0 ~ 2.807)\n"
      "that classical schedules cannot reach; at minimal memory DFS\n"
      "steps interleave and the memory-dependent bound takes over.");
  {
    support::Table table({"P", "regime", "M", "BFS", "DFS", "bandwidth",
                          "supersteps", "model bw", "lb mem-dep",
                          "lb mem-ind", "ratio"});
    for (int l = 2; l <= 8; ++l) {
      for (const char* regime : kRegimes) {
        parallel::ScalingSpec spec;
        spec.schedule = "caps";
        spec.algorithm = "strassen";
        spec.regime = regime;
        spec.r = 10;
        spec.bfs_levels = l;
        const parallel::ScalingPoint point = run_point(spec, json, points);
        table.add_row({fmt_count(point.procs), regime, fmt_memory(point),
                       std::to_string(point.bfs_steps),
                       std::to_string(point.dfs_steps),
                       fmt_sci(static_cast<double>(point.bandwidth_cost)),
                       fmt_count(point.supersteps),
                       fmt_sci(point.model_bandwidth),
                       fmt_sci(point.lb_mem_dependent),
                       fmt_sci(point.lb_mem_independent),
                       fmt_fixed(point.ratio_vs_lb, 2)});
      }
    }
    table.print(std::cout);
  }

  // ---- Hard gates. ----
  const double elapsed = total.seconds();
  std::uint64_t summa_pmax = 0;
  std::uint64_t caps_pmax = 0;
  for (const parallel::ScalingPoint& point : points) {
    if (point.spec.schedule == "summa" && point.procs > summa_pmax) {
      summa_pmax = point.procs;
    }
    if (point.spec.schedule == "caps" && point.procs > caps_pmax) {
      caps_pmax = point.procs;
    }
  }
  std::printf(
      "\nsweep: %zu points, SUMMA P up to %llu, CAPS P up to %llu, "
      "%.3fs (budget %.1fs)\n",
      points.size(), static_cast<unsigned long long>(summa_pmax),
      static_cast<unsigned long long>(caps_pmax), elapsed, budget_seconds);
  bool failed = false;
  if (summa_pmax < 1000000 || caps_pmax < 1000000) {
    std::fprintf(stderr,
                 "FAIL: sweep did not reach P >= 10^6 on both schedules\n");
    failed = true;
  }
  if (elapsed > budget_seconds) {
    std::fprintf(stderr,
                 "FAIL: sweep took %.3fs > budget %.1fs — the sparse "
                 "superstep machine has regressed\n",
                 elapsed, budget_seconds);
    failed = true;
  }
  json.write();
  return failed ? 1 : 0;
}
