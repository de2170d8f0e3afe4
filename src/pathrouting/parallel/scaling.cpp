#include "pathrouting/parallel/scaling.hpp"

#include <chrono>
#include <climits>
#include <cmath>

#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/bounds/formulas.hpp"
#include "pathrouting/parallel/caps.hpp"
#include "pathrouting/parallel/summa.hpp"
#include "pathrouting/support/check.hpp"

namespace pathrouting::parallel {

namespace {

std::uint64_t u64_pow(std::uint64_t base, int exp) {
  std::uint64_t out = 1;
  for (int i = 0; i < exp; ++i) out = checked_mul(out, base);
  return out;
}

void finish_bounds(ScalingPoint& point, double w0) {
  const auto n = static_cast<double>(point.n);
  const auto p = static_cast<double>(point.procs);
  const auto m = static_cast<double>(point.local_memory);
  point.omega0 = w0;
  point.lb_mem_dependent = bounds::parallel_bandwidth_lb(n, m, p, w0);
  point.lb_mem_independent = bounds::memory_independent_lb(n, p, w0);
  point.lb_combined = bounds::strong_scaling_lb(n, m, p, w0);
  point.model_pmax = bounds::perfect_scaling_pmax(n, m, w0);
  point.ratio_vs_lb =
      point.lb_combined > 0
          ? static_cast<double>(point.bandwidth_cost) / point.lb_combined
          : 0.0;
}

ScalingPoint run_summa_point(const ScalingSpec& spec) {
  PR_REQUIRE(spec.grid >= 1 && spec.n >= 1);
  ScalingPoint point;
  point.spec = spec;
  point.n = spec.n;
  point.procs = checked_mul(spec.grid, spec.grid);
  // Classical schedule: the w0 = 3 bounds are the comparison curve.
  point.local_memory = regime_memory(spec.regime, spec.n, point.procs, 3.0);
  Machine machine(point.procs, point.local_memory);
  PR_REQUIRE(spec.n % spec.grid == 0);
  const std::uint64_t nb = spec.n / spec.grid;
  // Uniform residency: operand + product blocks plus the two in-flight
  // panel slices every processor buffers during a broadcast step.
  const std::uint64_t resident =
      checked_add(checked_mul(3, checked_mul(nb, nb)),
                  checked_mul(2, checked_mul(nb, spec.panel)));
  machine.alloc_all(resident);
  const SummaResult res =
      simulate_summa(spec.n, spec.grid, spec.panel, machine);
  machine.release_all(resident);
  point.bandwidth_cost = res.bandwidth_cost;
  point.total_words = res.total_words;
  point.supersteps = res.supersteps;
  point.peak_memory = machine.peak_memory();
  // Closed-form classical curve: 4 n^2 / grid for grid >= 3.
  point.model_bandwidth = spec.grid >= 3
                              ? 4.0 * static_cast<double>(spec.n) *
                                    static_cast<double>(spec.n) /
                                    static_cast<double>(spec.grid)
                              : static_cast<double>(res.bandwidth_cost);
  finish_bounds(point, 3.0);
  return point;
}

ScalingPoint run_caps_point(const ScalingSpec& spec) {
  const bilinear::BilinearAlgorithm alg = bilinear::by_name(spec.algorithm);
  PR_REQUIRE(spec.r >= 1 && spec.bfs_levels >= 1);
  ScalingPoint point;
  point.spec = spec;
  point.n = u64_pow(static_cast<std::uint64_t>(alg.n0()), spec.r);
  point.procs =
      u64_pow(static_cast<std::uint64_t>(alg.b()), spec.bfs_levels);
  const double w0 = alg.omega0();
  point.local_memory = regime_memory(spec.regime, point.n, point.procs, w0);
  const CapsOptions options{spec.bfs_levels, point.local_memory};
  Machine machine(point.procs, point.local_memory);
  const CapsMachineResult res =
      simulate_caps_machine(alg, spec.r, options, machine);
  point.bandwidth_cost = res.bandwidth_cost;
  point.total_words = res.total_words;
  point.supersteps = res.supersteps;
  point.bfs_steps = res.bfs_steps;
  point.dfs_steps = res.dfs_steps;
  point.model_bandwidth =
      simulate_caps(alg, spec.r, options).bandwidth_cost;
  finish_bounds(point, w0);
  return point;
}

}  // namespace

std::uint64_t regime_memory(const std::string& regime, std::uint64_t n,
                            std::uint64_t procs, double w0) {
  const std::uint64_t n2 = checked_mul(n, n);
  if (regime == "minimal") {
    const std::uint64_t m = checked_mul(3, n2) / procs;
    return m > 0 ? m : 1;
  }
  if (regime == "knee") {
    const double m = static_cast<double>(n2) /
                     std::pow(static_cast<double>(procs), 2.0 / w0);
    return m >= 1.0 ? static_cast<std::uint64_t>(m) : 1;
  }
  PR_REQUIRE_MSG(regime == "unbounded", "unknown memory regime");
  return 1ull << 62;
}

ScalingPoint run_scaling_point(const ScalingSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  PR_REQUIRE_MSG(spec.schedule == "summa" || spec.schedule == "caps",
                 "unknown scaling schedule");
  ScalingPoint point = spec.schedule == "summa" ? run_summa_point(spec)
                                                : run_caps_point(spec);
  point.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  return point;
}

void fill_scaling_record(const ScalingPoint& point, obs::BenchRecord& rec) {
  const ScalingSpec& spec = point.spec;
  // "algorithm" is the gate's workload key; combined with k it must be
  // unique per (schedule, base algorithm, regime) sweep curve.
  rec.set("experiment", "distributed_scaling")
      .set("engine", "machine")
      .set("algorithm",
           spec.schedule + ":" + spec.algorithm + ":" + spec.regime)
      .set("k", spec.schedule == "caps"
                    ? spec.bfs_levels
                    : static_cast<int>(spec.grid))
      .set("schedule", spec.schedule)
      .set("base", spec.algorithm)
      .set("regime", spec.regime)
      .set("n", point.n)
      .set("grid", spec.grid)
      .set("panel", spec.panel)
      .set("r", spec.r)
      .set("bfs_levels", spec.bfs_levels)
      .set("procs", point.procs)
      .set("local_memory", point.local_memory)
      .set("bandwidth_cost", point.bandwidth_cost)
      .set("total_words", point.total_words)
      .set("supersteps", point.supersteps)
      .set("peak_memory", point.peak_memory)
      .set("bfs_steps", point.bfs_steps)
      .set("dfs_steps", point.dfs_steps)
      .set("omega0", point.omega0)
      .set("lb_mem_dependent", point.lb_mem_dependent)
      .set("lb_mem_independent", point.lb_mem_independent)
      .set("lb_combined", point.lb_combined)
      .set("model_pmax", point.model_pmax)
      .set("model_bandwidth", point.model_bandwidth)
      .set("ratio_vs_lb", point.ratio_vs_lb)
      .set("seconds", point.seconds);
}

ScalingSpec scaling_spec_from_record(obs::RecordReader& in) {
  ScalingSpec spec;
  spec.schedule = in.one_of("schedule", {"summa", "caps"});
  spec.regime = in.one_of("regime", {"minimal", "knee", "unbounded"});
  if (spec.schedule == "summa") {
    spec.algorithm = in.one_of("base", {"classical"});
    spec.n = static_cast<std::uint64_t>(in.integer("n", 1));
    spec.grid = static_cast<std::uint64_t>(in.integer("grid", 1));
    spec.panel = static_cast<std::uint64_t>(in.integer("panel", 1));
    if (in.ok() && spec.n % spec.grid != 0) {
      in.reject("grid", "does not divide n = " + std::to_string(spec.n));
    } else if (in.ok() && spec.panel > spec.n / spec.grid) {
      in.reject("panel", "exceeds the block size n / grid");
    }
  } else {
    // caps re-derives n = n0^r from the algorithm.
    spec.algorithm = in.one_of("base", bilinear::catalog_names());
    spec.r = static_cast<int>(in.integer("r", 1, INT_MAX));
    spec.bfs_levels = static_cast<int>(in.integer("bfs_levels", 1, INT_MAX));
  }
  return spec;
}

}  // namespace pathrouting::parallel
