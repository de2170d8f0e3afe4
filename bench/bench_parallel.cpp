// E8 — Theorem 1 (parallel): bandwidth cost vs P and M.
//
// CAPS-style parallel Strassen-like execution on the simulated
// machine: the measured bandwidth must dominate BOTH lower bounds,
//   (n/sqrt(M))^{omega0} * M / P   (memory-dependent) and
//   n^2 / P^{2/omega0}             (memory-independent),
// and track their maximum within a constant factor. SUMMA / 2.5D give
// the classical comparison: their bandwidth carries the classical
// exponent and loses to CAPS as P grows.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/bounds/formulas.hpp"
#include "pathrouting/parallel/caps.hpp"
#include "pathrouting/parallel/summa.hpp"
#include "pathrouting/support/cli.hpp"
#include "pathrouting/support/table.hpp"

namespace {
using namespace pathrouting;  // NOLINT
using support::fmt_count;
using support::fmt_fixed;
using support::fmt_sci;
}  // namespace

int main(int argc, char** argv) {
  // E8c runs real data through the machine, so the per-processor
  // memory is a sweep parameter, not a constant: shrink it to probe
  // the within-memory flag, grow it for larger grids.
  support::Cli cli(argc, argv);
  const std::int64_t summa_memory_flag = cli.flag_int(
      "summa-memory", std::int64_t{1} << 30, "SUMMA per-processor words");
  cli.finish("E8: Theorem 1 (parallel) — bandwidth cost vs P and M.");
  if (summa_memory_flag < 1) {
    cli.fail("--summa-memory must be >= 1, got " +
             std::to_string(summa_memory_flag));
  }
  const auto summa_memory = static_cast<std::uint64_t>(summa_memory_flag);

  bench::print_banner(
      "E8a: CAPS bandwidth vs P (Strassen, n = 2^12)",
      "Unlimited memory (all-BFS) follows the memory-independent bound\n"
      "n^2/P^{2/omega0}; limited memory (3x minimal) interleaves DFS\n"
      "steps and follows (n/sqrt(M))^{omega0} M / P. 'max(LBs)' is the\n"
      "larger lower bound; ratio = measured / max(LBs).");
  {
    const auto alg = bilinear::strassen();
    const double w0 = alg.omega0();
    const int r = 12;
    const double n = std::pow(2.0, r);
    support::Table table({"P", "memory", "BFS", "DFS", "bandwidth",
                          "lb mem-dep", "lb mem-ind", "ratio", "peak mem",
                          "within M"});
    for (const int l : {1, 2, 3, 4}) {
      const double p = std::pow(7.0, l);
      for (const bool limited : {false, true}) {
        const std::uint64_t mem =
            limited ? static_cast<std::uint64_t>(9.0 * n * n / p)
                    : (1ull << 62);
        const auto res =
            parallel::simulate_caps(alg, r, {.bfs_levels = l,
                                             .local_memory = mem});
        const double lb_mem = bounds::parallel_bandwidth_lb(
            n, res.peak_memory, p, w0);
        const double lb_ind = bounds::memory_independent_lb(n, p, w0);
        const double max_lb = std::max(lb_mem, lb_ind);
        table.add_row(
            {fmt_count(static_cast<std::uint64_t>(p)),
             limited ? fmt_count(mem) : "unbounded",
             std::to_string(res.bfs_steps), std::to_string(res.dfs_steps),
             fmt_sci(res.bandwidth_cost), fmt_sci(lb_mem), fmt_sci(lb_ind),
             fmt_fixed(res.bandwidth_cost / max_lb, 2),
             fmt_sci(res.peak_memory),
             res.peak_memory <= static_cast<double>(mem) ? "yes" : "NO"});
      }
    }
    table.print(std::cout);
  }

  bench::print_banner(
      "E8b: fast vs classical parallel bandwidth",
      "CAPS (Strassen exponent) vs 2.5D/SUMMA cost models at matched P\n"
      "and replication; the fast algorithm's advantage grows with P.");
  {
    const auto alg = bilinear::strassen();
    const double w0 = alg.omega0();
    const int r = 14;
    const double n = std::pow(2.0, r);
    support::Table table({"P", "CAPS bw", "SUMMA bw (c=1)", "2.5D bw (c=4)",
                          "classical/CAPS"});
    for (const int l : {2, 3, 4, 5, 6}) {
      const double p = std::pow(7.0, l);
      const auto caps = parallel::simulate_caps(
          alg, r, {.bfs_levels = l, .local_memory = 1ull << 62});
      const auto summa = parallel::simulate_25d(n, p, 1);
      const auto d25 = parallel::simulate_25d(n, p, 4);
      table.add_row({fmt_count(static_cast<std::uint64_t>(p)),
                     fmt_sci(caps.bandwidth_cost),
                     fmt_sci(summa.bandwidth_cost),
                     fmt_sci(d25.bandwidth_cost),
                     fmt_fixed(d25.bandwidth_cost / caps.bandwidth_cost, 2)});
      (void)w0;
    }
    table.print(std::cout);
  }

  bench::print_banner(
      "E8c: value-level SUMMA execution (machine-model validation)",
      "Real data moves through the simulated machine; the distributed\n"
      "product is checked against a sequential reference.");
  {
    support::Table table(
        {"n", "grid", "P", "bandwidth", "4n^2/grid", "supersteps", "correct"});
    support::Xoshiro256 rng(77);
    const std::size_t n = 64;
    const auto a = matmul::random_matrix<std::int64_t>(n, rng);
    const auto b = matmul::random_matrix<std::int64_t>(n, rng);
    for (const int grid : {2, 4, 8}) {
      parallel::Machine machine(grid * grid, summa_memory);
      const auto res = parallel::run_summa(a, b, grid, 4, machine);
      table.add_row({std::to_string(n), std::to_string(grid),
                     std::to_string(grid * grid), fmt_count(res.bandwidth_cost),
                     fmt_count(4 * n * n / static_cast<std::size_t>(grid)),
                     fmt_count(res.supersteps),
                     res.correct ? "yes" : "NO"});
    }
    table.print(std::cout);
  }
  return 0;
}
