#include "pathrouting/parallel/caps.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "pathrouting/support/check.hpp"

namespace pathrouting::parallel {

namespace {

/// The one CAPS step policy, shared by both simulators: at recursion
/// level `level` with `bfs_remaining` BFS levels left to spend, take a
/// BFS step iff the remaining levels are all needed to spend P, or the
/// all-BFS tail 3 · 2s/g · (b/a)^bfs_remaining fits in the local
/// memory `mem` (s = a^(r-level) operand elements, g = b^bfs_remaining).
bool takes_bfs_step(const BilinearAlgorithm& alg, int r, int level,
                    int bfs_remaining, double mem) {
  const double a = alg.a();
  const double b = alg.b();
  const double s = std::pow(a, r - level);
  const double g = std::pow(b, bfs_remaining);
  const double share = 2.0 * s / g;
  const bool must_bfs = level + bfs_remaining >= r;
  const bool bfs_fits = 3.0 * share * std::pow(b / a, bfs_remaining) <= mem;
  return bfs_fits || must_bfs;
}

/// Effect of one recursive multiply on a (symmetric) processor,
/// relative to its state at call entry. Contract: on entry the
/// processor holds its 2s/g operand share (already counted in the
/// caller's memory); on exit that share is replaced by the s/g product
/// share, i.e. `net = -s/g`.
struct Delta {
  double traffic = 0;      // words sent + received by this processor
  double words = 0;        // words moved, summed over all processors
  std::uint64_t supersteps = 0;
  double peak = 0;         // max memory above entry level during the call
  double net = 0;          // memory change at exit (negative: frees)
  int bfs_steps = 0;       // along the recursion path
  int dfs_steps = 0;
};

struct Simulator {
  const BilinearAlgorithm& alg;
  int r;
  double m;
  // The subproblem size and group size are functions of (level,
  // bfs_remaining), so sibling subproblems have identical deltas.
  std::map<std::pair<int, int>, Delta> memo;

  Delta run(int level, int bfs_remaining) {
    const auto key = std::make_pair(level, bfs_remaining);
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
    const double a = alg.a();
    const double b = alg.b();
    const double s = std::pow(a, r - level);       // operand elements
    const double g = std::pow(b, bfs_remaining);   // group size
    Delta d;
    if (bfs_remaining == 0) {
      // Sequential base case: transient temporaries, then C replaces
      // the operands.
      d.peak = 3.0 * s / a;
      d.net = -s;  // 2s held -> s held
      memo[key] = d;
      return d;
    }
    PR_REQUIRE_MSG(level < r, "recursion exhausted before P was spent");
    if (takes_bfs_step(alg, r, level, bfs_remaining, m)) {
      // ---- BFS step: b subproblems solved by disjoint subgroups. ----
      d.bfs_steps = 1;
      double mem = 0;  // relative to entry
      const double enc = 2.0 * b * (s / a) / g;
      mem += enc;                      // encoded sub-operands
      d.peak = std::max(d.peak, mem);
      mem -= 2.0 * s / g;              // parent operands consumed
      // Redistribute the encodings to their subgroups.
      d.traffic += 2.0 * (2.0 * (b - 1.0) * (s / a) / g);
      d.words += 2.0 * (b - 1.0) * (s / a) / g * g;
      d.supersteps += 1;
      const Delta child = run(level + 1, bfs_remaining - 1);
      d.peak = std::max(d.peak, mem + child.peak);
      mem += child.net;
      d.traffic += child.traffic;
      d.words += child.words * (b / 1.0);  // b subgroups act in parallel
      d.supersteps += child.supersteps;
      d.bfs_steps += child.bfs_steps;
      d.dfs_steps += child.dfs_steps;
      // Gather the b product blocks for decoding.
      d.traffic += 2.0 * ((b - 1.0) * (s / a) / g);
      d.words += (b - 1.0) * (s / a) / g * g;
      d.supersteps += 1;
      mem += s / g;                    // C share
      d.peak = std::max(d.peak, mem);
      mem -= b * (s / a) / g;          // products consumed
      d.net = mem;
    } else {
      // ---- DFS step: all g processors solve the b subproblems in
      // sequence; encoding is element-aligned and local. ----
      d.dfs_steps = 1;
      const Delta child = run(level + 1, bfs_remaining);
      double mem = 0;
      for (int q = 0; q < alg.b(); ++q) {
        mem += 2.0 * (s / a) / g;      // encode subproblem q
        d.peak = std::max(d.peak, mem + child.peak);
        mem += child.net;              // operands -> product share
        d.traffic += child.traffic;
        d.words += child.words;
        d.supersteps += child.supersteps;
      }
      d.bfs_steps += child.bfs_steps;
      d.dfs_steps += child.dfs_steps;
      mem += s / g;                    // decode C
      d.peak = std::max(d.peak, mem);
      mem -= b * (s / a) / g;          // products consumed
      mem -= 2.0 * s / g;              // parent operands consumed
      d.net = mem;
    }
    memo[key] = d;
    return d;
  }
};

}  // namespace

namespace {

/// base^exp with overflow-checked u64 arithmetic.
std::uint64_t checked_pow(std::uint64_t base, int exp) {
  std::uint64_t out = 1;
  for (int i = 0; i < exp; ++i) out = checked_mul(out, base);
  return out;
}

std::uint64_t ceil_div(std::uint64_t num, std::uint64_t den) {
  PR_ASSERT(den >= 1);
  return num / den + (num % den != 0 ? 1 : 0);
}

}  // namespace

CapsResult simulate_caps(const BilinearAlgorithm& alg, int r,
                         const CapsOptions& options) {
  PR_REQUIRE(r >= 1);
  PR_REQUIRE(options.bfs_levels >= 0);
  PR_REQUIRE(options.bfs_levels <= r);
  PR_REQUIRE(options.local_memory >= 1);
  Simulator sim{alg, r, static_cast<double>(options.local_memory), {}};
  const double s = std::pow(static_cast<double>(alg.a()), r);
  const double p = std::pow(static_cast<double>(alg.b()), options.bfs_levels);
  const Delta d = sim.run(0, options.bfs_levels);
  CapsResult result;
  result.procs = p;
  result.bandwidth_cost = d.traffic;
  result.total_words = d.words;
  result.supersteps = d.supersteps;
  result.peak_memory = 2.0 * s / p + d.peak;  // entry shares + excursion
  result.bfs_steps = d.bfs_steps;
  result.dfs_steps = d.dfs_steps;
  return result;
}

CapsMachineResult simulate_caps_machine(const BilinearAlgorithm& alg, int r,
                                        const CapsOptions& options,
                                        Machine& machine) {
  PR_REQUIRE(r >= 1);
  PR_REQUIRE(options.bfs_levels >= 0);
  PR_REQUIRE(options.bfs_levels <= r);
  PR_REQUIRE(options.local_memory >= 1);
  const auto a = static_cast<std::uint64_t>(alg.a());
  const auto b = static_cast<std::uint64_t>(alg.b());
  const std::uint64_t p = checked_pow(b, options.bfs_levels);
  PR_REQUIRE(machine.procs() == p);
  const auto mem = static_cast<double>(options.local_memory);

  // The schedule is a single decision chain: the (level, bfs_remaining)
  // state determines the step, a DFS step runs b identical copies of
  // the rest of the chain in sequence (multiplying the superstep count
  // by b), and a BFS step spends one level of the processor tree. All
  // P processors are symmetric throughout, so each communication
  // superstep is one whole-machine class record.
  CapsMachineResult result;
  result.procs = p;
  std::uint64_t mult = 1;  // sequential repeats from DFS ancestors
  int level = 0;
  int m = options.bfs_levels;
  while (m > 0) {
    PR_REQUIRE_MSG(level < r, "recursion exhausted before P was spent");
    if (takes_bfs_step(alg, r, level, m, mem)) {
      // BFS: redistribute both encoded operands, then (post-children)
      // gather the b product blocks. Per-processor shares (b-1)(s/a)/g
      // round up to whole words per superstep.
      const std::uint64_t sub = checked_pow(a, r - level - 1);
      const std::uint64_t den = checked_pow(b, m);
      const std::uint64_t w_redist =
          ceil_div(checked_mul(2 * (b - 1), sub), den);
      const std::uint64_t w_gather = ceil_div(checked_mul(b - 1, sub), den);
      PR_REQUIRE_MSG(mult <= (1ull << 22),
                     "DFS repetition exceeds the replay superstep budget");
      for (std::uint64_t i = 0; i < mult; ++i) {
        machine.send_class(p, w_redist);
        machine.end_superstep();
        machine.send_class(p, w_gather);
        machine.end_superstep();
      }
      ++result.bfs_steps;
      --m;
    } else {
      mult = checked_mul(mult, b);
      ++result.dfs_steps;
    }
    ++level;
  }
  result.bandwidth_cost = machine.bandwidth_cost();
  result.total_words = machine.total_words();
  result.supersteps = machine.supersteps();
  return result;
}

}  // namespace pathrouting::parallel
