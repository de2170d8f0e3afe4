// Schedule-space search against an exhaustive oracle.
//
// The oracle defines the objective with no search machinery at all:
// enumerate EVERY topological order of the non-input vertices and take
// the Belady-simulated I/O minimum. On DAGs small enough to enumerate
// (<= 10 vertices here), branch-and-bound must reproduce that minimum
// bit for bit across a cache-size sweep — and certify it, since an
// unbounded run either meets the root bound or exhausts the tree.
//
// The suite also pins the soundness half of the pruning bound
// (admissible: never exceeds the true best completion cost of any
// prefix), the mutation direction (an inflated bound MUST make the
// search miss optima somewhere — a bound that can be inflated freely
// without consequence would mean pruning is not load-bearing), the
// local-search invariants (topological validity, monotone acceptance,
// bit-identical results at 1 / 2 / 7 threads), and the
// search.certified-optimal audit rule both ways.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "pathrouting/audit/audit.hpp"
#include "pathrouting/audit/registry.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/bounds/schedule_bound.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/pebble/cache_sim.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/schedule/validate.hpp"
#include "pathrouting/search/local_search.hpp"
#include "pathrouting/search/optimizer.hpp"
#include "pathrouting/search/sweep.hpp"
#include "pathrouting/support/parallel.hpp"
#include "pathrouting/support/prng.hpp"
#include "support/reference_min_replay.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using cdag::Graph;
using cdag::VertexId;

std::uint64_t property_seed() {
  const char* env = std::getenv("PR_PROPERTY_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 20260806ull;
}

int property_iters() {
  const char* env = std::getenv("PR_PROPERTY_ITERS");
  const int n = env != nullptr ? std::atoi(env) : 5;
  return n > 0 ? n : 5;
}

/// Builds a graph from per-vertex predecessor lists (in-CSR).
Graph make_graph(const std::vector<std::vector<VertexId>>& preds) {
  std::vector<std::uint32_t> off = {0};
  std::vector<VertexId> adj;
  for (const auto& p : preds) {
    adj.insert(adj.end(), p.begin(), p.end());
    off.push_back(static_cast<std::uint32_t>(adj.size()));
  }
  return Graph(std::move(off), std::move(adj));
}

/// Sinks are the outputs — the pebble game must flush them at halt.
std::function<bool(VertexId)> sinks_are_outputs(const Graph& graph) {
  std::vector<std::uint8_t> is_sink(graph.num_vertices(), 0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    is_sink[v] = graph.out(v).empty() && !graph.in(v).empty();
  }
  return [is_sink = std::move(is_sink)](VertexId v) {
    return is_sink[v] != 0;
  };
}

/// Visits every topological order of the non-input vertices that
/// extends `prefix`, until `visit` returns false. The recursion mirrors
/// Kahn's algorithm, so it visits each order once.
void for_each_completion(
    const Graph& graph, std::vector<VertexId> prefix,
    const std::function<bool(const std::vector<VertexId>&)>& visit) {
  const VertexId n = graph.num_vertices();
  std::vector<std::uint32_t> missing(n, 0);
  std::uint64_t to_schedule = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (graph.in(v).empty()) continue;
    ++to_schedule;
    for (const VertexId p : graph.in(v)) {
      if (!graph.in(p).empty()) ++missing[v];
    }
  }
  std::vector<std::uint8_t> done(n, 0);
  for (const VertexId v : prefix) {
    done[v] = 1;
    for (const VertexId c : graph.out(v)) --missing[c];
  }
  std::vector<VertexId>& order = prefix;
  // Returns false once `visit` has asked to stop.
  const std::function<bool()> recurse = [&] {
    if (order.size() == to_schedule) return visit(order);
    for (VertexId v = 0; v < n; ++v) {
      if (graph.in(v).empty() || done[v] != 0 || missing[v] != 0) continue;
      done[v] = 1;
      for (const VertexId c : graph.out(v)) --missing[c];
      order.push_back(v);
      const bool more = recurse();
      order.pop_back();
      for (const VertexId c : graph.out(v)) ++missing[c];
      done[v] = 0;
      if (!more) return false;
    }
    return true;
  };
  recurse();
}

/// The exhaustive oracle: every topological order of the non-input
/// vertices that extends `prefix`, simulated under Belady; returns the
/// I/O minimum.
std::uint64_t oracle_min_io(const Graph& graph, std::uint64_t cache_size,
                            const std::function<bool(VertexId)>& is_output,
                            std::vector<VertexId>* argmin = nullptr,
                            std::vector<VertexId> prefix = {}) {
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for_each_completion(
      graph, std::move(prefix), [&](const std::vector<VertexId>& order) {
        const std::uint64_t io =
            pebble::simulate(graph, order, {.cache_size = cache_size},
                             is_output)
                .io();
        if (io < best) {
          best = io;
          if (argmin != nullptr) *argmin = order;
        }
        return true;
      });
  return best;
}

/// Seeded random DAG with <= 10 vertices: 2-3 sources, every other
/// vertex draws 1-3 predecessors from lower ids. Max in-degree 3, so
/// every M >= 4 is simulatable.
Graph random_dag(support::Xoshiro256& rng) {
  const std::uint64_t n = 5 + rng.below(6);       // 5..10 vertices
  const std::uint64_t inputs = 2 + rng.below(2);  // 2..3 sources
  std::vector<std::vector<VertexId>> preds(n);
  for (std::uint64_t v = inputs; v < n; ++v) {
    const std::uint64_t deg = 1 + rng.below(std::min<std::uint64_t>(3, v));
    std::vector<VertexId> p;
    while (p.size() < deg) {
      const VertexId cand = static_cast<VertexId>(rng.below(v));
      if (std::find(p.begin(), p.end(), cand) == p.end()) p.push_back(cand);
    }
    std::sort(p.begin(), p.end());
    preds[v] = std::move(p);
  }
  return make_graph(preds);
}

/// The branch-and-bound optimum, unbounded, no incumbent.
search::SearchResult exact_search(const Graph& graph, std::uint64_t m,
                                  const std::function<bool(VertexId)>& out,
                                  std::uint64_t inflation = 0) {
  search::SearchOptions options;
  options.cache_size = m;
  options.node_budget = 0;
  options.debug_bound_inflation = inflation;
  return search::branch_and_bound(graph, options, out);
}

// ---------------------------------------------------------------------------
// Exhaustive-oracle equivalence

/// Hand DAGs: diamond, two-level chain, and the asymmetric graph whose
/// optimum depends on interleaving (also the tie-break witness in
/// test_pebble.cpp).
std::vector<Graph> hand_dags() {
  std::vector<Graph> graphs;
  // Diamond: 3 = f(0,1), 4 = f(1,2), 5 = f(3,4).
  graphs.push_back(make_graph({{}, {}, {}, {0, 1}, {1, 2}, {3, 4}}));
  // Chain of pairs: 4 = f(0,1), 5 = f(2,3), 6 = f(4,5).
  graphs.push_back(make_graph({{}, {}, {}, {}, {0, 1}, {2, 3}, {4, 5}}));
  // Asymmetric: 3 = f(0,1), 4 = f(1,2), 5 = f(0,3), 6 = f(4,5).
  graphs.push_back(
      make_graph({{}, {}, {}, {0, 1}, {1, 2}, {0, 3}, {4, 5}}));
  // Wide: 2..5 each read both inputs, 6 = f(2,3), 7 = f(4,5),
  // 8 = f(6,7).
  graphs.push_back(make_graph({{},
                               {},
                               {0, 1},
                               {0, 1},
                               {0, 1},
                               {0, 1},
                               {2, 3},
                               {4, 5},
                               {6, 7}}));
  return graphs;
}

TEST(ScheduleSearchOracle, BranchAndBoundMatchesExhaustiveOnHandDags) {
  for (const Graph& graph : hand_dags()) {
    const auto out = sinks_are_outputs(graph);
    for (const std::uint64_t m : {3ull, 4ull, 5ull, 8ull, 16ull}) {
      const std::uint64_t oracle = oracle_min_io(graph, m, out);
      const search::SearchResult result = exact_search(graph, m, out);
      EXPECT_EQ(result.best_io, oracle)
          << "n=" << graph.num_vertices() << " M=" << m;
      // Unbounded search always closes the tree, but only meeting the
      // root bound certifies the optimum.
      EXPECT_FALSE(result.budget_exhausted);
      EXPECT_EQ(result.certified, result.best_io == result.lower_bound);
      EXPECT_GE(result.best_io, result.lower_bound);
      // The witness reproduces the claimed cost.
      EXPECT_EQ(pebble::simulate(graph, result.best_schedule,
                                 {.cache_size = m}, out)
                    .io(),
                oracle);
    }
  }
}

// Seeded random-DAG oracle sweep; part of the nightly property job.
// Replay one instance with PR_PROPERTY_SEED=<seed> PR_PROPERTY_ITERS=1.
TEST(ScheduleSearchOracle, BranchAndBoundMatchesExhaustiveOnRandomDags) {
  const std::uint64_t base_seed = property_seed();
  const int iters = property_iters();
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("PR_PROPERTY_SEED=" + std::to_string(seed));
    support::Xoshiro256 rng(seed);
    const Graph graph = random_dag(rng);
    const auto out = sinks_are_outputs(graph);
    for (const std::uint64_t m : {4ull, 5ull, 6ull, 12ull}) {
      const std::uint64_t oracle = oracle_min_io(graph, m, out);
      const search::SearchResult result = exact_search(graph, m, out);
      EXPECT_EQ(result.best_io, oracle) << "M=" << m;
      EXPECT_FALSE(result.budget_exhausted);
      EXPECT_EQ(result.certified, result.best_io == result.lower_bound);
    }
  }
}

// Closing the tree is no certificate. Leaves are scored with Belady,
// which minimizes reads on a fixed order but not reads + writes: here
// the search's best Belady-scored order costs 5, while the order
// 2,3,4,6,5,7,8 costs 4 when input 1 is evicted clean at step 3 and
// re-read at step 4 (3 reads + 1 output write; checked by brute force
// over every eviction choice). The root bound is 3, so the search must
// not claim optimality.
TEST(ScheduleSearchOracle, ClosedTreeAboveTheBoundIsNotCertified) {
  const Graph graph = make_graph({{},
                                  {},
                                  {0},
                                  {0, 1, 2},
                                  {0, 3},
                                  {1, 3},
                                  {0, 3, 4},
                                  {2, 5, 6},
                                  {6, 7}});
  const search::SearchResult result =
      exact_search(graph, 5, sinks_are_outputs(graph));
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(result.lower_bound, 3u);
  EXPECT_GE(result.best_io, 4u);
  EXPECT_FALSE(result.certified);
  EXPECT_EQ(result.proof, search::Proof::kNone);
}

// ---------------------------------------------------------------------------
// Admissibility of the pruning bound

// For random prefixes of random schedules, the partial bound must
// never exceed the true best completion cost (the minimum over ALL
// completions of the full-schedule Belady I/O). An inadmissible bound
// would let branch-and-bound prune the optimum away silently.
TEST(ScheduleSearchBound, PartialBoundNeverExceedsBestCompletion) {
  const std::uint64_t base_seed = property_seed();
  const int iters = property_iters();
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("PR_PROPERTY_SEED=" + std::to_string(seed));
    support::Xoshiro256 rng(seed);
    const Graph graph = random_dag(rng);
    const auto out = sinks_are_outputs(graph);
    const std::vector<VertexId> full =
        schedule::random_topological_schedule(graph, seed);
    for (const std::uint64_t m : {4ull, 6ull, 12ull}) {
      for (std::uint64_t len = 0; len <= full.size(); ++len) {
        const std::vector<VertexId> prefix(full.begin(),
                                           full.begin() + len);
        const bounds::PartialBound bound =
            bounds::partial_schedule_lower_bound(graph, prefix, m, out);
        const std::uint64_t best_completion =
            oracle_min_io(graph, m, out, nullptr, prefix);
        EXPECT_LE(bound.total(), best_completion)
            << "M=" << m << " prefix_len=" << len;
      }
    }
  }
}

// The bound at the empty prefix is the root lower bound the search
// certifies against; it must agree with what branch_and_bound reports.
TEST(ScheduleSearchBound, RootBoundMatchesSearchLowerBound) {
  const cdag::Cdag cdag(bilinear::by_name("strassen"), 1,
                        {.with_coefficients = false});
  const auto out = [&](VertexId v) { return cdag.layout().is_output(v); };
  const bounds::PartialBound root = bounds::partial_schedule_lower_bound(
      cdag.graph(), {}, 40, out);
  search::SearchOptions options;
  options.cache_size = 40;
  const search::SearchResult result =
      search::branch_and_bound(cdag.graph(), options, out);
  EXPECT_EQ(result.lower_bound, root.total());
  // M = 40 holds all 33 values: only compulsory traffic remains, and
  // the bound is exactly that — 8 input reads + 4 output writes.
  EXPECT_EQ(result.lower_bound, 12u);
  EXPECT_EQ(result.best_io, 12u);
  EXPECT_EQ(result.proof, search::Proof::kBoundMet);
}

// Mutation test: inflating the bound (debug_bound_inflation) makes the
// pruning test fire everywhere after the first leaf, so the search
// degenerates to one greedy descent. Somewhere in the seeded instance
// set that greedy leaf is suboptimal — if inflation NEVER cost an
// optimum, the pruning bound would not be load-bearing and the oracle
// equivalence above would be testing dead code.
TEST(ScheduleSearchBound, InflatedBoundMissesOptimaSomewhere) {
  constexpr std::uint64_t kInflation = 1000000;
  int missed = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    support::Xoshiro256 rng(seed);
    const Graph graph = random_dag(rng);
    const auto out = sinks_are_outputs(graph);
    const std::uint64_t m = 4;
    const std::uint64_t oracle = oracle_min_io(graph, m, out);
    const search::SearchResult honest = exact_search(graph, m, out);
    ASSERT_EQ(honest.best_io, oracle) << "seed=" << seed;
    const search::SearchResult inflated =
        exact_search(graph, m, out, kInflation);
    EXPECT_GE(inflated.best_io, oracle) << "seed=" << seed;
    if (inflated.best_io > oracle) ++missed;
  }
  EXPECT_GT(missed, 0)
      << "an infinitely pessimistic bound never cost an optimum — "
         "pruning is not load-bearing, the harness tests nothing";
}

// ---------------------------------------------------------------------------
// Incremental prefix bound against the whole-prefix replay oracle

/// A random DAG with wider steps than random_dag: 2..5 sources, 6..24
/// vertices, in-degree 1..5, and now and then an operand listed twice.
Graph random_wide_dag(support::Xoshiro256& rng) {
  const std::uint64_t n = 6 + rng.below(19);
  const std::uint64_t inputs = 2 + rng.below(4);
  std::vector<std::vector<VertexId>> preds(n);
  for (std::uint64_t v = inputs; v < n; ++v) {
    const std::uint64_t deg = 1 + rng.below(std::min<std::uint64_t>(5, v));
    for (std::uint64_t i = 0; i < deg; ++i) {
      preds[v].push_back(static_cast<VertexId>(rng.below(v)));
    }
  }
  return make_graph(preds);
}

std::uint64_t max_in_degree(const Graph& graph) {
  std::uint64_t d = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    d = std::max<std::uint64_t>(d, graph.in_degree(v));
  }
  return d;
}

/// Pushes `order` one step at a time and requires PrefixBound to equal
/// the replay oracle, field by field, on every prefix (the empty one
/// included). Returns the bounds seen, for coverage checks.
std::vector<bounds::PartialBound> expect_every_prefix_matches(
    const Graph& graph, std::span<const VertexId> order, std::uint64_t m,
    const std::function<bool(VertexId)>& out) {
  std::vector<bounds::PartialBound> seen;
  bounds::PrefixBound bound(graph, m, out);
  for (std::size_t len = 0;; ++len) {
    seen.push_back(bound.total());
    const bounds::PartialBound want =
        oracle::reference_partial_bound(graph, order.first(len), m, out);
    EXPECT_EQ(seen.back().prefix_reads, want.prefix_reads)
        << "M=" << m << " prefix_len=" << len;
    EXPECT_EQ(seen.back().suffix_reads, want.suffix_reads)
        << "M=" << m << " prefix_len=" << len;
    EXPECT_EQ(seen.back().output_writes, want.output_writes)
        << "M=" << m << " prefix_len=" << len;
    if (len == order.size() || seen.back() != want) break;
    bound.push(order[len]);
  }
  return seen;
}

// Every prefix of seeded random DAGs, at every M from the feasibility
// floor (max in-degree + 1) to n + 1: the interval-packing MIN count
// and the incrementally kept suffix terms equal the Belady replay.
// Replay one instance with PR_PROPERTY_SEED=<seed> PR_PROPERTY_ITERS=1.
TEST(ScheduleSearchBound, PrefixBoundMatchesReplayOnEveryPrefix) {
  const std::uint64_t base_seed = property_seed();
  const int iters = 8 * property_iters();
  bool capacity_miss = false, overflow = false;
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("PR_PROPERTY_SEED=" + std::to_string(seed));
    support::Xoshiro256 rng(seed);
    const Graph graph = random_wide_dag(rng);
    const auto out = sinks_are_outputs(graph);
    const std::vector<VertexId> order =
        schedule::random_topological_schedule(graph, seed);
    std::vector<std::vector<bounds::PartialBound>> by_m;
    for (std::uint64_t m = max_in_degree(graph) + 1;
         m <= graph.num_vertices() + 1; ++m) {
      by_m.push_back(expect_every_prefix_matches(graph, order, m, out));
    }
    // At M = n + 1 no value is refetched and none overflows the
    // boundary, so any difference from that row is a capacity effect.
    const std::vector<bounds::PartialBound>& roomy = by_m.back();
    for (const std::vector<bounds::PartialBound>& row : by_m) {
      for (std::size_t len = 0; len < std::min(row.size(), roomy.size());
           ++len) {
        capacity_miss |= row[len].prefix_reads > roomy[len].prefix_reads;
        overflow |= row[len].suffix_reads > roomy[len].suffix_reads;
      }
    }
  }
  EXPECT_TRUE(capacity_miss) << "no prefix ever refetched a value";
  EXPECT_TRUE(overflow) << "no prefix ever paid the live - M term";
}

// A random walk of the search tree — push a random ready vertex or pop
// — must leave PrefixBound in the state of a fresh bound with the same
// prefix pushed: equal after every move, and equal on every step of a
// common completion afterwards (which exercises the per-step room the
// pops restored).
TEST(ScheduleSearchBound, PrefixBoundPopRestoresFreshState) {
  const std::uint64_t base_seed = property_seed();
  const int iters = 8 * property_iters();
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("PR_PROPERTY_SEED=" + std::to_string(seed));
    support::Xoshiro256 rng(seed);
    const Graph graph = random_wide_dag(rng);
    const auto out = sinks_are_outputs(graph);
    const VertexId n = graph.num_vertices();
    const std::uint64_t m = max_in_degree(graph) + 1 + rng.below(4);

    std::vector<std::uint32_t> missing(n, 0);
    std::uint64_t to_schedule = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (graph.in(v).empty()) continue;
      ++to_schedule;
      for (const VertexId p : graph.in(v)) {
        if (!graph.in(p).empty()) ++missing[v];
      }
    }
    std::vector<std::uint8_t> done(n, 0);
    const auto ready = [&] {
      std::vector<VertexId> r;
      for (VertexId v = 0; v < n; ++v) {
        if (!graph.in(v).empty() && done[v] == 0 && missing[v] == 0) {
          r.push_back(v);
        }
      }
      return r;
    };
    std::vector<VertexId> prefix;
    bounds::PrefixBound walked(graph, m, out);
    const auto push = [&](VertexId v) {
      prefix.push_back(v);
      walked.push(v);
      done[v] = 1;
      for (const VertexId c : graph.out(v)) --missing[c];
    };
    for (int move = 0; move < 200; ++move) {
      if (!prefix.empty() &&
          (prefix.size() == to_schedule || rng.below(5) < 2)) {
        const VertexId v = prefix.back();
        prefix.pop_back();
        walked.pop();
        done[v] = 0;
        for (const VertexId c : graph.out(v)) ++missing[c];
      } else {
        const std::vector<VertexId> r = ready();
        push(r[rng.below(r.size())]);
      }
      ASSERT_EQ(walked.total(),
                bounds::partial_schedule_lower_bound(graph, prefix, m, out))
          << "move " << move << " prefix_len=" << prefix.size();
    }
    bounds::PrefixBound fresh(graph, m, out);
    for (const VertexId v : prefix) fresh.push(v);
    while (prefix.size() < to_schedule) {
      const VertexId v = ready().front();
      push(v);
      fresh.push(v);
      ASSERT_EQ(walked.total(), fresh.total())
          << "completion prefix_len=" << prefix.size();
    }
    EXPECT_EQ(walked.total(),
              oracle::reference_partial_bound(graph, prefix, m, out));
  }
}

/// The (algorithm, r, M, node budget) matrix of bench_schedule_search.
struct MatrixPoint {
  const char* algorithm;
  int r;
  std::uint64_t m;
  std::uint64_t budget;
};
constexpr MatrixPoint kSearchMatrix[] = {
    {"strassen", 1, 6, 40000},   {"strassen", 1, 8, 40000},
    {"strassen", 1, 12, 40000},  {"strassen", 1, 16, 40000},
    {"strassen", 1, 24, 40000},  {"strassen", 1, 40, 40000},
    {"classical2", 1, 4, 40000}, {"classical2", 1, 6, 40000},
    {"classical2", 1, 8, 40000}, {"classical2", 1, 12, 40000},
    {"classical2", 1, 36, 40000},
    {"winograd", 1, 8, 40000},   {"winograd", 1, 40, 40000},
    {"strassen", 2, 16, 4000},   {"strassen", 2, 64, 4000},
    {"strassen", 2, 300, 4000},
};

// The search matrix of bench_schedule_search: on the DFS and BFS
// schedules of each (algorithm, r, M) point, every prefix matches.
TEST(ScheduleSearchBound, PrefixBoundMatchesReplayOnSearchMatrix) {
  for (const MatrixPoint& point : kSearchMatrix) {
    SCOPED_TRACE(std::string(point.algorithm) + " r=" +
                 std::to_string(point.r) + " M=" + std::to_string(point.m));
    const cdag::Cdag cdag(bilinear::by_name(point.algorithm), point.r,
                          {.with_coefficients = false});
    const auto out = [&](VertexId v) { return cdag.layout().is_output(v); };
    for (const std::vector<VertexId>& order :
         {schedule::dfs_schedule(cdag), schedule::bfs_schedule(cdag)}) {
      expect_every_prefix_matches(cdag.graph(), order, point.m, out);
    }
  }
}

/// Requires the bound's MIN fetch count over the complete order to equal
/// the Belady simulator's read count at M.
void expect_min_reads_are_belady_reads(
    const Graph& graph, std::span<const VertexId> order, std::uint64_t m,
    const std::function<bool(VertexId)>& out) {
  bounds::PrefixBound bound(graph, m, out);
  for (const VertexId v : order) bound.push(v);
  EXPECT_EQ(bound.total().prefix_reads,
            pebble::simulate(graph, order, {.cache_size = m}, out).reads)
      << "M=" << m;
}

// A search leaf passes its bound's prefix_reads to the simulator as the
// stop rule's read floor, which is sound while prefix_reads <= reads.
// The two are equal: on a complete order the bound's interval packing
// is MIN's fetch count on the order's access string, and Belady evicts
// by MIN's rule on the same string. Checked on every complete order of
// the random wide DAGs (the first 64 in Kahn order, plus 16 random
// ones, where a DAG has more) at every M.
TEST(ScheduleSearchBound, PrefixReadsEqualBeladyReadsOnCompleteOrders) {
  const std::uint64_t base_seed = property_seed();
  const int iters = 8 * property_iters();
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("PR_PROPERTY_SEED=" + std::to_string(seed));
    support::Xoshiro256 rng(seed);
    const Graph graph = random_wide_dag(rng);
    const auto out = sinks_are_outputs(graph);
    const auto check = [&](std::span<const VertexId> order) {
      for (std::uint64_t m = max_in_degree(graph) + 1;
           m <= graph.num_vertices() + 1; ++m) {
        expect_min_reads_are_belady_reads(graph, order, m, out);
      }
    };
    int orders = 0;
    for_each_completion(graph, {}, [&](const std::vector<VertexId>& order) {
      check(order);
      return ++orders < 64;
    });
    for (int k = 0; orders == 64 && k < 16; ++k) {
      check(schedule::random_topological_schedule(graph, rng()));
    }
  }
}

// The same equality on the DFS, BFS and search-witness orders of the
// bench_schedule_search matrix.
TEST(ScheduleSearchBound, PrefixReadsEqualBeladyReadsOnSearchMatrix) {
  for (const MatrixPoint& point : kSearchMatrix) {
    SCOPED_TRACE(std::string(point.algorithm) + " r=" +
                 std::to_string(point.r) + " M=" + std::to_string(point.m));
    const cdag::Cdag cdag(bilinear::by_name(point.algorithm), point.r,
                          {.with_coefficients = false});
    const auto out = [&](VertexId v) { return cdag.layout().is_output(v); };
    search::SweepSpec spec;
    spec.algorithm = point.algorithm;
    spec.r = point.r;
    spec.m = point.m;
    spec.node_budget = point.budget;
    for (const std::vector<VertexId>& order :
         {schedule::dfs_schedule(cdag), schedule::bfs_schedule(cdag),
          search::run_search_point(spec).witness}) {
      expect_min_reads_are_belady_reads(cdag.graph(), order, point.m, out);
    }
  }
}

// ---------------------------------------------------------------------------
// Local search invariants

TEST(ScheduleSearchLocal, ResultIsValidTopologicalAndNeverWorse) {
  const cdag::Cdag cdag(bilinear::by_name("strassen"), 1,
                        {.with_coefficients = false});
  const Graph& graph = cdag.graph();
  const auto out = [&](VertexId v) { return cdag.layout().is_output(v); };
  const std::vector<VertexId> dfs = schedule::dfs_schedule(cdag);
  for (const std::uint64_t m : {6ull, 8ull, 16ull}) {
    const search::LocalSearchResult result = search::improve_schedule(
        graph, dfs, {.cache_size = m, .seed = 7}, out);
    EXPECT_TRUE(schedule::schedule_diagnostics(graph, result.schedule).empty());
    EXPECT_LE(result.io, result.initial_io);
    EXPECT_EQ(result.initial_io,
              pebble::simulate(graph, dfs, {.cache_size = m}, out).io());
    EXPECT_EQ(result.io, pebble::simulate(graph, result.schedule,
                                          {.cache_size = m}, out)
                             .io());
  }
}

TEST(ScheduleSearchLocal, BitIdenticalAcrossThreadCounts) {
  const cdag::Cdag cdag(bilinear::by_name("classical2"), 1,
                        {.with_coefficients = false});
  const Graph& graph = cdag.graph();
  const auto out = [&](VertexId v) { return cdag.layout().is_output(v); };
  const std::vector<VertexId> dfs = schedule::dfs_schedule(cdag);
  const auto run = [&](int threads) {
    support::parallel::ThreadOverride guard(threads);
    return search::improve_schedule(
        graph, dfs, {.cache_size = 6, .seed = 3, .max_rounds = 24}, out);
  };
  const search::LocalSearchResult t1 = run(1);
  const search::LocalSearchResult t2 = run(2);
  const search::LocalSearchResult t7 = run(7);
  EXPECT_EQ(t1.schedule, t2.schedule);
  EXPECT_EQ(t1.schedule, t7.schedule);
  EXPECT_EQ(t1.io, t2.io);
  EXPECT_EQ(t1.io, t7.io);
  EXPECT_EQ(t1.moves_evaluated, t7.moves_evaluated);
  EXPECT_EQ(t1.moves_accepted, t7.moves_accepted);
}

TEST(ScheduleSearchLocal, FullSweepPointBitIdenticalAcrossThreadCounts) {
  search::SweepSpec spec;
  spec.algorithm = "strassen";
  spec.r = 1;
  spec.m = 8;
  spec.node_budget = 2000;
  const auto run = [&](int threads) {
    support::parallel::ThreadOverride guard(threads);
    return search::run_search_point(spec);
  };
  const search::SweepPoint a = run(1);
  const search::SweepPoint b = run(2);
  const search::SweepPoint c = run(7);
  EXPECT_EQ(a.searched_io, b.searched_io);
  EXPECT_EQ(a.searched_io, c.searched_io);
  EXPECT_EQ(a.witness_fnv, b.witness_fnv);
  EXPECT_EQ(a.witness_fnv, c.witness_fnv);
  EXPECT_EQ(a.nodes_expanded, c.nodes_expanded);
  EXPECT_EQ(a.nodes_pruned, c.nodes_pruned);
  EXPECT_EQ(a.leaves_scored, c.leaves_scored);
  EXPECT_EQ(a.lower_bound, c.lower_bound);
}

// ---------------------------------------------------------------------------
// The audit rule, both ways

search::SweepPoint certified_point() {
  search::SweepSpec spec;
  spec.algorithm = "strassen";
  spec.r = 1;
  spec.m = 40;
  spec.node_budget = 1000;
  return search::run_search_point(spec);
}

audit::SearchCertificateView view_of_point(const cdag::Cdag& cdag,
                                           const search::SweepPoint& point) {
  audit::SearchCertificateView cert;
  cert.graph = &cdag.graph();
  cert.schedule = point.witness;
  cert.output_mask = point.output_mask;
  cert.cache_size = point.spec.m;
  cert.claimed_io = point.searched_io;
  cert.claimed_lower_bound = point.lower_bound;
  cert.claims_bound_met_optimal = point.proof == search::Proof::kBoundMet;
  const bilinear::BilinearAlgorithm alg =
      bilinear::by_name(point.spec.algorithm);
  cert.theorem1_a = static_cast<std::uint64_t>(alg.a());
  cert.theorem1_b = static_cast<std::uint64_t>(alg.b());
  cert.theorem1_r = point.spec.r;
  return cert;
}

TEST(ScheduleSearchAudit, RuleIsRegistered) {
  ASSERT_NE(audit::find_rule("search.certified-optimal"), nullptr);
}

TEST(ScheduleSearchAudit, CleanCertificatePasses) {
  const search::SweepPoint point = certified_point();
  ASSERT_TRUE(point.certified);
  ASSERT_EQ(point.proof, search::Proof::kBoundMet);
  const cdag::Cdag cdag(bilinear::by_name("strassen"), 1,
                        {.with_coefficients = false});
  const audit::AuditReport report =
      audit::audit_search_certificate(view_of_point(cdag, point));
  EXPECT_TRUE(report.ok()) << report.to_text();
  EXPECT_EQ(report.rules_run(),
            std::vector<std::string>{"search.certified-optimal"});
}

TEST(ScheduleSearchAudit, CorruptedClaimsAreRejected) {
  const search::SweepPoint point = certified_point();
  const cdag::Cdag cdag(bilinear::by_name("strassen"), 1,
                        {.with_coefficients = false});

  // A drifted I/O claim no longer re-simulates.
  audit::SearchCertificateView drifted = view_of_point(cdag, point);
  drifted.claimed_io = point.searched_io + 1;
  const audit::AuditReport drift_report =
      audit::audit_search_certificate(drifted);
  EXPECT_FALSE(drift_report.ok());
  EXPECT_TRUE(drift_report.has_finding("search.certified-optimal"));

  // A drifted lower-bound claim no longer re-derives.
  audit::SearchCertificateView wrong_lb = view_of_point(cdag, point);
  wrong_lb.claimed_lower_bound = point.lower_bound + 1;
  EXPECT_FALSE(audit::audit_search_certificate(wrong_lb).ok());

  // A corrupted witness (two entries swapped against a dependence) is
  // not a schedule at all.
  std::vector<VertexId> witness = point.witness;
  std::swap(witness.front(), witness.back());
  audit::SearchCertificateView bad_witness = view_of_point(cdag, point);
  bad_witness.schedule = witness;
  EXPECT_FALSE(audit::audit_search_certificate(bad_witness).ok());

  // Claiming bound-met optimality with a gap is unsound even when both
  // numbers are individually honest.
  search::SweepSpec gap_spec;
  gap_spec.algorithm = "strassen";
  gap_spec.r = 1;
  gap_spec.m = 6;
  gap_spec.node_budget = 500;
  const search::SweepPoint gap_point = search::run_search_point(gap_spec);
  ASSERT_GT(gap_point.searched_io, gap_point.lower_bound);
  audit::SearchCertificateView overclaim = view_of_point(cdag, gap_point);
  overclaim.claims_bound_met_optimal = true;
  EXPECT_FALSE(audit::audit_search_certificate(overclaim).ok());
}

// ---------------------------------------------------------------------------
// Witness digests are schedule-identity

TEST(ScheduleSearchSweep, GraphDigestIsStableAndDiscriminates) {
  const cdag::Cdag strassen(bilinear::by_name("strassen"), 1,
                            {.with_coefficients = false});
  const cdag::Cdag classical(bilinear::by_name("classical2"), 1,
                             {.with_coefficients = false});
  EXPECT_EQ(search::graph_digest(strassen.graph()),
            search::graph_digest(strassen.graph()));
  EXPECT_NE(search::graph_digest(strassen.graph()),
            search::graph_digest(classical.graph()));
}

TEST(ScheduleSearchSweep, RecordRoundTripsSpec) {
  search::SweepSpec spec;
  spec.algorithm = "winograd";
  spec.r = 1;
  spec.m = 8;
  spec.node_budget = 123;
  spec.seed = 9;
  spec.ls_rounds = 5;
  spec.ls_moves = 17;
  const search::SweepPoint point = search::run_search_point(spec);
  obs::BenchRecord rec;
  search::fill_search_record(point, rec);
  obs::RecordReader in(rec);
  const search::SweepSpec back = search::search_spec_from_record(in);
  EXPECT_TRUE(in.ok()) << in.error();
  EXPECT_EQ(back.algorithm, spec.algorithm);
  EXPECT_EQ(back.r, spec.r);
  EXPECT_EQ(back.m, spec.m);
  EXPECT_EQ(back.node_budget, spec.node_budget);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.ls_rounds, spec.ls_rounds);
  EXPECT_EQ(back.ls_moves, spec.ls_moves);
}

TEST(ScheduleSearchSweep, SpecFromRecordRejectsMalformedRecords) {
  search::SweepSpec spec;
  spec.algorithm = "strassen";
  spec.m = 8;
  search::SweepPoint point;
  point.spec = spec;
  obs::BenchRecord good;
  search::fill_search_record(point, good);

  obs::BenchRecord unknown = good;
  unknown.set("algorithm", "nope");
  obs::RecordReader unknown_in(unknown);
  (void)search::search_spec_from_record(unknown_in);
  EXPECT_NE(unknown_in.error().find("\"algorithm\""), std::string::npos)
      << unknown_in.error();

  obs::BenchRecord missing;
  for (const auto& [key, value] : good.fields()) {
    if (key != "m") missing.set(key, value);
  }
  obs::RecordReader missing_in(missing);
  (void)search::search_spec_from_record(missing_in);
  EXPECT_EQ(missing_in.error(), "field \"m\": missing");
}

/// A schedule_search record of a point with the given verdict.
obs::BenchRecord point_record(bool certified, search::Proof proof) {
  search::SweepPoint point;
  point.spec.algorithm = "strassen";
  point.certified = certified;
  point.proof = proof;
  obs::BenchRecord rec;
  search::fill_search_record(point, rec);
  return rec;
}

TEST(ScheduleSearchSweep, CertifiedCountCountsBoundMetPointsOnly) {
  // Only a point that met the root bound is certified; uncertified
  // points and a non-point record never count.
  std::vector<obs::BenchRecord> records = {
      point_record(true, search::Proof::kBoundMet),
      point_record(false, search::Proof::kNone),
      point_record(true, search::Proof::kBoundMet),
      point_record(false, search::Proof::kNone)};
  records.emplace_back().set("experiment", "other").set("certified", true);
  EXPECT_EQ(search::certified_count(records), 2u);

  obs::BenchRecord summary;
  search::fill_search_summary_record(records, summary);
  EXPECT_EQ(summary.text_or("experiment", ""), "schedule_search_summary");
  EXPECT_EQ(summary.int_or("instances", 0), 4);
  EXPECT_EQ(summary.int_or("certified_count", 0), 2);
}

}  // namespace
