#include "pathrouting/search/optimizer.hpp"

#include <algorithm>
#include <limits>

#include "pathrouting/bounds/schedule_bound.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/pebble/cache_sim.hpp"
#include "pathrouting/support/check.hpp"

namespace pathrouting::search {

namespace {

constexpr std::uint64_t kInfinity = std::numeric_limits<std::uint64_t>::max();

/// The serial DFS walk over partial topological orders. Ready vertices
/// expand in ascending id, so the walk — and with it every counter and
/// the witness — is deterministic.
struct TreeWalk {
  const Graph& graph;
  const SearchOptions& options;
  const std::function<bool(VertexId)>& is_output;
  std::uint64_t num_to_schedule = 0;

  std::vector<VertexId> prefix;
  std::vector<std::uint32_t> missing_preds;  // unscheduled non-input preds
  std::vector<std::uint8_t> ready;
  bounds::PrefixBound bound;  // of `prefix`

  SearchResult result;
  bool stop = false;  // optimum proven or budget exhausted

  TreeWalk(const Graph& g, const SearchOptions& opt,
           const std::function<bool(VertexId)>& out)
      : graph(g),
        options(opt),
        is_output(out),
        bound(g, opt.cache_size, out) {
    const VertexId n = graph.num_vertices();
    missing_preds.assign(n, 0);
    ready.assign(n, 0);
    for (VertexId v = 0; v < n; ++v) {
      if (graph.in_degree(v) == 0) continue;  // input
      ++num_to_schedule;
      for (const VertexId p : graph.in(v)) {
        if (graph.in_degree(p) > 0) ++missing_preds[v];
      }
      ready[v] = missing_preds[v] == 0;
    }
    prefix.reserve(num_to_schedule);
  }

  /// True when no completion of `prefix` can beat the incumbent: its
  /// admissible bound, for a complete order a bound on that order's own
  /// cost, already reaches it.
  [[nodiscard]] bool bound_reaches_incumbent() const {
    return result.best_io != kInfinity &&
           std::max(bound.total().total(), options.extra_lower_bound) +
                   options.debug_bound_inflation >=
               result.best_io;
  }

  /// Scores the complete order `prefix` only as far as it takes to show
  /// that it cannot beat the incumbent: not at all when its bound
  /// already reaches it, else under the simulator's stop rule with the
  /// MIN fetch count as the read floor. An initial incumbent is scored
  /// against an empty bound and no incumbent, so its run is unlimited.
  void score_leaf() {
    static obs::Counter leaves("search.leaves_scored");
    static obs::Counter cut("search.leaves_cut");
    static obs::Counter simulated("search.leaves_simulated");
    leaves.add();
    ++result.leaves_scored;
    if (bound_reaches_incumbent()) {
      cut.add();
      return;
    }
    simulated.add();
    const pebble::PebbleResult sim =
        pebble::simulate(graph, prefix,
                         {.cache_size = options.cache_size,
                          .io_limit = result.best_io,
                          .reads_floor = bound.total().prefix_reads},
                         is_output);
    if (!sim.stopped && sim.io() < result.best_io) {
      result.best_io = sim.io();
      result.best_schedule = prefix;
      if (result.best_io == result.lower_bound) stop = true;
    }
  }

  void push(VertexId v) {
    prefix.push_back(v);
    bound.push(v);
    ready[v] = 0;
    for (const VertexId c : graph.out(v)) {
      if (--missing_preds[c] == 0) ready[c] = 1;
    }
  }

  void pop(VertexId v) {
    prefix.pop_back();
    bound.pop();
    for (const VertexId c : graph.out(v)) {
      if (missing_preds[c]++ == 0) ready[c] = 0;
    }
    ready[v] = 1;
  }

  void expand() {
    if (stop) return;
    if (prefix.size() == num_to_schedule) {
      score_leaf();
      return;
    }
    static obs::Counter pruned("search.nodes_pruned");
    static obs::Counter expanded("search.nodes_expanded");
    if (bound_reaches_incumbent()) {
      pruned.add();
      ++result.nodes_pruned;
      return;
    }
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      if (!ready[v]) continue;
      if (stop) return;
      if (options.node_budget != 0 &&
          result.nodes_expanded >= options.node_budget) {
        result.budget_exhausted = true;
        stop = true;
        return;
      }
      expanded.add();
      ++result.nodes_expanded;
      push(v);
      expand();
      pop(v);
    }
  }
};

}  // namespace

const char* proof_name(Proof proof) {
  switch (proof) {
    case Proof::kBoundMet:
      return "bound-met";
    case Proof::kNone:
      break;
  }
  return "none";
}

SearchResult branch_and_bound(const Graph& graph,
                              const SearchOptions& options,
                              const std::function<bool(VertexId)>& is_output) {
  obs::TraceSpan span("search.branch_and_bound");
  TreeWalk walk(graph, options, is_output);
  PR_REQUIRE_MSG(walk.num_to_schedule > 0, "graph has no non-input vertices");

  walk.result.lower_bound =
      std::max(walk.bound.total().total(), options.extra_lower_bound);
  walk.result.best_io = kInfinity;

  if (!options.initial_incumbent.empty()) {
    walk.prefix = options.initial_incumbent;
    walk.score_leaf();
    walk.prefix.clear();
  }
  walk.expand();

  SearchResult result = std::move(walk.result);
  if (result.best_io == result.lower_bound) {
    result.certified = true;
    result.proof = Proof::kBoundMet;
  }
  return result;
}

}  // namespace pathrouting::search
