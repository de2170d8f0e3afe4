// Schedule-space search: branch-and-bound over red-blue pebblings.
//
// I/O-complexity is a minimum over all topological orders; the repo's
// fixed schedule family (DFS/BFS/random) only upper-bounds it. This
// optimizer explores the space of completions of partial topological
// orders, pruning with the admissible partial-state bound of
// bounds/schedule_bound.hpp (never an overestimate of the best
// completion, so no optimum is ever cut). A leaf is scored with
// pebble::simulate under Belady eviction, but only as far as it takes
// to show that it cannot beat the incumbent: a leaf whose bound already
// reaches the incumbent is not simulated at all, and every other leaf
// runs under the simulator's stop rule (io_limit = the incumbent,
// reads_floor = the bound's MIN fetch count). Any leaf that could
// improve runs to the end, so results are those of exact scoring.
// leaves_scored counts leaves reached; the obs counters
// search.leaves_cut and search.leaves_simulated split them.
//
// Certification: a result is *certified optimal* exactly when the
// incumbent's cost equals the root lower bound (kBoundMet): no
// pebbling can beat an admissible bound. Closing the tree within the
// node budget is no certificate: leaves are scored with Belady, which
// minimizes reads on a fixed order but not reads + writes, so the
// optimum over orders *and* eviction choices can lie below the best
// Belady-scored order (tests/test_search.cpp pins a 9-vertex witness).
// The search.certified-optimal audit rule re-simulates the witness and
// re-derives the bound independently before a certificate is trusted.
//
// Determinism: the tree walk is serial and children expand in
// ascending vertex id, so nodes_expanded / nodes_pruned / the witness
// are pure functions of (graph, M, options) at any PR_THREADS. The
// parallel substrate is used by the local-search mode
// (search/local_search.hpp), not the tree walk.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "pathrouting/cdag/graph.hpp"

namespace pathrouting::search {

using cdag::Graph;
using cdag::VertexId;

struct SearchOptions {
  std::uint64_t cache_size = 0;  // M, in values
  /// Maximum tree-edge expansions; 0 = unbounded (full exhaustion).
  std::uint64_t node_budget = 0;
  /// Additional schedule-independent lower bound (e.g. the paper's
  /// Theorem-1 closed form) max-combined into the root bound and every
  /// pruning bound.
  std::uint64_t extra_lower_bound = 0;
  /// Seed schedule scored before the walk — a good incumbent makes
  /// pruning bite from the first node. Empty = start from infinity.
  std::vector<VertexId> initial_incumbent;
  /// TEST-ONLY: inflates every pruning bound by this amount. An
  /// inflated bound is no longer admissible; the mutation test in
  /// tests/test_search.cpp uses this to prove that an over-promising
  /// bound makes the search miss optima (i.e. that admissibility is
  /// load-bearing, not decorative).
  std::uint64_t debug_bound_inflation = 0;
};

enum class Proof { kNone, kBoundMet };
const char* proof_name(Proof proof);

struct SearchResult {
  std::uint64_t best_io = 0;
  std::vector<VertexId> best_schedule;  // the witness
  /// Root lower bound: max(partial_schedule_lower_bound(empty prefix),
  /// options.extra_lower_bound).
  std::uint64_t lower_bound = 0;
  bool certified = false;  // best_io == lower_bound (kBoundMet)
  Proof proof = Proof::kNone;
  std::uint64_t nodes_expanded = 0;
  std::uint64_t nodes_pruned = 0;
  std::uint64_t leaves_scored = 0;
  bool budget_exhausted = false;
};

/// Minimizes Belady-simulated I/O over topological orders of the
/// non-input vertices of `graph`. Requires cache_size >= max
/// in-degree + 1 (the simulator's feasibility floor) and at least one
/// non-input vertex.
SearchResult branch_and_bound(const Graph& graph,
                              const SearchOptions& options,
                              const std::function<bool(VertexId)>& is_output);

}  // namespace pathrouting::search
