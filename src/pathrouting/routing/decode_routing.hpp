// Claim 1 (Section 5): the (|D_1| * b^k)-routing inside the decoding
// graph D_k alone, for bases whose decoding graph is connected
// (Strassen: an 11*7^k-routing).
//
// The "zig-zag" construction: within each recursion level, the unique
// chain hop product -> output of the complete-bipartite case is replaced
// by an undirected simple path inside the level's D_1 component
// (Figure 3). A path from D_k input (q_1..q_k) to output (e_1..e_k)
// processes levels innermost-first; at level l it zig-zags between
// decoding ranks k-l and k-l+1 following a fixed D_1 path from q_l to
// e_l, with block context (q_1..q_{l-1}) and the already-decoded output
// suffix (e_{l+1}..e_k) (Figure 4).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pathrouting/cdag/subcomputation.hpp"
#include "pathrouting/routing/chain_routing.hpp"  // for HitStats

namespace pathrouting::routing {

class DecodeRouter {
 public:
  /// Precomputes BFS paths between every product and output of D_1.
  /// Aborts if the base decoding graph is disconnected (Claim 1 needs
  /// connectivity; Section 6 handles the general case via Theorem 2).
  explicit DecodeRouter(const BilinearAlgorithm& alg);

  /// |D_1| = a + b; the routing bound is |D_1| * max(a,b)^k.
  [[nodiscard]] int d1_size() const { return alg_.a() + alg_.b(); }

  /// The fixed simple D_1 path from product q to output e, alternating
  /// products and outputs: q = x_0, y_1, x_1, ..., y_m = e. Returned as
  /// the interleaved sequence (x_0, y_1, x_1, y_2, ..., y_m).
  [[nodiscard]] const std::vector<int>& d1_path(int q, int e) const {
    return d1_paths_[static_cast<std::size_t>(q) *
                         static_cast<std::size_t>(alg_.a()) +
                     static_cast<std::size_t>(e)];
  }

  /// Appends the D_k path from input (product word q_word) to output
  /// position e_word of sub's decoding graph, as global vertex ids.
  void append_path(const cdag::SubComputation& sub, std::uint64_t q_word,
                   std::uint64_t e_word, std::vector<cdag::VertexId>& out) const;

 private:
  BilinearAlgorithm alg_;
  std::vector<std::vector<int>> d1_paths_;  // [q * a + e]
};

/// Per-vertex hit counts (indexed by global vertex id) of the full
/// Claim-1 routing: all b^k x a^k zig-zag paths of sub's D_k,
/// enumerated explicitly. This is the brute-force oracle the memoized
/// engine (memo_routing.hpp) is cross-checked against.
std::vector<std::uint64_t> count_decode_hits(const DecodeRouter& router,
                                             const cdag::SubComputation& sub);

/// Claim 1 verification: route all b^k x a^k input-output pairs of
/// sub's D_k and check max per-vertex hits <= |D_1| * max(a,b)^k.
HitStats verify_decode_routing(const DecodeRouter& router,
                               const cdag::SubComputation& sub);

/// The Claim-1 stats of an already-counted hit array (the brute path
/// above, and callers that keep the array to compare engines).
HitStats decode_stats_from_hits(const DecodeRouter& router,
                                const cdag::SubComputation& sub,
                                std::span<const std::uint64_t> hits);

}  // namespace pathrouting::routing
