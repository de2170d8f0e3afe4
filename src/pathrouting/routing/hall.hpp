// The matching graph H = (X, Y) of Section 7.2 and the many-to-one Hall
// matching of Theorem 3.
//
// For side A of a base algorithm: X = guaranteed dependencies of G'_1,
// i.e. digit pairs (d_in, d_out) with row(d_in) == row(d_out); Y = the
// b middle-rank vertices (one per product, since each combination feeds
// exactly one product in the canonical CDAG). (d_in, d_out) is adjacent
// to product q iff some chain from the input through q reaches the
// output: U[q, d_in] != 0 and W[d_out, q] != 0. For side B the
// guaranteed dependencies pair by column and use V instead of U.
//
// Lemma 5 states |N(D)| >= |D| / n0 for every D ⊆ X; by Theorem 3
// (Hall, many-to-one) a matching then exists that uses every middle
// vertex at most n0 times. `compute_base_matching` constructs it by
// max-flow; its existence is *equivalent* to the Hall condition, so the
// flow-based checker decides Lemma 5's hypothesis exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "pathrouting/bilinear/analysis.hpp"

namespace pathrouting::routing {

using bilinear::BilinearAlgorithm;
using bilinear::Side;

/// Many-to-one matching from guaranteed digit pairs to products.
class BaseMatching {
 public:
  BaseMatching(int a, std::vector<std::int32_t> mu) : a_(a), mu_(std::move(mu)) {}

  /// Product assigned to the guaranteed pair (d_in, d_out); pairs
  /// without a guaranteed dependence are not in the matching domain.
  [[nodiscard]] int product(int d_in, int d_out) const {
    const std::int32_t q =
        mu_[static_cast<std::size_t>(d_in) * static_cast<std::size_t>(a_) +
            static_cast<std::size_t>(d_out)];
    PR_REQUIRE_MSG(q >= 0, "pair is not a guaranteed dependence");
    return q;
  }
  [[nodiscard]] bool defined(int d_in, int d_out) const {
    return mu_[static_cast<std::size_t>(d_in) * static_cast<std::size_t>(a_) +
               static_cast<std::size_t>(d_out)] >= 0;
  }

 private:
  int a_;
  std::vector<std::int32_t> mu_;
};

/// True iff digit pair (d_in on `side`, d_out) is a guaranteed
/// dependence: rows match for A-inputs, columns match for B-inputs.
bool is_guaranteed_digit_pair(int n0, Side side, int d_in, int d_out);

/// M_side[q] = #{guaranteed digit pairs (d_in, d_out) that `mu` matches
/// to product q}, size b: the per-digit factor of the closed-form
/// Lemma-3 hit counts (memo_routing.hpp) and of their overflow
/// envelopes (analysis/envelope.hpp).
std::vector<std::uint64_t> matched_pair_counts(const BilinearAlgorithm& alg,
                                               Side side,
                                               const BaseMatching& mu);

/// True iff the edge (d_in,d_out)-q exists in H.
bool h_edge(const BilinearAlgorithm& alg, Side side, int d_in, int d_out,
            int q);

/// Constructs the Theorem-3 matching with per-product capacity n0 via
/// max-flow, or nullopt if none exists (then the Hall condition of
/// Lemma 5 fails — impossible for correct algorithms by the paper's
/// argument, but reachable for hand-crafted broken inputs in tests).
std::optional<BaseMatching> compute_base_matching(const BilinearAlgorithm& alg,
                                                  Side side);

/// Decides Lemma 5's Hall condition |N(D)| >= |D|/n0 for all D by
/// exhaustive subset enumeration. Only feasible for n0 = 2 (|X| = 8).
bool hall_condition_exhaustive(const BilinearAlgorithm& alg, Side side);

/// Same decision via max-flow feasibility (equivalent by Theorem 3);
/// works for any n0.
bool hall_condition_flow(const BilinearAlgorithm& alg, Side side);

}  // namespace pathrouting::routing
