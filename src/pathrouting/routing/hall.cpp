#include "pathrouting/routing/hall.hpp"

#include "pathrouting/routing/maxflow.hpp"
#include "pathrouting/support/check.hpp"

namespace pathrouting::routing {

namespace {

/// Guaranteed digit pairs for a side, in a fixed enumeration order.
std::vector<std::pair<int, int>> guaranteed_pairs(int n0, Side side) {
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<std::size_t>(n0) * n0 * n0);
  const int a = n0 * n0;
  for (int d_in = 0; d_in < a; ++d_in) {
    for (int d_out = 0; d_out < a; ++d_out) {
      if (is_guaranteed_digit_pair(n0, side, d_in, d_out)) {
        pairs.emplace_back(d_in, d_out);
      }
    }
  }
  return pairs;
}

}  // namespace

bool is_guaranteed_digit_pair(int n0, Side side, int d_in, int d_out) {
  if (side == Side::A) return d_in / n0 == d_out / n0;  // rows match
  return d_in % n0 == d_out % n0;                       // columns match
}

std::vector<std::uint64_t> matched_pair_counts(const BilinearAlgorithm& alg,
                                               Side side,
                                               const BaseMatching& mu) {
  std::vector<std::uint64_t> m(static_cast<std::size_t>(alg.b()), 0);
  for (const auto& [d_in, d_out] : guaranteed_pairs(alg.n0(), side)) {
    ++m[static_cast<std::size_t>(mu.product(d_in, d_out))];
  }
  return m;
}

bool h_edge(const BilinearAlgorithm& alg, Side side, int d_in, int d_out,
            int q) {
  const auto& enc = side == Side::A ? alg.u(q, d_in) : alg.v(q, d_in);
  return !enc.is_zero() && !alg.w(d_out, q).is_zero();
}

std::optional<BaseMatching> compute_base_matching(const BilinearAlgorithm& alg,
                                                  Side side) {
  const int n0 = alg.n0();
  const int a = alg.a();
  const auto pairs = guaranteed_pairs(n0, side);
  // Nodes: 0 = source, 1 = sink, 2..2+|X|-1 pairs, then b products.
  const int x_base = 2;
  const int y_base = x_base + static_cast<int>(pairs.size());
  MaxFlow flow(y_base + alg.b());
  std::vector<int> source_edges;
  std::vector<std::vector<std::pair<int, int>>> pair_edges(pairs.size());
  for (std::size_t x = 0; x < pairs.size(); ++x) {
    source_edges.push_back(flow.add_edge(0, x_base + static_cast<int>(x), 1));
    for (int q = 0; q < alg.b(); ++q) {
      if (h_edge(alg, side, pairs[x].first, pairs[x].second, q)) {
        pair_edges[x].emplace_back(
            q, flow.add_edge(x_base + static_cast<int>(x), y_base + q, 1));
      }
    }
  }
  for (int q = 0; q < alg.b(); ++q) {
    flow.add_edge(y_base + q, 1, n0);
  }
  const std::int64_t value = flow.solve(0, 1);
  if (value != static_cast<std::int64_t>(pairs.size())) return std::nullopt;
  std::vector<std::int32_t> mu(static_cast<std::size_t>(a) * a, -1);
  for (std::size_t x = 0; x < pairs.size(); ++x) {
    std::int32_t assigned = -1;
    for (const auto& [q, handle] : pair_edges[x]) {
      if (flow.flow_on(handle) == 1) {
        assigned = q;
        break;
      }
    }
    PR_ASSERT(assigned >= 0);
    mu[static_cast<std::size_t>(pairs[x].first) * static_cast<std::size_t>(a) +
       static_cast<std::size_t>(pairs[x].second)] = assigned;
  }
  return BaseMatching(a, std::move(mu));
}

bool hall_condition_exhaustive(const BilinearAlgorithm& alg, Side side) {
  const int n0 = alg.n0();
  const auto pairs = guaranteed_pairs(n0, side);
  PR_REQUIRE_MSG(pairs.size() <= 20,
                 "exhaustive Hall check is exponential; use the flow check");
  // Precompute neighbourhood bitmasks over products (b <= 64 here).
  PR_REQUIRE(alg.b() <= 64);
  std::vector<std::uint64_t> nbr(pairs.size(), 0);
  for (std::size_t x = 0; x < pairs.size(); ++x) {
    for (int q = 0; q < alg.b(); ++q) {
      if (h_edge(alg, side, pairs[x].first, pairs[x].second, q)) {
        nbr[x] |= std::uint64_t{1} << q;
      }
    }
  }
  for (std::uint64_t subset = 1; subset < (std::uint64_t{1} << pairs.size());
       ++subset) {
    std::uint64_t neighbourhood = 0;
    int size = 0;
    for (std::size_t x = 0; x < pairs.size(); ++x) {
      if (subset & (std::uint64_t{1} << x)) {
        neighbourhood |= nbr[x];
        ++size;
      }
    }
    // |N(D)| >= |D|/n0  <=>  n0 * |N(D)| >= |D|.
    if (n0 * __builtin_popcountll(neighbourhood) < size) return false;
  }
  return true;
}

bool hall_condition_flow(const BilinearAlgorithm& alg, Side side) {
  return compute_base_matching(alg, side).has_value();
}

}  // namespace pathrouting::routing
