#include "pathrouting/routing/decode_routing.hpp"

#include <algorithm>
#include <deque>

#include "pathrouting/obs/obs.hpp"
#include "pathrouting/support/parallel.hpp"

namespace pathrouting::routing {

namespace {

namespace parallel = support::parallel;

/// BFS in the undirected bipartite D_1 (b products, a outputs) from
/// product `q0`; returns for each node its BFS parent, with products
/// encoded as 0..b-1 and outputs as b..b+a-1.
std::vector<int> bfs_parents(const BilinearAlgorithm& alg, int q0) {
  const int b = alg.b();
  const int a = alg.a();
  std::vector<int> parent(static_cast<std::size_t>(a + b), -2);  // -2 unseen
  std::deque<int> queue = {q0};
  parent[static_cast<std::size_t>(q0)] = -1;  // root
  while (!queue.empty()) {
    const int node = queue.front();
    queue.pop_front();
    if (node < b) {
      for (int e = 0; e < a; ++e) {
        if (!alg.w(e, node).is_zero() &&
            parent[static_cast<std::size_t>(b + e)] == -2) {
          parent[static_cast<std::size_t>(b + e)] = node;
          queue.push_back(b + e);
        }
      }
    } else {
      const int e = node - b;
      for (int q = 0; q < b; ++q) {
        if (!alg.w(e, q).is_zero() &&
            parent[static_cast<std::size_t>(q)] == -2) {
          parent[static_cast<std::size_t>(q)] = node;
          queue.push_back(q);
        }
      }
    }
  }
  return parent;
}

}  // namespace

DecodeRouter::DecodeRouter(const BilinearAlgorithm& alg) : alg_(alg) {
  const int a = alg_.a();
  const int b = alg_.b();
  d1_paths_.resize(static_cast<std::size_t>(a) * static_cast<std::size_t>(b));
  for (int q = 0; q < b; ++q) {
    const std::vector<int> parent = bfs_parents(alg_, q);
    for (int e = 0; e < a; ++e) {
      PR_REQUIRE_MSG(parent[static_cast<std::size_t>(b + e)] != -2,
                     "decoding graph of the base algorithm is disconnected; "
                     "Claim 1 requires connectivity (use Theorem 2 instead)");
      // Reconstruct the simple path q .. e; nodes alternate product /
      // output because D_1 is bipartite.
      std::vector<int> path;
      for (int node = b + e; node != -1;
           node = parent[static_cast<std::size_t>(node)]) {
        path.push_back(node < b ? node : node - b);
      }
      std::reverse(path.begin(), path.end());
      PR_ASSERT(path.size() % 2 == 0);  // starts at a product, ends at an output
      d1_paths_[static_cast<std::size_t>(q) * static_cast<std::size_t>(a) +
                static_cast<std::size_t>(e)] = std::move(path);
    }
  }
}

void DecodeRouter::append_path(const cdag::SubComputation& sub,
                               std::uint64_t q_word, std::uint64_t e_word,
                               std::vector<cdag::VertexId>& out) const {
  const cdag::Layout& layout = sub.cdag().layout();
  const int k = sub.k();
  const auto& pow_a = layout.pow_a();
  const auto& pow_b = layout.pow_b();
  // Start at the D_k input: the product vertex.
  out.push_back(sub.dec(0, q_word, 0));
  // Levels innermost (l = k) to outermost (l = 1). At level l we sit at
  // dec rank k-l on block (q_1..q_{l-1}, x) with output suffix
  // (e_{l+1}..e_k) already fixed, and zig-zag to x = e_l.
  for (int l = k; l >= 1; --l) {
    const int rank = k - l;
    const std::uint64_t ctx = q_word / pow_b(k - l + 1);      // q_1..q_{l-1}
    const int ql = static_cast<int>((q_word / pow_b(k - l)) %
                                    static_cast<std::uint64_t>(alg_.b()));
    const int el = static_cast<int>(support::digit_at(pow_a, e_word, k, l - 1));
    const std::uint64_t suffix = e_word % pow_a(k - l);        // e_{l+1}..e_k
    const std::vector<int>& path = d1_path(ql, el);
    // path = (x_0=ql, y_1, x_1, ..., y_m=el); x_0's vertex is already
    // the last one appended, so emit from y_1 on.
    for (std::size_t i = 1; i < path.size(); ++i) {
      if (i % 2 == 1) {  // output node y: one rank up
        out.push_back(sub.dec(
            rank + 1, ctx,
            static_cast<std::uint64_t>(path[i]) * pow_a(k - l) + suffix));
      } else {  // product node x: back down
        out.push_back(sub.dec(
            rank, ctx * static_cast<std::uint64_t>(alg_.b()) +
                      static_cast<std::uint64_t>(path[i]),
            suffix));
      }
    }
  }
}

std::vector<std::uint64_t> count_decode_hits(const DecodeRouter& router,
                                             const cdag::SubComputation& sub) {
  const obs::TraceSpan span("routing.count_decode_hits");
  const std::uint64_t n = sub.cdag().graph().num_vertices();
  const std::uint64_t num_q = sub.num_products();
  const std::uint64_t num_e = sub.inputs_per_side();
  // Parallel over products into one shared counter array (relaxed
  // atomic adds, exactly commutative), so counts are thread-count
  // independent and the working set does not grow with PR_THREADS.
  parallel::HitCounter hits(n);
  const std::uint64_t grain = parallel::work_grain(
      num_q, /*per_item_cost=*/num_e * static_cast<std::uint64_t>(
                                           2 * sub.k() + 2));
  parallel::parallel_for(
      0, num_q, grain, [&](std::uint64_t lo, std::uint64_t hi) {
        std::vector<cdag::VertexId> path;
        for (std::uint64_t q = lo; q < hi; ++q) {
          for (std::uint64_t e = 0; e < num_e; ++e) {
            path.clear();
            router.append_path(sub, q, e, path);
            for (const cdag::VertexId v : path) hits.add(v);
          }
        }
      });
  static obs::Counter obs_paths("routing.decode_paths_enumerated");
  obs_paths.add(num_q * num_e);
  return hits.take();
}

HitStats verify_decode_routing(const DecodeRouter& router,
                               const cdag::SubComputation& sub) {
  return decode_stats_from_hits(router, sub, count_decode_hits(router, sub));
}

HitStats decode_stats_from_hits(const DecodeRouter& router,
                                const cdag::SubComputation& sub,
                                std::span<const std::uint64_t> hits) {
  const cdag::Layout& layout = sub.cdag().layout();
  const int k = sub.k();
  HitStats stats;
  const std::uint64_t big =
      std::max(layout.pow_a()(k), layout.pow_b()(k));
  stats.bound = static_cast<std::uint64_t>(router.d1_size()) * big;
  stats.num_paths = sub.num_products() * sub.inputs_per_side();
  for (std::uint64_t v = 0; v < hits.size(); ++v) {
    if (hits[v] > stats.max_hits) {
      stats.max_hits = hits[v];
      stats.argmax = static_cast<cdag::VertexId>(v);
    }
  }
  return stats;
}

}  // namespace pathrouting::routing
