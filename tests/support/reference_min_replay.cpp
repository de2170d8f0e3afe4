#include "support/reference_min_replay.hpp"

#include <vector>

#include "pathrouting/schedule/use_lists.hpp"
#include "pathrouting/support/check.hpp"

namespace pathrouting::oracle {

namespace {

using cdag::Graph;
using cdag::VertexId;

/// Next-use sentinel: no further consumption inside the prefix. As a
/// u32 it sorts above every real step index, so the furthest-next-use
/// comparison needs no special case.
constexpr std::uint32_t kDead = UINT32_MAX;

}  // namespace

bounds::PartialBound reference_partial_bound(
    const Graph& graph, std::span<const VertexId> prefix,
    std::uint64_t cache_size,
    const std::function<bool(VertexId)>& is_output) {
  const VertexId n = graph.num_vertices();
  const std::uint64_t m = cache_size;
  PR_REQUIRE(m >= 2);

  // Consumption steps of each vertex within the prefix.
  const schedule::UseLists uses = schedule::build_use_lists(graph, prefix);
  std::vector<std::uint32_t> cursor(uses.off.begin(), uses.off.end() - 1);

  bounds::PartialBound bound;

  // ---- MIN-fetches over the prefix access string ------------------
  // Demand fetching + furthest-next-use eviction is the offline
  // minimum fetch count on a fixed access string; the victim scan is
  // linear (prefixes are short) and breaks ties to the lowest id, the
  // simulator's documented rule.
  std::vector<std::uint8_t> in_cache(n, 0), scheduled(n, 0), touched(n, 0);
  std::vector<std::uint32_t> next_use(n, kDead), pin(n, 0);
  std::vector<VertexId> cached;

  const auto advance_next_use = [&](VertexId v, std::uint32_t s) {
    std::uint32_t& ptr = cursor[v];
    while (ptr < uses.off[v + 1] && uses.steps[ptr] <= s) ++ptr;
    return ptr < uses.off[v + 1] ? uses.steps[ptr] : kDead;
  };
  const auto evict_one = [&](std::uint32_t stamp) {
    std::size_t best = cached.size();
    for (std::size_t i = 0; i < cached.size(); ++i) {
      const VertexId u = cached[i];
      if (pin[u] == stamp) continue;
      if (best == cached.size()) {
        best = i;
        continue;
      }
      const VertexId w = cached[best];
      if (next_use[u] > next_use[w] ||
          (next_use[u] == next_use[w] && u < w)) {
        best = i;
      }
    }
    PR_ASSERT_MSG(best < cached.size(), "no evictable entry in MIN replay");
    in_cache[cached[best]] = 0;
    cached[best] = cached.back();
    cached.pop_back();
  };
  const auto insert = [&](VertexId v) {
    in_cache[v] = 1;
    cached.push_back(v);
  };

  for (std::uint32_t s = 0; s < prefix.size(); ++s) {
    const VertexId v = prefix[s];
    const auto preds = graph.in(v);
    PR_REQUIRE_MSG(!preds.empty(), "inputs are not scheduled");
    PR_REQUIRE_MSG(preds.size() + 1 <= m, "cache too small for this vertex");
    const std::uint32_t stamp = s + 1;
    for (const VertexId p : preds) pin[p] = stamp;
    for (const VertexId p : preds) {
      touched[p] = 1;
      if (!in_cache[p]) {
        while (cached.size() >= m) evict_one(stamp);
        ++bound.prefix_reads;
        insert(p);
      }
      next_use[p] = advance_next_use(p, s);
    }
    pin[v] = stamp;
    while (cached.size() >= m) evict_one(stamp);
    insert(v);
    scheduled[v] = 1;
    touched[v] = 1;
    next_use[v] = advance_next_use(v, s);
  }

  // ---- compulsory suffix reads ------------------------------------
  // A value is needed when an unscheduled non-input vertex consumes
  // it. Needed values that are themselves unscheduled non-inputs are
  // computed in the suffix (no read); needed untouched inputs cost a
  // compulsory read; needed touched values (inputs staged during the
  // prefix or vertices the prefix computed) can survive the boundary
  // only in cache, which holds at most M of them.
  std::vector<std::uint8_t> needed(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (graph.in_degree(v) == 0 || scheduled[v]) continue;
    for (const VertexId p : graph.in(v)) needed[p] = 1;
  }
  std::uint64_t untouched_inputs = 0, live = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (!needed[v]) continue;
    if (touched[v]) {
      ++live;
    } else if (graph.in_degree(v) == 0) {
      ++untouched_inputs;
    }
  }
  bound.suffix_reads = untouched_inputs + (live > m ? live - m : 0);

  // ---- output writes ----------------------------------------------
  for (VertexId v = 0; v < n; ++v) {
    if (graph.in_degree(v) > 0 && is_output(v)) ++bound.output_writes;
  }
  return bound;
}

}  // namespace pathrouting::oracle
