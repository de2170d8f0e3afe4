#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/cdag/flat_classical.hpp"
#include "pathrouting/pebble/cache_sim.hpp"
#include "pathrouting/schedule/schedules.hpp"

namespace {

using namespace pathrouting;         // NOLINT
using namespace pathrouting::pebble; // NOLINT
using cdag::Graph;
using cdag::VertexId;

/// Tiny hand-built DAG: inputs 0,1,2; 3 = f(0,1); 4 = f(1,2);
/// 5 = f(3,4) (the output).
Graph diamond() {
  std::vector<std::uint32_t> off = {0, 0, 0, 0, 2, 4, 6};
  std::vector<VertexId> adj = {0, 1, 1, 2, 3, 4};
  return Graph(std::move(off), std::move(adj));
}

const std::vector<VertexId> kDiamondOrder = {3, 4, 5};

TEST(PebbleTest, LargeCacheCostsCompulsoryTrafficOnly) {
  const Graph g = diamond();
  const auto res = simulate(g, kDiamondOrder, {.cache_size = 10},
                            [](VertexId v) { return v == 5; });
  // Reads: the three inputs; writes: the single output.
  EXPECT_EQ(res.reads, 3u);
  EXPECT_EQ(res.writes, 1u);
}

TEST(PebbleTest, TightCacheForcesSpills) {
  const Graph g = diamond();
  // M = 3: computing 3 = f(0,1) fills the cache {0,1,3}; computing
  // 4 = f(1,2) stages 2 (0 is dead and evicted free) and must spill the
  // live value 3 to make room for 4; computing 5 = f(3,4) re-reads 3.
  const auto res = simulate(g, kDiamondOrder, {.cache_size = 3},
                            [](VertexId v) { return v == 5; });
  EXPECT_EQ(res.reads, 4u);   // inputs 0,1,2 + re-read of 3
  EXPECT_EQ(res.writes, 2u);  // spill of 3 + output 5
}

TEST(PebbleTest, SpilledIntermediatesAreWrittenThenReread) {
  // Chain: inputs 0..3; 4 = f(0,1), 5 = f(2,3), 6 = f(4,5).
  std::vector<std::uint32_t> off = {0, 0, 0, 0, 0, 2, 4, 6};
  std::vector<VertexId> adj = {0, 1, 2, 3, 4, 5};
  const Graph g(std::move(off), std::move(adj));
  const std::vector<VertexId> order = {4, 5, 6};
  // M = 3 forces 4 to be evicted (dirty, with a future use) while 5 is
  // computed: one write + one re-read.
  const auto res =
      simulate(g, order, {.cache_size = 3}, [](VertexId v) { return v == 6; });
  EXPECT_EQ(res.reads, 4u + 1u);   // inputs + re-read of 4
  EXPECT_EQ(res.writes, 1u + 1u);  // spill of 4 + output 6
}

TEST(PebbleTest, BeladyNeverWorseThanLruOnCdags) {
  const auto alg = bilinear::strassen();
  const cdag::Cdag cdag(alg, 4, {.with_coefficients = false});
  const auto order = schedule::dfs_schedule(cdag);
  const auto is_out = [&](VertexId v) { return cdag.layout().is_output(v); };
  for (const std::uint64_t m : {8ull, 32ull, 128ull}) {
    const auto belady = simulate(cdag.graph(), order,
                                 {.cache_size = m, .eviction = Eviction::Belady},
                                 is_out);
    const auto lru = simulate(cdag.graph(), order,
                              {.cache_size = m, .eviction = Eviction::Lru},
                              is_out);
    EXPECT_LE(belady.io(), lru.io()) << "M=" << m;
  }
}

TEST(PebbleTest, IoDecreasesWithCacheSize) {
  const auto alg = bilinear::winograd();
  const cdag::Cdag cdag(alg, 4, {.with_coefficients = false});
  const auto order = schedule::dfs_schedule(cdag);
  const auto is_out = [&](VertexId v) { return cdag.layout().is_output(v); };
  std::uint64_t prev = UINT64_MAX;
  for (const std::uint64_t m : {8ull, 16ull, 64ull, 256ull, 1024ull}) {
    const auto res = simulate(cdag.graph(), order, {.cache_size = m}, is_out);
    EXPECT_LE(res.io(), prev) << "M=" << m;
    prev = res.io();
  }
}

TEST(PebbleTest, IoAtLeastCompulsory) {
  // Any execution must read every used input and write every output.
  const auto alg = bilinear::laderman();
  const cdag::Cdag cdag(alg, 2, {.with_coefficients = false});
  const auto order = schedule::bfs_schedule(cdag);
  const auto& layout = cdag.layout();
  const auto res = simulate(cdag.graph(), order, {.cache_size = 32},
                            [&](VertexId v) { return layout.is_output(v); });
  EXPECT_GE(res.reads, 2 * layout.inputs_per_side());
  EXPECT_GE(res.writes, layout.inputs_per_side());
}

TEST(PebbleTest, SegmentAttributionSumsToTotals) {
  const auto alg = bilinear::strassen();
  const cdag::Cdag cdag(alg, 4, {.with_coefficients = false});
  const auto order = schedule::dfs_schedule(cdag);
  PebbleOptions opts{.cache_size = 64};
  const std::uint32_t len = static_cast<std::uint32_t>(order.size());
  opts.segment_ends = {len / 4, len / 2, (3 * len) / 4, len};
  const auto res = simulate(cdag.graph(), order, opts, [&](VertexId v) {
    return cdag.layout().is_output(v);
  });
  EXPECT_EQ(std::accumulate(res.segment_reads.begin(),
                            res.segment_reads.end(), std::uint64_t{0}),
            res.reads);
  EXPECT_EQ(std::accumulate(res.segment_writes.begin(),
                            res.segment_writes.end(), std::uint64_t{0}),
            res.writes);
}

TEST(PebbleTest, FlatClassicalBlockedBeatsUnblocked) {
  const cdag::FlatClassicalCdag flat(16);
  const std::uint64_t m = 3 * 6 * 6;  // fits ~6x6 tiles
  const auto is_out = [&](VertexId v) {
    // Outputs: the last partial sums.
    return flat.graph().out_degree(v) == 0 && flat.graph().in_degree(v) > 0;
  };
  const auto blocked = simulate(flat.graph(), flat.blocked_schedule(6),
                                {.cache_size = m}, is_out);
  const auto naive = simulate(flat.graph(), flat.blocked_schedule(16),
                              {.cache_size = m}, is_out);
  EXPECT_LT(blocked.io(), naive.io());
}

TEST(PebbleTest, EvictionCountersAreConsistent) {
  const auto alg = bilinear::strassen();
  const cdag::Cdag cdag(alg, 4, {.with_coefficients = false});
  const auto order = schedule::dfs_schedule(cdag);
  const auto is_out = [&](VertexId v) { return cdag.layout().is_output(v); };
  const std::uint64_t m = 32;
  const auto res = simulate(cdag.graph(), order, {.cache_size = m}, is_out);
  // Every dirty eviction is a write; the remaining writes are the
  // final output flushes.
  EXPECT_LE(res.evictions_dirty, res.writes);
  EXPECT_GE(res.writes - res.evictions_dirty, 0u);
  // The cache fills completely on any nontrivial run.
  EXPECT_EQ(res.peak_cached, m);
  // Total evictions account for everything that entered the cache and
  // left: reads + computations - still-cached.
  const std::uint64_t entered = res.reads + order.size();
  EXPECT_EQ(res.evictions_dirty + res.evictions_clean + m, entered);
}

TEST(PebbleTest, PeakCachedBelowMForTinyGraphs) {
  const Graph g = diamond();
  const auto res = simulate(g, kDiamondOrder, {.cache_size = 100},
                            [](VertexId v) { return v == 5; });
  EXPECT_EQ(res.peak_cached, 6u);  // 3 inputs + 3 computed, never evicts
  EXPECT_EQ(res.evictions_dirty + res.evictions_clean, 0u);
}

TEST(PebbleTest, ResultsAreDeterministic) {
  const auto alg = bilinear::strassen();
  const cdag::Cdag cdag(alg, 3, {.with_coefficients = false});
  const auto order = schedule::dfs_schedule(cdag);
  const auto is_out = [&](VertexId v) { return cdag.layout().is_output(v); };
  const auto r1 = simulate(cdag.graph(), order, {.cache_size = 24}, is_out);
  const auto r2 = simulate(cdag.graph(), order, {.cache_size = 24}, is_out);
  EXPECT_EQ(r1.reads, r2.reads);
  EXPECT_EQ(r1.writes, r2.writes);
}

}  // namespace

namespace loop_order_tests {

using namespace pathrouting;          // NOLINT
using namespace pathrouting::pebble;  // NOLINT
using cdag::FlatClassicalCdag;
using cdag::VertexId;

TEST(PebbleTest, KOuterLoopOrdersPayForPartialSumReloads) {
  // k-outer nestings sweep every partial sum once per k value: under
  // any replacement policy they re-stage the n^2 running sums each
  // round, costing roughly twice the k-inner orders at small M.
  const FlatClassicalCdag flat(24);
  const auto is_out = [&](VertexId v) {
    return flat.graph().out_degree(v) == 0 && flat.graph().in_degree(v) > 0;
  };
  const std::uint64_t m = 96;
  using LO = FlatClassicalCdag::LoopOrder;
  const auto io = [&](LO order) {
    return simulate(flat.graph(), flat.loop_schedule(order), {.cache_size = m},
                    is_out)
        .io();
  };
  const std::uint64_t ijk = io(LO::kIJK);
  const std::uint64_t kij = io(LO::kKIJ);
  EXPECT_GT(kij, ijk + ijk / 2);
  // And the blocked schedule beats all of them.
  const std::uint64_t blocked =
      simulate(flat.graph(), flat.blocked_schedule(5), {.cache_size = m},
               is_out)
          .io();
  EXPECT_LT(blocked, ijk);
}

}  // namespace loop_order_tests

namespace tie_break_tests {

using namespace pathrouting;          // NOLINT
using namespace pathrouting::pebble;  // NOLINT
using cdag::Graph;
using cdag::VertexId;

/// A DAG on which the documented lowest-VertexId victim tie-break is
/// observable in the totals: inputs 0,1; 2 = f(0,1), 3 = f(0),
/// 4 = f(0,3), 5 = f(0), 6 = f(1,2,3); outputs are the sinks 4,5,6.
Graph tie_witness() {
  std::vector<std::uint32_t> off = {0, 0, 0, 2, 3, 5, 6, 9};
  std::vector<VertexId> adj = {0, 1, 0, 0, 3, 0, 1, 2, 3};
  return Graph(std::move(off), std::move(adj));
}

TEST(PebbleTest, BeladyVictimTiesBreakToLowestVertexId) {
  // At M = 4 with the ascending order [2,3,4,5,6], Belady hits a
  // victim tie between equally-distant values; the documented rule
  // (policies.hpp) evicts the lowest VertexId, which here keeps a
  // dirty value cached and saves one spill. The legacy unspecified
  // heap order (highest id on ties) paid 4 writes on this graph —
  // this test pins the contract, not an accident of the heap.
  const Graph g = tie_witness();
  const std::vector<VertexId> order = {2, 3, 4, 5, 6};
  const auto res = simulate(g, order, {.cache_size = 4},
                            [](VertexId v) { return v >= 4; });
  EXPECT_EQ(res.reads, 3u);
  EXPECT_EQ(res.writes, 3u);
}

TEST(PebbleTest, LruExactCountsOnCatalogDfs) {
  // LRU on the Strassen G_1 DFS order, exact counts at two cache
  // sizes: together with the Belady counts these pin the full
  // deterministic (policy, tie-break) contract on a catalog graph.
  const cdag::Cdag cdag(bilinear::by_name("strassen"), 1,
                        {.with_coefficients = false});
  const auto is_out = [&](VertexId v) { return cdag.layout().is_output(v); };
  const auto dfs = schedule::dfs_schedule(cdag);
  const auto lru8 =
      simulate(cdag.graph(), dfs,
               {.cache_size = 8, .eviction = Eviction::Lru}, is_out);
  EXPECT_EQ(lru8.reads, 28u);
  EXPECT_EQ(lru8.writes, 10u);
  const auto bel8 = simulate(cdag.graph(), dfs, {.cache_size = 8}, is_out);
  EXPECT_EQ(bel8.reads, 15u);
  EXPECT_EQ(bel8.writes, 8u);
  const auto lru6 =
      simulate(cdag.graph(), dfs,
               {.cache_size = 6, .eviction = Eviction::Lru}, is_out);
  EXPECT_EQ(lru6.reads, 29u);
  EXPECT_EQ(lru6.writes, 10u);
  const auto bel6 = simulate(cdag.graph(), dfs, {.cache_size = 6}, is_out);
  EXPECT_EQ(bel6.reads, 19u);
  EXPECT_EQ(bel6.writes, 8u);
}

}  // namespace tie_break_tests

namespace scale_pin_tests {

using namespace pathrouting;          // NOLINT
using namespace pathrouting::pebble;  // NOLINT
using cdag::VertexId;

TEST(PebbleTest, ExactCountsOnStrassenG5DfsAndRandomOrders) {
  // Both policies on a 113553-vertex CDAG, over the DFS order and a
  // seeded random topological order, at a tight and a roomy cache:
  // every eviction decision of the resident set is pinned in bulk.
  const cdag::Cdag cdag(bilinear::strassen(), 5,
                        {.with_coefficients = false});
  const auto is_out = [&](VertexId v) { return cdag.layout().is_output(v); };
  const auto dfs = schedule::dfs_schedule(cdag);
  const auto rnd = schedule::random_topological_schedule(cdag.graph(),
                                                         20261017);
  struct Pin {
    const std::vector<VertexId>* order;
    std::uint64_t m;
    Eviction eviction;
    std::uint64_t reads, writes;
  };
  const Pin pins[] = {
      {&dfs, 8, Eviction::Belady, 118976, 59541},
      {&dfs, 8, Eviction::Lru, 167787, 75490},
      {&dfs, 64, Eviction::Belady, 43936, 20194},
      {&dfs, 64, Eviction::Lru, 85222, 40112},
      {&rnd, 8, Eviction::Belady, 218360, 111028},
      {&rnd, 8, Eviction::Lru, 222875, 111494},
      {&rnd, 64, Eviction::Belady, 201827, 108547},
      {&rnd, 64, Eviction::Lru, 221964, 111388},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE((pin.order == &dfs ? "dfs" : "random") +
                 std::string(" M=") + std::to_string(pin.m) +
                 (pin.eviction == Eviction::Lru ? " lru" : " belady"));
    const auto res =
        simulate(cdag.graph(), *pin.order,
                 {.cache_size = pin.m, .eviction = pin.eviction}, is_out);
    EXPECT_EQ(res.reads, pin.reads);
    EXPECT_EQ(res.writes, pin.writes);
  }
}

}  // namespace scale_pin_tests
