// The determinism contract of the parallel substrate: every count,
// graph, and certificate this library produces must be bit-identical
// at any PR_THREADS value. These tests run the parallel-touching
// layers (CDAG construction, routing verification, segment
// certification) at thread counts 1, 2, and 7 and require exact
// equality, plus unit tests of the primitives themselves.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/bounds/segment_certifier.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/cdag/subcomputation.hpp"
#include "pathrouting/routing/chain_routing.hpp"
#include "pathrouting/routing/concat_routing.hpp"
#include "pathrouting/routing/decode_routing.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/support/parallel.hpp"

namespace {

using namespace pathrouting;  // NOLINT
namespace parallel = support::parallel;
using cdag::Cdag;
using cdag::SubComputation;
using cdag::VertexId;
using parallel::ThreadOverride;

// Thread counts exercised everywhere: serial, even split, and an odd
// count that does not divide typical ranges.
const int kThreadCounts[] = {1, 2, 7};

TEST(ParallelPrimitivesTest, ForChunksCoversRangeExactlyOnce) {
  for (const int threads : kThreadCounts) {
    ThreadOverride guard(threads);
    for (const std::uint64_t grain : {1ull, 3ull, 16ull, 1000ull}) {
      std::vector<std::atomic<int>> visits(97);
      for (auto& v : visits) v.store(0);
      parallel::parallel_for(0, 97, grain,
                             [&](std::uint64_t lo, std::uint64_t hi) {
                               for (std::uint64_t i = lo; i < hi; ++i) {
                                 visits[i].fetch_add(1);
                               }
                             });
      for (std::size_t i = 0; i < visits.size(); ++i) {
        EXPECT_EQ(visits[i].load(), 1) << "index " << i << " threads "
                                       << threads << " grain " << grain;
      }
    }
  }
}

TEST(ParallelPrimitivesTest, ForChunksBoundariesIndependentOfThreads) {
  // Chunk boundaries must depend only on (begin, end, grain). Record
  // them into disjoint slots and compare across thread counts.
  auto boundaries = [](int threads) {
    ThreadOverride guard(threads);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> chunks(
        (100 - 5 + 6) / 7 + 1);
    parallel::parallel_for(5, 100, 7, [&](std::uint64_t lo, std::uint64_t hi) {
      chunks[(lo - 5) / 7] = {lo, hi};
    });
    return chunks;
  };
  const auto serial = boundaries(1);
  for (const int threads : kThreadCounts) {
    EXPECT_EQ(boundaries(threads), serial) << threads << " threads";
  }
}

TEST(ParallelPrimitivesTest, ReduceFoldsInChunkOrder) {
  // A deliberately non-commutative merge (string concatenation): the
  // per-chunk ordered fold must make the result thread-count
  // independent anyway.
  auto concat = [](int threads) {
    ThreadOverride guard(threads);
    return parallel::parallel_reduce<std::string>(
        0, 50, 4, std::string(),
        [](std::uint64_t lo, std::uint64_t hi) {
          // One appended string: a chained "[" + ... trips gcc 12's
          // false -Werror=restrict at -O3.
          std::string chunk = "[";
          chunk += std::to_string(lo);
          chunk += ',';
          chunk += std::to_string(hi);
          chunk += ')';
          return chunk;
        },
        [](std::string& acc, const std::string& chunk) { acc += chunk; });
  };
  const std::string serial = concat(1);
  EXPECT_EQ(serial.substr(0, 10), "[0,4)[4,8)");
  for (const int threads : kThreadCounts) {
    EXPECT_EQ(concat(threads), serial) << threads << " threads";
  }
}

TEST(ParallelPrimitivesTest, ShardedAccumulateSumsExactly) {
  for (const int threads : kThreadCounts) {
    ThreadOverride guard(threads);
    const std::vector<std::uint64_t> hist =
        parallel::sharded_accumulate<std::vector<std::uint64_t>>(
            0, 1000, 9, [] { return std::vector<std::uint64_t>(10, 0); },
            [](std::vector<std::uint64_t>& acc, std::uint64_t lo,
               std::uint64_t hi) {
              for (std::uint64_t i = lo; i < hi; ++i) ++acc[i % 10];
            },
            [](std::vector<std::uint64_t>& acc,
               const std::vector<std::uint64_t>& shard) {
              for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += shard[i];
            });
    EXPECT_EQ(hist, std::vector<std::uint64_t>(10, 100)) << threads;
  }
}

TEST(ParallelPrimitivesTest, NestedCallsRunInline) {
  ThreadOverride guard(4);
  std::vector<std::atomic<int>> visits(64);
  for (auto& v : visits) v.store(0);
  parallel::parallel_for(0, 8, 1, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t i = lo; i < hi; ++i) {
      // Nested region: must run inline on this worker, not deadlock or
      // recurse into the pool.
      parallel::parallel_for(0, 8, 1,
                             [&](std::uint64_t jlo, std::uint64_t jhi) {
                               for (std::uint64_t j = jlo; j < jhi; ++j) {
                                 visits[i * 8 + j].fetch_add(1);
                               }
                             });
    }
  });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << i;
  }
}

TEST(ParallelPrimitivesTest, ThreadOverrideScopesAndRestores) {
  const int env = parallel::num_threads();
  {
    ThreadOverride guard(3);
    EXPECT_EQ(parallel::num_threads(), 3);
  }
  EXPECT_EQ(parallel::num_threads(), env);
}

// --- Layer determinism ---------------------------------------------------

struct CdagSnapshot {
  std::uint64_t num_edges = 0;
  std::vector<VertexId> in_flat;
  std::vector<support::Rational> coeffs;
  std::vector<VertexId> copy_parent;
  std::vector<VertexId> meta_root;

  bool operator==(const CdagSnapshot&) const = default;
};

CdagSnapshot snapshot(const Cdag& graph) {
  CdagSnapshot snap;
  const cdag::Graph& g = graph.graph();
  snap.num_edges = g.num_edges();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId u : g.in(v)) snap.in_flat.push_back(u);
    snap.copy_parent.push_back(graph.copy_parent(v));
    snap.meta_root.push_back(graph.meta_root(v));
  }
  if (graph.has_coefficients()) {
    for (std::uint64_t e = 0; e < g.num_edges(); ++e) {
      snap.coeffs.push_back(graph.in_coeff(e));
    }
  }
  return snap;
}

struct BaseCase {
  const char* name;
  int r;
};
const BaseCase kBases[] = {{"strassen", 3}, {"winograd", 3}, {"laderman", 2}};

TEST(LayerDeterminismTest, CdagConstructionBitIdentical) {
  for (const BaseCase base : kBases) {
    const auto alg = bilinear::by_name(base.name);
    for (const bool group : {false, true}) {
      const cdag::CdagOptions options{.with_coefficients = true,
                                      .group_duplicate_rows = group};
      ThreadOverride serial(1);
      const CdagSnapshot expected = snapshot(Cdag(alg, base.r, options));
      for (const int threads : kThreadCounts) {
        ThreadOverride guard(threads);
        EXPECT_EQ(snapshot(Cdag(alg, base.r, options)), expected)
            << base.name << " r=" << base.r << " group=" << group
            << " threads=" << threads;
      }
    }
  }
}

TEST(LayerDeterminismTest, RoutingCountsBitIdentical) {
  for (const BaseCase base : kBases) {
    const auto alg = bilinear::by_name(base.name);
    const int k = alg.n0() == 2 ? 3 : 2;
    const Cdag graph(alg, k, {.with_coefficients = false});
    const SubComputation sub(graph, k, 0);
    const routing::ChainRouter chain_router(alg);
    const routing::DecodeRouter decode_router(alg);

    ThreadOverride serial(1);
    const auto chains1 = routing::count_chain_hits(chain_router, sub);
    const auto l3_1 = routing::verify_chain_routing(chain_router, sub);
    const bool l4_1 = routing::verify_chain_multiplicities(chain_router, sub);
    const auto t2_1 =
        routing::verify_full_routing_enumerated(chain_router, sub);
    const auto dec1 = routing::verify_decode_routing(decode_router, sub);
    EXPECT_TRUE(l3_1.ok()) << base.name;
    EXPECT_TRUE(l4_1) << base.name;
    EXPECT_TRUE(t2_1.ok()) << base.name;

    for (const int threads : kThreadCounts) {
      ThreadOverride guard(threads);
      const auto chains = routing::count_chain_hits(chain_router, sub);
      EXPECT_EQ(chains.hits, chains1.hits) << base.name << " " << threads;
      EXPECT_EQ(chains.num_chains, chains1.num_chains);
      EXPECT_EQ(chains.max_hits, chains1.max_hits);
      EXPECT_EQ(chains.argmax, chains1.argmax);

      const auto l3 = routing::verify_chain_routing(chain_router, sub);
      EXPECT_EQ(l3.max_hits, l3_1.max_hits);
      EXPECT_EQ(l3.argmax, l3_1.argmax);
      EXPECT_EQ(l3.num_paths, l3_1.num_paths);

      EXPECT_EQ(routing::verify_chain_multiplicities(chain_router, sub),
                l4_1);

      const auto t2 = routing::verify_full_routing_enumerated(chain_router, sub);
      EXPECT_EQ(t2.max_vertex_hits, t2_1.max_vertex_hits);
      EXPECT_EQ(t2.argmax_vertex, t2_1.argmax_vertex);
      EXPECT_EQ(t2.max_meta_hits, t2_1.max_meta_hits);
      EXPECT_EQ(t2.root_hit_property, t2_1.root_hit_property);
      EXPECT_EQ(t2.num_paths, t2_1.num_paths);

      const auto dec = routing::verify_decode_routing(decode_router, sub);
      EXPECT_EQ(dec.max_hits, dec1.max_hits);
      EXPECT_EQ(dec.argmax, dec1.argmax);
      EXPECT_EQ(dec.num_paths, dec1.num_paths);
    }
  }
}

TEST(LayerDeterminismTest, SegmentCertifierBitIdentical) {
  const auto alg = bilinear::strassen();
  // r=6, M=2: the Section-6 default k = ceil(log_4 144) = 4 satisfies
  // the Lemma-1 precondition k <= r-2.
  const Cdag graph(alg, 6, {.with_coefficients = false});
  const std::uint64_t m = 2;
  const std::vector<std::vector<VertexId>> schedules = {
      schedule::dfs_schedule(graph), schedule::bfs_schedule(graph),
      schedule::random_topological_schedule(graph.graph(), 42)};

  ThreadOverride serial(1);
  std::vector<bounds::CertifyResult> expected;
  std::vector<bounds::CertifyResult> expected_decode;
  for (const auto& order : schedules) {
    expected.push_back(
        bounds::certify_segments(graph, order, {.cache_size = m}));
    expected_decode.push_back(
        bounds::certify_segments_decode_only(graph, order, {.cache_size = m}));
  }

  for (const int threads : kThreadCounts) {
    ThreadOverride guard(threads);
    for (std::size_t i = 0; i < schedules.size(); ++i) {
      EXPECT_EQ(
          bounds::certify_segments(graph, schedules[i], {.cache_size = m}),
          expected[i])
          << "schedule " << i << " threads " << threads;
      EXPECT_EQ(bounds::certify_segments_decode_only(graph, schedules[i],
                                                     {.cache_size = m}),
                expected_decode[i])
          << "schedule " << i << " threads " << threads;
    }
    // The batch API must agree slot for slot with the individual runs.
    std::vector<bounds::CertifyJob> jobs;
    for (const auto& order : schedules) {
      jobs.push_back({.schedule = order, .params = {.cache_size = m}});
    }
    for (const auto& order : schedules) {
      jobs.push_back({.schedule = order,
                      .params = {.cache_size = m},
                      .decode_only = true});
    }
    const auto batch = bounds::certify_segments_batch(graph, jobs);
    ASSERT_EQ(batch.size(), 2 * schedules.size());
    for (std::size_t i = 0; i < schedules.size(); ++i) {
      EXPECT_EQ(batch[i], expected[i]) << "batch slot " << i;
      EXPECT_EQ(batch[schedules.size() + i], expected_decode[i])
          << "batch decode slot " << i;
    }
  }
}

}  // namespace
