// Cross-module property suites: the statements the paper quantifies
// over "every algorithm / every schedule / every cache size", swept as
// parameterised tests.
#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <sstream>
#include <vector>

#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/bilinear/serialize.hpp"
#include "pathrouting/bilinear/transform.hpp"
#include "pathrouting/bounds/formulas.hpp"
#include "pathrouting/bounds/segment_certifier.hpp"
#include "pathrouting/cdag/evaluate.hpp"
#include "pathrouting/matmul/strassen_like.hpp"
#include "pathrouting/pebble/cache_sim.hpp"
#include "pathrouting/routing/concat_routing.hpp"
#include "pathrouting/routing/decode_routing.hpp"
#include "pathrouting/routing/memo_routing.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/schedule/validate.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using cdag::Cdag;
using cdag::VertexId;

// ---------------------------------------------------------------------
// Property: the certified I/O lower bound holds for EVERY schedule.
// ---------------------------------------------------------------------

struct EverySchedule {
  std::string schedule;
  std::uint64_t cache;
};

class LowerBoundEverySchedule
    : public ::testing::TestWithParam<EverySchedule> {};

TEST_P(LowerBoundEverySchedule, CertifiedBoundBelowSimulatedIo) {
  const auto& param = GetParam();
  const auto alg = bilinear::strassen();
  const Cdag cdag(alg, 7, {.with_coefficients = false});
  std::vector<VertexId> order;
  if (param.schedule == "dfs") {
    order = schedule::dfs_schedule(cdag);
  } else if (param.schedule == "bfs") {
    order = schedule::bfs_schedule(cdag);
  } else {
    order = schedule::random_topological_schedule(
        cdag.graph(), std::hash<std::string>{}(param.schedule));
  }
  const bounds::CertifyResult cert =
      bounds::certify_segments(cdag, order, {.cache_size = param.cache});
  EXPECT_TRUE(cert.eq_holds(12));
  EXPECT_TRUE(cert.boundary_ge(3 * param.cache));
  const auto sim =
      pebble::simulate(cdag.graph(), order, {.cache_size = param.cache},
                       [&](VertexId v) { return cdag.layout().is_output(v); });
  EXPECT_LE(cert.io_lower_bound(param.cache), sim.io());
  // The paper-constant closed form is itself below the certified count
  // whenever non-vacuous.
  const std::uint64_t closed =
      bounds::theorem1_io_lower_bound(4, 7, 7, param.cache);
  EXPECT_LE(closed, sim.io());
}

INSTANTIATE_TEST_SUITE_P(
    SchedulesAndCaches, LowerBoundEverySchedule,
    // M = 8 is the largest cache for which k = ceil(log_4 144M) still
    // fits below r-2 = 5 at r = 7 (and the smallest the pebble game
    // accepts for Strassen's in-degree-4 decode vertices is 5).
    ::testing::Values(EverySchedule{"dfs", 8}, EverySchedule{"bfs", 8},
                      EverySchedule{"rnd1", 8}, EverySchedule{"rnd2", 8},
                      EverySchedule{"rnd3", 8}, EverySchedule{"rnd4", 8}),
    [](const auto& info) {
      return info.param.schedule + "_M" + std::to_string(info.param.cache);
    });

// ---------------------------------------------------------------------
// Property: Belady <= LRU and I/O monotone in M, across the catalog.
// ---------------------------------------------------------------------

class CachePropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CachePropertyTest, BeladyBeatsLruAndIoIsMonotoneInM) {
  const auto alg = bilinear::by_name(GetParam());
  const int r = alg.n0() == 2 ? 4 : (alg.b() <= 23 ? 3 : 2);
  const Cdag cdag(alg, r, {.with_coefficients = false});
  const auto order = schedule::dfs_schedule(cdag);
  const auto is_out = [&](VertexId v) { return cdag.layout().is_output(v); };
  std::uint64_t prev = UINT64_MAX;
  // Floors at 32: strassen_squared decode vertices have in-degree 16.
  for (const std::uint64_t m : {32ull, 128ull, 512ull}) {
    const auto belady = pebble::simulate(
        cdag.graph(), order,
        {.cache_size = m, .eviction = pebble::Eviction::Belady}, is_out);
    const auto lru = pebble::simulate(
        cdag.graph(), order,
        {.cache_size = m, .eviction = pebble::Eviction::Lru}, is_out);
    EXPECT_LE(belady.io(), lru.io()) << "M=" << m;
    EXPECT_LE(belady.io(), prev) << "M=" << m;
    prev = belady.io();
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, CachePropertyTest,
                         ::testing::Values("strassen", "winograd", "laderman",
                                           "classical2", "strassen_squared",
                                           "classical2_x_strassen"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------
// Property: Equation (2) holds for arbitrary segment quotas, not just
// the paper's 36M (with k chosen so a^k >= 2 * quota).
// ---------------------------------------------------------------------

class QuotaSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuotaSweepTest, Equation2HoldsForArbitraryQuotas) {
  const std::uint64_t quota = GetParam();
  const auto alg = bilinear::strassen();
  const Cdag cdag(alg, 6, {.with_coefficients = false});
  const auto order = schedule::random_topological_schedule(cdag.graph(), 99);
  const bounds::CertifyResult cert = bounds::certify_segments(
      cdag, order, {.cache_size = 1, .s_bar_target = quota});
  ASSERT_GE(cert.complete_segments(), 1u);
  EXPECT_TRUE(cert.eq_holds(12)) << "quota " << quota;
}

INSTANTIATE_TEST_SUITE_P(Quotas, QuotaSweepTest,
                         ::testing::Values(8, 24, 36, 72, 100, 128),
                         [](const auto& info) {
                           return "q" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Property: evaluation agrees between the CDAG and the executor on
// random inputs for every algorithm (two independent implementations).
// ---------------------------------------------------------------------

class CrossValidationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CrossValidationTest, CdagAndExecutorAgree) {
  const auto alg = bilinear::by_name(GetParam());
  const int r = 2;
  const Cdag graph(alg, r);
  const std::size_t n = static_cast<std::size_t>(graph.layout().n());
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    support::Xoshiro256 rng(seed);
    const auto a = matmul::random_matrix<std::int64_t>(n, rng);
    const auto b = matmul::random_matrix<std::int64_t>(n, rng);
    const auto am = cdag::to_morton<std::int64_t>(
        graph, std::span<const std::int64_t>(a.data()));
    const auto bm = cdag::to_morton<std::int64_t>(
        graph, std::span<const std::int64_t>(b.data()));
    const auto c_flat = cdag::from_morton<std::int64_t>(
        graph, cdag::evaluate<std::int64_t>(graph, am, bm));
    const auto c = matmul::strassen_like_multiply(alg, a, b);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(c(i, j), c_flat[i * n + j]) << GetParam();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, CrossValidationTest,
                         ::testing::Values("strassen", "winograd", "laderman",
                                           "classical2"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------
// Property: Theorem 2's bound holds for every subcomputation of a
// larger CDAG, not just the standalone G_k (prefix 0).
// ---------------------------------------------------------------------

TEST(SubcomputationRoutingTest, BoundHoldsInEveryEmbeddedGk) {
  const auto alg = bilinear::strassen();
  const routing::ChainRouter router(alg);
  const Cdag cdag(alg, 4, {.with_coefficients = false});
  const int k = 2;
  for (std::uint64_t prefix = 0; prefix < 49; ++prefix) {
    const cdag::SubComputation sub(cdag, k, prefix);
    const auto stats = routing::verify_full_routing_aggregated(router, sub);
    ASSERT_TRUE(stats.max_vertex_hits <= stats.bound) << "prefix " << prefix;
  }
}

// ---------------------------------------------------------------------
// Property: schedules from all generators stay valid across the
// catalog after being fed through the certifier and simulator (no
// hidden state corruption).
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Property: on RANDOM correct base algorithms (isotropy-group samples,
// not just the hand-written catalog) the memoized routing engine is
// bit-identical to the brute enumerators, and the serializer
// round-trips byte-stably.
//
// Environment knobs (the nightly CI job turns both up):
//   PR_PROPERTY_SEED   base seed of the sweep       (default 20260806)
//   PR_PROPERTY_ITERS  algorithms sampled per base  (default 3)
// Failures log the exact seed, so any counterexample replays with
// PR_PROPERTY_SEED=<seed> PR_PROPERTY_ITERS=1.
// ---------------------------------------------------------------------

std::uint64_t property_seed() {
  const char* env = std::getenv("PR_PROPERTY_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 20260806ull;
}

int property_iters() {
  const char* env = std::getenv("PR_PROPERTY_ITERS");
  const int n = env != nullptr ? std::atoi(env) : 3;
  return n > 0 ? n : 3;
}

class RandomAlgorithmTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RandomAlgorithmTest, MemoEngineMatchesBruteOnRandomTransforms) {
  const auto base = bilinear::by_name(GetParam());
  const std::uint64_t base_seed = property_seed();
  const int iters = property_iters();
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("PR_PROPERTY_SEED=" + std::to_string(seed) +
                 " (base " + GetParam() + ")");
    const auto alg = bilinear::random_transform(base, seed);
    // The Hall condition (Lemma 5) must survive any basis change: the
    // transformed algorithm is still correct, and ChainRouter aborts on
    // infeasible matchings — check feasibility first so a failure is a
    // test failure, not a process abort.
    ASSERT_TRUE(
        routing::compute_base_matching(alg, bilinear::Side::A).has_value());
    ASSERT_TRUE(
        routing::compute_base_matching(alg, bilinear::Side::B).has_value());
    const routing::ChainRouter router(alg);
    const int k = 2;
    const Cdag graph(alg, k, {.with_coefficients = false});
    const cdag::SubComputation sub(graph, k, 0);

    const cdag::ExplicitView view(graph);
    const routing::MemoRoutingEngine chain_memo(router);
    const routing::ChainHitCounts brute = routing::count_chain_hits(router, sub);
    const std::span<const std::uint64_t> memo =
        chain_memo.canonical_chain_hit_array(k);
    const routing::HitStats stats = chain_memo.verify_chain_routing(view, k, 0);
    ASSERT_EQ(stats.num_paths, brute.num_chains);
    ASSERT_EQ(stats.max_hits, brute.max_hits);
    ASSERT_EQ(stats.argmax, brute.argmax);
    ASSERT_EQ(std::vector<std::uint64_t>(memo.begin(), memo.end()), brute.hits)
        << "memo chain hit array diverged";
    EXPECT_TRUE(stats.ok());
    EXPECT_EQ(chain_memo.verify_chain_multiplicities(view, k, 0),
              routing::verify_chain_multiplicities(router, sub));

    if (bilinear::decoding_components(alg) == 1) {
      const routing::DecodeRouter decoder(alg);
      const routing::MemoRoutingEngine memo_full(router, decoder);
      const std::vector<std::uint64_t> brute_hits =
          routing::count_decode_hits(decoder, sub);
      const std::span<const std::uint64_t> memo_hits =
          memo_full.canonical_decode_hit_array(k);
      ASSERT_EQ(std::vector<std::uint64_t>(memo_hits.begin(), memo_hits.end()),
                brute_hits)
          << "memo decode hit array diverged";
      EXPECT_TRUE(memo_full.verify_decode_routing(view, k, 0).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bases, RandomAlgorithmTest,
                         ::testing::Values("strassen", "classical2"),
                         [](const auto& info) { return info.param; });

TEST(RandomAlgorithmTest, SerializerRoundTripsByteStable) {
  const auto base = bilinear::strassen();
  const std::uint64_t base_seed = property_seed();
  const int iters = property_iters();
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("PR_PROPERTY_SEED=" + std::to_string(seed));
    const auto alg = bilinear::random_transform(base, seed);
    std::ostringstream once;
    bilinear::to_text(alg, once);
    std::istringstream in(once.str());
    const bilinear::ParseResult parsed = bilinear::from_text(in);
    ASSERT_TRUE(parsed.algorithm.has_value()) << parsed.error;
    std::ostringstream twice;
    bilinear::to_text(*parsed.algorithm, twice);
    EXPECT_EQ(once.str(), twice.str());
  }
}

TEST(PipelineTest, CertifyThenSimulateLeavesScheduleValid) {
  const auto alg = bilinear::winograd();
  const Cdag cdag(alg, 6, {.with_coefficients = false});
  const auto order = schedule::dfs_schedule(cdag);
  ASSERT_TRUE(schedule::validate_schedule(cdag.graph(), order).ok);
  const bounds::CertifyResult cert =
      bounds::certify_segments(cdag, order, {.cache_size = 2});
  pebble::PebbleOptions opts{.cache_size = 8};
  opts.segment_ends = cert.segment_ends(static_cast<std::uint32_t>(order.size()));
  const auto sim = pebble::simulate(cdag.graph(), order, opts, [&](VertexId v) {
    return cdag.layout().is_output(v);
  });
  EXPECT_GT(sim.io(), 0u);
  EXPECT_TRUE(schedule::validate_schedule(cdag.graph(), order).ok);
}

}  // namespace
