// The implicit CDAG view (cdag/implicit.hpp) must be observationally
// identical to the explicit CSR builder on every query: the audit
// layer, the memoized engine, and the segment certifier all accept a
// cdag::CdagView, so any divergence here silently corrupts every
// consumer downstream.
//
// Three tiers:
//   * exhaustive bit-identity against the explicit graph for every
//     catalog algorithm at k <= 4 (capped by a vertex budget — the
//     widest tensor bases exceed memory long before k = 4, exactly the
//     regime the implicit view exists for);
//   * a property sweep at k = 7 (PR_PROPERTY_SEED / PR_PROPERTY_ITERS,
//     same replay contract as test_properties) sampling random
//     vertices of the 5.7M-vertex Strassen graph;
//   * engine-level identity: the constant-memory verifiers reproduce
//     the stats the brute-side helpers derive from the canonical hit
//     arrays field by field, including argmax tie-breaks, for every k
//     where the explicit graph fits.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pathrouting/audit/audit.hpp"
#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/cdag/implicit.hpp"
#include "pathrouting/cdag/subcomputation.hpp"
#include "pathrouting/cdag/view.hpp"
#include "pathrouting/routing/decode_routing.hpp"
#include "pathrouting/routing/memo_routing.hpp"
#include "pathrouting/support/prng.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using cdag::VertexId;

/// Explicit graphs larger than this are skipped (the k <= 4 sweep
/// covers every catalog algorithm only up to what fits).
constexpr std::uint64_t kVertexBudget = 2000000;

std::uint64_t property_seed() {
  const char* env = std::getenv("PR_PROPERTY_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 20260806ull;
}

int property_iters() {
  const char* env = std::getenv("PR_PROPERTY_ITERS");
  const int n = env != nullptr ? std::atoi(env) : 3;
  return n > 0 ? n : 3;
}

/// Every virtual query of `view` against the CSR graph for one vertex.
void expect_vertex_identical(const cdag::ImplicitCdag& view,
                             const cdag::ExplicitView& ref, VertexId v) {
  std::vector<VertexId> scratch_a;
  std::vector<VertexId> scratch_b;
  ASSERT_EQ(view.in_degree(v), ref.in_degree(v)) << "vertex " << v;
  ASSERT_EQ(view.out_degree(v), ref.out_degree(v)) << "vertex " << v;
  const auto in_view = view.in(v, scratch_a);
  const auto in_ref = ref.in(v, scratch_b);
  ASSERT_TRUE(std::equal(in_view.begin(), in_view.end(), in_ref.begin(),
                         in_ref.end()))
      << "in-list of vertex " << v;
  const auto out_view = view.out(v, scratch_a);
  const auto out_ref = ref.out(v, scratch_b);
  ASSERT_TRUE(std::equal(out_view.begin(), out_view.end(), out_ref.begin(),
                         out_ref.end()))
      << "out-list of vertex " << v;
  ASSERT_EQ(view.copy_parent(v), ref.copy_parent(v)) << "vertex " << v;
  ASSERT_EQ(view.meta_root(v), ref.meta_root(v)) << "vertex " << v;
  ASSERT_EQ(view.meta_size(v), ref.meta_size(v)) << "vertex " << v;
  ASSERT_EQ(view.is_duplicated(v), ref.is_duplicated(v)) << "vertex " << v;
  for (const VertexId u : out_view) {
    ASSERT_TRUE(view.has_edge(v, u)) << v << " -> " << u;
  }
}

class CatalogViewTest : public ::testing::TestWithParam<std::string> {};

// Exhaustive k <= 4 sweep: the audit comparator checks every vertex's
// degrees, neighbor lists (with edge order), copy parent, and meta
// table against the CSR reference, and the direct probes below cover
// the interface the comparator does not exercise (has_edge, layer
// refs, is_duplicated).
TEST_P(CatalogViewTest, BitIdenticalToExplicitUpToK4) {
  const auto alg = bilinear::by_name(GetParam());
  for (int k = 1; k <= 4; ++k) {
    const cdag::ImplicitCdag view(alg, k);
    if (view.num_vertices() > kVertexBudget) break;
    SCOPED_TRACE(GetParam() + " k=" + std::to_string(k));
    const cdag::Cdag graph(alg, k, {.with_coefficients = false});
    const cdag::ExplicitView ref(graph);
    ASSERT_EQ(view.num_vertices(), ref.num_vertices());
    ASSERT_EQ(view.num_edges(), ref.num_edges());

    const audit::AuditReport report =
        audit::audit_view_consistency(view, graph);
    EXPECT_TRUE(report.ok()) << report.to_text();

    // Layer/rank structure: the view's layout is the same object kind
    // the builder used, so VertexRef round-trips must agree.
    const cdag::Layout& layout = view.layout();
    ASSERT_EQ(layout.num_vertices(), graph.layout().num_vertices());
    const std::uint64_t n = view.num_vertices();
    const std::uint64_t stride = n > 4096 ? n / 4096 : 1;
    for (std::uint64_t v = 0; v < n; v += stride) {
      const auto id = static_cast<VertexId>(v);
      const cdag::VertexRef mine = layout.ref(id);
      const cdag::VertexRef theirs = graph.layout().ref(id);
      ASSERT_EQ(mine.layer, theirs.layer);
      ASSERT_EQ(mine.rank, theirs.rank);
      ASSERT_EQ(mine.q, theirs.q);
      ASSERT_EQ(mine.p, theirs.p);
      expect_vertex_identical(view, ref, id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, CatalogViewTest,
                         ::testing::ValuesIn(bilinear::catalog_names()),
                         [](const auto& info) { return info.param; });

// Property sweep at k = 7: the explicit Strassen graph still fits
// (5.7M vertices), so random vertices can be checked query-for-query
// in the regime where the exhaustive sweep is too slow. Failures
// replay with PR_PROPERTY_SEED=<seed> PR_PROPERTY_ITERS=1.
TEST(ImplicitViewProperty, RandomVerticesMatchExplicitAtK7) {
  const auto alg = bilinear::by_name("strassen");
  const int k = 7;
  const cdag::ImplicitCdag view(alg, k);
  const cdag::Cdag graph(alg, k, {.with_coefficients = false});
  const cdag::ExplicitView ref(graph);
  ASSERT_EQ(view.num_edges(), ref.num_edges());
  const std::uint64_t base_seed = property_seed();
  const int iters = property_iters();
  const std::uint64_t n = view.num_vertices();
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("PR_PROPERTY_SEED=" + std::to_string(seed));
    support::Xoshiro256 rng(seed);
    for (int sample = 0; sample < 1000; ++sample) {
      const auto v = static_cast<VertexId>(rng.below(n));
      expect_vertex_identical(view, ref, v);
    }
  }
}

/// The closed-form verifiers on the view against the stats the
/// brute-side helpers derive from the canonical hit arrays (on the
/// whole G_k the Fact-1 renaming is the identity), field by field.
void expect_engines_identical(const bilinear::BilinearAlgorithm& alg, int k) {
  const routing::ChainRouter router(alg);
  const bool decode = bilinear::decoding_components(alg) == 1;
  std::optional<routing::DecodeRouter> decoder;
  std::optional<routing::MemoRoutingEngine> engine;
  if (decode) {
    decoder.emplace(alg);
    engine.emplace(router, *decoder);
  } else {
    engine.emplace(router);
  }
  const cdag::Cdag graph(alg, k, {.with_coefficients = false});
  const cdag::SubComputation sub(graph, k, 0);
  const cdag::ImplicitCdag view(alg, k);

  const std::span<const std::uint64_t> hits =
      engine->canonical_chain_hit_array(k);
  routing::ChainHitCounts counts;
  counts.hits.assign(hits.begin(), hits.end());
  counts.num_chains = engine->expected_num_chains(k);
  for (VertexId v = 0; v < counts.hits.size(); ++v) {
    if (counts.hits[v] > counts.max_hits) {
      counts.max_hits = counts.hits[v];
      counts.argmax = v;
    }
  }

  const routing::HitStats l3_e = routing::chain_stats_from_counts(counts, sub);
  const routing::HitStats l3_i = engine->verify_chain_routing(view, k, 0);
  EXPECT_EQ(l3_i.num_paths, l3_e.num_paths);
  EXPECT_EQ(l3_i.max_hits, l3_e.max_hits);
  EXPECT_EQ(l3_i.bound, l3_e.bound);
  EXPECT_EQ(l3_i.argmax, l3_e.argmax);

  EXPECT_TRUE(engine->verify_chain_multiplicities(view, k, 0));

  const routing::FullRoutingStats t2_e =
      routing::full_routing_from_chain_counts(sub, counts);
  const routing::FullRoutingStats t2_i =
      engine->verify_full_routing(view, k, 0);
  EXPECT_EQ(t2_i.num_paths, t2_e.num_paths);
  EXPECT_EQ(t2_i.max_vertex_hits, t2_e.max_vertex_hits);
  EXPECT_EQ(t2_i.argmax_vertex, t2_e.argmax_vertex);
  EXPECT_EQ(t2_i.max_meta_hits, t2_e.max_meta_hits);
  EXPECT_EQ(t2_i.bound, t2_e.bound);
  EXPECT_EQ(t2_i.root_hit_property, t2_e.root_hit_property);

  if (decode) {
    const routing::HitStats d_e = routing::decode_stats_from_hits(
        *decoder, sub, engine->canonical_decode_hit_array(k));
    const routing::HitStats d_i = engine->verify_decode_routing(view, k, 0);
    EXPECT_EQ(d_i.num_paths, d_e.num_paths);
    EXPECT_EQ(d_i.max_hits, d_e.max_hits);
    EXPECT_EQ(d_i.bound, d_e.bound);
    EXPECT_EQ(d_i.argmax, d_e.argmax);
  }
}

TEST(ImplicitEngine, StatsBitIdenticalToArrayBackedEngine) {
  for (int k = 1; k <= 6; ++k) {
    SCOPED_TRACE("strassen k=" + std::to_string(k));
    expect_engines_identical(bilinear::by_name("strassen"), k);
  }
  for (int k = 1; k <= 3; ++k) {
    SCOPED_TRACE("winograd k=" + std::to_string(k));
    expect_engines_identical(bilinear::by_name("winograd"), k);
    SCOPED_TRACE("laderman k=" + std::to_string(k));
    expect_engines_identical(bilinear::by_name("laderman"), k);
    SCOPED_TRACE("classical2_x_strassen k=" + std::to_string(k));
    expect_engines_identical(bilinear::by_name("classical2_x_strassen"), k);
  }
}

// The implicit engine keeps working far past the explicit budget; pin
// the headline k = 10 run (Strassen, n = 1024) to its Lemma-3 /
// Theorem-2 verdicts so a regression cannot hide behind "too big to
// test".
TEST(ImplicitEngine, StrassenK10CertificatesHold) {
  const auto alg = bilinear::by_name("strassen");
  const routing::ChainRouter router(alg);
  const routing::DecodeRouter decoder(alg);
  const routing::MemoRoutingEngine engine(router, decoder);
  const int k = 10;
  const cdag::ImplicitCdag view(alg, k);
  EXPECT_EQ(view.num_vertices(), 1973132439u);
  const routing::HitStats l3 = engine.verify_chain_routing(view, k, 0);
  EXPECT_EQ(l3.num_paths, 2147483648ull);  // 2 * a^k * n0^k = 2 * 4^10 * 2^10
  EXPECT_EQ(l3.max_hits, 2048u);           // exactly 2 * n0^k
  EXPECT_TRUE(l3.ok());
  EXPECT_TRUE(engine.verify_chain_multiplicities(view, k, 0));
  const routing::FullRoutingStats t2 = engine.verify_full_routing(view, k, 0);
  EXPECT_TRUE(t2.ok());
  EXPECT_TRUE(t2.root_hit_property);
  const routing::HitStats d = engine.verify_decode_routing(view, k, 0);
  EXPECT_EQ(d.num_paths, 296196766695424ull);  // b^k * a^k = 7^10 * 4^10
  EXPECT_TRUE(d.ok());
}

}  // namespace
