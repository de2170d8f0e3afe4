#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/routing/memo_routing.hpp"
#include "pathrouting/routing/path_store.hpp"
#include "pathrouting/routing/routing_point.hpp"

namespace {

using namespace pathrouting;           // NOLINT
using namespace pathrouting::routing;  // NOLINT
using cdag::Cdag;
using cdag::CopyBlock;
using cdag::CopyTranslation;
using cdag::SubComputation;
using cdag::VertexId;

// Feasibility caps for the brute-force oracle side of the cross-checks.
constexpr std::uint64_t kMaxChains = 300'000;
constexpr std::uint64_t kMaxVertices = 2'000'000;
constexpr std::uint64_t kMaxDecodePaths = 300'000;

std::uint64_t num_chains(const cdag::Layout& layout, int k) {
  return 2 * layout.pow_a()(k) * guaranteed_fanout(layout, k);
}

/// The canonical G_k array of copy `prefix` renamed into `global` ids
/// (zero outside the copy), for bit-for-bit comparison with brute.
std::vector<std::uint64_t> translated(std::span<const std::uint64_t> canonical,
                                      const cdag::Layout& global, int k,
                                      std::uint64_t prefix) {
  const CopyTranslation map(global, k, prefix);
  std::vector<std::uint64_t> out(global.num_vertices(), 0);
  for (const CopyBlock& blk : map.blocks()) {
    std::copy_n(canonical.begin() + blk.local_base, blk.length,
                out.begin() + blk.global_base);
  }
  return out;
}

/// The closed-form chain, Lemma-4, Theorem-2 and (with a decoder)
/// decode verdicts on the copy `sub` must equal the brute oracle's.
/// The chain and decode bounds hold on every copy; the Theorem-2
/// verdict is also asserted when `expect_full_ok` (copies at a nonzero
/// prefix with a trivial last digit legitimately fail the root-hit
/// property).
void expect_stats_match_brute(const MemoRoutingEngine& engine,
                              const ChainRouter& router,
                              const DecodeRouter* decoder,
                              const SubComputation& sub,
                              const std::string& label,
                              bool expect_full_ok) {
  const cdag::ExplicitView view(sub.cdag());
  const int k = sub.k();
  const std::uint64_t prefix = sub.prefix();
  const HitStats brute = verify_chain_routing(router, sub);
  const HitStats memo = engine.verify_chain_routing(view, k, prefix);
  EXPECT_EQ(memo, brute) << label;
  EXPECT_TRUE(memo.ok()) << label;

  const FullRoutingStats bfull = verify_full_routing_aggregated(router, sub);
  const FullRoutingStats mfull = engine.verify_full_routing(view, k, prefix);
  EXPECT_EQ(mfull.num_paths, bfull.num_paths) << label;
  EXPECT_EQ(mfull.max_vertex_hits, bfull.max_vertex_hits) << label;
  EXPECT_EQ(mfull.argmax_vertex, bfull.argmax_vertex) << label;
  EXPECT_EQ(mfull.max_meta_hits, bfull.max_meta_hits) << label;
  EXPECT_EQ(mfull.bound, bfull.bound) << label;
  EXPECT_EQ(mfull.root_hit_property, bfull.root_hit_property) << label;
  if (expect_full_ok) {
    EXPECT_TRUE(mfull.ok()) << label;
  }

  // Lemma 4's multiplicity accounting: digit-level decision vs the
  // enumerating counter.
  EXPECT_EQ(engine.verify_chain_multiplicities(view, k, prefix),
            verify_chain_multiplicities(router, sub))
      << label;

  if (decoder != nullptr) {
    const HitStats dbrute = verify_decode_routing(*decoder, sub);
    const HitStats dmemo = engine.verify_decode_routing(view, k, prefix);
    EXPECT_EQ(dmemo, dbrute) << label;
    EXPECT_TRUE(dmemo.ok()) << label;
  }
}

// --- The closed-form engine against the enumerating oracle, full catalog.

TEST(MemoRoutingTest, ChainHitsBitIdenticalToBruteAcrossCatalog) {
  for (const std::string& name : bilinear::catalog_names()) {
    const bilinear::BilinearAlgorithm alg = bilinear::by_name(name);
    const ChainRouter router(alg);
    const MemoRoutingEngine engine(router);
    for (int k = 1; k <= 3; ++k) {
      const cdag::Layout probe(alg.n0(), alg.b(), k);
      if (num_chains(probe, k) > kMaxChains ||
          probe.num_vertices() > kMaxVertices) {
        break;
      }
      const Cdag cdag(alg, k);
      const SubComputation sub(cdag, k, 0);
      const ChainHitCounts brute = count_chain_hits(router, sub);
      const std::span<const std::uint64_t> canonical =
          engine.canonical_chain_hit_array(k);
      EXPECT_TRUE(std::equal(canonical.begin(), canonical.end(),
                             brute.hits.begin(), brute.hits.end()))
          << name << " k=" << k;
      // The closed-form total is the certificate the audit layer
      // checks; it must match what the enumeration actually deposited.
      const std::uint64_t total =
          std::accumulate(brute.hits.begin(), brute.hits.end(),
                          std::uint64_t{0});
      EXPECT_EQ(engine.expected_chain_total_hits(k), total)
          << name << " k=" << k;
      EXPECT_EQ(engine.expected_num_chains(k), brute.num_chains)
          << name << " k=" << k;
      const HitStats memo =
          engine.verify_chain_routing(cdag::ExplicitView(cdag), k, 0);
      EXPECT_EQ(memo.num_paths, brute.num_chains) << name << " k=" << k;
      EXPECT_EQ(memo.max_hits, brute.max_hits) << name << " k=" << k;
      EXPECT_EQ(memo.argmax, brute.argmax) << name << " k=" << k;
    }
  }
}

TEST(MemoRoutingTest, VerifyStatsMatchBruteAcrossCatalog) {
  for (const std::string& name : bilinear::catalog_names()) {
    const bilinear::BilinearAlgorithm alg = bilinear::by_name(name);
    const ChainRouter router(alg);
    const MemoRoutingEngine engine(router);
    for (int k = 1; k <= 2; ++k) {
      const cdag::Layout probe(alg.n0(), alg.b(), k);
      if (num_chains(probe, k) > kMaxChains ||
          probe.num_vertices() > kMaxVertices) {
        break;
      }
      const Cdag cdag(alg, k);
      expect_stats_match_brute(engine, router, nullptr,
                               SubComputation(cdag, k, 0),
                               name + " k=" + std::to_string(k),
                               /*expect_full_ok=*/true);
    }
  }
}

TEST(MemoRoutingTest, DecodeHitsBitIdenticalToBrute) {
  for (const std::string& name : bilinear::catalog_names()) {
    const bilinear::BilinearAlgorithm alg = bilinear::by_name(name);
    if (bilinear::decoding_components(alg) != 1) continue;  // Claim 1 only
    const ChainRouter router(alg);
    const DecodeRouter decoder(alg);
    const MemoRoutingEngine engine(router, decoder);
    ASSERT_TRUE(engine.has_decoder());
    for (int k = 1; k <= 3; ++k) {
      const cdag::Layout probe(alg.n0(), alg.b(), k);
      const std::uint64_t paths = probe.pow_a()(k) * probe.pow_b()(k);
      if (paths > kMaxDecodePaths || probe.num_vertices() > kMaxVertices) {
        break;
      }
      const Cdag cdag(alg, k);
      const SubComputation sub(cdag, k, 0);
      const std::vector<std::uint64_t> brute = count_decode_hits(decoder, sub);
      const std::span<const std::uint64_t> canonical =
          engine.canonical_decode_hit_array(k);
      EXPECT_TRUE(std::equal(canonical.begin(), canonical.end(),
                             brute.begin(), brute.end()))
          << name << " k=" << k;
      const HitStats bstats = decode_stats_from_hits(decoder, sub, brute);
      const HitStats mstats =
          engine.verify_decode_routing(cdag::ExplicitView(cdag), k, 0);
      EXPECT_EQ(mstats, bstats) << name << " k=" << k;
      EXPECT_TRUE(mstats.ok()) << name << " k=" << k;
      const std::uint64_t total =
          std::accumulate(brute.begin(), brute.end(), std::uint64_t{0});
      EXPECT_EQ(engine.expected_decode_total_hits(k), total)
          << name << " k=" << k;
      EXPECT_EQ(engine.expected_num_decode_paths(k), paths);
    }
  }
}

// --- Fact-1 copy translation. ---

TEST(CopyTranslationTest, RoundTripAndBlockStructure) {
  const bilinear::BilinearAlgorithm alg = bilinear::strassen();
  const Cdag cdag(alg, 3);
  const cdag::Layout& layout = cdag.layout();
  for (int k = 1; k <= 2; ++k) {
    const std::uint64_t copies = layout.pow_b()(3 - k);
    for (std::uint64_t prefix = 0; prefix < copies; ++prefix) {
      const CopyTranslation map(layout, k, prefix);
      const SubComputation sub(cdag, k, prefix);
      ASSERT_EQ(map.blocks().size(), static_cast<std::size_t>(3 * (k + 1)));
      // Blocks tile the local id space without gaps.
      VertexId next_local = 0;
      for (const CopyBlock& blk : map.blocks()) {
        EXPECT_EQ(blk.local_base, next_local);
        next_local += static_cast<VertexId>(blk.length);
      }
      EXPECT_EQ(next_local, map.local().num_vertices());
      // The translated ids are exactly the subcomputation's vertices,
      // in order, and the round trip is the identity.
      const std::vector<VertexId> expected = sub.vertices();
      std::vector<VertexId> translated;
      for (VertexId v = 0; v < map.local().num_vertices(); ++v) {
        const VertexId global = map.to_global(v);
        EXPECT_EQ(map.to_local(global), v);
        translated.push_back(global);
      }
      EXPECT_EQ(translated, expected) << "k=" << k << " prefix=" << prefix;
    }
  }
}

TEST(CopyTranslationTest, MatchesSubcomputationAddresses) {
  const bilinear::BilinearAlgorithm alg = bilinear::strassen();
  const Cdag cdag(alg, 3);
  const cdag::Layout& layout = cdag.layout();
  const int k = 2;
  const std::uint64_t prefix = 4;
  const CopyTranslation map(layout, k, prefix);
  const SubComputation sub(cdag, k, prefix);
  const cdag::Layout& local = map.local();
  for (const Side side : {Side::A, Side::B}) {
    for (int t = 0; t <= k; ++t) {
      for (std::uint64_t q = 0; q < local.pow_b()(t); ++q) {
        for (std::uint64_t p = 0; p < local.pow_a()(k - t); ++p) {
          EXPECT_EQ(map.to_global(local.enc(side, t, q, p)),
                    sub.enc(side, t, q, p));
        }
      }
    }
  }
  for (int t = 0; t <= k; ++t) {
    for (std::uint64_t q = 0; q < local.pow_b()(k - t); ++q) {
      for (std::uint64_t p = 0; p < local.pow_a()(t); ++p) {
        EXPECT_EQ(map.to_global(local.dec(t, q, p)), sub.dec(t, q, p));
      }
    }
  }
}

TEST(CopyTranslationTest, CopiesAreDisjoint) {
  const bilinear::BilinearAlgorithm alg = bilinear::strassen();
  const Cdag cdag(alg, 3);
  const cdag::Layout& layout = cdag.layout();
  const int k = 2;
  std::set<VertexId> seen;
  for (std::uint64_t prefix = 0; prefix < layout.pow_b()(1); ++prefix) {
    const CopyTranslation map(layout, k, prefix);
    for (const CopyBlock& blk : map.blocks()) {
      for (std::uint64_t i = 0; i < blk.length; ++i) {
        EXPECT_TRUE(seen.insert(blk.global_base + i).second)
            << "copies overlap at global id " << blk.global_base + i;
      }
    }
  }
}

TEST(MemoRoutingTest, NonZeroPrefixCopiesMatchBrute) {
  // The same canonical array serves every Fact-1 copy: renamed onto
  // interior copies it equals the oracle run directly on them.
  {
    const bilinear::BilinearAlgorithm alg = bilinear::strassen();
    const ChainRouter router(alg);
    const DecodeRouter decoder(alg);
    const MemoRoutingEngine engine(router, decoder);
    const Cdag cdag(alg, 3);
    const int k = 2;
    for (const std::uint64_t prefix : {std::uint64_t{1}, std::uint64_t{6}}) {
      const SubComputation sub(cdag, k, prefix);
      EXPECT_EQ(translated(engine.canonical_chain_hit_array(k), cdag.layout(),
                           k, prefix),
                count_chain_hits(router, sub).hits)
          << "prefix=" << prefix;
      EXPECT_EQ(translated(engine.canonical_decode_hit_array(k),
                           cdag.layout(), k, prefix),
                count_decode_hits(decoder, sub))
          << "prefix=" << prefix;
    }
  }
  // The closed-form stats on every copy, including the copy-boundary
  // root-hit clause (r > k with a trivial last prefix digit): every
  // catalog base at r = 2, k = 1, and the n0 = 2, 3 bases at r = 3.
  struct Depths {
    std::string name;
    int r;
    std::vector<int> ks;
  };
  std::vector<Depths> cases;
  for (const std::string& name : bilinear::catalog_names()) {
    cases.push_back({name, 2, {1}});
  }
  for (const char* name : {"strassen", "winograd", "laderman"}) {
    cases.push_back({name, 3, {1, 2}});
  }
  int copies = 0;
  for (const Depths& c : cases) {
    const bilinear::BilinearAlgorithm alg = bilinear::by_name(c.name);
    const ChainRouter router(alg);
    std::optional<DecodeRouter> decoder;
    std::optional<MemoRoutingEngine> engine;
    if (bilinear::decoding_components(alg) == 1) {
      decoder.emplace(alg);
      engine.emplace(router, *decoder);
    } else {
      engine.emplace(router);
    }
    const Cdag cdag(alg, c.r, {.with_coefficients = false});
    for (const int k : c.ks) {
      for (std::uint64_t prefix = 0; prefix < cdag.layout().pow_b()(c.r - k);
           ++prefix) {
        expect_stats_match_brute(*engine, router,
                                 decoder ? &*decoder : nullptr,
                                 SubComputation(cdag, k, prefix),
                                 c.name + " r=" + std::to_string(c.r) +
                                     " k=" + std::to_string(k) +
                                     " prefix=" + std::to_string(prefix),
                                 /*expect_full_ok=*/false);
        ++copies;
      }
    }
  }
  EXPECT_GT(copies, 1000);
}

// --- PathStore. ---

TEST(PathStoreTest, ArenaLayoutAndHitAccumulation) {
  PathStore store;
  store.reserve(2, 8);
  const std::uint64_t i0 =
      store.add_path(3, 5, [](std::vector<VertexId>& arena) {
        arena.insert(arena.end(), {3, 4, 5});
      });
  const std::uint64_t i1 =
      store.add_path(5, 2, [](std::vector<VertexId>& arena) {
        arena.insert(arena.end(), {5, 4, 3, 2});
      });
  EXPECT_EQ(i0, 0u);
  EXPECT_EQ(i1, 1u);
  EXPECT_EQ(store.num_paths(), 2u);
  EXPECT_EQ(store.total_vertices(), 7u);
  EXPECT_EQ(std::vector<VertexId>(store.path(0).begin(), store.path(0).end()),
            (std::vector<VertexId>{3, 4, 5}));
  EXPECT_EQ(std::vector<VertexId>(store.path(1).begin(), store.path(1).end()),
            (std::vector<VertexId>{5, 4, 3, 2}));
  EXPECT_EQ(store.sources()[1], 5u);
  EXPECT_EQ(store.sinks()[1], 2u);
  std::vector<std::uint64_t> hits(6, 0);
  accumulate_hits(store, hits);
  EXPECT_EQ(hits, (std::vector<std::uint64_t>{0, 0, 1, 2, 2, 2}));
  store.clear();
  EXPECT_EQ(store.num_paths(), 0u);
  EXPECT_EQ(store.total_vertices(), 0u);
}

TEST(PathStoreTest, DotExportListsEveryChainVertex) {
  const bilinear::BilinearAlgorithm alg = bilinear::strassen();
  const ChainRouter router(alg);
  const Cdag cdag(alg, 1);
  const SubComputation sub(cdag, 1, 0);
  PathStore store;
  const std::uint64_t wpos = guaranteed_output(cdag.layout(), 1, Side::A, 0, 0);
  store.add_path([&](std::vector<VertexId>& arena) {
    router.append_chain(sub, Side::A, 0, wpos, arena);
  });
  const std::string dot =
      paths_to_dot(cdag.layout(), store, "chain");
  EXPECT_NE(dot.find("digraph \"chain\""), std::string::npos);
  for (const VertexId v : store.path(0)) {
    EXPECT_NE(dot.find("v" + std::to_string(v)), std::string::npos);
  }
}

TEST(RoutingPoint, RecordsRoundTripTheSpecAndEnginesAgree) {
  for (const EngineKind engine : {EngineKind::kBrute, EngineKind::kMemo}) {
    const RoutingSpec spec{"strassen", 2, engine};
    const ChainPoint chain = run_chain_point(spec);
    const DecodePoint decode = run_decode_point(spec);
    EXPECT_TRUE(chain.ok());
    EXPECT_TRUE(decode.stats.ok());
    EXPECT_EQ(chain.counts.hits.empty(), engine == EngineKind::kMemo);
    EXPECT_EQ(decode.hits.empty(), engine == EngineKind::kMemo);
    obs::BenchRecord chain_rec;
    fill_chain_record(chain, chain_rec);
    // The committed BENCH_routing_memo.json values, on every engine.
    EXPECT_EQ(chain_rec.int_or("l3_max_hits", 0), 8);
    obs::BenchRecord decode_rec;
    fill_decode_record(decode, decode_rec);
    EXPECT_EQ(decode_rec.int_or("max_hits", 0), 112);
    for (const obs::BenchRecord* rec : {&chain_rec, &decode_rec}) {
      obs::RecordReader in(*rec);
      const RoutingSpec back = routing_spec_from_record(in);
      EXPECT_TRUE(in.ok()) << in.error();
      EXPECT_EQ(back.algorithm, spec.algorithm);
      EXPECT_EQ(back.k, spec.k);
      EXPECT_EQ(back.engine, spec.engine);
    }
  }
  // BENCH_implicit_cdag.json tags the closed-form engine "implicit".
  obs::BenchRecord rec;
  fill_chain_record(run_chain_point({"strassen", 1, EngineKind::kMemo}), rec);
  rec.set("engine", "implicit");
  obs::RecordReader in(rec);
  EXPECT_EQ(routing_spec_from_record(in).engine, EngineKind::kMemo);
  EXPECT_TRUE(in.ok()) << in.error();
}

TEST(RoutingPoint, SpecFromRecordRejectsBasesClaimOneExcludes) {
  int disconnected = 0;
  for (const std::string& name : bilinear::catalog_names()) {
    if (bilinear::decoding_components(bilinear::by_name(name)) == 1) continue;
    ++disconnected;
    obs::BenchRecord rec;
    rec.set("experiment", "decode_routing")
        .set("algorithm", name)
        .set("k", 1)
        .set("engine", "memo");
    obs::RecordReader in(rec);
    (void)routing_spec_from_record(in);
    EXPECT_EQ(in.error(),
              "field \"algorithm\": decoding graph is disconnected "
              "(Claim 1 does not apply)");
    rec.set("experiment", "chain_routing");  // Lemma 3 has no such need
    obs::RecordReader chain_in(rec);
    (void)routing_spec_from_record(chain_in);
    EXPECT_TRUE(chain_in.ok()) << chain_in.error();
  }
  EXPECT_GT(disconnected, 0);  // the catalog has classical bases
}

}  // namespace
