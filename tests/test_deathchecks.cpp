// Failure-injection tests, in two flavours: the library's contracts
// abort loudly rather than corrupting results (gtest death tests
// confirm the guard rails actually fire), and the audit layer's rules
// each catch a deliberately mutated structure, reporting the exact rule
// id and offending vertex instead of aborting.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "pathrouting/audit/audit.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/bounds/segment_certifier.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/cdag/evaluate.hpp"
#include "pathrouting/cdag/subcomputation.hpp"
#include "pathrouting/cdag/view.hpp"
#include "pathrouting/parallel/machine.hpp"
#include "pathrouting/pebble/cache_sim.hpp"
#include "pathrouting/routing/hall.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/schedule/validate.hpp"
#include "pathrouting/support/parallel.hpp"
#include "pathrouting/support/rational.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using support::Rational;

TEST(DeathTest, RationalDivisionByZeroAborts) {
  const Rational x(3, 4);
  EXPECT_DEATH((void)(x / Rational(0)), "division by zero");
}

TEST(DeathTest, RationalZeroDenominatorAborts) {
  EXPECT_DEATH(Rational(1, 0), "zero denominator");
}

TEST(DeathTest, NonTopologicalScheduleAborts) {
  const cdag::Cdag graph(bilinear::strassen(), 2, {.with_coefficients = false});
  auto order = schedule::dfs_schedule(graph);
  // Move the final output to the front: its operands are not computed.
  std::swap(order.front(), order.back());
  EXPECT_DEATH(pebble::simulate(graph.graph(), order, {.cache_size = 64},
                                [](cdag::VertexId) { return false; }),
               "not topological");
}

TEST(DeathTest, CacheTooSmallAborts) {
  const cdag::Cdag graph(bilinear::strassen(), 2, {.with_coefficients = false});
  const auto order = schedule::dfs_schedule(graph);
  // Strassen decode vertices have in-degree 4; M = 3 cannot stage them.
  EXPECT_DEATH(pebble::simulate(graph.graph(), order, {.cache_size = 3},
                                [](cdag::VertexId) { return false; }),
               "cache too small");
}

TEST(DeathTest, RepeatedSegmentEndAborts) {
  const cdag::Cdag graph(bilinear::strassen(), 2, {.with_coefficients = false});
  const auto order = schedule::dfs_schedule(graph);
  const auto len = static_cast<std::uint32_t>(order.size());
  // A repeated end names an empty segment; the steps after it would be
  // charged to the wrong segment.
  pebble::PebbleOptions opts{.cache_size = 64};
  opts.segment_ends = {2, 2, len};
  EXPECT_DEATH(pebble::simulate(graph.graph(), order, opts,
                                [](cdag::VertexId) { return false; }),
               "strictly increasing");
}

TEST(DeathTest, ScheduleWithInputsAborts) {
  const cdag::Cdag graph(bilinear::strassen(), 2, {.with_coefficients = false});
  auto order = schedule::dfs_schedule(graph);
  order.insert(order.begin(), graph.layout().input(bilinear::Side::A, 0));
  EXPECT_DEATH(pebble::simulate(graph.graph(), order, {.cache_size = 64},
                                [](cdag::VertexId) { return false; }),
               "inputs are not scheduled");
}

TEST(DeathTest, EvaluationWithoutCoefficientsAborts) {
  const cdag::Cdag graph(bilinear::strassen(), 1, {.with_coefficients = false});
  const std::vector<std::int64_t> a(4, 1), b(4, 1);
  EXPECT_DEATH((void)cdag::evaluate<std::int64_t>(graph, a, b),
               "with_coefficients");
}

TEST(DeathTest, OversizedSubcomputationPrefixAborts) {
  const cdag::Cdag graph(bilinear::strassen(), 2, {.with_coefficients = false});
  EXPECT_DEATH(cdag::SubComputation(graph, 1, /*prefix=*/7), "");
}

}  // namespace

namespace more_death_tests {

using namespace pathrouting;  // NOLINT

TEST(DeathTest, MachineReleaseUnderflowAborts) {
  parallel::Machine machine(2, 100);
  machine.alloc(0, 5);
  EXPECT_DEATH(machine.release(0, 6), "");
}

TEST(DeathTest, UnknownCatalogNameAborts) {
  EXPECT_DEATH((void)bilinear::by_name("does-not-exist"),
               "unknown catalog algorithm");
}

}  // namespace more_death_tests

// Every audit rule catches a deliberately mutated structure and reports
// the exact rule id and offending vertex. Each test isolates its rule
// with RuleSelection::only so a single planted defect cannot hide
// behind (or be masked by) a sibling rule's findings.
namespace audit_mutation_tests {

using namespace pathrouting;  // NOLINT
using audit::AuditReport;
using audit::Diagnostic;
using audit::RuleSelection;
using cdag::VertexId;

/// Test-only CdagView fake: an owning, mutable copy of a CDAG's
/// structure tables. Tests corrupt entries, then audit `view()`, which
/// rebuilds the graph from the (possibly mutated) in-lists.
struct MutableCdag final : cdag::CdagView {
  const cdag::Cdag* base;
  std::vector<std::uint32_t> in_off;
  std::vector<VertexId> in_adj;
  std::vector<VertexId> copy_parent_table;
  std::vector<VertexId> meta_root_table;
  std::vector<std::uint32_t> meta_size_table;  // indexed by root
  bool explicit_edges = true;  // false: audit it like an implicit view
  cdag::Graph graph;

  explicit MutableCdag(const cdag::Cdag& c) : base(&c) {
    const cdag::Graph& g = c.graph();
    in_off.reserve(g.num_vertices() + 1);
    in_off.push_back(0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (const VertexId p : g.in(v)) in_adj.push_back(p);
      in_off.push_back(static_cast<std::uint32_t>(in_adj.size()));
    }
    copy_parent_table.assign(c.copy_parents().begin(), c.copy_parents().end());
    meta_root_table.assign(c.meta_roots().begin(), c.meta_roots().end());
    meta_size_table.assign(c.meta_sizes().begin(), c.meta_sizes().end());
  }

  /// Replaces the in-edge slot of `v` currently holding `from` with
  /// `with` (the slot must exist).
  void replace_in_edge(VertexId v, VertexId from, VertexId with) {
    const auto begin = in_adj.begin() + in_off[v];
    const auto end = in_adj.begin() + in_off[v + 1];
    const auto it = std::find(begin, end, from);
    ASSERT_NE(it, end) << "edge " << from << " -> " << v << " not present";
    *it = with;
  }

  void insert_in_edge(VertexId v, VertexId pred) {
    in_adj.insert(in_adj.begin() + in_off[v], pred);
    for (std::size_t w = v + 1; w < in_off.size(); ++w) ++in_off[w];
  }

  const cdag::CdagView& view() {
    graph = cdag::Graph(in_off, in_adj);
    return *this;
  }

  [[nodiscard]] const bilinear::BilinearAlgorithm& algorithm() const override {
    return base->algorithm();
  }
  [[nodiscard]] const cdag::Layout& layout() const override {
    return base->layout();
  }
  [[nodiscard]] cdag::ViewCapabilities capabilities() const override {
    return {.explicit_edges = explicit_edges,
            .coefficients = false,
            .grouped_duplicates = base->grouped_duplicates()};
  }
  [[nodiscard]] std::uint64_t num_edges() const override {
    return graph.num_edges();
  }
  [[nodiscard]] std::uint32_t in_degree(VertexId v) const override {
    return graph.in_degree(v);
  }
  [[nodiscard]] std::uint32_t out_degree(VertexId v) const override {
    return graph.out_degree(v);
  }
  [[nodiscard]] std::span<const VertexId> in(
      VertexId v, std::vector<VertexId>& /*scratch*/) const override {
    return graph.in(v);
  }
  [[nodiscard]] std::span<const VertexId> out(
      VertexId v, std::vector<VertexId>& /*scratch*/) const override {
    return graph.out(v);
  }
  [[nodiscard]] bool has_edge(VertexId from, VertexId to) const override {
    return graph.has_edge(from, to);
  }
  [[nodiscard]] VertexId copy_parent(VertexId v) const override {
    return copy_parent_table[v];
  }
  [[nodiscard]] VertexId meta_root(VertexId v) const override {
    return meta_root_table[v];
  }
  [[nodiscard]] std::uint32_t meta_size(VertexId v) const override {
    return meta_size_table[meta_root_table[v]];
  }
};

AuditReport run_rule(MutableCdag& m, const std::string& rule) {
  return audit::audit_cdag(m.view(), RuleSelection::only({rule}));
}

Diagnostic first_finding(const AuditReport& report, const std::string& rule) {
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has_finding(rule));
  if (report.diagnostics().empty()) return {};
  return report.diagnostics().front();
}

VertexId first_copy_vertex(const cdag::Cdag& c) {
  for (VertexId v = 0; v < c.graph().num_vertices(); ++v) {
    if (c.copy_parent(v) != cdag::kInvalidVertex) return v;
  }
  ADD_FAILURE() << "CDAG has no copy vertex";
  return cdag::kInvalidVertex;
}

TEST(AuditMutation, TopologicalIdsCatchesBackwardEdge) {
  const cdag::Cdag c(bilinear::strassen(), 1, {.with_coefficients = false});
  MutableCdag m(c);
  const VertexId v = c.layout().product(0);
  // Point one operand of the first product at an output (larger id).
  m.in_adj[m.in_off[v]] = c.layout().output(0);
  const auto report = run_rule(m, "cdag.topological-ids");
  const auto& diag = first_finding(report, "cdag.topological-ids");
  EXPECT_EQ(diag.rule, "cdag.topological-ids");
  EXPECT_EQ(diag.vertex, v);
}

TEST(AuditMutation, RankStructureCatchesRankSkip) {
  const cdag::Cdag c(bilinear::strassen(), 1, {.with_coefficients = false});
  MutableCdag m(c);
  const VertexId v = c.layout().output(0);
  // An output fed directly by a rank-0 input skips the decoding rank.
  m.in_adj[m.in_off[v]] = c.layout().input(bilinear::Side::A, 0);
  const auto& diag = first_finding(run_rule(m, "cdag.rank-structure"),
                                   "cdag.rank-structure");
  EXPECT_EQ(diag.vertex, v);
}

TEST(AuditMutation, DegreeBoundsCatchesFatProduct) {
  const cdag::Cdag c(bilinear::strassen(), 1, {.with_coefficients = false});
  MutableCdag m(c);
  const VertexId v = c.layout().product(1);
  m.insert_in_edge(v, c.layout().enc(bilinear::Side::A, 1, 0, 0));
  const auto& diag = first_finding(run_rule(m, "cdag.degree-bounds"),
                                   "cdag.degree-bounds");
  EXPECT_EQ(diag.vertex, v);
  EXPECT_TRUE(diag.has_counts);
  EXPECT_EQ(diag.expected, 2u);
  EXPECT_EQ(diag.actual, 3u);
}

TEST(AuditMutation, CopyStructureCatchesWrongParent) {
  const cdag::Cdag c(bilinear::strassen(), 1, {.with_coefficients = false});
  MutableCdag m(c);
  const VertexId v = first_copy_vertex(c);
  const VertexId real_parent = c.copy_parent(v);
  // Record a different (still smaller) vertex as the copy-parent: the
  // unique in-edge no longer comes from it.
  m.copy_parent_table[v] = real_parent == 0 ? 1 : 0;
  const auto& diag = first_finding(run_rule(m, "cdag.copy-structure"),
                                   "cdag.copy-structure");
  EXPECT_EQ(diag.vertex, v);
}

TEST(AuditMutation, MetaRootCatchesSizeMismatch) {
  const cdag::Cdag c(bilinear::strassen(), 1, {.with_coefficients = false});
  // Below the sample cap the recount runs with or without explicit edges.
  for (const bool explicit_edges : {true, false}) {
    SCOPED_TRACE(explicit_edges ? "explicit edges" : "no explicit edges");
    MutableCdag m(c);
    m.explicit_edges = explicit_edges;
    const VertexId root = c.copy_parent(first_copy_vertex(c));
    m.meta_size_table[root] += 1;
    const auto& diag = first_finding(run_rule(m, "cdag.meta-root"),
                                     "cdag.meta-root");
    EXPECT_EQ(diag.vertex, root);
    EXPECT_TRUE(diag.has_counts);
    EXPECT_EQ(diag.expected + 1, diag.actual);
  }
}

TEST(AuditMutation, SampledScanReachesTheEndOfTheIdRange) {
  // Laderman G_4 has ~1.37M vertices, above the 2^20 sample cap, so a
  // view without explicit edges is checked on a stride sample.
  const cdag::Cdag c(bilinear::laderman(), 4, {.with_coefficients = false});
  const std::uint64_t n = c.graph().num_vertices();
  const std::uint64_t cap = std::uint64_t{1} << 20;
  ASSERT_GT(n, cap);
  const std::uint64_t stride = (n + cap - 1) / cap;
  MutableCdag m(c);
  m.explicit_edges = false;
  const auto v = static_cast<VertexId>((n - 1) / stride * stride);
  ASSERT_GT(v, cap);
  m.copy_parent_table[v] = static_cast<VertexId>(n);  // not a vertex
  const auto report = run_rule(m, "cdag.copy-structure");
  const auto& diag = first_finding(report, "cdag.copy-structure");
  EXPECT_EQ(diag.vertex, v);
  EXPECT_EQ(report.num_errors(), 1u);
}

TEST(AuditMutation, MetaSubtreeCatchesDetachedCopy) {
  const cdag::Cdag c(bilinear::strassen(), 1, {.with_coefficients = false});
  MutableCdag m(c);
  const VertexId v = first_copy_vertex(c);
  const VertexId root = c.meta_root(v);
  // Detach the copy into its own meta-vertex (sizes kept consistent so
  // only the subtree rule can object).
  m.meta_root_table[v] = v;
  m.meta_size_table[v] = 1;
  m.meta_size_table[root] -= 1;
  const auto& diag = first_finding(run_rule(m, "cdag.meta-subtree"),
                                   "cdag.meta-subtree");
  EXPECT_EQ(diag.vertex, v);
}

TEST(AuditMutation, MetaSubtreeCatchesCopyRoot) {
  const cdag::Cdag c(bilinear::strassen(), 1, {.with_coefficients = false});
  MutableCdag m(c);
  const VertexId v = first_copy_vertex(c);
  const VertexId root = c.meta_root(v);
  // Re-root the whole meta-vertex, the copy's parent included, at the
  // copy and move the size along: every copy still inherits its
  // parent's root, but that root is now a copy vertex.
  for (VertexId& member_root : m.meta_root_table) {
    if (member_root == root) member_root = v;
  }
  m.meta_size_table[v] = m.meta_size_table[root];
  m.meta_size_table[root] = 0;
  const auto report = run_rule(m, "cdag.meta-subtree");
  const auto& diag = first_finding(report, "cdag.meta-subtree");
  EXPECT_EQ(diag.vertex, v);
  EXPECT_EQ(report.num_errors(), 1u);
}

TEST(AuditMutation, CappedFindingsKeepLowestIdsAtAnyThreadCount) {
  const cdag::Cdag c(bilinear::strassen(), 6, {.with_coefficients = false});
  const std::uint64_t n = c.graph().num_vertices();
  ASSERT_GT(n, 10u * (1u << 16)) << "want more than ten 2^16-vertex chunks";
  MutableCdag m(c);
  // One finding per corrupted vertex, spread evenly over every chunk.
  constexpr std::uint64_t kCorrupted = 40;
  std::vector<VertexId> corrupted;
  for (std::uint64_t i = 0; i < kCorrupted; ++i) {
    const auto v = static_cast<VertexId>(i * (n / kCorrupted));
    m.copy_parent_table[v] = static_cast<VertexId>(n);  // not a vertex
    corrupted.push_back(v);
  }
  const cdag::CdagView& view = m.view();
  const auto selection = RuleSelection::only({"cdag.copy-structure"});
  AuditReport serial, parallel4;
  {
    const support::parallel::ThreadOverride threads(1);
    serial = audit::audit_cdag(view, selection);
  }
  {
    const support::parallel::ThreadOverride threads(4);
    parallel4 = audit::audit_cdag(view, selection);
  }
  EXPECT_TRUE(serial == parallel4);
  ASSERT_EQ(serial.diagnostics().size(), 17u) << serial.to_text();
  EXPECT_EQ(serial.num_errors(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    const Diagnostic& diag = serial.diagnostics()[i];
    EXPECT_EQ(diag.rule, "cdag.copy-structure");
    EXPECT_EQ(diag.message, "recorded copy-parent is not a vertex");
    EXPECT_EQ(diag.vertex, corrupted[i]);
  }
  const Diagnostic& note = serial.diagnostics().back();
  EXPECT_EQ(note.rule, "cdag.copy-structure");
  EXPECT_EQ(note.severity, audit::Severity::kNote);
  EXPECT_EQ(note.message,
            "further findings suppressed (showing first 16 of 40)");
}

TEST(AuditMutation, Fact1PrefixCatchesCrossedMultiplication) {
  const cdag::Cdag c(bilinear::strassen(), 1, {.with_coefficients = false});
  MutableCdag m(c);
  const VertexId v = c.layout().product(0);
  // Multiply the B-combination of product 1 instead of product 0: the
  // recursion paths (Fact 1 prefixes) no longer agree.
  m.replace_in_edge(v, c.layout().enc(bilinear::Side::B, 1, 0, 0),
                    c.layout().enc(bilinear::Side::B, 1, 1, 0));
  const auto& diag = first_finding(run_rule(m, "cdag.fact1-prefix"),
                                   "cdag.fact1-prefix");
  EXPECT_EQ(diag.vertex, v);
}

// --- routing.* rules, on hand-built path families over a clean CDAG ---

struct FamilyFixture {
  cdag::Cdag cdag{bilinear::strassen(), 1, {.with_coefficients = false}};
  std::vector<std::uint64_t> offsets;
  std::vector<VertexId> vertices;
  std::vector<VertexId> sources, sinks;

  void add_path(std::initializer_list<VertexId> path) {
    if (offsets.empty()) offsets.push_back(0);
    vertices.insert(vertices.end(), path.begin(), path.end());
    offsets.push_back(vertices.size());
  }

  AuditReport audit(audit::PathFamily family, const std::string& rule) {
    family.offsets = offsets;
    family.vertices = vertices;
    if (!sources.empty()) family.sources = sources;
    if (!sinks.empty()) family.sinks = sinks;
    return audit::audit_path_family(cdag.graph(), family,
                                    RuleSelection::only({rule}));
  }
};

TEST(AuditMutation, PathEdgesCatchesNonEdgeHop) {
  FamilyFixture f;
  const VertexId input = f.cdag.layout().input(bilinear::Side::A, 0);
  f.add_path({input, f.cdag.layout().output(0)});  // input -/-> output
  const auto& diag = first_finding(f.audit({}, "routing.path-edges"),
                                   "routing.path-edges");
  EXPECT_EQ(diag.vertex, input);
}

TEST(AuditMutation, PathEndpointsCatchesWrongSource) {
  FamilyFixture f;
  const auto& layout = f.cdag.layout();
  const VertexId input = layout.input(bilinear::Side::A, 0);
  const VertexId enc = layout.enc(bilinear::Side::A, 1, 0, 0);
  f.add_path({input, enc});  // a11 -> m1 is a real edge
  f.sources = {layout.input(bilinear::Side::A, 1)};
  f.sinks = {enc};
  const auto& diag = first_finding(f.audit({}, "routing.path-endpoints"),
                                   "routing.path-endpoints");
  EXPECT_EQ(diag.vertex, input);
  EXPECT_TRUE(diag.has_counts);
}

TEST(AuditMutation, PathLengthCatchesShortPath) {
  FamilyFixture f;
  const auto& layout = f.cdag.layout();
  const VertexId input = layout.input(bilinear::Side::A, 0);
  f.add_path({input, layout.enc(bilinear::Side::A, 1, 0, 0)});
  const auto& diag = first_finding(
      f.audit({.expected_length = 3}, "routing.path-length"),
      "routing.path-length");
  EXPECT_EQ(diag.vertex, input);
  EXPECT_EQ(diag.expected, 3u);
  EXPECT_EQ(diag.actual, 2u);
}

TEST(AuditMutation, CongestionCatchesOverusedVertex) {
  FamilyFixture f;
  const auto& layout = f.cdag.layout();
  const VertexId input = layout.input(bilinear::Side::A, 0);
  const VertexId enc = layout.enc(bilinear::Side::A, 1, 0, 0);
  f.add_path({input, enc});
  f.add_path({input, enc});
  const auto& diag = first_finding(
      f.audit({.congestion_bound = 1}, "routing.congestion"),
      "routing.congestion");
  EXPECT_EQ(diag.vertex, input);
  EXPECT_EQ(diag.expected, 1u);
  EXPECT_EQ(diag.actual, 2u);
}

TEST(AuditMutation, PathDisjointCatchesSharedVertex) {
  FamilyFixture f;
  const auto& layout = f.cdag.layout();
  const VertexId enc = layout.enc(bilinear::Side::A, 1, 0, 0);
  // m1 = a11 + a22: both inputs feed the same encoding vertex.
  f.add_path({layout.input(bilinear::Side::A, 0), enc});
  f.add_path({layout.input(bilinear::Side::A, 3), enc});
  const auto& diag = first_finding(
      f.audit({.vertex_disjoint = true}, "routing.path-disjoint"),
      "routing.path-disjoint");
  EXPECT_EQ(diag.vertex, enc);
}

TEST(AuditMutation, ChainCountCatchesMissingPaths) {
  FamilyFixture f;
  const auto& layout = f.cdag.layout();
  f.add_path({layout.input(bilinear::Side::A, 0),
              layout.enc(bilinear::Side::A, 1, 0, 0)});
  const auto& diag = first_finding(
      f.audit({.expected_paths = 3}, "routing.chain-count"),
      "routing.chain-count");
  EXPECT_EQ(diag.expected, 3u);
  EXPECT_EQ(diag.actual, 1u);
}

// --- fact1.* and routing.memo-totals, corrupting genuine memo data ---

struct MemoFixture {
  cdag::Cdag cdag{bilinear::strassen(), 2, {.with_coefficients = false}};
  routing::ChainRouter router{bilinear::strassen()};
  routing::MemoRoutingEngine engine{router};
  cdag::SubComputation sub{cdag, 1, 0};

  /// The engine's closed-form Lemma-3 stats of `sub`.
  [[nodiscard]] routing::HitStats stats() const {
    return engine.verify_chain_routing(cdag::ExplicitView(cdag), sub.k(),
                                       sub.prefix());
  }

  AuditReport audit_blocks(const std::vector<cdag::CopyBlock>& blocks,
                           const std::string& rule) {
    return audit::audit_copy_translation(cdag.layout(), sub.k(), sub.prefix(),
                                         blocks, RuleSelection::only({rule}));
  }
};

TEST(AuditMutation, CopyBlocksCatchesCorruptedRankLength) {
  MemoFixture f;
  const cdag::CopyTranslation map(f.cdag.layout(), f.sub.k(), f.sub.prefix());
  std::vector<cdag::CopyBlock> blocks(map.blocks().begin(),
                                      map.blocks().end());
  ASSERT_GE(blocks.size(), 3u);
  blocks[2].length += 1;  // rank run no longer matches enc_rank_size
  const auto& diag = first_finding(f.audit_blocks(blocks, "fact1.copy-blocks"),
                                   "fact1.copy-blocks");
  EXPECT_EQ(diag.vertex, 2u);  // block index
  EXPECT_TRUE(diag.has_counts);
  EXPECT_EQ(diag.expected + 1, diag.actual);
}

TEST(AuditMutation, CopyBijectionCatchesShiftedGlobalRun) {
  MemoFixture f;
  const cdag::CopyTranslation map(f.cdag.layout(), f.sub.k(), f.sub.prefix());
  std::vector<cdag::CopyBlock> blocks(map.blocks().begin(),
                                      map.blocks().end());
  ASSERT_GE(blocks.size(), 2u);
  blocks[1].global_base += 1;  // no longer the Fact-1 address formula
  const auto& diag = first_finding(
      f.audit_blocks(blocks, "fact1.copy-bijection"), "fact1.copy-bijection");
  EXPECT_EQ(diag.vertex, 1u);  // block index
  EXPECT_TRUE(diag.has_counts);
  EXPECT_EQ(diag.expected + 1, diag.actual);
}

TEST(AuditMutation, MemoTotalsCatchesCorruptedHitArray) {
  MemoFixture f;
  const std::span<const std::uint64_t> canonical =
      f.engine.canonical_chain_hit_array(f.sub.k());
  std::vector<std::uint64_t> hits(canonical.begin(), canonical.end());
  const cdag::Layout& global = f.cdag.layout();
  const cdag::Layout local(global.n0(), global.b(), f.sub.k());
  hits[local.product(0)] += 1;  // total no longer reconciles
  const auto report = audit::audit_memo_chain_counts(
      f.engine, f.sub, hits, f.stats(),
      RuleSelection::only({"routing.memo-totals"}));
  const auto& diag = first_finding(report, "routing.memo-totals");
  EXPECT_TRUE(diag.has_counts);
  EXPECT_EQ(diag.expected, f.engine.expected_chain_total_hits(f.sub.k()));
  EXPECT_EQ(diag.actual, diag.expected + 1);
}

TEST(AuditMutation, MemoTotalsCatchesStaleArgmax) {
  MemoFixture f;
  routing::HitStats stats = f.stats();
  stats.argmax += 1;  // no longer the smallest-id maximum
  const auto report = audit::audit_memo_chain_counts(
      f.engine, f.sub, f.engine.canonical_chain_hit_array(f.sub.k()), stats,
      RuleSelection::only({"routing.memo-totals"}));
  const auto& diag = first_finding(report, "routing.memo-totals");
  EXPECT_TRUE(diag.has_counts);
}

// --- hall.* rules, on hand-built Theorem-3 witnesses ---

/// mu table defined exactly on the guaranteed digit pairs, all mapped
/// to product `q` — a structurally complete but lazily-routed witness.
std::vector<std::int32_t> all_to_product(int n0, bilinear::Side side, int q) {
  const int a = n0 * n0;
  std::vector<std::int32_t> mu(static_cast<std::size_t>(a) * a, -1);
  for (int d_in = 0; d_in < a; ++d_in) {
    for (int d_out = 0; d_out < a; ++d_out) {
      if (routing::is_guaranteed_digit_pair(n0, side, d_in, d_out)) {
        mu[static_cast<std::size_t>(d_in) * a + d_out] = q;
      }
    }
  }
  return mu;
}

TEST(AuditMutation, HallDomainCatchesUnmatchedPair) {
  const auto alg = bilinear::strassen();
  const routing::BaseMatching empty(4, std::vector<std::int32_t>(16, -1));
  const auto report = audit::audit_hall_matching(
      alg, bilinear::Side::A, empty, RuleSelection::only({"hall.domain"}));
  const auto& diag = first_finding(report, "hall.domain");
  // First unmatched guaranteed pair in scan order: (d_in, d_out) = (0, 0).
  EXPECT_EQ(diag.vertex, 0u);
}

TEST(AuditMutation, HallEdgeValidityCatchesNonAdjacentPair) {
  const auto alg = bilinear::strassen();
  const routing::BaseMatching matching(4, all_to_product(2, bilinear::Side::A,
                                                         /*q=*/0));
  const auto report =
      audit::audit_hall_matching(alg, bilinear::Side::A, matching,
                                 RuleSelection::only({"hall.edge-validity"}));
  const auto& diag = first_finding(report, "hall.edge-validity");
  // (0, 0) -> m1 is a real H-edge; (0, 1) -> m1 is not (m1 does not
  // appear in c12), so the scan first objects at flat pair index 1.
  EXPECT_EQ(diag.vertex, 1u);
}

TEST(AuditMutation, HallCapacityCatchesOverusedProduct) {
  const auto alg = bilinear::strassen();
  const routing::BaseMatching matching(4, all_to_product(2, bilinear::Side::A,
                                                         /*q=*/0));
  const auto report = audit::audit_hall_matching(
      alg, bilinear::Side::A, matching, RuleSelection::only({"hall.capacity"}));
  const auto& diag = first_finding(report, "hall.capacity");
  EXPECT_EQ(diag.vertex, 0u);  // product q = 0
  EXPECT_EQ(diag.expected, 2u);  // n0
  EXPECT_EQ(diag.actual, 8u);    // all 8 guaranteed pairs
}

// --- family.* rules ---

TEST(AuditMutation, FamilySizeCatchesWrongGuarantee) {
  const cdag::Cdag c(bilinear::strassen(), 2, {.with_coefficients = false});
  const bounds::DisjointFamily family{
      .k = 0, .prefixes = {0}, .guaranteed = 49};
  const auto report = audit::audit_disjoint_family(
      c, family, RuleSelection::only({"family.size"}));
  const auto& diag = first_finding(report, "family.size");
  EXPECT_EQ(diag.expected, 1u);  // b^(r-k-2) = 7^0
  EXPECT_EQ(diag.actual, 49u);
}

/// Strassen plus an 8th product m8 = a11 * b11 that no output uses
/// (zero W column, so the Brent equations still hold). Its U row
/// duplicates m3's trivial row a11, so the rank-2 copies of products
/// q = 8*d + 2 and q = 8*d + 7 land in the SAME input meta-vertex —
/// exactly the collision Lemma 1's family selection must avoid.
bilinear::BilinearAlgorithm strassen_with_duplicate_copy_row() {
  const auto s = bilinear::strassen();
  const int a = s.a();
  const int b = s.b();
  std::vector<support::Rational> u, v, w;
  for (int q = 0; q < b; ++q) {
    for (int e = 0; e < a; ++e) u.push_back(s.u(q, e));
  }
  for (int e = 0; e < a; ++e) u.emplace_back(e == 0 ? 1 : 0);  // a11
  for (int q = 0; q < b; ++q) {
    for (int e = 0; e < a; ++e) v.push_back(s.v(q, e));
  }
  for (int e = 0; e < a; ++e) v.emplace_back(e == 0 ? 1 : 0);  // b11
  for (int d = 0; d < a; ++d) {
    for (int q = 0; q < b; ++q) w.push_back(s.w(d, q));
    w.emplace_back(0);
  }
  return {"strassen_plus_copy", s.n0(), b + 1, std::move(u), std::move(v),
          std::move(w)};
}

TEST(AuditMutation, FamilyInputDisjointCatchesSharedMetaVertex) {
  const cdag::Cdag c(strassen_with_duplicate_copy_row(), 2,
                     {.with_coefficients = false});
  // Order-0 subcomputations 2 (via m3 = a11) and 7 (via m8 = a11) both
  // take a copy of enc(A, 1, 0, 0) as their A-side input.
  const bounds::DisjointFamily family{
      .k = 0, .prefixes = {2, 7}, .guaranteed = 1};
  const auto report = audit::audit_disjoint_family(
      c, family, RuleSelection::only({"family.input-disjoint"}));
  const auto& diag = first_finding(report, "family.input-disjoint");
  EXPECT_EQ(diag.vertex, c.layout().enc(bilinear::Side::A, 1, 0, 0));
}

// --- cert.* rules, corrupting a genuine Section-6 certificate ---

struct CertFixture {
  cdag::Cdag cdag{bilinear::strassen(), 3, {.with_coefficients = false}};
  std::vector<VertexId> order = schedule::dfs_schedule(cdag);
  bounds::CertifyResult result = bounds::certify_segments(
      cdag, order, {.cache_size = 1, .k = 1, .s_bar_target = 2});

  AuditReport audit(const bounds::CertifyResult& corrupt,
                    const std::string& rule) {
    const audit::CertificateSpec spec{.cdag = &cdag,
                                      .result = &corrupt,
                                      .schedule_size = order.size(),
                                      .decode_only = false,
                                      .full_schedule = true};
    return audit::audit_certificate(spec, RuleSelection::only({rule}));
  }
};

TEST(AuditMutation, CertSegmentOrderCatchesSwappedSegments) {
  CertFixture f;
  ASSERT_GE(f.result.segments.size(), 2u);
  auto corrupt = f.result;
  std::swap(corrupt.segments[0].end_step, corrupt.segments[1].end_step);
  const auto& diag = first_finding(f.audit(corrupt, "cert.segment-order"),
                                   "cert.segment-order");
  EXPECT_EQ(diag.vertex, 1u);  // segment index
}

TEST(AuditMutation, CertSegmentQuotaCatchesOvershoot) {
  CertFixture f;
  auto corrupt = f.result;
  ASSERT_TRUE(corrupt.segments[0].complete);
  corrupt.segments[0].s_bar = corrupt.s_bar_target + 1;
  const auto& diag = first_finding(f.audit(corrupt, "cert.segment-quota"),
                                   "cert.segment-quota");
  EXPECT_EQ(diag.vertex, 0u);
}

TEST(AuditMutation, CertCountedTotalCatchesMiscount) {
  CertFixture f;
  auto corrupt = f.result;
  corrupt.counted_total += 1;
  const auto& diag = first_finding(f.audit(corrupt, "cert.counted-total"),
                                   "cert.counted-total");
  EXPECT_TRUE(diag.has_counts);
  EXPECT_EQ(diag.expected + 1, diag.actual);
}

TEST(AuditMutation, CertArithmeticCatchesWrongGuarantee) {
  CertFixture f;
  auto corrupt = f.result;
  corrupt.family_guaranteed += 1;
  const auto& diag = first_finding(f.audit(corrupt, "cert.arithmetic"),
                                   "cert.arithmetic");
  EXPECT_EQ(diag.expected, 1u);  // b^(r-k-2) = 7^0
  EXPECT_EQ(diag.actual, 2u);
}

TEST(AuditMutation, CertBoundaryEqCatchesUnderReportedBoundary) {
  CertFixture f;
  auto corrupt = f.result;
  ASSERT_TRUE(corrupt.segments[0].complete);
  corrupt.segments[0].boundary = 0;
  const auto& diag = first_finding(f.audit(corrupt, "cert.boundary-eq"),
                                   "cert.boundary-eq");
  EXPECT_EQ(diag.vertex, 0u);
}

// --- schedule.* rules ---

struct ScheduleFixture {
  cdag::Cdag cdag{bilinear::strassen(), 1, {.with_coefficients = false}};
  std::vector<VertexId> order = schedule::dfs_schedule(cdag);

  AuditReport audit(const std::string& rule) {
    return audit::audit_schedule(cdag.graph(), order,
                                 RuleSelection::only({rule}));
  }
};

TEST(AuditMutation, ScheduleVertexRangeCatchesBogusId) {
  ScheduleFixture f;
  const VertexId bogus = f.cdag.graph().num_vertices() + 5;
  f.order[0] = bogus;
  const auto& diag = first_finding(f.audit("schedule.vertex-range"),
                                   "schedule.vertex-range");
  EXPECT_EQ(diag.vertex, bogus);
}

TEST(AuditMutation, ScheduleNoInputsCatchesScheduledInput) {
  ScheduleFixture f;
  const VertexId input = f.cdag.layout().input(bilinear::Side::A, 0);
  f.order.insert(f.order.begin(), input);
  const auto& diag = first_finding(f.audit("schedule.no-inputs"),
                                   "schedule.no-inputs");
  EXPECT_EQ(diag.vertex, input);
}

TEST(AuditMutation, ScheduleNoDuplicatesCatchesRepeat) {
  ScheduleFixture f;
  f.order.push_back(f.order.front());
  const auto& diag = first_finding(f.audit("schedule.no-duplicates"),
                                   "schedule.no-duplicates");
  EXPECT_EQ(diag.vertex, f.order.front());
}

TEST(AuditMutation, ScheduleTopologicalCatchesEarlyOutput) {
  ScheduleFixture f;
  std::swap(f.order.front(), f.order.back());
  const auto& diag = first_finding(f.audit("schedule.topological"),
                                   "schedule.topological");
  EXPECT_EQ(diag.vertex, f.order.front());
}

TEST(AuditMutation, ScheduleCoverageCatchesMissingVertex) {
  ScheduleFixture f;
  const VertexId dropped = f.order.back();
  f.order.pop_back();
  const auto& diag = first_finding(f.audit("schedule.coverage"),
                                   "schedule.coverage");
  EXPECT_EQ(diag.vertex, dropped);
}

}  // namespace audit_mutation_tests
