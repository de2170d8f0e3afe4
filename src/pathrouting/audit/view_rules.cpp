// Reconciliations of a cdag::CdagView against the explicit structures:
// the exhaustive implicit-vs-explicit consistency rule
// (cdag.view-consistency) and the implicit routing engine check
// (routing.implicit-match).
#include <string>
#include <vector>

#include "pathrouting/audit/audit.hpp"
#include "pathrouting/audit/internal.hpp"
#include "pathrouting/cdag/view.hpp"
#include "pathrouting/support/parallel.hpp"

namespace pathrouting::audit {

namespace {

namespace parallel = support::parallel;
using internal::error;
using internal::error_counts;
using internal::Findings;
using internal::flush;
using internal::kScanGrain;

constexpr std::string_view kViewConsistency = "cdag.view-consistency";
constexpr std::string_view kImplicitMatch = "routing.implicit-match";

void compare_count(Findings& out, const std::string& what,
                   std::uint64_t expected, std::uint64_t actual) {
  if (expected == actual) return;
  out.add(error_counts(
      kImplicitMatch,
      what + ": implicit engine disagrees with the array-backed result",
      expected, actual));
}

}  // namespace

AuditReport audit_view_consistency(const cdag::CdagView& view,
                                   const cdag::Cdag& reference,
                                   const RuleSelection& selection) {
  AuditReport report;
  Findings preamble;
  const cdag::Graph& graph = reference.graph();
  const std::uint64_t n = graph.num_vertices();
  bool comparable = true;
  if (view.num_vertices() != n) {
    preamble.add(error_counts(kViewConsistency,
                              "view and reference disagree on the vertex "
                              "count; skipping the per-vertex comparison",
                              /*expected=*/n, /*actual=*/view.num_vertices()));
    comparable = false;
  }
  if (view.layout().a() != reference.layout().a() ||
      view.layout().b() != reference.layout().b() ||
      view.layout().r() != reference.layout().r()) {
    preamble.add(error(kViewConsistency,
                       "view and reference disagree on the layout "
                       "parameters (a, b, r); skipping the per-vertex "
                       "comparison"));
    comparable = false;
  }
  if (!comparable) {
    flush(report, selection, kViewConsistency, std::move(preamble));
    return report;
  }
  if (view.num_edges() != graph.num_edges()) {
    preamble.add(error_counts(kViewConsistency,
                              "view and reference disagree on the edge count",
                              /*expected=*/graph.num_edges(),
                              /*actual=*/view.num_edges()));
  }
  Findings scan = parallel::parallel_reduce<Findings>(
      0, n, kScanGrain, Findings{},
      [&](std::uint64_t lo, std::uint64_t hi) {
        Findings chunk;
        std::vector<VertexId> in_scratch;
        std::vector<VertexId> out_scratch;
        for (std::uint64_t i = lo; i < hi; ++i) {
          const auto v = static_cast<VertexId>(i);
          const std::uint32_t din = graph.in_degree(v);
          if (view.in_degree(v) != din) {
            chunk.add(error_counts(kViewConsistency,
                                   "in_degree differs from the explicit CSR",
                                   /*expected=*/din,
                                   /*actual=*/view.in_degree(v), v));
          } else {
            const auto want = graph.in(v);
            const auto got = view.in(v, in_scratch);
            for (std::size_t j = 0; j < want.size(); ++j) {
              if (got[j] != want[j]) {
                chunk.add(error_counts(
                    kViewConsistency,
                    "in-list entry differs from the explicit CSR",
                    /*expected=*/want[j], /*actual=*/got[j], v,
                    graph.in_edge_base(v) + j));
                break;
              }
            }
          }
          const std::uint32_t dout = graph.out_degree(v);
          if (view.out_degree(v) != dout) {
            chunk.add(error_counts(kViewConsistency,
                                   "out_degree differs from the explicit CSR",
                                   /*expected=*/dout,
                                   /*actual=*/view.out_degree(v), v));
          } else {
            const auto want = graph.out(v);
            const auto got = view.out(v, out_scratch);
            for (std::size_t j = 0; j < want.size(); ++j) {
              if (got[j] != want[j]) {
                chunk.add(error_counts(
                    kViewConsistency,
                    "out-list entry differs from the explicit CSR",
                    /*expected=*/want[j], /*actual=*/got[j], v));
                break;
              }
            }
          }
          if (view.copy_parent(v) != reference.copy_parent(v)) {
            chunk.add(error_counts(
                kViewConsistency, "copy-parent differs from the reference",
                /*expected=*/reference.copy_parent(v),
                /*actual=*/view.copy_parent(v), v));
          }
          if (view.meta_root(v) != reference.meta_root(v)) {
            chunk.add(error_counts(
                kViewConsistency, "meta-root differs from the reference",
                /*expected=*/reference.meta_root(v),
                /*actual=*/view.meta_root(v), v));
          }
          if (view.meta_size(v) != reference.meta_size(v)) {
            chunk.add(error_counts(
                kViewConsistency, "meta-size differs from the reference",
                /*expected=*/reference.meta_size(v),
                /*actual=*/view.meta_size(v), v));
          }
        }
        return chunk;
      },
      [](Findings& acc, Findings& chunk) { acc.merge(chunk); });
  preamble.merge(scan);
  flush(report, selection, kViewConsistency, std::move(preamble));
  return report;
}

AuditReport audit_implicit_routing(const routing::MemoRoutingEngine& engine,
                                   const cdag::SubComputation& sub,
                                   const RuleSelection& selection) {
  Findings findings;
  const cdag::ExplicitView view(sub.cdag());
  const int k = sub.k();
  const std::uint64_t prefix = sub.prefix();

  {
    const routing::HitStats want = engine.verify_chain_routing(sub);
    const routing::HitStats got = engine.verify_chain_routing(view, k, prefix);
    compare_count(findings, "chain num_paths", want.num_paths, got.num_paths);
    compare_count(findings, "chain max_hits", want.max_hits, got.max_hits);
    compare_count(findings, "chain bound", want.bound, got.bound);
    compare_count(findings, "chain argmax", want.argmax, got.argmax);
  }
  {
    const bool want = engine.verify_chain_multiplicities(sub);
    const bool got = engine.verify_chain_multiplicities(view, k, prefix);
    compare_count(findings, "Lemma-4 multiplicity verdict", want ? 1 : 0,
                  got ? 1 : 0);
  }
  {
    const routing::FullRoutingStats want = engine.verify_full_routing(sub);
    const routing::FullRoutingStats got =
        engine.verify_full_routing(view, k, prefix);
    compare_count(findings, "Theorem-2 num_paths", want.num_paths,
                  got.num_paths);
    compare_count(findings, "Theorem-2 max_vertex_hits", want.max_vertex_hits,
                  got.max_vertex_hits);
    compare_count(findings, "Theorem-2 argmax_vertex", want.argmax_vertex,
                  got.argmax_vertex);
    compare_count(findings, "Theorem-2 max_meta_hits", want.max_meta_hits,
                  got.max_meta_hits);
    compare_count(findings, "Theorem-2 bound", want.bound, got.bound);
    compare_count(findings, "Theorem-2 root_hit_property",
                  want.root_hit_property ? 1 : 0,
                  got.root_hit_property ? 1 : 0);
  }
  if (engine.has_decoder()) {
    const routing::HitStats want = engine.verify_decode_routing(sub);
    const routing::HitStats got =
        engine.verify_decode_routing(view, k, prefix);
    compare_count(findings, "decode num_paths", want.num_paths, got.num_paths);
    compare_count(findings, "decode max_hits", want.max_hits, got.max_hits);
    compare_count(findings, "decode bound", want.bound, got.bound);
    compare_count(findings, "decode argmax", want.argmax, got.argmax);
  }

  AuditReport report;
  flush(report, selection, kImplicitMatch, std::move(findings));
  return report;
}

}  // namespace pathrouting::audit
