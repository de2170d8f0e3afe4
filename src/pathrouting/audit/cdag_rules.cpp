// The cdag.* rule suite: structural invariants of the recursive CDAG
// G_r (Section 3, Lemma 2, Fact 1), each written once as a per-vertex
// check against cdag::CdagView. Explicit graphs, implicit graphs and
// test fakes over deliberately corrupted structures all run the same
// rule bodies through one deterministic scan.
#include <array>
#include <string>
#include <vector>

#include "pathrouting/audit/audit.hpp"
#include "pathrouting/audit/internal.hpp"
#include "pathrouting/cdag/view.hpp"
#include "pathrouting/support/parallel.hpp"

namespace pathrouting::audit {

namespace {

namespace parallel = support::parallel;
using cdag::kInvalidVertex;
using cdag::LayerKind;
using cdag::Layout;
using cdag::VertexRef;
using internal::error;
using internal::error_counts;
using internal::Findings;
using internal::flush;
using internal::note;

/// The suite in registry order, which is also the flush order.
enum Rule : std::size_t {
  kTopologicalIds,
  kRankStructure,
  kDegreeBounds,
  kCopyStructure,
  kMetaRoot,
  kMetaSubtree,
  kFact1Prefix,
  kNumRules,
};
constexpr std::array<std::string_view, kNumRules> kRuleIds = {
    "cdag.topological-ids", "cdag.rank-structure", "cdag.degree-bounds",
    "cdag.copy-structure",  "cdag.meta-root",      "cdag.meta-subtree",
    "cdag.fact1-prefix",
};

/// One Findings buffer per rule, filled in a single pass.
using RuleFindings = std::array<Findings, kNumRules>;

/// Vertex budget of the scan on views without explicit edges:
/// exhaustive below it, a deterministic stride sample above (an
/// implicit G_10 has ~2e9 vertices; a fixed sample keeps the audit
/// O(1) in r while still touching every rank).
constexpr std::uint64_t kViewSampleCap = 1 << 20;

/// Every cdag.* clause at one vertex. When the view wraps a Cdag,
/// findings carry global in-edge indices and copy edges must carry
/// coefficient 1 (if coefficients were built).
class VertexCheck {
 public:
  explicit VertexCheck(const cdag::CdagView& view)
      : view_(view),
        layout_(view.layout()),
        cdag_(view.explicit_cdag()),
        n_(view.num_vertices()),
        a_(static_cast<std::uint64_t>(layout_.a())),
        b_(static_cast<std::uint64_t>(layout_.b())),
        r_(layout_.r()),
        grouped_(view.capabilities().grouped_duplicates) {}

  void operator()(VertexId v, std::vector<VertexId>& in_scratch,
                  std::vector<VertexId>& out_scratch,
                  RuleFindings& out) const {
    const auto& pow_a = layout_.pow_a();
    const VertexRef ref = layout_.ref(v);
    const int level = layout_.level(v);
    const auto preds = view_.in(v, in_scratch);
    const std::uint64_t deg = preds.size();

    // Degree bounds, plus self-consistency of the (possibly
    // synthesized) neighbor lists against the degree queries.
    Findings& degree = out[kDegreeBounds];
    if (deg != view_.in_degree(v)) {
      degree.add(error_counts(
          kRuleIds[kDegreeBounds],
          "synthesized in-list length disagrees with in_degree",
          /*expected=*/view_.in_degree(v), /*actual=*/deg, v));
    }
    const std::uint64_t out_deg = view_.out(v, out_scratch).size();
    if (out_deg != view_.out_degree(v)) {
      degree.add(error_counts(
          kRuleIds[kDegreeBounds],
          "synthesized out-list length disagrees with out_degree",
          /*expected=*/view_.out_degree(v), /*actual=*/out_deg, v));
    }
    if (ref.layer != LayerKind::Dec) {
      if (ref.rank == 0) {
        if (deg != 0) {
          degree.add(error_counts(kRuleIds[kDegreeBounds],
                                  "input vertex has in-edges",
                                  /*expected=*/0, deg, v));
        }
      } else if (deg < 1 || deg > a_) {
        degree.add(error_counts(
            kRuleIds[kDegreeBounds],
            "encoding vertex in-degree outside 1..a (Section 3)",
            /*expected=*/a_, deg, v));
      }
    } else if (ref.rank == 0) {
      if (deg != 2) {
        degree.add(error_counts(
            kRuleIds[kDegreeBounds],
            "product vertex must have exactly two operands",
            /*expected=*/2, deg, v));
      }
    } else if (deg < 1 || deg > b_) {
      degree.add(error_counts(
          kRuleIds[kDegreeBounds],
          "decoding vertex in-degree outside 1..b (Section 3)",
          /*expected=*/b_, deg, v));
    }

    // Per in-edge: id order, consecutive levels, and the Fact-1 prefix
    // discipline. The shared recursion-path prefix of every edge is
    // what makes the middle 2(k+1) ranks fall apart into b^{r-k}
    // vertex-disjoint copies of G_k: an edge crossing prefixes would
    // weld two subcomputations together.
    Findings& fact1 = out[kFact1Prefix];
    for (std::size_t i = 0; i < preds.size(); ++i) {
      const VertexId p = preds[i];
      const std::uint64_t e = edge(v, i);
      if (p >= v) {
        out[kTopologicalIds].add(error_counts(
            kRuleIds[kTopologicalIds],
            "in-edge predecessor " + std::to_string(p) +
                " does not precede its successor in the id order",
            /*expected=*/v, /*actual=*/p, v, e));
      }
      if (p >= n_) continue;  // topological-ids
      const int pred_level = layout_.level(p);
      if (pred_level + 1 != level) {
        out[kRankStructure].add(error_counts(
            kRuleIds[kRankStructure],
            "edge from " + std::to_string(p) + " (level " +
                std::to_string(pred_level) +
                ") does not connect consecutive levels",
            /*expected=*/static_cast<std::uint64_t>(pred_level + 1),
            /*actual=*/static_cast<std::uint64_t>(level), v, e));
      }
      const VertexRef pred = layout_.ref(p);
      if (ref.layer != LayerKind::Dec) {
        if (pred.layer != ref.layer || pred.rank != ref.rank - 1) {
          fact1.add(error(kRuleIds[kFact1Prefix],
                          "encoding in-edge does not come from the previous "
                          "rank of the same side",
                          v, e));
        } else if (pred.q != ref.q / b_ ||
                   pred.p % pow_a(r_ - ref.rank) != ref.p) {
          fact1.add(error(kRuleIds[kFact1Prefix],
                          "encoding edge changes the recursion-path prefix "
                          "or block position (Fact 1)",
                          v, e));
        }
      } else if (ref.rank == 0) {
        if (pred.layer == LayerKind::Dec || pred.rank != r_) {
          fact1.add(error(kRuleIds[kFact1Prefix],
                          "product in-edge does not come from encoding rank r",
                          v, e));
        } else if (pred.q != ref.q) {
          fact1.add(error(kRuleIds[kFact1Prefix],
                          "multiplication edge joins different recursion "
                          "paths (Fact 1)",
                          v, e));
        }
      } else if (pred.layer != LayerKind::Dec || pred.rank != ref.rank - 1) {
        fact1.add(error(kRuleIds[kFact1Prefix],
                        "decoding in-edge does not come from the previous "
                        "decoding rank",
                        v, e));
      } else if (pred.q / b_ != ref.q ||
                 pred.p != ref.p % pow_a(ref.rank - 1)) {
        fact1.add(error(kRuleIds[kFact1Prefix],
                        "decoding edge changes the recursion-path prefix "
                        "or block position (Fact 1)",
                        v, e));
      }
    }
    // A product must multiply one operand from each side.
    if (ref.layer == LayerKind::Dec && ref.rank == 0 && deg == 2 &&
        preds[0] < n_ && preds[1] < n_) {
      const VertexRef p0 = layout_.ref(preds[0]);
      const VertexRef p1 = layout_.ref(preds[1]);
      if (p0.layer == p1.layer && p0.layer != LayerKind::Dec) {
        fact1.add(error(kRuleIds[kFact1Prefix],
                        "product multiplies two operands from the same side",
                        v));
      }
    }

    // Copy structure: a copy has exactly one in-edge, from its
    // (smaller) copy-parent, carrying coefficient 1.
    Findings& copy = out[kCopyStructure];
    const VertexId parent = view_.copy_parent(v);
    if (parent != kInvalidVertex) {
      if (parent >= n_) {
        copy.add(error(kRuleIds[kCopyStructure],
                       "recorded copy-parent is not a vertex", v));
      } else {
        if (parent >= v) {
          copy.add(error_counts(
              kRuleIds[kCopyStructure],
              "copy-parent id must be smaller than the copy's",
              /*expected=*/v, /*actual=*/parent, v));
        }
        if (deg != 1) {
          copy.add(error_counts(kRuleIds[kCopyStructure],
                                "copy vertex must have in-degree 1",
                                /*expected=*/1, deg, v));
        } else {
          if (preds[0] != parent) {
            copy.add(error_counts(
                kRuleIds[kCopyStructure],
                "copy vertex's unique in-edge is not from its copy-parent",
                /*expected=*/parent, /*actual=*/preds[0], v, edge(v, 0)));
          }
          if (cdag_ != nullptr && cdag_->has_coefficients() &&
              !cdag_->in_coeff(edge(v, 0)).is_one()) {
            copy.add(error(kRuleIds[kCopyStructure],
                           "copy edge coefficient is not 1 (a copy is "
                           "verbatim)",
                           v, edge(v, 0)));
          }
        }
      }
    }

    // Meta-vertex bookkeeping, per vertex (the membership recount of
    // cdag.meta-root runs after the scan).
    Findings& meta_root = out[kMetaRoot];
    const VertexId root = view_.meta_root(v);
    if (root >= n_) {
      meta_root.add(error(kRuleIds[kMetaRoot],
                          "recorded meta-root is not a vertex", v));
      return;
    }
    if (root > v) {
      meta_root.add(error_counts(kRuleIds[kMetaRoot],
                                 "meta-root id must not exceed the member's",
                                 /*expected=*/v, /*actual=*/root, v));
    }
    const VertexId root_of_root = view_.meta_root(root);
    if (root_of_root != root) {
      meta_root.add(error_counts(kRuleIds[kMetaRoot],
                                 "recorded meta-root is not itself a root",
                                 /*expected=*/root, /*actual=*/root_of_root,
                                 v));
    }
    if (!grouped_ && parent == kInvalidVertex && root != v) {
      meta_root.add(error_counts(
          kRuleIds[kMetaRoot],
          "non-copy vertex is not its own meta-root (same-value grouping "
          "is off)",
          /*expected=*/v, /*actual=*/root, v));
    }

    // Lemma 2: a meta-vertex is an upward subtree whose root is its
    // unique non-copy vertex, so a copy is never a root and inherits
    // its copy-parent's root.
    if (parent == kInvalidVertex) return;
    if (root == v) {
      out[kMetaSubtree].add(error(kRuleIds[kMetaSubtree],
                                  "meta-root is a copy vertex (Lemma 2 roots "
                                  "carry a non-copy definition)",
                                  v));
    }
    if (parent < n_ && view_.meta_root(parent) != root) {
      out[kMetaSubtree].add(error_counts(
          kRuleIds[kMetaSubtree],
          "copy vertex does not inherit its copy-parent's meta-root, so "
          "the meta-vertex is not an upward subtree (Lemma 2)",
          /*expected=*/view_.meta_root(parent), /*actual=*/root, v));
    }
  }

 private:
  /// Global index of v's i-th in-edge, when the view has one.
  [[nodiscard]] std::uint64_t edge(VertexId v, std::size_t i) const {
    return cdag_ == nullptr ? kNoId : cdag_->graph().in_edge_base(v) + i;
  }

  const cdag::CdagView& view_;
  const Layout& layout_;
  const cdag::Cdag* cdag_;
  std::uint64_t n_;
  std::uint64_t a_;
  std::uint64_t b_;
  int r_;
  bool grouped_;
};

/// cdag.meta-root's size-table reconciliation: recount membership per
/// root. Serial O(n) — the scatter is cheap next to the scan.
void recount_meta_sizes(const cdag::CdagView& view, Findings& out) {
  const std::uint64_t n = view.num_vertices();
  std::vector<std::uint32_t> count(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId root = view.meta_root(v);
    if (root < n) ++count[root];
  }
  for (VertexId v = 0; v < n; ++v) {
    if (view.meta_root(v) != v) continue;
    if (view.meta_size(v) != count[v]) {
      out.add(error_counts(kRuleIds[kMetaRoot],
                           "recorded meta-vertex size does not match its "
                           "membership count",
                           /*expected=*/count[v],
                           /*actual=*/view.meta_size(v), v));
    }
  }
}

}  // namespace

AuditReport audit_cdag(const cdag::CdagView& view,
                       const RuleSelection& selection) {
  AuditReport report;
  bool any_enabled = false;
  for (const std::string_view id : kRuleIds) {
    any_enabled = any_enabled || selection.enabled(id);
  }
  if (!any_enabled) return report;

  const std::uint64_t n = view.num_vertices();
  const bool exhaustive =
      view.capabilities().explicit_edges || n <= kViewSampleCap;
  const std::uint64_t stride =
      exhaustive ? 1 : (n + kViewSampleCap - 1) / kViewSampleCap;
  const std::uint64_t samples = (n + stride - 1) / stride;

  // Fixed chunks folded in chunk order: the capped findings that
  // survive are the lowest-id ones at any PR_THREADS.
  const VertexCheck check(view);
  RuleFindings findings = parallel::parallel_reduce<RuleFindings>(
      0, samples, internal::kScanGrain, RuleFindings{},
      [&](std::uint64_t lo, std::uint64_t hi) {
        RuleFindings chunk;
        std::vector<VertexId> in_scratch;
        std::vector<VertexId> out_scratch;
        for (std::uint64_t i = lo; i < hi; ++i) {
          check(static_cast<VertexId>(i * stride), in_scratch, out_scratch,
                chunk);
        }
        return chunk;
      },
      [](RuleFindings& acc, RuleFindings& chunk) {
        for (std::size_t rule = 0; rule < kNumRules; ++rule) {
          acc[rule].merge(chunk[rule]);
        }
      });
  if (exhaustive && selection.enabled(kRuleIds[kMetaRoot])) {
    recount_meta_sizes(view, findings[kMetaRoot]);
  }
  for (std::size_t rule = 0; rule < kNumRules; ++rule) {
    flush(report, selection, kRuleIds[rule], std::move(findings[rule]));
  }
  if (exhaustive) return report;

  if (selection.enabled(kRuleIds[kMetaRoot])) {
    report.add(note(kRuleIds[kMetaRoot],
                    "membership recount skipped: the view lacks the "
                    "explicit_edges capability (the recount needs O(n) "
                    "meta arrays)"));
  }
  if (selection.enabled(kRuleIds[kTopologicalIds])) {
    report.add(note(kRuleIds[kTopologicalIds],
                    "implicit view: per-vertex rules evaluated on a "
                    "deterministic stride sample of " +
                        std::to_string(samples) + " of " + std::to_string(n) +
                        " vertices"));
  }
  return report;
}

}  // namespace pathrouting::audit
