// run_all: the one-stop audit used by pr_lint and the debug hooks, and
// the PATHROUTING_DEBUG_CHECKS hook installation.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "pathrouting/audit/audit.hpp"
#include "pathrouting/audit/internal.hpp"
#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/cdag/implicit.hpp"
#include "pathrouting/routing/chain_routing.hpp"
#include "pathrouting/routing/concat_routing.hpp"
#include "pathrouting/routing/decode_routing.hpp"
#include "pathrouting/routing/hall.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/support/debug_hooks.hpp"

namespace pathrouting::audit {

AuditReport run_all(const cdag::Cdag& cdag, const RunAllOptions& options) {
  const bilinear::BilinearAlgorithm& alg = cdag.algorithm();
  const cdag::Layout& layout = cdag.layout();
  const int r = layout.r();
  const RuleSelection& selection = options.selection;

  AuditReport report = audit_cdag(cdag::ExplicitView(cdag), selection);

  if (!cdag.grouped_duplicates() && r >= 1) {
    // The implicit view models the ungrouped Section-3 builder output;
    // reconcile it against this very graph (cdag.view-consistency).
    const cdag::ImplicitCdag implicit(alg, r);
    report.merge(audit_view_consistency(implicit, cdag, selection));
  }

  if (options.with_routing) {
    const std::optional<routing::BaseMatching> mu_a =
        routing::compute_base_matching(alg, bilinear::Side::A);
    const std::optional<routing::BaseMatching> mu_b =
        routing::compute_base_matching(alg, bilinear::Side::B);
    if (!mu_a || !mu_b) {
      // The ChainRouter would abort here; report it as the Hall failure
      // it is and skip the routing suites.
      internal::Findings findings;
      findings.add(internal::error(
          "hall.domain",
          std::string("no Theorem-3 base matching exists for side ") +
              (!mu_a ? "A" : "B") +
              " (Lemma 5's Hall condition fails); routing audits skipped"));
      internal::flush(report, selection, "hall.domain", std::move(findings));
    } else {
      report.merge(audit_hall_matching(alg, bilinear::Side::A, *mu_a,
                                       selection));
      report.merge(audit_hall_matching(alg, bilinear::Side::B, *mu_b,
                                       selection));
      int k = options.routing_k >= 0 ? std::min(options.routing_k, r)
                                     : std::min(r, 2);
      if (options.routing_k < 0) {
        // The concatenation audit streams 2*a^(2k) paths; keep the
        // automatic k below ~4M of them (wide bases shrink to k=1).
        while (k > 1 && 2 * layout.pow_a()(k) * layout.pow_a()(k) > 4000000) {
          --k;
        }
      }
      const routing::ChainRouter router(alg);
      const cdag::SubComputation sub(cdag, k, 0);
      // The oracle's per-vertex hit counts, computed once for the
      // congestion rules and routing.implicit-match.
      const bool count_hits = selection.enabled(internal::kCongestion) ||
                              selection.enabled(internal::kImplicitMatch);
      routing::ChainHitCounts chains;
      if (count_hits) chains = routing::count_chain_hits(router, sub);
      report.merge(audit_chain_routing(router, sub, chains.hits, selection));
      report.merge(audit_concat_routing(router, sub, selection));
      std::optional<routing::DecodeRouter> decoder;
      std::optional<cdag::SubComputation> dsub;
      std::vector<std::uint64_t> decode_hits;
      if (bilinear::decoding_components(alg) == 1) {
        // The decode audit streams a^k*b^k zig-zags; same budget.
        int kd = k;
        while (kd > 1 &&
               layout.pow_a()(kd) * layout.pow_b()(kd) > 4000000) {
          --kd;
        }
        decoder.emplace(alg);
        dsub.emplace(cdag, kd, 0);
        if (count_hits) {
          decode_hits = routing::count_decode_hits(*decoder, *dsub);
        }
        report.merge(
            audit_decode_routing(*decoder, *dsub, decode_hits, selection));
      }
      if (k >= 1) {
        // The closed-form engine re-derives the same certificates:
        // reconcile its canonical arrays (and the Fact-1 renaming)
        // with its totals and stats, and its stats with the oracle.
        std::optional<routing::MemoRoutingEngine> engine;
        if (decoder) {
          engine.emplace(router, *decoder);
        } else {
          engine.emplace(router);
        }
        report.merge(audit_memo_routing(*engine, sub, selection));
        if (selection.enabled(internal::kImplicitMatch)) {
          OracleRouting oracle{
              .chain = routing::chain_stats_from_counts(chains, sub),
              .multiplicities =
                  routing::verify_chain_multiplicities(router, sub),
              .full = routing::full_routing_from_chain_counts(sub, chains)};
          if (dsub) {
            oracle.dsub = &*dsub;
            oracle.decode =
                routing::decode_stats_from_hits(*decoder, *dsub, decode_hits);
          }
          report.merge(audit_implicit_routing(*engine, sub, oracle, selection));
        }
      }
      if (r >= 2 && bilinear::lemma1_precondition(alg)) {
        const int kf = std::min(r - 2, 1);
        const bounds::DisjointFamily family =
            bounds::build_disjoint_family(cdag, kf);
        report.merge(audit_disjoint_family(cdag, family, selection));
      }
    }
  }

  const std::vector<VertexId> order = schedule::dfs_schedule(cdag);
  report.merge(audit_schedule(cdag.graph(), order, selection));

  if (options.with_certificate && r >= 1) {
    // Paper-sized targets (36M / 66M) need astronomically large ranks;
    // audits use the smallest honest parameters instead: k = 1 with the
    // half-rank condition a >= 2 * s_bar_target tight-ish.
    const auto target = static_cast<std::uint64_t>(layout.a() / 2);
    bounds::CertifyParams params;
    params.cache_size = 1;
    params.k = 1;
    params.s_bar_target = target;
    {
      const bounds::CertifyResult s5 =
          bounds::certify_segments_decode_only(cdag, order, params);
      CertificateSpec spec;
      spec.cdag = &cdag;
      spec.result = &s5;
      spec.schedule_size = order.size();
      spec.decode_only = true;
      report.merge(audit_certificate(spec, selection));
    }
    if (r >= 3 && bilinear::lemma1_precondition(alg)) {
      const bounds::CertifyResult s6 =
          bounds::certify_segments(cdag, order, params);
      CertificateSpec spec;
      spec.cdag = &cdag;
      spec.result = &s6;
      spec.schedule_size = order.size();
      spec.decode_only = false;
      report.merge(audit_certificate(spec, selection));
    }
  }
  return report;
}

namespace {

void cdag_built_hook(const void* object) {
  const auto* built = static_cast<const cdag::Cdag*>(object);
  const AuditReport report = audit_cdag(cdag::ExplicitView(*built));
  if (!report.ok()) {
    std::fputs(report.to_text().c_str(), stderr);
  }
  PR_ASSERT_MSG(report.ok(),
                "PATHROUTING_DEBUG_CHECKS: CDAG structural audit failed");
}

}  // namespace

void install_debug_hooks() {
  support::set_debug_hook(support::DebugHookPoint::kCdagBuilt,
                          &cdag_built_hook);
}

#ifdef PATHROUTING_DEBUG_CHECKS
namespace {
[[maybe_unused]] const bool kHooksInstalled = [] {
  install_debug_hooks();
  return true;
}();
}  // namespace
#endif

}  // namespace pathrouting::audit
