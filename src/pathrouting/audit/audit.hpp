// The paper-invariant linter: exhaustive structural rule suites over
// constructed CDAGs, routings, Hall matchings, disjoint families,
// segment certificates, and schedules, reporting machine-readable
// Diagnostics (audit/diagnostic.hpp) instead of aborting.
//
// Suites shard deterministically over the parallel substrate
// (support/parallel.hpp): rules or vertex ranges run as fixed chunks
// and findings fold in chunk and registry order, so the output is
// bit-identical at any PR_THREADS.
// Congestion counts use the shared relaxed-atomic hit arrays the
// routing verifiers use (support::parallel::HitCounter).
//
// Rule suites take *views* rather than the owning objects, so tests can
// assemble deliberately corrupted structures and assert that the right
// rule fires on the right vertex: the cdag.* suite reads a
// cdag::CdagView (a test substitutes a fake over mutated tables), the
// other suites read plain spans.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pathrouting/audit/diagnostic.hpp"
#include "pathrouting/audit/registry.hpp"
#include "pathrouting/bounds/disjoint_family.hpp"
#include "pathrouting/bounds/segment_certifier.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/cdag/subcomputation.hpp"
#include "pathrouting/cdag/view.hpp"
#include "pathrouting/routing/chain_routing.hpp"
#include "pathrouting/routing/concat_routing.hpp"
#include "pathrouting/routing/decode_routing.hpp"
#include "pathrouting/routing/memo_routing.hpp"
#include "pathrouting/routing/path_store.hpp"

namespace pathrouting::audit {

using cdag::VertexId;

/// A family of routed paths in CSR form: path i is
/// vertices[offsets[i] .. offsets[i+1]). Optional per-path declared
/// terminals and family-wide expectations switch individual rules on.
struct PathFamily {
  std::span<const std::uint64_t> offsets;  // |paths| + 1 entries
  std::span<const VertexId> vertices;
  std::span<const VertexId> sources;  // declared path starts (or empty)
  std::span<const VertexId> sinks;    // declared path ends (or empty)
  std::uint64_t congestion_bound = 0;  // 0 = skip routing.congestion
  std::uint64_t expected_length = 0;   // 0 = skip routing.path-length
  std::uint64_t expected_paths = 0;    // 0 = skip routing.chain-count
  bool vertex_disjoint = false;        // enables routing.path-disjoint
  /// Decoding zig-zags traverse decoding edges in both directions
  /// (Claim 1 routes in the undirected D_k); chains do not.
  bool undirected = false;
};

/// Structural audit of the CDAG (cdag.* rules), one per-vertex scan over
/// any view. The scan is exhaustive when the view has explicit edges or
/// at most 2^20 vertices; above that it checks a deterministic stride
/// sample, and notes record the sample size and the skipped meta-root
/// membership recount. A view that wraps a Cdag also gets global
/// in-edge indices on findings and the copy-edge coefficient check.
AuditReport audit_cdag(const cdag::CdagView& view,
                       const RuleSelection& selection = RuleSelection::all());

/// cdag.view-consistency: exhaustive per-vertex comparison of a view
/// against an explicit reference Cdag of the same (algorithm, r) —
/// degrees, neighbor lists (order-sensitive), copy parents, meta
/// tables, and the edge count must be bit-identical.
AuditReport audit_view_consistency(
    const cdag::CdagView& view, const cdag::Cdag& reference,
    const RuleSelection& selection = RuleSelection::all());

/// The PathFamily view of an arena-backed store: the CSR shapes
/// coincide, so no copying. Expectations (bounds, lengths, counts) stay
/// zeroed; set them on the returned view before auditing.
PathFamily family_view(const routing::PathStore& store);

/// Generic path-family audit (routing.* rules except chain-count).
AuditReport audit_path_family(
    const cdag::Graph& graph, const PathFamily& family,
    const RuleSelection& selection = RuleSelection::all());

/// Fact 1: audits a copy-renaming block table against the canonical
/// G_k tiling (fact1.copy-blocks) and the subcomputation address
/// formulas / injectivity into G_r (fact1.copy-bijection). Findings
/// attach the offending block index in `vertex`. Requires
/// 1 <= k <= r and prefix < b^(r-k).
AuditReport audit_copy_translation(
    const cdag::Layout& global, int k, std::uint64_t prefix,
    std::span<const cdag::CopyBlock> blocks,
    const RuleSelection& selection = RuleSelection::all());

/// Certificate reconciliation of the canonical chain-hit array `hits`
/// (local ids of G_k) of the copy `sub` (routing.memo-totals): the
/// array total must equal the closed form num_chains * (2k+2), the
/// array's max and smallest-id argmax (renamed to global ids through
/// cdag::CopyTranslation) must equal `stats`, the engine's closed-form
/// Lemma-3 stats of the copy, and stats.num_paths must be 2*a^k*n0^k.
/// The array is also checked against the 2*n0^k congestion bound
/// (routing.congestion), with global finding ids.
AuditReport audit_memo_chain_counts(
    const routing::MemoRoutingEngine& engine, const cdag::SubComputation& sub,
    std::span<const std::uint64_t> hits, const routing::HitStats& stats,
    const RuleSelection& selection = RuleSelection::all());

/// One-stop memoized-routing audit of `sub`: the Fact-1 copy renaming
/// (fact1.*), the canonical chain array at k = sub.k() against the
/// closed-form stats, and, when the engine has a decoder, the same
/// reconciliation of the canonical decode array against the Claim-1
/// totals, stats and |D_1|*max(a,b)^k congestion bound.
AuditReport audit_memo_routing(
    const routing::MemoRoutingEngine& engine, const cdag::SubComputation& sub,
    const RuleSelection& selection = RuleSelection::all());

/// The brute-force oracle's certificates of a copy `sub` and, for a
/// Claim-1 base, of a decode copy `dsub`, as run_all derives them from
/// routing::count_chain_hits and routing::verify_decode_routing.
struct OracleRouting {
  routing::HitStats chain;         // routing::chain_stats_from_counts
  bool multiplicities = false;     // routing::verify_chain_multiplicities
  routing::FullRoutingStats full;  // routing::full_routing_from_chain_counts
  const cdag::SubComputation* dsub = nullptr;  // null: no decode check
  routing::HitStats decode;  // routing::verify_decode_routing on *dsub
};

/// routing.implicit-match: the engine's closed-form verifiers, run on
/// `sub` (and oracle.dsub) addressed by (k, prefix) through a view,
/// must reproduce `oracle` field for field: chain stats, the Lemma-4
/// multiplicity verdict, the aggregated Theorem-2 stats and the Claim-1
/// decode stats.
AuditReport audit_implicit_routing(
    const routing::MemoRoutingEngine& engine, const cdag::SubComputation& sub,
    const OracleRouting& oracle,
    const RuleSelection& selection = RuleSelection::all());

/// Lemma 3: materializes every guaranteed-dependence chain of `sub` and
/// audits edges, endpoints, length 2k+2, the 2*a^k*n0^k chain count and,
/// from the same single pass, the per-vertex chain hits against the
/// 2*n0^k congestion bound.
AuditReport audit_chain_routing(
    const routing::ChainRouter& router, const cdag::SubComputation& sub,
    const RuleSelection& selection = RuleSelection::all());

/// Theorem 2: streams all 2*a^(2k) concatenated paths once, auditing
/// edges, endpoints, length 6k+4, and the 6*a^k congestion bound
/// (vertex and meta level).
AuditReport audit_concat_routing(
    const routing::ChainRouter& router, const cdag::SubComputation& sub,
    const RuleSelection& selection = RuleSelection::all());

/// Claim 1: streams all b^k*a^k decode zig-zag paths of sub's D_k once,
/// auditing (undirected) edges and endpoints and the per-vertex hits
/// against the |D_1|*max(a,b)^k congestion bound.
AuditReport audit_decode_routing(
    const routing::DecodeRouter& router, const cdag::SubComputation& sub,
    const RuleSelection& selection = RuleSelection::all());

/// Theorem 3: validates a Hall matching witness for `side`. Findings
/// attach the flat digit-pair index d_in*a + d_out (hall.domain,
/// hall.edge-validity) or the product index q (hall.capacity) in the
/// `vertex` field.
AuditReport audit_hall_matching(
    const bilinear::BilinearAlgorithm& alg, bilinear::Side side,
    const routing::BaseMatching& matching,
    const RuleSelection& selection = RuleSelection::all());

/// Lemma 1: pairwise input-disjointness and the b^(r-k-2) size bound of
/// a disjoint family. Findings attach the offending prefix in `vertex`.
AuditReport audit_disjoint_family(
    const cdag::Cdag& cdag, const bounds::DisjointFamily& family,
    const RuleSelection& selection = RuleSelection::all());

/// What a segment certificate claims to certify, for reconciliation
/// against the closed forms in bounds/formulas.cpp.
struct CertificateSpec {
  const cdag::Cdag* cdag = nullptr;
  const bounds::CertifyResult* result = nullptr;
  std::uint64_t schedule_size = 0;
  bool decode_only = false;  // Section 5 (true) vs Section 6 (false)
  /// Whether the certified schedule computed every non-input vertex
  /// (enables the segment-sum side of cert.counted-total).
  bool full_schedule = true;
};

/// Sections 5-6: audits a certifier result (cert.* rules). Findings
/// attach the segment index in `vertex`.
AuditReport audit_certificate(
    const CertificateSpec& spec,
    const RuleSelection& selection = RuleSelection::all());

/// Machine-model preconditions of a schedule (schedule.* rules):
/// schedule::schedule_diagnostics under rule selection and capping.
AuditReport audit_schedule(
    const cdag::Graph& graph, std::span<const VertexId> order,
    const RuleSelection& selection = RuleSelection::all());

/// What the certificate service is about to hand out: the payload
/// words plus the digests they are supposed to re-digest to. Spans
/// only — the audit layer does not link the service, so the service
/// can link the audit layer and run this on every response.
struct ServedCertificateView {
  std::span<const std::uint64_t> payload;
  /// Digest recorded in the certificate's own header at build/load.
  std::uint64_t recorded_digest = 0;
  /// Digest the store indexed under the content address (0 = the key
  /// is not in the store, e.g. a memory-only compute; the clause is
  /// skipped).
  std::uint64_t store_digest = 0;
};

/// service.cert-digest-match: re-digests the payload with the shared
/// FNV-1a definition (support/digest.hpp) and requires it to equal the
/// header digest and — when present — the store's indexed digest. A
/// certificate whose counts drifted from its content address must
/// never be served.
AuditReport audit_served_certificate(
    const ServedCertificateView& served,
    const RuleSelection& selection = RuleSelection::all());

/// A schedule-search optimality certificate: the witness schedule, the
/// claimed Belady cost, and the claimed root lower bound. Spans only —
/// the rule rebuilds everything it checks (it re-simulates the witness
/// and re-derives the bound independently), so a certificate can come
/// from a bench baseline, a golden record, or a live search run.
struct SearchCertificateView {
  const cdag::Graph* graph = nullptr;
  std::span<const VertexId> schedule;           // the witness
  std::span<const std::uint8_t> output_mask;    // size num_vertices
  std::uint64_t cache_size = 0;                 // M, in values
  std::uint64_t claimed_io = 0;                 // Belady reads + writes
  std::uint64_t claimed_lower_bound = 0;        // root bound of the search
  /// The certificate claims the witness is optimal because its cost
  /// met the root bound (search::Proof::kBoundMet). When false, only
  /// the consistency clauses run (re-simulation, bound re-derivation,
  /// cost >= bound).
  bool claims_bound_met_optimal = false;
  /// Theorem-1 term of the root bound: a^r multiplications of an
  /// (a;b) algorithm at recursion depth r. a = 0 disables the term
  /// (the structural bound alone is re-derived).
  std::uint64_t theorem1_a = 0;
  std::uint64_t theorem1_b = 0;
  int theorem1_r = 0;
};

/// search.certified-optimal: independently re-establishes everything a
/// certified-optimal claim rests on — the witness is a clean complete
/// topological schedule, its Belady re-simulation reproduces the
/// claimed I/O exactly, the root lower bound re-derives (partial-state
/// bound at the empty prefix max-combined with the Theorem-1 closed
/// form) to the claimed value, the cost dominates the bound, and a
/// bound-met optimality claim means cost == bound.
AuditReport audit_search_certificate(
    const SearchCertificateView& cert,
    const RuleSelection& selection = RuleSelection::all());

/// A simulated machine's per-superstep conservation log plus its
/// lifetime counters ([16] Section 1 accounting). Spans only — the
/// audit layer does not link pr_parallel, so the machine (and its
/// tests and benches) can hand over parallel::Machine::step_sent()
/// etc. directly.
struct MachineSuperstepView {
  /// Total words sent / received across all processors, and the
  /// charged max per-processor traffic, one entry per counted
  /// superstep (equal lengths).
  std::span<const std::uint64_t> step_sent;
  std::span<const std::uint64_t> step_received;
  std::span<const std::uint64_t> step_max_traffic;
  /// Lifetime counters the log must reproduce.
  std::uint64_t bandwidth_cost = 0;
  std::uint64_t total_words = 0;
  std::uint64_t supersteps = 0;
};

/// machine.superstep-conservation: every word sent in a superstep is
/// received in that superstep (point-to-point messages do not cross
/// superstep boundaries and are never dropped), the charged max
/// per-processor traffic is positive and bounded by the superstep's
/// words-in-flight, and the lifetime counters are exactly the sums of
/// the log. Findings attach the superstep index in `vertex`.
AuditReport audit_machine_supersteps(
    const MachineSuperstepView& machine,
    const RuleSelection& selection = RuleSelection::all());

/// The same rule's pair form: the class-aggregate and scalar paths (or
/// any two machines that replayed the same schedule) must agree on
/// every counter and every conservation-log entry.
AuditReport audit_machine_pair(
    const MachineSuperstepView& aggregate, const MachineSuperstepView& scalar,
    const RuleSelection& selection = RuleSelection::all());

/// One-stop audit used by pr_lint and the debug hooks: the CDAG
/// structural suite plus, where applicable, Hall matchings (both
/// sides), chain/concatenation routing at a small k, decode routing
/// (when the decoding graph is connected), a disjoint family, a DFS
/// schedule, and a segment certificate over it. Each routing audit
/// enumerates its paths once; the brute-force oracle hit counts
/// (routing::count_chain_hits / count_decode_hits) are computed only
/// when routing.implicit-match is selected.
struct RunAllOptions {
  RuleSelection selection = RuleSelection::all();
  /// Subcomputation order for the routing audits; -1 = min(r, 2).
  /// The routing suites stream 2*a^(2k) paths, so keep k small.
  int routing_k = -1;
  bool with_routing = true;
  bool with_certificate = true;
};
AuditReport run_all(const cdag::Cdag& cdag, const RunAllOptions& options = {});

/// Installs the PATHROUTING_DEBUG_CHECKS hooks: after every Cdag
/// construction the cdag.* suite runs and PR_ASSERTs a clean report.
/// Linking pr_audit in a debug-checks build installs them automatically
/// (static registrar in audit.cpp); call this to install them
/// explicitly in any build.
void install_debug_hooks();

}  // namespace pathrouting::audit
