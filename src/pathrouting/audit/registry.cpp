#include "pathrouting/audit/registry.hpp"

#include <algorithm>

#include "pathrouting/support/check.hpp"

namespace pathrouting::audit {

namespace {

// Order matters: suites evaluate rules in registry order, and reports
// are folded in that order, so this table is part of the deterministic
// output contract.
constexpr RuleInfo kRules[] = {
    // Structural rules over the recursive CDAG G_r.
    {"cdag.topological-ids",
     "every in-edge predecessor has a smaller vertex id (the builder "
     "emits ranks in topological order)",
     "Section 3 (layout)"},
    {"cdag.rank-structure",
     "every edge connects consecutive global levels (ranked layering of "
     "encoding, multiplication, decoding)",
     "Section 3"},
    {"cdag.degree-bounds",
     "per-rank in-degree bounds: inputs 0, encoding ranks 1..a, products "
     "exactly 2, decoding ranks 1..b",
     "Section 3"},
    {"cdag.copy-structure",
     "copy vertices have in-degree 1 from their recorded parent, with a "
     "smaller id and a unit coefficient",
     "Section 3, Figure 2"},
    {"cdag.meta-root",
     "meta-root bookkeeping: non-copies root themselves (or defer to an "
     "earlier same-value class under grouping), copies inherit the "
     "parent's root, and recorded sizes match membership",
     "Section 3, Lemma 2"},
    {"cdag.meta-subtree",
     "without duplicate-row grouping every meta-vertex is an upward "
     "subtree: each member's copy-parent chain reaches the root",
     "Lemma 2"},
    {"cdag.fact1-prefix",
     "every edge preserves the recursion-path prefix, so the middle "
     "2(k+1) ranks decompose into b^(r-k) vertex-disjoint G_k copies",
     "Fact 1"},
    {"cdag.view-consistency",
     "an implicit CdagView synthesizes degrees, neighbor lists, copy "
     "parents, meta tables, and the edge count bit-identical to the "
     "explicit CSR reference",
     "Section 3, Fact 1 (implicit representation)"},

    // Rules over routed path families.
    {"routing.path-edges",
     "consecutive vertices of every routed path are edges of the CDAG "
     "(decoding zig-zags may traverse edges against orientation)",
     "Lemma 3, Claim 1"},
    {"routing.path-endpoints",
     "every routed path starts and ends at its declared terminals",
     "Lemma 3, Lemma 4"},
    {"routing.path-length",
     "chains consist of exactly 2k+2 vertices",
     "Lemma 3"},
    {"routing.congestion",
     "no vertex is hit more often than the declared congestion bound "
     "(2*n0^k chains, 6*a^k concatenation, |D_1|*max(a,b)^k decode)",
     "Lemma 3, Theorem 2, Claim 1"},
    {"routing.path-disjoint",
     "a family declared vertex-disjoint shares no vertex between paths",
     "Fact 1, Lemma 1"},
    {"routing.chain-count",
     "the chain routing covers all 2*a^k*n0^k guaranteed dependencies",
     "Section 7, Lemma 3"},
    {"routing.memo-totals",
     "canonical hit arrays reconcile with the closed-form certificates: "
     "2*a^k*n0^k chains of 2k+2 vertices each, D_1 visit totals for the "
     "decode zig-zags, and the closed-form max/argmax matching the array",
     "Lemmas 3-4, Claim 1 (certificate totals)"},
    {"routing.implicit-match",
     "the closed-form verifiers reproduce the brute-force oracle's "
     "certificates field for field: chain, Lemma-4 multiplicity, "
     "Theorem-2, and decode stats including max/argmax",
     "Lemmas 3-4, Theorem 2, Claim 1"},

    // Fact-1 copy renamings (the memoized engine's translation maps).
    {"fact1.copy-blocks",
     "a copy renaming tiles the canonical G_k: one contiguous block per "
     "rank, 3(k+1) in total, jointly covering every local id exactly once",
     "Fact 1"},
    {"fact1.copy-bijection",
     "copy blocks embed injectively into G_r: global runs stay in range, "
     "strictly increase, and match the subcomputation address formulas",
     "Fact 1"},

    // Hall matching witnesses (Theorem 3).
    {"hall.domain",
     "the base matching is defined exactly on the guaranteed digit pairs",
     "Section 7.2, Theorem 3"},
    {"hall.edge-validity",
     "every matched product is adjacent in H: U[q,d_in] != 0 and "
     "W[d_out,q] != 0",
     "Section 7.2, Theorem 3"},
    {"hall.capacity",
     "every product is matched at most n0 times",
     "Theorem 3, Lemma 5"},

    // Input-disjoint subcomputation families (Lemma 1).
    {"family.input-disjoint",
     "family members pairwise share no input meta-vertex",
     "Lemma 1"},
    {"family.size",
     "the family keeps at least b^(r-k-2) subcomputations",
     "Lemma 1"},

    // Segment certificates (Sections 5 and 6).
    {"cert.segment-order",
     "segment end steps are strictly increasing and stay within the "
     "schedule",
     "Sections 5-6 (segment walk)"},
    {"cert.segment-quota",
     "every complete segment holds exactly s_bar_target counted "
     "vertices; only the final segment may fall short",
     "Sections 5-6"},
    {"cert.counted-total",
     "the counted-vertex total reconciles with the closed form: "
     "3*a^k*|C| (Section 6) or a^k*b^(r-k) (Section 5), and the "
     "segments account for at least that many",
     "Lemma 1, Sections 5-6"},
    {"cert.arithmetic",
     "certifier parameters reconcile with formulas.cpp: a^k >= "
     "2*s_bar_target, k within range, family_guaranteed = b^(r-k-2) "
     "and family_size >= family_guaranteed",
     "Lemma 1, Theorem 1"},
    {"cert.boundary-eq",
     "every complete segment satisfies the boundary inequality: "
     "|delta'(S')| >= |S_bar|/12 (Eq. 2) or |delta(S)| >= |S_bar|/22 "
     "(Eq. 1)",
     "Equations (1) and (2)"},

    // Schedule validity (pebble-game preconditions).
    {"schedule.vertex-range",
     "every scheduled id names a vertex of the graph",
     "machine model (Section 2)"},
    {"schedule.no-inputs",
     "input vertices are never scheduled (they start in slow memory)",
     "machine model (Section 2)"},
    {"schedule.no-duplicates",
     "no vertex is scheduled twice (no recomputation in the model)",
     "machine model (Section 2)"},
    {"schedule.topological",
     "operands are computed before use",
     "machine model (Section 2)"},
    {"schedule.coverage",
     "the schedule computes every non-input vertex",
     "machine model (Section 2)"},

    // Serving layer (certificate store integrity).
    {"service.cert-digest-match",
     "a served certificate's payload words re-digest (FNV-1a) to the "
     "digest recorded in its header and to the digest the store indexed "
     "under its content address",
     "Lemmas 3-4, Theorem 2, Claim 1 (served certificate integrity)"},

    // Static analysis (pr_static determinism-hazard linter): source
    // constructs that can break the bit-identity contract the dynamic
    // checks (TSan, golden corpus, bench gate) rely on.
    {"static.unordered-iteration",
     "no iteration over unordered_map/unordered_set feeds results — "
     "visit order is implementation-defined",
     "determinism contract (bit-identical counts at any PR_THREADS)"},
    {"static.float-accumulation",
     "no floating-point compound accumulation in counted paths — FP "
     "reduction order changes the result",
     "wrap-exact u64 arithmetic of Lemmas 3-4, Theorem 2, Claim 1"},
    {"static.nondeterminism-source",
     "no ambient entropy (rand/time(nullptr)/random_device/system_clock) "
     "in result paths",
     "determinism contract (reproducible certificates)"},
    {"static.pointer-keyed-order",
     "no std::map/std::set keyed by raw pointers — address order varies "
     "per run",
     "determinism contract (byte-stable certificates)"},
    {"static.raw-thread",
     "no raw std::thread/std::async/pthread_create outside "
     "support/parallel — all work goes through the deterministic pool",
     "determinism contract (fixed chunks, ordered reductions)"},

    // Static analysis (pr_static overflow-envelope analyzer).
    {"analysis.k-envelope",
     "the statically derived first-wrap rank and low-word envelope of "
     "each certificate quantity match the engines' closed forms and the "
     "implicit verifier",
     "Lemma 3, Theorem 2, Claim 1 (prefix-product and decode formulas)"},

    // Simulated distributed machine (parallel::Machine superstep log).
    {"machine.superstep-conservation",
     "every superstep's words sent equal its words received, the charged "
     "max per-processor traffic lies in (0, words-in-flight], lifetime "
     "bandwidth/total-words counters are exactly the log sums, and the "
     "class-aggregate path agrees with the scalar oracle bit for bit",
     "machine model bandwidth accounting ([16], Section 1)"},

    // Schedule-space search (search::branch_and_bound certificates).
    {"search.certified-optimal",
     "a certified-optimal pebbling's witness is a clean complete "
     "topological schedule whose Belady re-simulation reproduces the "
     "claimed I/O exactly, the root lower bound re-derives (empty-prefix "
     "partial-state bound max-combined with the Theorem-1 closed form) "
     "to the claimed value, the cost dominates the bound, and a "
     "bound-met optimality claim means cost == bound",
     "Hong-Kung partition argument; Theorem 1 / Section 6 segment "
     "inequality"},
};

bool matches(std::string_view id_or_prefix, std::string_view rule_id) {
  if (id_or_prefix == rule_id) return true;
  // "cdag." selects the whole domain.
  return !id_or_prefix.empty() && id_or_prefix.back() == '.' &&
         rule_id.starts_with(id_or_prefix);
}

}  // namespace

std::span<const RuleInfo> all_rules() { return kRules; }

const RuleInfo* find_rule(std::string_view id) {
  const auto it = std::find_if(std::begin(kRules), std::end(kRules),
                               [&](const RuleInfo& r) { return r.id == id; });
  return it == std::end(kRules) ? nullptr : &*it;
}

RuleSelection RuleSelection::only(const std::vector<std::string>& ids) {
  RuleSelection selection;
  selection.include_mode_ = true;
  for (const std::string& id : ids) {
    const bool is_prefix = !id.empty() && id.back() == '.';
    PR_REQUIRE_MSG(is_prefix || find_rule(id) != nullptr,
                   "RuleSelection::only: unknown rule id");
    selection.ids_.push_back(id);
  }
  return selection;
}

void RuleSelection::disable(std::string_view id_or_prefix) {
  if (include_mode_) {
    std::erase_if(ids_, [&](const std::string& id) {
      return matches(id_or_prefix, id);
    });
  } else {
    ids_.emplace_back(id_or_prefix);
  }
}

bool RuleSelection::enabled(std::string_view rule_id) const {
  const bool listed =
      std::any_of(ids_.begin(), ids_.end(), [&](const std::string& id) {
        return matches(id, rule_id);
      });
  return include_mode_ ? listed : !listed;
}

}  // namespace pathrouting::audit
