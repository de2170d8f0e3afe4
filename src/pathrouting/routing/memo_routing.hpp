// Closed-form routing verification.
//
// By Fact 1 the b^{r-k} copies of G_k inside G_r are pairwise
// isomorphic, and the Lemma-3 / Theorem-2 / Claim-1 routings are
// defined purely in G_k-local coordinates, so their per-vertex hit
// counts are IDENTICAL on every copy up to the Fact-1 vertex renaming
// (cdag::CopyTranslation). The routings also factor digit by digit,
// which collapses the per-vertex counts to closed forms.
//
//   Chains (Lemma 3). With M_side[q] = #{guaranteed digit pairs (d,e)
//   with mu_side(d,e) = q} and the prefix products
//   P_t[q_1..q_t] = prod_i M[q_i]:
//     enc(side, t, q, p)  is hit by  P_t^side[q] * n0^(k-t)  chains,
//     dec(t, q, p)        by  (P_(k-t)^A[q] + P_(k-t)^B[q]) * n0^t.
//
//   Decode zig-zags (Claim 1). With CPint[x] = #{D_1 pairs whose fixed
//   path visits product x strictly inside} and CO[y] = #{pairs whose
//   path visits output y}:
//     dec(0, q, 0)               (a + CPint[q mod b]) * a^(k-1),
//     dec(t, q, p), 0 < t < k:   CPint[q mod b] * b^t * a^(k-t-1)
//                                  + CO[p div a^(t-1)] * b^(t-1) * a^(k-t),
//     dec(k, 0, p):              CO[p div a^(k-1)] * b^(k-1).
//
//   Lemma 4's multiplicity claim also factorizes: every guaranteed
//   digit chain carrying each of the three sequence roles exactly n0
//   times at k = 1 lifts to exactly 3*n0^k uses per chain at any k.
//
// Every certificate statistic (max, smallest-id argmax, Theorem-2
// root/meta accounting) comes from one digit-state DP over (k, prefix)
// that evaluates these forms without a per-vertex array or a
// materialized CDAG. The brute-force engine's enumerating counters
// (count_chain_hits, count_decode_hits) remain the oracle it is
// checked against in tests, benchmarks and the routing.implicit-match
// audit rule.
//
// The forms are constant over runs of consecutive ids (a run is one
// recursion-path word of an encoding or inner decoding rank, or one
// leading position digit), so the canonical per-vertex arrays are
// sequences of (value, length) runs in id order. One private visitor
// per routing walks those runs; two sinks consume them. The FNV-1a
// hit digests (chain_hit_digest / decode_hit_digest) stream the runs
// through support::fnv1a_repeat and are what the certificate service
// serves: no array is built on its path. The arrays themselves
// (canonical_*_hit_array) serve tests and benches, which compare them
// bit for bit with brute, and the audit rules, which reconcile them
// against the closed-form hit *totals* (routing.memo-totals).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "pathrouting/cdag/layout.hpp"
#include "pathrouting/cdag/view.hpp"
#include "pathrouting/routing/chain_routing.hpp"
#include "pathrouting/routing/concat_routing.hpp"
#include "pathrouting/routing/decode_routing.hpp"

namespace pathrouting::routing {

/// Which verification engine produced a result (benchmark records tag
/// themselves with engine_name): the brute-force oracle, or this
/// closed-form engine.
enum class EngineKind { kBrute, kMemo };
[[nodiscard]] const char* engine_name(EngineKind kind);

class MemoRoutingEngine {
 public:
  /// Chain-routing only (Lemmas 3-4, Theorem 2).
  explicit MemoRoutingEngine(const ChainRouter& router);
  /// Also memoizes the Claim-1 decode routing; `decoder` must be built
  /// from the same base algorithm as `router`.
  MemoRoutingEngine(const ChainRouter& router, const DecodeRouter& decoder);
  ~MemoRoutingEngine();  // out of line: CanonicalCounts is incomplete here

  [[nodiscard]] bool has_decoder() const { return decoder_.has_value(); }
  [[nodiscard]] const BilinearAlgorithm& algorithm() const { return alg_; }

  /// The verifiers of the copy G_k^prefix inside `view`, addressed by
  /// (k, prefix): 1 <= k <= view.layout().r(), prefix < b^(r-k), and a
  /// view of the engine's base algorithm. Within a rank the hit counts
  /// depend only on the wrapped prefix products of the recursion-path
  /// digits, so one DP over digit-state classes (pairs of wrapped
  /// products, with the smallest representative word per class)
  /// yields max, smallest-id argmax (translated to the view's global
  /// ids) and the Theorem-2 root/meta accounting in
  /// O(k * b * #states) time and memory. Results are bit-identical to
  /// the brute-force verifiers on the same subcomputation, including
  /// uint64 wraparound and argmax tie-breaking.
  [[nodiscard]] HitStats verify_chain_routing(const cdag::CdagView& view,
                                              int k,
                                              std::uint64_t prefix) const;
  /// Lemma 4's accounting, decided at the digit level (O(a^2) work):
  /// true iff every guaranteed digit chain carries each of the three
  /// sequence roles exactly n0 times, which lifts to exactly 3*n0^k
  /// uses of every chain of the copy.
  [[nodiscard]] bool verify_chain_multiplicities(const cdag::CdagView& view,
                                                 int k,
                                                 std::uint64_t prefix) const;
  [[nodiscard]] FullRoutingStats verify_full_routing(
      const cdag::CdagView& view, int k, std::uint64_t prefix) const;
  /// Claim 1; requires has_decoder().
  [[nodiscard]] HitStats verify_decode_routing(const cdag::CdagView& view,
                                               int k,
                                               std::uint64_t prefix) const;

  /// Closed-form certificate totals (audit rule routing.memo-totals):
  /// 2 * a^k * n0^k chains of 2k+2 vertices each, and b^k * a^k
  /// zig-zags whose total length follows from the D_1 path lengths.
  [[nodiscard]] std::uint64_t expected_num_chains(int k) const;
  [[nodiscard]] std::uint64_t expected_chain_total_hits(int k) const;
  [[nodiscard]] std::uint64_t expected_num_decode_paths(int k) const;
  [[nodiscard]] std::uint64_t expected_decode_total_hits(int k) const;

  /// The canonical G_k per-vertex hit arrays (local ids of the
  /// standalone canonical layout). On the whole graph G_k the Fact-1
  /// renaming is the identity, so these are bit-identical to
  /// count_chain_hits / count_decode_hits on sub(G_k, k, 0). The spans
  /// stay valid for the engine's lifetime (cache entries are never
  /// evicted).
  [[nodiscard]] std::span<const std::uint64_t> canonical_chain_hit_array(
      int k) const;
  /// Requires has_decoder().
  [[nodiscard]] std::span<const std::uint64_t> canonical_decode_hit_array(
      int k) const;

  /// support::fnv1a_words of canonical_chain_hit_array(k) (resp.
  /// canonical_decode_hit_array(k), which requires has_decoder()) —
  /// the golden corpus's chain_fnv / decode_fnv — streamed from the
  /// closed forms run by run, without the array. Memoized per k for
  /// the engine's lifetime under the canonical cache's contract.
  [[nodiscard]] std::uint64_t chain_hit_digest(int k) const;
  [[nodiscard]] std::uint64_t decode_hit_digest(int k) const;

 private:
  /// Per-k canonical G_k hit arrays, computed once and cached for the
  /// engine's lifetime. Concurrent-reader-safe: lookups take a shared
  /// lock, a miss fills a candidate OUTSIDE any lock (two racing
  /// threads may both compute — the fill is deterministic, so the
  /// loser's identical candidate is discarded) and inserts under the
  /// exclusive lock. Entries are heap-allocated and never evicted, so
  /// returned references remain stable without holding the lock.
  struct CanonicalCounts;
  [[nodiscard]] const CanonicalCounts& canonical(int k) const;
  /// The canonical G_k chain (resp. decode) hit array as calls
  /// sink(value, length), one per constant run, covering local ids
  /// 0 .. num_vertices - 1 in order. The decode visitor opens with one
  /// zero run for the whole encoding block.
  template <class Sink>
  void visit_chain_runs(int k, Sink&& sink) const;
  template <class Sink>
  void visit_decode_runs(int k, Sink&& sink) const;
  /// memo[k], else the FNV-1a digest of the runs `visit` feeds its
  /// sink, computed outside the lock and published under it (a racing
  /// duplicate is dropped).
  template <class Visit>
  [[nodiscard]] std::uint64_t hit_digest(std::map<int, std::uint64_t>& memo,
                                         int k, Visit&& visit) const;
  void check_view(const cdag::CdagView& view, int k,
                  std::uint64_t prefix) const;

  BilinearAlgorithm alg_;
  std::vector<std::uint64_t> m_a_, m_b_;   // M_side[q], size b
  std::vector<std::uint8_t> triv_a_, triv_b_;  // trivial encoding rows
  std::optional<DecodeRouter> decoder_;
  std::vector<std::uint64_t> cpint_, co_;  // decode D_1 visit tables
  std::uint64_t cpint_sum_ = 0, co_sum_ = 0;
  mutable std::shared_mutex mutex_;
  mutable std::map<int, std::unique_ptr<CanonicalCounts>> cache_;
  mutable std::map<int, std::uint64_t> chain_digests_, decode_digests_;
};

}  // namespace pathrouting::routing
