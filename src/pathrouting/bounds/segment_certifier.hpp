// The segment argument of Sections 5 and 6, run as a *certifier* on a
// concrete schedule.
//
// Section 6 (general Strassen-like): fix k with a^k >= 72M and a
// mutually input-disjoint family C of subcomputations G_k^i (Lemma 1).
// Counted vertices are the inputs (encoding rank r-k) and outputs
// (decoding rank k) of the members of C. Walk the schedule, closing a
// segment S as soon as it contains 36M counted vertices (a vertex drags
// its whole meta-vertex into S; by Lemma 2 each meta-vertex holds at
// most one counted vertex, so the count advances by at most one per
// step). For every complete segment the paper proves
//     |delta'(S')| >= |S_bar| / 12  (Equation 2),
// hence >= 3M, hence at least M I/Os per segment — the certifier
// computes |delta'(S')| exactly from the graph and checks both, and
// also exposes the segment boundaries so the pebble simulator can
// verify the I/O consequence  segment I/O >= |delta'(S')| - 2M  on the
// simulated execution.
//
// Section 5 (decoding-only counting, the "simple proof" for Strassen):
// counted vertices are decoding rank k everywhere, segments close at
// 66M, and the vertex-level boundary satisfies |delta(S)| >= |S_bar|/22
// (Equation 1).
//
// Both certifiers run the same two passes:
//   1. ends (serial, span "certify.ends"): one walk of the schedule
//      closes the segments and records seg_of[v], the segment that
//      computes v. Steps after the last close, like the inputs, belong
//      to no segment.
//   2. boundary (span "certify.boundary"): segments are independent
//      once seg_of is known, so each segment's boundary and
//      boundary_vertices are computed on the support::parallel pool,
//      written to the segment's own report slot — bit-identical at any
//      PR_THREADS. "v computed in S_i" is the shared lookup
//      seg_of[v] == i; the meta-closure S'_i and the distinct R / R'
//      are kept in two per-worker bitsets over vertex ids, cleared
//      entry by entry after each segment. A Cdag-backed view is read
//      through its CSR arrays directly; other views through their
//      virtuals.
// Memory: seg_of and one more O(n) u32 array at a time (the pass-1
// meta-vertex stamp, then the computed vertices grouped by segment),
// the meta-vertex member lists (CSR, O(n)), the counted flags (one byte
// per vertex), and per worker two n-bit sets plus id lists reserved
// from the longest segment, all allocated by the calling thread before
// the parallel region. Counters: certify.runs, certify.steps,
// certify.segments.
#pragma once

#include <span>
#include <vector>

#include "pathrouting/bounds/disjoint_family.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/cdag/view.hpp"

namespace pathrouting::bounds {

using cdag::VertexId;

struct SegmentReport {
  std::uint32_t end_step = 0;  // exclusive schedule index
  std::uint64_t s_bar = 0;     // counted vertices in this segment
  std::uint64_t boundary = 0;  // |delta'(S')| (S6) or |delta(S)| (S5)
  /// Vertex-level |R(S_v)| + |W(S_v)| over exactly the vertices
  /// computed in the segment (no meta-closure): the quantity the
  /// pebble game provably respects per segment,
  ///   attributed I/O >= boundary_vertices - 2M.
  std::uint64_t boundary_vertices = 0;
  bool complete = false;       // reached the quota (last segment may not)

  bool operator==(const SegmentReport&) const = default;
};

struct CertifyResult {
  int k = 0;
  std::uint64_t s_bar_target = 0;
  std::uint64_t family_size = 0;       // |C| (Section 6 only)
  std::uint64_t family_guaranteed = 0; // b^{r-k-2} (Section 6 only)
  std::uint64_t counted_total = 0;     // total counted vertices
  std::vector<SegmentReport> segments;

  /// Both paper inequalities over all complete segments.
  [[nodiscard]] bool eq_holds(std::uint64_t denominator) const;
  [[nodiscard]] bool boundary_ge(std::uint64_t threshold) const;
  [[nodiscard]] std::uint64_t complete_segments() const;
  /// The certified bound: (#complete segments) * M.
  [[nodiscard]] std::uint64_t io_lower_bound(std::uint64_t m) const {
    return complete_segments() * m;
  }
  /// Exclusive end steps of every segment (for pebble attribution).
  [[nodiscard]] std::vector<std::uint32_t> segment_ends(
      std::uint32_t schedule_size) const;

  bool operator==(const CertifyResult&) const = default;
};

struct CertifyParams {
  std::uint64_t cache_size = 0;    // M
  int k = -1;                      // default ceil(log_a (2 * s_bar_target))
  std::uint64_t s_bar_target = 0;  // default 36M (S6) / 66M (S5)
};

/// Section 6 certifier (meta-vertex boundary, input-disjoint family).
/// The view form synthesizes every adjacency/meta query on demand, so
/// it certifies schedules over implicit CDAGs without the O(num_edges)
/// CSR arrays (the per-vertex arrays stay O(num_vertices), which a
/// schedule implies anyway); the Cdag form wraps it and is
/// bit-identical. `schedule` must list distinct vertices.
CertifyResult certify_segments(const cdag::CdagView& view,
                               std::span<const VertexId> schedule,
                               const CertifyParams& params);
CertifyResult certify_segments(const cdag::Cdag& cdag,
                               std::span<const VertexId> schedule,
                               const CertifyParams& params);

/// Section 5 certifier (vertex boundary, decoding-rank counting).
CertifyResult certify_segments_decode_only(const cdag::CdagView& view,
                                           std::span<const VertexId> schedule,
                                           const CertifyParams& params);
CertifyResult certify_segments_decode_only(const cdag::Cdag& cdag,
                                           std::span<const VertexId> schedule,
                                           const CertifyParams& params);

/// One certification request in a batch: a schedule, its parameters,
/// and which certifier (Section 6 meta-boundary or Section 5
/// decode-only) to run.
struct CertifyJob {
  std::span<const VertexId> schedule;
  CertifyParams params;
  bool decode_only = false;
};

/// Certifies independent jobs concurrently (PR_THREADS). Every
/// certification owns its arrays and scratch and only reads the shared
/// CDAG, so jobs run on the pool with results written to fixed slots —
/// results[i] is bit-identical to running jobs[i] alone. The batch
/// nests the boundary pass: inside a job it runs inline on the job's
/// worker.
std::vector<CertifyResult> certify_segments_batch(
    const cdag::CdagView& view, std::span<const CertifyJob> jobs);
std::vector<CertifyResult> certify_segments_batch(
    const cdag::Cdag& cdag, std::span<const CertifyJob> jobs);

}  // namespace pathrouting::bounds
