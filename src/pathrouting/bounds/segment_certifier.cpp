#include "pathrouting/bounds/segment_certifier.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "pathrouting/bounds/formulas.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/support/parallel.hpp"

namespace pathrouting::bounds {

namespace {

using cdag::Cdag;
using cdag::CdagView;
using cdag::ExplicitView;
using cdag::Layout;
using bilinear::Side;

/// Which boundary a certifier checks: Section 6's meta-level
/// |delta'(S')| = |R'(S')| + |W'(S')| over meta-vertices, or Section
/// 5's vertex-level |delta(S)| over the members of the meta-closure.
enum class Boundary : std::uint8_t { kMeta, kVertex };

/// seg_of value of a vertex no segment computes (inputs, vertices the
/// schedule omits, trailing steps after the last segment).
constexpr std::uint32_t kNoSegment = UINT32_MAX;

/// A set of vertex ids with O(1) insert and lookup: one bit per vertex
/// plus the list of members, so emptying it costs its size, not n.
struct MarkSet {
  explicit MarkSet(VertexId n) : words(n / 64 + 1, 0) {}

  [[nodiscard]] bool contains(VertexId v) const {
    return (words[v / 64] >> (v % 64)) & 1;
  }
  void insert(VertexId v) {
    std::uint64_t& word = words[v / 64];
    const std::uint64_t bit = std::uint64_t{1} << (v % 64);
    if ((word & bit) != 0) return;
    word |= bit;
    ids.push_back(v);
  }
  /// Empties the set and returns how many ids it held.
  std::uint64_t take_size() {
    for (const VertexId v : ids) words[v / 64] = 0;
    const std::uint64_t size = ids.size();
    ids.clear();
    return size;
  }

  std::vector<std::uint64_t> words;
  std::vector<VertexId> ids;
};

/// Per-worker buffers of the boundary pass, sized by the calling
/// thread before the parallel region (walk_segments).
struct Scratch {
  explicit Scratch(VertexId n) : closure(n), boundary(n) {}

  MarkSet closure;   // meta-roots of S'
  MarkSet boundary;  // R, then R' (or R of S')
  std::vector<VertexId> in, out;  // neighbor synthesis (implicit views)
};

/// Adjacency read straight from a Cdag's CSR arrays.
struct CsrAdjacency {
  const cdag::Graph& graph;
  std::span<const VertexId> roots;

  auto in(VertexId v, Scratch&) const { return graph.in(v); }
  auto out(VertexId v, Scratch&) const { return graph.out(v); }
  std::uint32_t in_degree(VertexId v) const { return graph.in_degree(v); }
  VertexId meta_root(VertexId v) const { return roots[v]; }
};

/// Adjacency through the CdagView virtuals (implicit CDAGs).
struct ViewAdjacency {
  const CdagView& view;

  auto in(VertexId v, Scratch& s) const { return view.in(v, s.in); }
  auto out(VertexId v, Scratch& s) const { return view.out(v, s.out); }
  std::uint32_t in_degree(VertexId v) const { return view.in_degree(v); }
  VertexId meta_root(VertexId v) const { return view.meta_root(v); }
};

/// Members of each meta-vertex grouped by root, ascending by id (CSR
/// over vertex ids).
struct MetaMembers {
  std::vector<std::uint32_t> off;
  std::vector<VertexId> members;

  [[nodiscard]] std::span<const VertexId> of(VertexId root) const {
    return {members.data() + off[root], members.data() + off[root + 1]};
  }
};

template <typename Adjacency>
MetaMembers group_by_root(const Adjacency& adj, VertexId n) {
  MetaMembers groups;
  groups.off.assign(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) ++groups.off[adj.meta_root(v) + 1];
  for (VertexId v = 0; v < n; ++v) groups.off[v + 1] += groups.off[v];
  groups.members.resize(n);
  std::vector<std::uint32_t> cursor(groups.off.begin(), groups.off.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    groups.members[cursor[adj.meta_root(v)]++] = v;
  }
  return groups;
}

/// Pass 1: where every segment ends and which segment computes each
/// vertex.
struct SegmentPartition {
  std::vector<SegmentReport> reports;  // end_step, s_bar, complete
  std::vector<std::uint32_t> seg_of;   // segment computing v, or kNoSegment
  /// Vertices computed by segment i, ascending by id:
  /// vertices[off[i] .. off[i + 1]).
  std::vector<std::uint32_t> off;
  std::vector<VertexId> vertices;
  std::uint32_t max_in_degree = 0;  // over the computed vertices
};

/// Walks the schedule once, closing a segment as soon as it touches
/// `s_bar_target` counted meta-vertices (`counted[root]` is 0 or 1), or
/// at the last step if it touched any. Steps after the last close
/// belong to no segment.
template <typename Adjacency>
SegmentPartition find_ends(const Adjacency& adj, VertexId n,
                           std::span<const VertexId> schedule,
                           std::uint64_t s_bar_target,
                           const std::vector<std::uint8_t>& counted) {
  const obs::TraceSpan span("certify.ends");
  SegmentPartition part;
  part.seg_of.assign(n, kNoSegment);
  {
    // root_stamp[X] = 1 + the last segment that touched meta-vertex X.
    std::vector<std::uint32_t> root_stamp(n, 0);
    std::uint32_t seg = 0;
    std::uint64_t s_bar = 0;
    for (std::uint32_t s = 0; s < schedule.size(); ++s) {
      const VertexId v = schedule[s];
      PR_REQUIRE_MSG(v < n && part.seg_of[v] == kNoSegment,
                     "schedule steps must be distinct vertices of the CDAG");
      part.seg_of[v] = seg;
      const VertexId root = adj.meta_root(v);
      if (root_stamp[root] != seg + 1) {
        root_stamp[root] = seg + 1;
        s_bar += counted[root];
      }
      const bool last_step = s + 1 == schedule.size();
      if (s_bar == s_bar_target || (last_step && s_bar > 0)) {
        part.reports.push_back({.end_step = s + 1,
                                .s_bar = s_bar,
                                .complete = s_bar == s_bar_target});
        s_bar = 0;
        ++seg;
      }
    }
    const std::uint32_t closed =
        part.reports.empty() ? 0 : part.reports.back().end_step;
    for (std::uint32_t s = closed; s < schedule.size(); ++s) {
      part.seg_of[schedule[s]] = kNoSegment;
    }
  }
  // Counting sort by segment, ascending id within each: the boundary
  // pass then reads the adjacency arrays in address order.
  const std::size_t num_segments = part.reports.size();
  part.off.assign(num_segments + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (part.seg_of[v] != kNoSegment) ++part.off[part.seg_of[v] + 1];
  }
  for (std::size_t i = 0; i < num_segments; ++i) {
    part.off[i + 1] += part.off[i];
  }
  part.vertices.resize(part.off.back());
  std::vector<std::uint32_t> cursor(part.off.begin(), part.off.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    if (part.seg_of[v] == kNoSegment) continue;
    part.vertices[cursor[part.seg_of[v]]++] = v;
    part.max_in_degree = std::max(part.max_in_degree, adj.in_degree(v));
  }
  return part;
}

/// Pass 2 for segment `seg`: fills its boundary and boundary_vertices.
/// "v computed in S" is the shared lookup seg_of[v] == seg; the
/// closure S' and the boundary sets live in the worker's own MarkSets,
/// which are empty again on return.
template <typename Adjacency>
void segment_boundary(const Adjacency& adj, const MetaMembers& groups,
                      const SegmentPartition& part, std::uint32_t seg,
                      Boundary kind, Scratch& scratch, SegmentReport& report) {
  const std::vector<std::uint32_t>& seg_of = part.seg_of;
  const auto computed_here = [&](VertexId v) { return seg_of[v] == seg; };
  const std::span<const VertexId> computed(
      part.vertices.data() + part.off[seg],
      part.vertices.data() + part.off[seg + 1]);
  MarkSet& closure = scratch.closure;
  MarkSet& boundary = scratch.boundary;

  // Vertex-level boundary over the computed set: operands staged from
  // outside (R) plus computed values consumed after the segment or
  // required as outputs (W).
  std::uint64_t written = 0;
  for (const VertexId v : computed) {
    closure.insert(adj.meta_root(v));
    for (const VertexId p : adj.in(v, scratch)) {
      if (!computed_here(p)) boundary.insert(p);
    }
    const auto succ = adj.out(v, scratch);  // no successor: an output
    if (succ.empty() ||
        !std::all_of(succ.begin(), succ.end(), computed_here)) {
      ++written;
    }
  }
  report.boundary_vertices = boundary.take_size() + written;

  // Boundary of the meta-closure S'. kMeta (Definition-1 style): R'(S')
  // = meta-vertices OUTSIDE S' feeding into it (each must be staged
  // into cache during the segment), plus W'(S') = meta-vertices INSIDE
  // S' with a successor outside (each must eventually reach slow memory
  // or stay cached). The paper's delta'-notation describes only the
  // adjacency; this mixed form is the one the I/O accounting actually
  // bounds — counting *outside* successors instead would overcount,
  // since many of them can share a single written value. kVertex:
  // delta(S) = R(S) u W(S) over the members of S', the meta-vertices
  // marked above.
  const auto in_closure = [&](VertexId v) {
    return closure.contains(adj.meta_root(v));
  };
  written = 0;
  for (const VertexId root : closure.ids) {
    std::uint64_t escaping = 0;  // members with a successor outside S'
    for (const VertexId member : groups.of(root)) {
      for (const VertexId p : adj.in(member, scratch)) {
        if (in_closure(p)) continue;
        boundary.insert(kind == Boundary::kMeta ? adj.meta_root(p) : p);
      }
      // W' counts the meta-vertex once; W counts every such member.
      if (kind == Boundary::kMeta && escaping > 0) continue;
      const auto succ = adj.out(member, scratch);
      if (!std::all_of(succ.begin(), succ.end(), in_closure)) ++escaping;
    }
    written += escaping;
  }
  report.boundary = boundary.take_size() + written;
  closure.take_size();
}

/// Both passes over one adjacency accessor.
template <typename Adjacency>
CertifyResult walk_segments(const Adjacency& adj, VertexId n,
                            std::span<const VertexId> schedule,
                            std::uint64_t s_bar_target,
                            const std::vector<std::uint8_t>& counted,
                            Boundary kind) {
  const MetaMembers groups = group_by_root(adj, n);
  SegmentPartition part = find_ends(adj, n, schedule, s_bar_target, counted);
  CertifyResult result;
  result.s_bar_target = s_bar_target;
  result.segments = std::move(part.reports);

  const obs::TraceSpan span("certify.boundary");
  const std::uint64_t num_segments = result.segments.size();
  if (num_segments == 0) return result;
  // Segments run in schedule order, which keeps neighbouring segments'
  // vertices close in memory, except that a segment holding over 1/16
  // of all computed vertices starts first: started last, it would keep
  // one worker busy long after the others ran out of work.
  const auto size_of = [&](std::uint64_t i) {
    return std::uint64_t{part.off[i + 1] - part.off[i]};
  };
  std::vector<std::uint32_t> order(num_segments);
  std::iota(order.begin(), order.end(), 0);
  std::stable_partition(order.begin(), order.end(), [&](std::uint32_t i) {
    return 16 * size_of(i) > part.vertices.size();
  });
  std::uint64_t longest = 0;
  for (std::uint64_t i = 0; i < num_segments; ++i) {
    longest = std::max(longest, size_of(i));
  }
  // Segments write only their own report, so chunking cannot change a
  // count; the grain only keeps runs of tiny segments inline.
  constexpr std::uint64_t kCostPerVertex = 16;
  const std::uint64_t grain = support::parallel::work_grain(
      num_segments,
      std::max<std::uint64_t>(1, part.vertices.size() / num_segments) *
          kCostPerVertex);
  // Scratch is allocated here, on the calling thread, for every worker
  // id the region can hand out: buffers grown inside workers would
  // stay behind in their malloc arenas. Each call owns its scratch, so
  // a batch may nest this region (it then runs inline as worker 0). A
  // segment's R or R' holds at most (its vertices) x (max in-degree)
  // ids when meta-vertices are copy trees (only a root has in-edges
  // from another meta-vertex).
  std::vector<Scratch> scratch(
      static_cast<std::size_t>(support::parallel::execution_width()),
      Scratch(n));
  for (Scratch& s : scratch) {
    s.closure.ids.reserve(longest);
    s.boundary.ids.reserve(std::min<std::uint64_t>(
        n, longest * part.max_in_degree));
  }
  support::parallel::for_chunks(
      0, num_segments, grain,
      [&](std::uint64_t lo, std::uint64_t hi, int worker) {
        for (std::uint64_t i = lo; i < hi; ++i) {
          segment_boundary(adj, groups, part, order[i], kind,
                           scratch[static_cast<std::size_t>(worker)],
                           result.segments[order[i]]);
        }
      });
  return result;
}

/// The segment quota |S_bar| (default `quota_per_m` * M) and k
/// (default the least with a^k >= 2 |S_bar|, as the half-rank argument
/// needs).
std::pair<std::uint64_t, int> resolve_quota(const Layout& layout,
                                            const CertifyParams& params,
                                            std::uint64_t quota_per_m) {
  PR_REQUIRE(params.cache_size >= 1);
  const std::uint64_t target = params.s_bar_target != 0
                                   ? params.s_bar_target
                                   : quota_per_m * params.cache_size;
  const int k = params.k >= 0
                    ? params.k
                    : ceil_log(static_cast<std::uint64_t>(layout.a()),
                               2 * target);
  PR_REQUIRE_MSG(layout.pow_a()(k) >= 2 * target,
                 "need a^k >= 2 |S_bar| for the half-rank argument");
  return {target, k};
}

/// Dispatches to direct CSR reads when the view wraps a Cdag.
CertifyResult certify_walk(const CdagView& view,
                           std::span<const VertexId> schedule,
                           std::uint64_t s_bar_target,
                           const std::vector<std::uint8_t>& counted,
                           Boundary kind) {
  const auto n = static_cast<VertexId>(view.num_vertices());
  const Cdag* cdag = view.explicit_cdag();
  CertifyResult result =
      cdag != nullptr
          ? walk_segments(CsrAdjacency{cdag->graph(), cdag->meta_roots()}, n,
                          schedule, s_bar_target, counted, kind)
          : walk_segments(ViewAdjacency{view}, n, schedule, s_bar_target,
                          counted, kind);
  static obs::Counter obs_runs("certify.runs");
  static obs::Counter obs_steps("certify.steps");
  static obs::Counter obs_segments("certify.segments");
  obs_runs.add();
  obs_steps.add(schedule.size());
  obs_segments.add(result.segments.size());
  return result;
}

}  // namespace

bool CertifyResult::eq_holds(std::uint64_t denominator) const {
  for (const SegmentReport& seg : segments) {
    if (seg.complete && seg.boundary * denominator < seg.s_bar) return false;
  }
  return true;
}

bool CertifyResult::boundary_ge(std::uint64_t threshold) const {
  for (const SegmentReport& seg : segments) {
    if (seg.complete && seg.boundary < threshold) return false;
  }
  return true;
}

std::uint64_t CertifyResult::complete_segments() const {
  std::uint64_t count = 0;
  for (const SegmentReport& seg : segments) count += seg.complete ? 1 : 0;
  return count;
}

std::vector<std::uint32_t> CertifyResult::segment_ends(
    std::uint32_t schedule_size) const {
  std::vector<std::uint32_t> ends;
  ends.reserve(segments.size() + 1);
  for (const SegmentReport& seg : segments) ends.push_back(seg.end_step);
  if (ends.empty() || ends.back() != schedule_size) {
    ends.push_back(schedule_size);
  }
  return ends;
}

CertifyResult certify_segments(const CdagView& view,
                               std::span<const VertexId> schedule,
                               const CertifyParams& params) {
  const Layout& layout = view.layout();
  const auto [target, k] = resolve_quota(layout, params, 36);
  PR_REQUIRE_MSG(k <= layout.r() - 2, "need k <= r-2 (Lemma 1)");

  const DisjointFamily family = build_disjoint_family(view, k);
  // Counted vertices: inputs and outputs of the family's members. By
  // Lemma 2 their meta-vertices are all distinct — asserted below.
  std::vector<std::uint8_t> counted(view.num_vertices(), 0);
  std::uint64_t counted_total = 0;
  const int in_rank = layout.r() - k;
  const std::uint64_t per_side = layout.pow_a()(k);
  for (const std::uint64_t prefix : family.prefixes) {
    const auto count_vertex = [&](VertexId v) {
      const VertexId root = view.meta_root(v);
      PR_ASSERT_MSG(!counted[root],
                    "two counted vertices share a meta-vertex (Lemma 2)");
      counted[root] = 1;
      ++counted_total;
    };
    for (const Side side : {Side::A, Side::B}) {
      for (std::uint64_t p = 0; p < per_side; ++p) {
        count_vertex(layout.enc(side, in_rank, prefix, p));
      }
    }
    for (std::uint64_t p = 0; p < per_side; ++p) {
      count_vertex(layout.dec(k, prefix, p));
    }
  }

  CertifyResult result =
      certify_walk(view, schedule, target, counted, Boundary::kMeta);
  result.k = k;
  result.family_size = family.prefixes.size();
  result.family_guaranteed = family.guaranteed;
  result.counted_total = counted_total;
  return result;
}

CertifyResult certify_segments(const Cdag& cdag,
                               std::span<const VertexId> schedule,
                               const CertifyParams& params) {
  return certify_segments(ExplicitView(cdag), schedule, params);
}

CertifyResult certify_segments_decode_only(const CdagView& view,
                                           std::span<const VertexId> schedule,
                                           const CertifyParams& params) {
  const Layout& layout = view.layout();
  const auto [target, k] = resolve_quota(layout, params, 66);
  PR_REQUIRE_MSG(k <= layout.r(), "need k <= r");

  // Counted: every vertex on decoding rank k. The decoding graph never
  // copies, so each sits alone in its meta-vertex.
  std::vector<std::uint8_t> counted(view.num_vertices(), 0);
  std::uint64_t counted_total = 0;
  const std::uint64_t num_q = layout.pow_b()(layout.r() - k);
  const std::uint64_t num_p = layout.pow_a()(k);
  for (std::uint64_t q = 0; q < num_q; ++q) {
    for (std::uint64_t p = 0; p < num_p; ++p) {
      const VertexId v = layout.dec(k, q, p);
      PR_ASSERT(view.meta_root(v) == v);
      counted[v] = 1;
      ++counted_total;
    }
  }

  CertifyResult result =
      certify_walk(view, schedule, target, counted, Boundary::kVertex);
  result.k = k;
  result.counted_total = counted_total;
  return result;
}

CertifyResult certify_segments_decode_only(const Cdag& cdag,
                                           std::span<const VertexId> schedule,
                                           const CertifyParams& params) {
  return certify_segments_decode_only(ExplicitView(cdag), schedule, params);
}

std::vector<CertifyResult> certify_segments_batch(
    const CdagView& view, std::span<const CertifyJob> jobs) {
  std::vector<CertifyResult> results(jobs.size());
  // Each job re-derives its own family/grouping/stamps and writes only
  // its slot; grain 1 so long and short certifications interleave.
  support::parallel::parallel_for(
      0, jobs.size(), /*grain=*/1, [&](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) {
          const CertifyJob& job = jobs[i];
          results[i] = job.decode_only
                           ? certify_segments_decode_only(view, job.schedule,
                                                          job.params)
                           : certify_segments(view, job.schedule, job.params);
        }
      });
  return results;
}

std::vector<CertifyResult> certify_segments_batch(
    const cdag::Cdag& cdag, std::span<const CertifyJob> jobs) {
  return certify_segments_batch(ExplicitView(cdag), jobs);
}

}  // namespace pathrouting::bounds
