#include "support/reference_certifier.hpp"

#include <map>
#include <set>
#include <vector>

#include "pathrouting/bounds/disjoint_family.hpp"
#include "pathrouting/bounds/formulas.hpp"

namespace pathrouting::oracle {

namespace {

using bilinear::Side;
using cdag::VertexId;
using VertexSet = std::set<VertexId>;

/// One segment: its computed vertices S and the meta-closure S' (every
/// member of every meta-vertex S touches).
struct Segment {
  VertexSet computed;
  VertexSet closure;
};

/// Boundary sets of one segment, written as the definitions read.
struct Boundaries {
  std::uint64_t vertex_level = 0;  // |R(S)| + |W(S)| over S itself
  std::uint64_t closure = 0;       // |R'| + |W'| (S6) or |R| + |W| (S5)
};

Boundaries boundaries_of(const cdag::CdagView& view, const Segment& seg,
                         bool decode_only) {
  std::vector<VertexId> scratch;
  const auto in = [&](VertexId v) {
    const auto span = view.in(v, scratch);
    return std::vector<VertexId>(span.begin(), span.end());
  };
  const auto out = [&](VertexId v) {
    const auto span = view.out(v, scratch);
    return std::vector<VertexId>(span.begin(), span.end());
  };
  Boundaries b;

  // R(S): operands from outside S. W(S): members of S consumed outside
  // S, or outputs (no successor at all).
  VertexSet r_s, w_s;
  for (const VertexId v : seg.computed) {
    for (const VertexId p : in(v)) {
      if (!seg.computed.contains(p)) r_s.insert(p);
    }
    const std::vector<VertexId> succ = out(v);
    if (succ.empty()) w_s.insert(v);
    for (const VertexId q : succ) {
      if (!seg.computed.contains(q)) w_s.insert(v);
    }
  }
  b.vertex_level = r_s.size() + w_s.size();

  if (decode_only) {
    // delta(S') = R(S') u W(S') over the vertices of the closure.
    VertexSet r, w;
    for (const VertexId v : seg.closure) {
      for (const VertexId p : in(v)) {
        if (!seg.closure.contains(p)) r.insert(p);
      }
      for (const VertexId q : out(v)) {
        if (!seg.closure.contains(q)) w.insert(v);
      }
    }
    b.closure = r.size() + w.size();
    return b;
  }
  // R'(S'): meta-vertices outside S' feeding into it. W'(S'):
  // meta-vertices inside S' with a successor outside.
  VertexSet metas;
  for (const VertexId v : seg.closure) metas.insert(view.meta_root(v));
  VertexSet r_meta, w_meta;
  for (const VertexId v : seg.closure) {
    for (const VertexId p : in(v)) {
      if (!metas.contains(view.meta_root(p))) r_meta.insert(view.meta_root(p));
    }
    for (const VertexId q : out(v)) {
      if (!metas.contains(view.meta_root(q))) w_meta.insert(view.meta_root(v));
    }
  }
  b.closure = r_meta.size() + w_meta.size();
  return b;
}

}  // namespace

bounds::CertifyResult reference_certify(const cdag::CdagView& view,
                                        std::span<const VertexId> schedule,
                                        const bounds::CertifyParams& params,
                                        bool decode_only) {
  const cdag::Layout& layout = view.layout();
  bounds::CertifyResult result;
  result.s_bar_target = params.s_bar_target != 0
                            ? params.s_bar_target
                            : (decode_only ? 66 : 36) * params.cache_size;
  result.k = params.k >= 0
                 ? params.k
                 : bounds::ceil_log(static_cast<std::uint64_t>(layout.a()),
                                    2 * result.s_bar_target);
  const int k = result.k;
  const std::uint64_t per_side = layout.pow_a()(k);

  // The counted vertices S-bar draws from.
  VertexSet counted;
  if (decode_only) {
    for (std::uint64_t q = 0; q < layout.pow_b()(layout.r() - k); ++q) {
      for (std::uint64_t p = 0; p < per_side; ++p) {
        counted.insert(layout.dec(k, q, p));
      }
    }
  } else {
    const bounds::DisjointFamily family = bounds::build_disjoint_family(view, k);
    result.family_size = family.prefixes.size();
    result.family_guaranteed = family.guaranteed;
    for (const std::uint64_t prefix : family.prefixes) {
      for (std::uint64_t p = 0; p < per_side; ++p) {
        counted.insert(layout.enc(Side::A, layout.r() - k, prefix, p));
        counted.insert(layout.enc(Side::B, layout.r() - k, prefix, p));
        counted.insert(layout.dec(k, prefix, p));
      }
    }
  }
  result.counted_total = counted.size();

  std::map<VertexId, std::vector<VertexId>> members;
  for (VertexId v = 0; v < view.num_vertices(); ++v) {
    members[view.meta_root(v)].push_back(v);
  }

  // A segment closes at the first step where |S-bar n S'| reaches the
  // target, or at the last step if it holds any counted vertex.
  Segment seg;
  std::uint64_t s_bar = 0;
  for (std::uint32_t s = 0; s < schedule.size(); ++s) {
    seg.computed.insert(schedule[s]);
    for (const VertexId m : members.at(view.meta_root(schedule[s]))) {
      if (seg.closure.insert(m).second && counted.contains(m)) ++s_bar;
    }
    const bool last_step = s + 1 == schedule.size();
    if (s_bar != result.s_bar_target && !(last_step && s_bar > 0)) continue;
    const Boundaries b = boundaries_of(view, seg, decode_only);
    result.segments.push_back({.end_step = s + 1,
                               .s_bar = s_bar,
                               .boundary = b.closure,
                               .boundary_vertices = b.vertex_level,
                               .complete = s_bar == result.s_bar_target});
    seg = Segment{};
    s_bar = 0;
  }
  return result;
}

}  // namespace pathrouting::oracle
