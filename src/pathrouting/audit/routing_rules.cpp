// The routing.*, hall.*, and family.* rule suites: validity of routed
// path families (Lemma 3, Lemma 4 / Theorem 2, Claim 1), Hall matching
// witnesses (Theorem 3), and input-disjoint subcomputation families
// (Lemma 1).
#include <algorithm>
#include <string>
#include <vector>

#include "pathrouting/audit/audit.hpp"
#include "pathrouting/audit/internal.hpp"
#include "pathrouting/routing/concat_routing.hpp"
#include "pathrouting/routing/guaranteed.hpp"
#include "pathrouting/support/parallel.hpp"

namespace pathrouting::audit {

namespace {

namespace parallel = support::parallel;
using bilinear::Side;
using cdag::Graph;
using cdag::Layout;
using cdag::SubComputation;
using internal::error;
using internal::error_counts;
using internal::Findings;
using internal::flush;
using internal::kCongestion;

constexpr std::string_view kEdges = "routing.path-edges";
constexpr std::string_view kEndpoints = "routing.path-endpoints";
constexpr std::string_view kLength = "routing.path-length";
constexpr std::string_view kDisjoint = "routing.path-disjoint";
constexpr std::string_view kChainCount = "routing.chain-count";
constexpr std::string_view kMemoTotals = "routing.memo-totals";
constexpr std::string_view kCopyBlocks = "fact1.copy-blocks";
constexpr std::string_view kCopyBijection = "fact1.copy-bijection";

std::string pair_str(std::uint64_t u, std::uint64_t v) {
  return "(" + std::to_string(u) + " -> " + std::to_string(v) + ")";
}

/// Checks one materialized path: consecutive-vertex edges, declared
/// terminals, and expected length. Shared by the explicit-family audit
/// and the streaming routing audits. `label` names the path in
/// messages ("path 3", "chain (A, 5 -> 2)", ...).
struct PathExpectations {
  const Graph* graph = nullptr;
  bool undirected = false;
  std::uint64_t expected_length = 0;  // 0 = skip
  VertexId source = cdag::kInvalidVertex;
  VertexId sink = cdag::kInvalidVertex;
};

void check_path(std::span<const VertexId> path, const PathExpectations& x,
                const std::string& label, Findings& edges, Findings& endpoints,
                Findings& length) {
  const Graph& graph = *x.graph;
  const std::uint64_t n = graph.num_vertices();
  if (path.empty()) {
    endpoints.add(error(kEndpoints, label + " is empty"));
    return;
  }
  for (std::size_t j = 0; j + 1 < path.size(); ++j) {
    const VertexId u = path[j];
    const VertexId v = path[j + 1];
    if (u >= n || v >= n) {
      edges.add(error(kEdges, label + ": hop " + pair_str(u, v) +
                                  " leaves the vertex range",
                      u < n ? u : v));
      continue;
    }
    const bool ok = graph.has_edge(u, v) ||
                    (x.undirected && graph.has_edge(v, u));
    if (!ok) {
      edges.add(error(kEdges,
                      label + ": hop " + pair_str(u, v) + " is not an edge" +
                          (x.undirected ? " in either direction" : ""),
                      u));
    }
  }
  if (x.source != cdag::kInvalidVertex && path.front() != x.source) {
    endpoints.add(error_counts(kEndpoints,
                               label + " does not start at its declared "
                                       "source",
                               x.source, path.front(), path.front()));
  }
  if (x.sink != cdag::kInvalidVertex && path.back() != x.sink) {
    endpoints.add(error_counts(kEndpoints,
                               label + " does not end at its declared sink",
                               x.sink, path.back(), path.back()));
  }
  if (x.expected_length != 0 && path.size() != x.expected_length) {
    length.add(error_counts(kLength, label + " has the wrong vertex count",
                            x.expected_length, path.size(), path.front()));
  }
}

/// Serial scan of a merged per-vertex hit array against a congestion
/// bound; findings in vertex-id order, capped.
/// `map`, when given, renames the canonical-copy ids of `hits` to the
/// global ids the findings report.
void congestion_findings(std::span<const std::uint64_t> hits,
                         std::uint64_t bound, const std::string& what,
                         Findings& out,
                         const cdag::CopyTranslation* map = nullptr) {
  for (std::uint64_t v = 0; v < hits.size(); ++v) {
    if (hits[v] > bound) {
      const auto id = static_cast<VertexId>(v);
      out.add(error_counts(kCongestion,
                           what + " congestion exceeds the routing bound",
                           bound, hits[v], map ? map->to_global(id) : id));
    }
  }
}

/// Reconciles the canonical hit array `hits` of the copy `map` renames
/// (routing.memo-totals, appended to `totals`): its sum against the
/// closed-form `expected_total` (`total_message` names the formula),
/// its max and smallest-id argmax against the closed-form `stats`.
/// Then checks every entry against `bound`, the paper's congestion
/// bound derived from the layout rather than taken from the engine
/// under audit (routing.congestion).
void reconcile_canonical(std::span<const std::uint64_t> hits,
                         const routing::HitStats& stats, std::uint64_t bound,
                         std::uint64_t expected_total,
                         const std::string& total_message,
                         const std::string& what,
                         const cdag::CopyTranslation& map, Findings totals,
                         const RuleSelection& selection, AuditReport& report) {
  std::uint64_t total = 0, max = 0;
  VertexId argmax = 0;
  for (VertexId v = 0; v < hits.size(); ++v) {
    total += hits[v];
    if (hits[v] > max) {
      max = hits[v];
      argmax = v;
    }
  }
  if (total != expected_total) {
    totals.add(error_counts(kMemoTotals, total_message, expected_total, total));
  }
  argmax = map.to_global(argmax);
  if (max != stats.max_hits || argmax != stats.argmax) {
    totals.add(error_counts(kMemoTotals,
                            "recorded " + what +
                                " max hits / argmax disagree with the "
                                "canonical array (smallest-id tie-break)",
                            max, stats.max_hits, argmax));
  }
  flush(report, selection, kMemoTotals, std::move(totals));
  if (selection.enabled(kCongestion)) {
    Findings findings;
    congestion_findings(hits, bound, "memoized " + what + "-routing vertex",
                        findings, &map);
    flush(report, selection, kCongestion, std::move(findings));
  }
}

/// Per-vertex hit counts of a streamed path enumeration:
/// enumerate(index, path_out) materializes the paths of one stream
/// index; all workers bump one shared counter array (relaxed atomic
/// adds, exactly commutative), so the counts are thread-count
/// independent and the working set does not grow with PR_THREADS.
template <typename Enumerate>
std::vector<std::uint64_t> streamed_hits(std::uint64_t num_indices,
                                         std::uint64_t grain, std::uint64_t n,
                                         const Enumerate& enumerate) {
  parallel::HitCounter hits(n);
  parallel::parallel_for(
      0, num_indices, grain, [&](std::uint64_t lo, std::uint64_t hi) {
        std::vector<VertexId> path;
        for (std::uint64_t idx = lo; idx < hi; ++idx) {
          enumerate(idx, [&](std::span<const VertexId> p) {
            for (const VertexId v : p) {
              if (v < n) hits.add(v);
            }
          }, path);
        }
      });
  return hits.take();
}

}  // namespace

AuditReport audit_path_family(const Graph& graph, const PathFamily& family,
                              const RuleSelection& selection) {
  PR_REQUIRE_MSG(!family.offsets.empty(),
                 "audit_path_family: offsets must have |paths|+1 entries");
  for (std::size_t i = 0; i + 1 < family.offsets.size(); ++i) {
    PR_REQUIRE_MSG(family.offsets[i] <= family.offsets[i + 1],
                   "audit_path_family: offsets must be non-decreasing");
  }
  PR_REQUIRE_MSG(family.offsets.back() == family.vertices.size(),
                 "audit_path_family: offsets must cover the vertex array");
  const std::uint64_t num_paths = family.offsets.size() - 1;
  const std::uint64_t n = graph.num_vertices();
  AuditReport report;

  // Structural per-path checks, folded in chunk order.
  struct Chunk {
    Findings edges, endpoints, length;
  };
  Chunk structural = parallel::parallel_reduce<Chunk>(
      0, num_paths, /*grain=*/64, Chunk{},
      [&](std::uint64_t lo, std::uint64_t hi) {
        Chunk chunk;
        for (std::uint64_t i = lo; i < hi; ++i) {
          const std::span<const VertexId> path = family.vertices.subspan(
              family.offsets[i], family.offsets[i + 1] - family.offsets[i]);
          PathExpectations x;
          x.graph = &graph;
          x.undirected = family.undirected;
          x.expected_length = family.expected_length;
          if (family.sources.size() == num_paths) x.source = family.sources[i];
          if (family.sinks.size() == num_paths) x.sink = family.sinks[i];
          check_path(path, x, "path " + std::to_string(i), chunk.edges,
                     chunk.endpoints, chunk.length);
        }
        return chunk;
      },
      [](Chunk& acc, Chunk& chunk) {
        acc.edges.merge(chunk.edges);
        acc.endpoints.merge(chunk.endpoints);
        acc.length.merge(chunk.length);
      });
  flush(report, selection, kEdges, std::move(structural.edges));
  flush(report, selection, kEndpoints, std::move(structural.endpoints));
  if (family.expected_length != 0) {
    flush(report, selection, kLength, std::move(structural.length));
  }

  if (family.congestion_bound != 0 && selection.enabled(kCongestion)) {
    const std::uint64_t avg_len =
        num_paths == 0 ? 1 : family.vertices.size() / num_paths + 1;
    const std::vector<std::uint64_t> hits = streamed_hits(
        num_paths, parallel::work_grain(num_paths, avg_len), n,
        [&](std::uint64_t i, const auto& sink, std::vector<VertexId>&) {
          sink(family.vertices.subspan(
              family.offsets[i], family.offsets[i + 1] - family.offsets[i]));
        });
    Findings findings;
    congestion_findings(hits, family.congestion_bound, "vertex", findings);
    flush(report, selection, kCongestion, std::move(findings));
  }

  if (family.vertex_disjoint && selection.enabled(kDisjoint)) {
    // Serial owner scan in path order: the reported pair is always the
    // lexicographically first collision.
    Findings findings;
    std::vector<std::uint64_t> owner(n, kNoId);
    for (std::uint64_t i = 0; i < num_paths; ++i) {
      for (std::uint64_t j = family.offsets[i]; j < family.offsets[i + 1];
           ++j) {
        const VertexId v = family.vertices[j];
        if (v >= n) continue;  // path-edges
        if (owner[v] == kNoId) {
          owner[v] = i;
        } else if (owner[v] != i) {
          findings.add(error(
              kDisjoint,
              "vertex is shared by paths " + std::to_string(owner[v]) +
                  " and " + std::to_string(i) +
                  " of a family declared vertex-disjoint",
              v));
        }
      }
    }
    flush(report, selection, kDisjoint, std::move(findings));
  }

  if (family.expected_paths != 0 && selection.enabled(kChainCount)) {
    Findings findings;
    if (num_paths != family.expected_paths) {
      findings.add(error_counts(kChainCount,
                                "family does not contain the expected "
                                "number of paths",
                                family.expected_paths, num_paths));
    }
    flush(report, selection, kChainCount, std::move(findings));
  }
  return report;
}

PathFamily family_view(const routing::PathStore& store) {
  PathFamily family;
  family.offsets = store.offsets();
  family.vertices = store.vertices();
  family.sources = store.sources();
  family.sinks = store.sinks();
  return family;
}

AuditReport audit_copy_translation(const Layout& global, int k,
                                   std::uint64_t prefix,
                                   std::span<const cdag::CopyBlock> blocks,
                                   const RuleSelection& selection) {
  PR_REQUIRE_MSG(k >= 1 && k <= global.r(),
                 "audit_copy_translation: k outside 1..r");
  PR_REQUIRE_MSG(prefix < global.pow_b()(global.r() - k),
                 "audit_copy_translation: prefix is not a copy index");
  const Layout local(global.n0(), global.b(), k);
  AuditReport report;
  Findings structure, bijection;

  // The reference runs: one per canonical rank, in (common) id order,
  // with the global bases given by the Fact-1 address formulas.
  struct Run {
    VertexId local_base, global_base;
    std::uint64_t length;
  };
  std::vector<Run> expected;
  for (const Side side : {Side::A, Side::B}) {
    for (int t = 0; t <= k; ++t) {
      expected.push_back(
          {local.enc(side, t, 0, 0),
           global.enc(side, global.r() - k + t, prefix * global.pow_b()(t), 0),
           local.enc_rank_size(t)});
    }
  }
  for (int t = 0; t <= k; ++t) {
    expected.push_back({local.dec(t, 0, 0),
                        global.dec(t, prefix * global.pow_b()(k - t), 0),
                        local.dec_rank_size(t)});
  }

  if (blocks.size() != expected.size()) {
    structure.add(error_counts(kCopyBlocks,
                               "renaming does not have one block per "
                               "canonical G_k rank (3(k+1) runs)",
                               expected.size(), blocks.size()));
  }
  VertexId next_local = 0;
  std::uint64_t covered = 0;
  std::uint64_t prev_global_end = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const cdag::CopyBlock& blk = blocks[i];
    if (blk.local_base != next_local) {
      structure.add(error_counts(kCopyBlocks,
                                 "block does not start where the previous "
                                 "one ended (local ids must tile G_k)",
                                 next_local, blk.local_base, i));
    }
    if (i < expected.size() && blk.length != expected[i].length) {
      structure.add(error_counts(kCopyBlocks,
                                 "block length differs from its rank size",
                                 expected[i].length, blk.length, i));
    }
    next_local = blk.local_base + static_cast<VertexId>(blk.length);
    covered += blk.length;

    if (blk.global_base + blk.length > global.num_vertices()) {
      bijection.add(error_counts(kCopyBijection,
                                 "block run leaves the global vertex range",
                                 global.num_vertices(),
                                 blk.global_base + blk.length, i));
    }
    if (i > 0 && blk.global_base < prev_global_end) {
      bijection.add(error_counts(kCopyBijection,
                                 "block overlaps or reorders the previous "
                                 "global run (the renaming is strictly "
                                 "increasing)",
                                 prev_global_end, blk.global_base, i));
    }
    prev_global_end = blk.global_base + blk.length;
    if (i < expected.size() && blk.global_base != expected[i].global_base) {
      bijection.add(error_counts(kCopyBijection,
                                 "block base disagrees with the Fact-1 "
                                 "address formulas",
                                 expected[i].global_base, blk.global_base, i));
    }
  }
  if (covered != local.num_vertices()) {
    structure.add(error_counts(kCopyBlocks,
                               "blocks do not cover the canonical G_k "
                               "exactly",
                               local.num_vertices(), covered));
  }
  flush(report, selection, kCopyBlocks, std::move(structure));
  flush(report, selection, kCopyBijection, std::move(bijection));
  return report;
}

AuditReport audit_memo_chain_counts(const routing::MemoRoutingEngine& engine,
                                    const SubComputation& sub,
                                    std::span<const std::uint64_t> hits,
                                    const routing::HitStats& stats,
                                    const RuleSelection& selection) {
  const Layout& layout = sub.cdag().layout();
  const int k = sub.k();
  AuditReport report;
  Findings totals;
  if (stats.num_paths != engine.expected_num_chains(k)) {
    totals.add(error_counts(kMemoTotals,
                            "chain count disagrees with 2*a^k*n0^k "
                            "(one chain per guaranteed dependence)",
                            engine.expected_num_chains(k), stats.num_paths));
  }
  reconcile_canonical(hits, stats,
                      2 * routing::guaranteed_fanout(layout, k),  // Lemma 3
                      engine.expected_chain_total_hits(k),
                      "hit-array total disagrees with the certificate "
                      "num_chains * (2k+2) (chains have 2k+2 distinct "
                      "vertices)",
                      "chain", cdag::CopyTranslation(layout, k, sub.prefix()),
                      std::move(totals), selection, report);
  return report;
}

AuditReport audit_memo_routing(const routing::MemoRoutingEngine& engine,
                               const SubComputation& sub,
                               const RuleSelection& selection) {
  const Layout& layout = sub.cdag().layout();
  const int k = sub.k();
  const cdag::CopyTranslation map(layout, k, sub.prefix());
  const cdag::ExplicitView view(sub.cdag());
  AuditReport report =
      audit_copy_translation(layout, k, sub.prefix(), map.blocks(), selection);
  report.merge(audit_memo_chain_counts(
      engine, sub, engine.canonical_chain_hit_array(k),
      engine.verify_chain_routing(view, k, sub.prefix()), selection));
  if (engine.has_decoder()) {
    // Claim 1: |D_1| = a + b.
    const std::uint64_t bound =
        static_cast<std::uint64_t>(layout.a() + layout.b()) *
        std::max(layout.pow_a()(k), layout.pow_b()(k));
    reconcile_canonical(engine.canonical_decode_hit_array(k),
                        engine.verify_decode_routing(view, k, sub.prefix()),
                        bound, engine.expected_decode_total_hits(k),
                        "decode hit-array total disagrees with the Claim-1 "
                        "certificate b^k*a^k + k*b^(k-1)*a^(k-1)*(D_1 visit "
                        "totals)",
                        "decode", map, Findings{}, selection, report);
  }
  return report;
}

AuditReport audit_chain_routing(const routing::ChainRouter& router,
                                const SubComputation& sub,
                                std::span<const std::uint64_t> hits,
                                const RuleSelection& selection) {
  const cdag::Cdag& owner = sub.cdag();
  const Layout& layout = owner.layout();
  const Graph& graph = owner.graph();
  const int k = sub.k();
  const std::uint64_t num_in = sub.inputs_per_side();
  const std::uint64_t fanout = routing::guaranteed_fanout(layout, k);  // n0^k
  const auto expected_length = static_cast<std::uint64_t>(2 * k + 2);
  const std::uint64_t bound = 2 * fanout;  // Lemma 3
  AuditReport report;

  const bool structural =
      selection.enabled(kEdges) || selection.enabled(kEndpoints) ||
      selection.enabled(kLength) || selection.enabled(kChainCount);
  if (structural) {
    struct Chunk {
      Findings edges, endpoints, length, count;
    };
    Chunk chunked = parallel::parallel_reduce<Chunk>(
        0, 2 * num_in, /*grain=*/8, Chunk{},
        [&](std::uint64_t lo, std::uint64_t hi) {
          Chunk chunk;
          std::vector<VertexId> chain;
          for (std::uint64_t idx = lo; idx < hi; ++idx) {
            const Side side = idx < num_in ? Side::A : Side::B;
            const std::uint64_t vpos = idx < num_in ? idx : idx - num_in;
            for (std::uint64_t free = 0; free < fanout; ++free) {
              const std::uint64_t wpos =
                  routing::guaranteed_output(layout, k, side, vpos, free);
              if (!routing::is_guaranteed_dep(layout, k, side, vpos, wpos)) {
                chunk.count.add(error(
                    kChainCount,
                    "enumerated pair (side " +
                        std::string(side == Side::A ? "A" : "B") + ", " +
                        std::to_string(vpos) + " -> " + std::to_string(wpos) +
                        ") is not a guaranteed dependence",
                    sub.input(side, vpos)));
                continue;
              }
              chain.clear();
              router.append_chain(sub, side, vpos, wpos, chain);
              PathExpectations x;
              x.graph = &graph;
              x.expected_length = expected_length;
              x.source = sub.input(side, vpos);
              x.sink = sub.output(wpos);
              check_path(chain, x,
                         "chain (" + std::string(side == Side::A ? "A" : "B") +
                             ", " + std::to_string(vpos) + " -> " +
                             std::to_string(wpos) + ")",
                         chunk.edges, chunk.endpoints, chunk.length);
            }
          }
          return chunk;
        },
        [](Chunk& acc, Chunk& chunk) {
          acc.edges.merge(chunk.edges);
          acc.endpoints.merge(chunk.endpoints);
          acc.length.merge(chunk.length);
          acc.count.merge(chunk.count);
        });
    flush(report, selection, kEdges, std::move(chunked.edges));
    flush(report, selection, kEndpoints, std::move(chunked.endpoints));
    flush(report, selection, kLength, std::move(chunked.length));
    // Lemma 3 routes one chain per guaranteed dependence: 2 a^k n0^k.
    Findings count = std::move(chunked.count);
    const std::uint64_t num_chains = 2 * num_in * fanout;
    const std::uint64_t expected_chains = 2 * layout.pow_a()(k) * fanout;
    if (num_chains != expected_chains) {
      count.add(error_counts(kChainCount,
                             "chain enumeration does not cover all "
                             "guaranteed dependencies",
                             expected_chains, num_chains));
    }
    flush(report, selection, kChainCount, std::move(count));
  }

  if (selection.enabled(kCongestion)) {
    Findings findings;
    congestion_findings(hits, bound, "chain-routing vertex", findings);
    flush(report, selection, kCongestion, std::move(findings));
  }
  return report;
}

AuditReport audit_concat_routing(const routing::ChainRouter& router,
                                 const SubComputation& sub,
                                 const RuleSelection& selection) {
  const cdag::Cdag& owner = sub.cdag();
  const Layout& layout = owner.layout();
  const Graph& graph = owner.graph();
  const std::uint64_t n = graph.num_vertices();
  const int k = sub.k();
  const std::uint64_t num_in = sub.inputs_per_side();
  const std::uint64_t bound = 6 * layout.pow_a()(k);  // Theorem 2
  const auto expected_length = static_cast<std::uint64_t>(6 * k + 4);
  // Theorem 2's meta accounting is per subcomputation: restricted to
  // G_k^i, a meta-vertex is the upward subtree hanging off its unique
  // member at the sub's input rank (the copy-parent chain of any deeper
  // member descends to it). Global meta roots can live below the sub
  // when k < r, so grouping climbs copy edges only down to the sub's
  // boundary level.
  const int boundary_level = layout.r() - k;
  const auto local_root = [&](VertexId v) {
    while (owner.copy_parent(v) != cdag::kInvalidVertex &&
           layout.level(v) > boundary_level) {
      v = owner.copy_parent(v);
    }
    return v;
  };
  AuditReport report;

  const auto for_pair_paths = [&](std::uint64_t idx, const auto& body) {
    const Side in_side = idx < num_in ? Side::A : Side::B;
    const std::uint64_t vpos = idx < num_in ? idx : idx - num_in;
    std::vector<VertexId> path;
    for (std::uint64_t wpos = 0; wpos < num_in; ++wpos) {
      path.clear();
      routing::append_full_path(router, sub, in_side, vpos, wpos, path);
      body(in_side, vpos, wpos, std::span<const VertexId>(path));
    }
  };

  const bool structural = selection.enabled(kEdges) ||
                          selection.enabled(kEndpoints) ||
                          selection.enabled(kLength) ||
                          selection.enabled(kCongestion);
  if (structural) {
    struct Chunk {
      Findings edges, endpoints, length, roots;
    };
    Chunk chunked = parallel::parallel_reduce<Chunk>(
        0, 2 * num_in, /*grain=*/4, Chunk{},
        [&](std::uint64_t lo, std::uint64_t hi) {
          Chunk chunk;
          for (std::uint64_t idx = lo; idx < hi; ++idx) {
            for_pair_paths(idx, [&](Side in_side, std::uint64_t vpos,
                                    std::uint64_t wpos,
                                    std::span<const VertexId> path) {
              const std::string label =
                  "full path (" + std::string(in_side == Side::A ? "A" : "B") +
                  ", " + std::to_string(vpos) + " -> " + std::to_string(wpos) +
                  ")";
              PathExpectations x;
              x.graph = &graph;
              x.undirected = true;  // middle chain traversed in reverse
              x.expected_length = expected_length;
              x.source = sub.input(in_side, vpos);
              x.sink = sub.output(wpos);
              check_path(path, x, label, chunk.edges, chunk.endpoints,
                         chunk.length);
              // Theorem 2 extends the bound to meta-vertices because a
              // path hitting a copy also passes its copy parent (the
              // only way in or out below rank r): hitting any member of
              // a sub-local meta subtree implies hitting its root.
              for (const VertexId v : path) {
                if (v >= n) continue;
                const VertexId parent = owner.copy_parent(v);
                if (parent == cdag::kInvalidVertex ||
                    layout.level(v) <= boundary_level) {
                  continue;
                }
                if (std::find(path.begin(), path.end(), parent) ==
                    path.end()) {
                  chunk.roots.add(
                      error(kCongestion,
                            label + " passes a copy vertex without its copy "
                                    "parent (Theorem 2 meta accounting)",
                            v));
                }
              }
            });
          }
          return chunk;
        },
        [](Chunk& acc, Chunk& chunk) {
          acc.edges.merge(chunk.edges);
          acc.endpoints.merge(chunk.endpoints);
          acc.length.merge(chunk.length);
          acc.roots.merge(chunk.roots);
        });
    flush(report, selection, kEdges, std::move(chunked.edges));
    flush(report, selection, kEndpoints, std::move(chunked.endpoints));
    flush(report, selection, kLength, std::move(chunked.length));

    if (selection.enabled(kCongestion)) {
      // Vertex-level hits, plus per-path-deduplicated meta-vertex hits;
      // both in shared counter arrays (relaxed atomic adds).
      parallel::HitCounter vertex_hits(n);
      parallel::HitCounter meta_hits(n);
      const std::uint64_t grain = parallel::work_grain(
          2 * num_in,
          /*per_item_cost=*/num_in * static_cast<std::uint64_t>(6 * k + 4));
      parallel::parallel_for(
          0, 2 * num_in, grain, [&](std::uint64_t lo, std::uint64_t hi) {
            std::vector<VertexId> roots_on_path;
            for (std::uint64_t idx = lo; idx < hi; ++idx) {
              for_pair_paths(idx, [&](Side, std::uint64_t, std::uint64_t,
                                      std::span<const VertexId> path) {
                roots_on_path.clear();
                for (const VertexId v : path) {
                  if (v >= n) continue;
                  vertex_hits.add(v);
                  const VertexId root = local_root(v);
                  if (std::find(roots_on_path.begin(), roots_on_path.end(),
                                root) == roots_on_path.end()) {
                    roots_on_path.push_back(root);
                    meta_hits.add(root);
                  }
                }
              });
            }
          });
      Findings findings = std::move(chunked.roots);
      congestion_findings(vertex_hits.take(), bound, "full-routing vertex",
                          findings);
      congestion_findings(meta_hits.take(), bound, "full-routing meta-vertex",
                          findings);
      flush(report, selection, kCongestion, std::move(findings));
    }
  }
  return report;
}

AuditReport audit_decode_routing(const routing::DecodeRouter& router,
                                 const SubComputation& sub,
                                 std::span<const std::uint64_t> hits,
                                 const RuleSelection& selection) {
  const cdag::Cdag& owner = sub.cdag();
  const Layout& layout = owner.layout();
  const Graph& graph = owner.graph();
  const int k = sub.k();
  const std::uint64_t num_q = sub.num_products();
  const std::uint64_t num_e = sub.inputs_per_side();
  const std::uint64_t bound =
      static_cast<std::uint64_t>(router.d1_size()) *
      std::max(layout.pow_a()(k), layout.pow_b()(k));  // Claim 1
  AuditReport report;

  const bool structural =
      selection.enabled(kEdges) || selection.enabled(kEndpoints);
  if (structural) {
    struct Chunk {
      Findings edges, endpoints, length;
    };
    Chunk chunked = parallel::parallel_reduce<Chunk>(
        0, num_q, /*grain=*/8, Chunk{},
        [&](std::uint64_t lo, std::uint64_t hi) {
          Chunk chunk;
          std::vector<VertexId> path;
          for (std::uint64_t q = lo; q < hi; ++q) {
            for (std::uint64_t e = 0; e < num_e; ++e) {
              path.clear();
              router.append_path(sub, q, e, path);
              PathExpectations x;
              x.graph = &graph;
              x.undirected = true;  // Claim 1 routes in the undirected D_k
              x.source = sub.dec(0, q, 0);
              x.sink = sub.output(e);
              check_path(path, x,
                         "decode path (" + std::to_string(q) + " -> " +
                             std::to_string(e) + ")",
                         chunk.edges, chunk.endpoints, chunk.length);
            }
          }
          return chunk;
        },
        [](Chunk& acc, Chunk& chunk) {
          acc.edges.merge(chunk.edges);
          acc.endpoints.merge(chunk.endpoints);
          acc.length.merge(chunk.length);
        });
    flush(report, selection, kEdges, std::move(chunked.edges));
    flush(report, selection, kEndpoints, std::move(chunked.endpoints));
  }

  if (selection.enabled(kCongestion)) {
    Findings findings;
    congestion_findings(hits, bound, "decode-routing vertex", findings);
    flush(report, selection, kCongestion, std::move(findings));
  }
  return report;
}

AuditReport audit_hall_matching(const bilinear::BilinearAlgorithm& alg,
                                Side side,
                                const routing::BaseMatching& matching,
                                const RuleSelection& selection) {
  const int n0 = alg.n0();
  const int a = alg.a();
  const int b = alg.b();
  AuditReport report;
  Findings domain, validity, capacity;
  std::vector<std::uint64_t> uses(static_cast<std::size_t>(b), 0);
  for (int d_in = 0; d_in < a; ++d_in) {
    for (int d_out = 0; d_out < a; ++d_out) {
      const auto flat = static_cast<std::uint64_t>(d_in * a + d_out);
      const bool guaranteed =
          routing::is_guaranteed_digit_pair(n0, side, d_in, d_out);
      const bool defined = matching.defined(d_in, d_out);
      if (guaranteed != defined) {
        domain.add(error(
            "hall.domain",
            std::string(defined ? "matched pair (" : "unmatched pair (") +
                std::to_string(d_in) + ", " + std::to_string(d_out) +
                (defined ? ") is not a guaranteed dependence"
                         : ") is a guaranteed dependence (Theorem 3 matches "
                           "all of them)"),
            flat));
      }
      if (!defined) continue;
      const int q = matching.product(d_in, d_out);
      if (q >= b) {
        validity.add(error_counts("hall.edge-validity",
                                  "matched product index is out of range",
                                  static_cast<std::uint64_t>(b - 1),
                                  static_cast<std::uint64_t>(q), flat));
        continue;
      }
      ++uses[static_cast<std::size_t>(q)];
      if (guaranteed && !routing::h_edge(alg, side, d_in, d_out, q)) {
        validity.add(error(
            "hall.edge-validity",
            "pair (" + std::to_string(d_in) + ", " + std::to_string(d_out) +
                ") is matched to product " + std::to_string(q) +
                " but is not adjacent to it in H (needs U[q,d_in] != 0 "
                "and W[d_out,q] != 0)",
            flat));
      }
    }
  }
  for (int q = 0; q < b; ++q) {
    if (uses[static_cast<std::size_t>(q)] > static_cast<std::uint64_t>(n0)) {
      capacity.add(error_counts(
          "hall.capacity",
          "product is matched more than n0 times (Theorem 3 capacity)",
          static_cast<std::uint64_t>(n0), uses[static_cast<std::size_t>(q)],
          static_cast<std::uint64_t>(q)));
    }
  }
  flush(report, selection, "hall.domain", std::move(domain));
  flush(report, selection, "hall.edge-validity", std::move(validity));
  flush(report, selection, "hall.capacity", std::move(capacity));
  return report;
}

AuditReport audit_disjoint_family(const cdag::Cdag& cdag,
                                  const bounds::DisjointFamily& family,
                                  const RuleSelection& selection) {
  const Layout& layout = cdag.layout();
  const int r = layout.r();
  AuditReport report;

  Findings size;
  const bool k_valid = family.k >= 0 && family.k <= r - 2;
  if (!k_valid) {
    size.add(error_counts("family.size",
                          "family order k outside 0..r-2 (Lemma 1 needs two "
                          "recursion levels above the members)",
                          static_cast<std::uint64_t>(r >= 2 ? r - 2 : 0),
                          static_cast<std::uint64_t>(family.k)));
  } else {
    const std::uint64_t guaranteed = layout.pow_b()(r - family.k - 2);
    if (family.guaranteed != guaranteed) {
      size.add(error_counts("family.size",
                            "recorded guarantee is not b^(r-k-2) (Lemma 1)",
                            guaranteed, family.guaranteed));
    }
    if (family.prefixes.size() < guaranteed) {
      size.add(error_counts(
          "family.size",
          "family is smaller than Lemma 1's guaranteed b^(r-k-2)", guaranteed,
          family.prefixes.size()));
    }
  }
  flush(report, selection, "family.size", std::move(size));

  Findings disjoint;
  if (k_valid && selection.enabled("family.input-disjoint")) {
    const std::uint64_t num_subs = layout.pow_b()(r - family.k);
    std::vector<std::uint64_t> owner(cdag.graph().num_vertices(), kNoId);
    for (const std::uint64_t prefix : family.prefixes) {
      if (prefix >= num_subs) {
        disjoint.add(error_counts("family.input-disjoint",
                                  "family prefix is not a subcomputation "
                                  "index (expected < b^(r-k))",
                                  num_subs - 1, prefix));
        continue;
      }
      const SubComputation sub(cdag, family.k, prefix);
      for (const VertexId root : sub.input_meta_roots()) {
        if (owner[root] == kNoId) {
          owner[root] = prefix;
        } else if (owner[root] != prefix) {
          disjoint.add(error(
              "family.input-disjoint",
              "subcomputations " + std::to_string(owner[root]) + " and " +
                  std::to_string(prefix) +
                  " share an input meta-vertex (Lemma 1 requires mutual "
                  "input-disjointness)",
              root));
        }
      }
    }
  }
  flush(report, selection, "family.input-disjoint", std::move(disjoint));
  return report;
}

}  // namespace pathrouting::audit
