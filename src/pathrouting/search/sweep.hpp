// One (algorithm, r, M) point of the schedule-search experiment (E20),
// shared by bench_schedule_search and pr_bench_gate — the same code
// path produces the committed baseline and re-derives it in CI, so a
// count diff is a behavioural change, never a harness skew.
//
// A point runs the whole pipeline on the catalog CDAG G_r:
// DFS and BFS baselines through pebble::simulate (Belady), the seeded
// local search from the DFS order, then branch-and-bound seeded with
// the local-search incumbent under the deterministic node budget. The
// root lower bound max-combines the partial-state bound at the empty
// prefix (bounds/schedule_bound.hpp) with the paper's Theorem-1 closed
// form — both schedule-independent, so a cost that meets the bound is
// a certified-optimal pebbling.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pathrouting/cdag/graph.hpp"
#include "pathrouting/obs/bench_record.hpp"
#include "pathrouting/search/optimizer.hpp"

namespace pathrouting::search {

struct SweepSpec {
  std::string algorithm;  // catalog name (bilinear::by_name)
  int r = 1;
  std::uint64_t m = 0;            // cache size M, in values
  std::uint64_t node_budget = 0;  // branch-and-bound expansions
  std::uint64_t seed = 1;         // local-search seed
  std::uint64_t ls_rounds = 16;
  std::uint64_t ls_moves = 64;
};

struct SweepPoint {
  SweepSpec spec;
  std::uint64_t num_vertices = 0;
  std::uint64_t scheduled_vertices = 0;  // non-input vertices
  // Exact u64 counters — the determinism contract pr_bench_gate
  // re-derives bit for bit.
  std::uint64_t dfs_io = 0;
  std::uint64_t bfs_io = 0;
  std::uint64_t local_io = 0;
  std::uint64_t searched_io = 0;
  std::uint64_t searched_reads = 0;
  std::uint64_t searched_writes = 0;
  std::uint64_t lower_bound = 0;
  bool certified = false;
  Proof proof = Proof::kNone;
  std::uint64_t nodes_expanded = 0;
  std::uint64_t nodes_pruned = 0;
  std::uint64_t leaves_scored = 0;
  std::uint64_t moves_accepted = 0;
  std::uint64_t graph_fnv = 0;    // canonical CSR digest of G_r
  std::uint64_t witness_fnv = 0;  // digest of the witness schedule
  std::vector<VertexId> witness;
  std::vector<std::uint8_t> output_mask;  // size num_vertices
  double seconds = 0;  // wall time of the whole pipeline, graph included
};

/// Runs one point (builds its own Cdag).
SweepPoint run_search_point(const SweepSpec& spec);

/// Canonical FNV-1a digest of a graph's in-CSR (vertex count, then per
/// vertex its in-degree and predecessor list) — the graph identity the
/// golden corpus and certificates pin.
std::uint64_t graph_digest(const cdag::Graph& graph);

/// Serializes a point onto the unified bench-record schema (experiment
/// "schedule_search"); spec fields are stored so the gate can re-derive
/// the point from the committed baseline alone.
void fill_search_record(const SweepPoint& point, obs::BenchRecord& rec);

/// Rebuilds the spec from a baseline record written by
/// fill_search_record; a missing field or an unknown algorithm is
/// reported through `in`.
SweepSpec search_spec_from_record(obs::RecordReader& in);

/// The sweep's certified-optimal count: the schedule_search records
/// among `records` whose "certified" is true, i.e. whose witness met
/// the root lower bound (the only proof the search issues).
std::uint64_t certified_count(std::span<const obs::BenchRecord> records);

/// The sweep roll-up (experiment "schedule_search_summary"): the number
/// of schedule_search records among `records` and their
/// certified_count. The bench writes it after its points and the gate
/// rebuilds it from the fresh points, so a certificate lost anywhere in
/// the sweep shows even if no single record mismatched.
void fill_search_summary_record(std::span<const obs::BenchRecord> records,
                                obs::BenchRecord& rec);

}  // namespace pathrouting::search
