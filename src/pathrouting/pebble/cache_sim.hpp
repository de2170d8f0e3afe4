// Red-blue pebble game (Hong-Kung) cache simulator — the paper's
// machine model, executed exactly.
//
// Rules (Section 1, "Machine model"):
//  * slow memory is unbounded, cache holds at most M values;
//  * initially all inputs are in slow memory and the cache is empty;
//  * moving one value between slow memory and cache costs one I/O;
//  * a vertex may be computed only when all its predecessors are in
//    cache; the result is placed in cache;
//  * no vertex is computed twice (a computed value evicted from cache
//    without a slow-memory copy would be lost, so such evictions first
//    pay a write);
//  * at halt every output resides in slow memory.
//
// The simulator takes an explicit schedule (a topological order of the
// computed vertices) and an eviction policy, and reports exact read /
// write counts. Belady's policy (evict the value used furthest in the
// future, preferring dead values) is the strong baseline; LRU is the
// practical comparison for the ablation experiments. Both policies run
// on one M-bounded resident set (policies.hpp) that holds only the
// cached values, keyed by next use (Belady) or last touch (LRU), so a
// step costs O(in-degree * log M) whatever the graph size.
//
// Victim ties (equal eviction key) break deterministically to the
// lowest VertexId (policies.hpp). Counts are therefore a pure function
// of (graph, schedule, M, policy) on every platform — the contract the
// golden corpus and the schedule-search certificates pin.
//
// Stop rule: a caller that only needs to know whether a schedule beats
// some cost sets PebbleOptions::io_limit. The run then stops as soon as
//   max(reads, reads_floor) + writes + (outputs not yet written)
// reaches io_limit, and returns with `stopped` set and partial counts.
// The left side never exceeds the final I/O: reads only grow and never
// end below the MIN fetch count that reads_floor may carry, and every
// output still missing from slow memory costs one more write. So a
// stopped run's full I/O is >= io_limit, a run whose full I/O is below
// io_limit never stops, and a run that does not stop returns exactly
// what an unlimited run returns. The limit is tested only where a read
// or a write is counted, and outputs are counted only when a limit is
// set, so an unlimited run pays nothing for the rule.
//
// Observability: each call is one "pebble.simulate" span and counts
// once in pebble.runs. A finished run adds its totals to pebble.reads,
// pebble.writes and pebble.evictions; a stopped one adds only to
// pebble.stopped.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "pathrouting/cdag/graph.hpp"

namespace pathrouting::pebble {

using cdag::Graph;
using cdag::VertexId;

enum class Eviction { Belady, Lru };

struct PebbleOptions {
  std::uint64_t cache_size = 0;  // M, in values
  Eviction eviction = Eviction::Belady;
  /// Optional segment boundaries (exclusive end steps, strictly
  /// increasing, last one = schedule size). When non-empty, the result
  /// carries per-segment I/O attribution: reads land in the segment
  /// whose steps issued them, writes in the segment that *computed* the
  /// written value — the attribution under which the paper's
  /// per-segment bound |delta'(S')| - 2M applies (Section 6).
  std::vector<std::uint32_t> segment_ends;
  /// Record the I/Os (reads + eviction/flush writes) issued while
  /// executing each step, for offline re-segmentation (the Hong-Kung
  /// partition lemma; see bounds/hong_kung.hpp).
  bool record_step_io = false;
  /// Stop once the run's I/O is proven to reach this (see the stop rule
  /// above); the default never stops.
  std::uint64_t io_limit = std::numeric_limits<std::uint64_t>::max();
  /// A floor on the run's final read count, read only by the stop rule.
  /// The MIN fetch count of the schedule at M (e.g. the prefix_reads of
  /// bounds::PrefixBound over the whole schedule) is one under any
  /// eviction policy.
  std::uint64_t reads_floor = 0;
};

struct PebbleResult {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t steps = 0;
  /// Evictions split by whether the victim still had a live use: dirty
  /// evictions paid a write, clean/dead ones were free. Useful for
  /// diagnosing where a schedule loses its I/O.
  std::uint64_t evictions_dirty = 0;
  std::uint64_t evictions_clean = 0;
  /// Peak number of simultaneously cached values (<= M; smaller when
  /// the schedule never fills the cache).
  std::uint64_t peak_cached = 0;
  /// The stop rule fired: the counts are partial, and the full run's
  /// I/O is at least PebbleOptions::io_limit.
  bool stopped = false;
  [[nodiscard]] std::uint64_t io() const { return reads + writes; }
  /// Per-segment attribution (see PebbleOptions::segment_ends).
  std::vector<std::uint64_t> segment_reads;
  std::vector<std::uint64_t> segment_writes;  // by the value's birth segment
  /// I/Os issued per step (see PebbleOptions::record_step_io). Final
  /// output flushes land on the last step.
  std::vector<std::uint32_t> step_io;
};

/// Runs the pebble game. `schedule` is the computation order over
/// non-input vertices (validated to be topological and complete by
/// schedule::validate; the simulator only checks what it needs to stay
/// safe). `is_output(v)` marks values that must be in slow memory at
/// halt. Aborts if M is too small to compute some vertex at all
/// (max in-degree + 1).
PebbleResult simulate(const Graph& graph,
                      std::span<const VertexId> schedule,
                      const PebbleOptions& options,
                      const std::function<bool(VertexId)>& is_output);

}  // namespace pathrouting::pebble
