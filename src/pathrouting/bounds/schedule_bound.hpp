// Admissible lower bounds for partial schedules — the pruning bound of
// the schedule-space search (search/optimizer.hpp) and the quantity the
// search.certified-optimal audit rule re-derives independently.
//
// A state of the search is a prefix P of a topological order of the
// non-input vertices. For ANY completion of P, executed by ANY
// replacement behavior on a capacity-M cache, the total I/O is at least
//
//   MIN-fetches(P, M) + untouched(P) + max(0, live(P) - M) + outputs
//
// where
//  * MIN-fetches(P, M): the offline-optimal (Belady/MIN) fetch count of
//    P's operand-access string on a capacity-M cache. The access string
//    (operands staged, results born into cache) is fixed by P, and
//    demand fetching with furthest-next-use eviction minimizes fetches
//    over every replacement and prefetch behavior on a fixed string, so
//    no execution can pay fewer reads during P's steps — holding values
//    for the suffix only costs capacity;
//  * untouched(P): inputs never accessed during P but consumed by at
//    least one unscheduled vertex — each costs a compulsory read in the
//    suffix;
//  * max(0, live(P) - M): live(P) counts values touched or computed
//    during P that still have an unscheduled consumer. At most M of
//    them can cross the prefix/suffix boundary inside the cache; every
//    other one must re-enter the cache by a read (recomputation is
//    forbidden). This is the capacity half of the Hong-Kung partition
//    argument (bounds/hong_kung.hpp): a suffix whose dominator set
//    exceeds the boundary cache state must pay the difference in I/O;
//  * outputs: every non-input output vertex is written to slow memory
//    at least once, and no write is counted by the read terms.
//
// The three read terms are disjoint in time and in value set, so the
// sum — not just the max — is admissible. With an empty prefix the
// bound degenerates to the compulsory traffic (consumed inputs +
// outputs); the search max-combines that root value with the paper's
// schedule-independent closed form (bounds::theorem1_io_lower_bound,
// the Section 6 segment inequality), which is also admissible for
// every topological order of G_r.
//
// MIN as interval packing (OPTgen, Jain & Lin, ISCA 2016). Step s of P
// computes v_s: its distinct operands and v_s itself must all be
// cached at once, which leaves room for M - |in(v_s)| - 1 other
// values. A reuse interval runs from a value's previous access (an
// operand use, or its birth as a result) to its next operand use; the
// use is a hit exactly when the value stays cached at every step
// strictly inside the interval. An input's first use has no interval
// and is a compulsory fetch. So MIN's fetch count is the number of
// operand accesses minus the largest set of reuse intervals that fits
// under the per-step room. Packing greedily in right-endpoint order is
// optimal, and every interval step s creates ends at s: appending a
// step never revises an earlier decision, and removing the last step
// undoes exactly its own decisions. PrefixBound keeps the room of each
// step and an undo stack, so push and pop cost O(in-degree + length of
// the operands' reuse intervals) and allocate nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "pathrouting/cdag/graph.hpp"

namespace pathrouting::bounds {

using cdag::Graph;
using cdag::VertexId;

struct PartialBound {
  /// MIN-optimal fetch count over the prefix's access string.
  std::uint64_t prefix_reads = 0;
  /// Compulsory suffix reads: untouched needed inputs plus the
  /// boundary-capacity overflow max(0, live - M).
  std::uint64_t suffix_reads = 0;
  /// One write per non-input output vertex of the whole graph.
  std::uint64_t output_writes = 0;
  [[nodiscard]] std::uint64_t total() const {
    return prefix_reads + suffix_reads + output_writes;
  }
  friend bool operator==(const PartialBound&, const PartialBound&) = default;
};

/// The admissible bound above, kept up to date while a prefix grows
/// and shrinks at its end. Pushed vertices must form a valid
/// topological prefix over non-input vertices (no vertex twice,
/// operands scheduled or inputs), and `cache_size` must admit every
/// step (in-degree + 1 <= M). The graph must outlive the bound.
class PrefixBound {
 public:
  PrefixBound(const Graph& graph, std::uint64_t cache_size,
              const std::function<bool(VertexId)>& is_output);

  /// Appends v as the next step of the prefix.
  void push(VertexId v);
  /// Removes the last step.
  void pop();
  /// The bound for the current prefix (the root bound when empty).
  [[nodiscard]] PartialBound total() const;

 private:
  struct Undo {
    std::uint32_t prev_access;  // the operand's access before this use
    bool hit;                   // its reuse interval was packed
  };

  const Graph& graph_;
  std::uint64_t m_;
  std::vector<VertexId> steps_;
  /// Per step: cache slots still free for values kept across it.
  std::vector<std::uint32_t> room_;
  /// Per vertex: step of its latest access, kNever while untouched.
  std::vector<std::uint32_t> last_access_;
  /// Per vertex: in-edges from it into unscheduled vertices.
  std::vector<std::uint32_t> pending_;
  /// One entry per operand access, in push order.
  std::vector<Undo> undo_;
  std::uint64_t fetches_ = 0;
  std::uint64_t live_ = 0;
  std::uint64_t untouched_inputs_ = 0;
  std::uint64_t output_writes_ = 0;
};

/// The bound for a whole prefix: a PrefixBound with `prefix` pushed.
/// An empty prefix yields the root bound.
PartialBound partial_schedule_lower_bound(
    const Graph& graph, std::span<const VertexId> prefix,
    std::uint64_t cache_size,
    const std::function<bool(VertexId)>& is_output);

}  // namespace pathrouting::bounds
