// The pebble simulator's resident set: the values currently in cache,
// ranked by eviction preference.
//
// One indexed binary heap holds exactly the cached values — at most M
// entries — plus an O(n) position array, so a key change or an
// eviction sifts in place in O(log M) and no stale entry is ever kept.
// The simulator supplies each value's policy key on every access, and
// the order on keys is a template parameter:
//  * Belady / MIN, `std::greater<>` over the next-use step: furthest
//    next use first, so dead values (kNeverUsed) are preferred victims;
//  * LRU, `std::less<>` over a touch clock: oldest touch first.
//
// Victim ties (equal key) break to the LOWEST VertexId. This is a
// documented determinism rule, not an accident of heap layout: the
// golden corpus and the schedule-search certificates pin exact
// read/write counts, so the victim choice must be a pure function of
// the schedule on every std-lib implementation. Belady hits real ties
// constantly (all dead values share the key kNeverUsed, and two
// operands of one future step share its index); LRU's clock is unique
// per touch, but the rule is applied uniformly so both policies stay
// covered by the same contract (see tests/test_pebble.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "pathrouting/cdag/graph.hpp"

namespace pathrouting::pebble {

using cdag::VertexId;

inline constexpr std::uint64_t kNeverUsed = static_cast<std::uint64_t>(-1);

template <typename Order>
class ResidentSet {
 public:
  ResidentSet(std::size_t num_vertices, std::uint64_t capacity)
      : pos_(num_vertices, kAbsent) {
    heap_.reserve(std::min<std::uint64_t>(capacity, num_vertices));
  }

  [[nodiscard]] bool contains(VertexId v) const { return pos_[v] != kAbsent; }
  [[nodiscard]] std::uint64_t size() const { return heap_.size(); }

  /// Inserts v with `key`, or re-keys it in place if already resident.
  void set(VertexId v, std::uint64_t key) {
    std::uint32_t i = pos_[v];
    if (i == kAbsent) {
      i = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back({key, v});
    } else {
      heap_[i].key = key;
    }
    restore(i);
  }

  void erase(VertexId v) {
    const std::uint32_t i = pos_[v];
    PR_ASSERT(i != kAbsent);
    pos_[v] = kAbsent;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    heap_[i] = last;
    restore(i);
  }

  /// The victim: the resident value ranked first among those for which
  /// `pinned(v)` is false. Every ancestor of that entry ranks above it,
  /// so each is pinned; the search therefore descends through pinned
  /// entries only and visits at most 2 * (pinned count) + 1 nodes.
  template <typename Pinned>
  VertexId pick(const Pinned& pinned) {
    std::uint32_t best = kAbsent;
    stack_.clear();
    if (!heap_.empty()) stack_.push_back(0);
    while (!stack_.empty()) {
      const std::uint32_t i = stack_.back();
      stack_.pop_back();
      if (!pinned(heap_[i].v)) {
        if (best == kAbsent || before(heap_[i], heap_[best])) best = i;
        continue;
      }
      for (std::uint32_t c = 2 * i + 1; c <= 2 * i + 2 && c < heap_.size();
           ++c) {
        stack_.push_back(c);
      }
    }
    PR_ASSERT_MSG(best != kAbsent, "no evictable cache entry");
    return heap_[best].v;
  }

 private:
  struct Entry {
    std::uint64_t key;
    VertexId v;
  };
  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();

  /// True when `a` is the better victim: first in Order, lowest id on
  /// equal keys.
  static bool before(const Entry& a, const Entry& b) {
    if (a.key != b.key) return Order{}(a.key, b.key);
    return a.v < b.v;
  }

  /// Moves the entry at i up or down to its place in the heap order.
  void restore(std::uint32_t i) {
    if (i > 0 && before(heap_[i], heap_[(i - 1) / 2])) {
      sift_up(i);
    } else {
      sift_down(i);
    }
  }

  void sift_up(std::uint32_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::uint32_t parent = (i - 1) / 2;
      if (!before(e, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }

  void sift_down(std::uint32_t i) {
    const Entry e = heap_[i];
    const auto n = static_cast<std::uint32_t>(heap_.size());
    while (true) {
      std::uint32_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], e)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, e);
  }

  void place(std::uint32_t i, const Entry& e) {
    heap_[i] = e;
    pos_[e.v] = i;
  }

  std::vector<Entry> heap_;
  std::vector<std::uint32_t> pos_;
  std::vector<std::uint32_t> stack_;  // pick's scratch, kept to reuse
};

}  // namespace pathrouting::pebble
