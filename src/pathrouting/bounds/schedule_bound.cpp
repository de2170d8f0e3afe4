#include "pathrouting/bounds/schedule_bound.hpp"

#include <algorithm>

#include "pathrouting/support/check.hpp"

namespace pathrouting::bounds {

namespace {

/// last_access_ of a value no step has touched yet.
constexpr std::uint32_t kNever = UINT32_MAX;

/// Packs a reuse interval whose interior steps have `rooms` left, if
/// each of them still has a free slot.
bool pack(std::span<std::uint32_t> rooms) {
  if (std::find(rooms.begin(), rooms.end(), 0u) != rooms.end()) return false;
  for (std::uint32_t& room : rooms) --room;
  return true;
}

}  // namespace

PrefixBound::PrefixBound(const Graph& graph, std::uint64_t cache_size,
                         const std::function<bool(VertexId)>& is_output)
    : graph_(graph), m_(cache_size) {
  PR_REQUIRE(m_ >= 2);
  const VertexId n = graph.num_vertices();
  steps_.reserve(n);
  room_.resize(n);
  last_access_.assign(n, kNever);
  pending_.resize(n);
  undo_.reserve(graph.num_edges());
  for (VertexId v = 0; v < n; ++v) {
    pending_[v] = graph.out_degree(v);
    if (graph.in_degree(v) == 0) {
      if (pending_[v] > 0) ++untouched_inputs_;
    } else if (is_output(v)) {
      ++output_writes_;
    }
  }
}

void PrefixBound::push(VertexId v) {
  const auto preds = graph_.in(v);
  PR_REQUIRE_MSG(!preds.empty(), "inputs are not scheduled");
  PR_REQUIRE_MSG(preds.size() + 1 <= m_, "cache too small for this vertex");
  const auto s = static_cast<std::uint32_t>(steps_.size());
  std::uint32_t operands = 0;  // distinct ones
  for (const VertexId p : preds) {
    const std::uint32_t prev = last_access_[p];
    bool hit = prev == s;  // p repeats an operand of this step
    if (!hit) {
      ++operands;
      hit = prev != kNever &&
            pack(std::span(room_).subspan(prev + 1, s - prev - 1));
    }
    if (!hit) ++fetches_;
    undo_.push_back({prev, hit});
    // v consumes p, so p was needed before this access: live if
    // touched, else an untouched input (a valid prefix computed every
    // non-input operand already).
    if (prev != kNever) {
      --live_;
    } else {
      --untouched_inputs_;
    }
    if (--pending_[p] > 0) ++live_;
    last_access_[p] = s;
  }
  // At most n values exist, so capping M at n changes no decision and
  // keeps the room in 32 bits.
  const std::uint64_t slots = std::min<std::uint64_t>(m_, room_.size());
  room_[s] = static_cast<std::uint32_t>(slots - 1 - operands);
  last_access_[v] = s;
  if (pending_[v] > 0) ++live_;
  steps_.push_back(v);
}

void PrefixBound::pop() {
  PR_REQUIRE_MSG(!steps_.empty(), "pop on an empty prefix");
  const VertexId v = steps_.back();
  steps_.pop_back();
  const auto s = static_cast<std::uint32_t>(steps_.size());
  if (pending_[v] > 0) --live_;
  last_access_[v] = kNever;
  const auto preds = graph_.in(v);
  for (auto it = preds.rbegin(); it != preds.rend(); ++it) {
    const VertexId p = *it;
    const Undo undo = undo_.back();
    undo_.pop_back();
    if (pending_[p]++ > 0) --live_;
    last_access_[p] = undo.prev_access;
    if (undo.prev_access != kNever) {
      ++live_;
    } else {
      ++untouched_inputs_;
    }
    if (!undo.hit) {
      --fetches_;
    } else {
      for (std::uint32_t j = undo.prev_access + 1; j < s; ++j) ++room_[j];
    }
  }
}

PartialBound PrefixBound::total() const {
  return {.prefix_reads = fetches_,
          .suffix_reads = untouched_inputs_ + (live_ > m_ ? live_ - m_ : 0),
          .output_writes = output_writes_};
}

PartialBound partial_schedule_lower_bound(
    const Graph& graph, std::span<const VertexId> prefix,
    std::uint64_t cache_size,
    const std::function<bool(VertexId)>& is_output) {
  PrefixBound bound(graph, cache_size, is_output);
  for (const VertexId v : prefix) bound.push(v);
  return bound.total();
}

}  // namespace pathrouting::bounds
