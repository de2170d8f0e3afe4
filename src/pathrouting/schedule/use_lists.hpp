// Where a schedule consumes each value: the next-use oracle of the
// pebble simulator's Belady policy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pathrouting/cdag/graph.hpp"

namespace pathrouting::schedule {

using cdag::Graph;
using cdag::VertexId;

/// The schedule positions at which each vertex is read as an operand,
/// increasing, in CSR layout: the uses of v are
/// steps[off[v] .. off[v + 1]).
struct UseLists {
  std::vector<std::uint32_t> off;
  std::vector<std::uint32_t> steps;
};

UseLists build_use_lists(const Graph& graph,
                         std::span<const VertexId> schedule);

}  // namespace pathrouting::schedule
