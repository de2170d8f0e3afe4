// Test-only oracle for bounds::PrefixBound and
// bounds::partial_schedule_lower_bound: the admissible prefix bound
// computed the direct way, by replaying Belady/MIN (demand fetching,
// furthest-next-use eviction, a linear victim scan) over the whole
// prefix and then scanning every vertex for the suffix terms. It shares
// nothing with the production bound except the use-list builder, so
// agreement checks the interval-packing form of MIN and the
// incremental suffix counts.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "pathrouting/bounds/schedule_bound.hpp"

namespace pathrouting::oracle {

/// The PartialBound production must return for the same arguments.
bounds::PartialBound reference_partial_bound(
    const cdag::Graph& graph, std::span<const cdag::VertexId> prefix,
    std::uint64_t cache_size,
    const std::function<bool(cdag::VertexId)>& is_output);

}  // namespace pathrouting::oracle
