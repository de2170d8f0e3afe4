// Schedule validation: the pebble game's preconditions, reported as
// audit Diagnostics (schedule.* rules of the audit registry). A
// schedule is valid iff schedule_diagnostics returns no finding.
#pragma once

#include <span>
#include <vector>

#include "pathrouting/audit/diagnostic.hpp"
#include "pathrouting/cdag/graph.hpp"

namespace pathrouting::schedule {

using cdag::Graph;
using cdag::VertexId;

/// Full diagnosis of `order` against the machine model: every non-input
/// vertex exactly once, no input vertices, operands computed before
/// use. Findings carry the schedule.* rule ids in schedule-position
/// order (coverage findings last, in vertex-id order) and are uncapped;
/// audit::audit_schedule layers rule selection and per-rule capping on
/// top. The scan keeps going past the first violation, so a corrupted
/// schedule yields every independent finding in one pass.
std::vector<audit::Diagnostic> schedule_diagnostics(
    const Graph& graph, std::span<const VertexId> order);

}  // namespace pathrouting::schedule
