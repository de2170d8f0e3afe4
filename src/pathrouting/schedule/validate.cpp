#include "pathrouting/schedule/validate.hpp"

#include <vector>

#include "pathrouting/obs/obs.hpp"

namespace pathrouting::schedule {

namespace {

audit::Diagnostic finding(std::string_view rule, std::string_view message,
                          std::uint64_t vertex,
                          std::uint64_t edge = audit::kNoId) {
  audit::Diagnostic diag;
  diag.rule = std::string(rule);
  diag.message = std::string(message);
  diag.vertex = vertex;
  diag.edge = edge;
  return diag;
}

}  // namespace

std::vector<audit::Diagnostic> schedule_diagnostics(
    const Graph& graph, std::span<const VertexId> order) {
  const obs::TraceSpan span("schedule.validate");
  static obs::Counter obs_validations("schedule.validations");
  obs_validations.add();
  const VertexId n = graph.num_vertices();
  std::vector<audit::Diagnostic> diags;
  std::vector<std::uint8_t> done(n, 0);
  // Inputs are available from the start.
  for (VertexId v = 0; v < n; ++v) {
    if (graph.in_degree(v) == 0) done[v] = 1;
  }
  for (std::size_t s = 0; s < order.size(); ++s) {
    const VertexId v = order[s];
    if (v >= n) {
      diags.push_back(
          finding("schedule.vertex-range", "vertex id out of range", v));
      continue;
    }
    if (graph.in_degree(v) == 0) {
      diags.push_back(
          finding("schedule.no-inputs", "schedule contains an input", v));
      continue;
    }
    if (done[v]) {
      diags.push_back(
          finding("schedule.no-duplicates", "vertex scheduled twice", v));
      continue;
    }
    const std::span<const VertexId> preds = graph.in(v);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (!done[preds[i]]) {
        diags.push_back(finding("schedule.topological",
                                "operand used before it is computed", v,
                                graph.in_edge_base(v) + i));
      }
    }
    done[v] = 1;
  }
  for (VertexId v = 0; v < n; ++v) {
    if (!done[v]) {
      diags.push_back(finding("schedule.coverage",
                              "schedule does not cover every computed vertex",
                              v));
    }
  }
  return diags;
}

}  // namespace pathrouting::schedule
