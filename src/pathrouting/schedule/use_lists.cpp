#include "pathrouting/schedule/use_lists.hpp"

namespace pathrouting::schedule {

UseLists build_use_lists(const Graph& graph,
                         std::span<const VertexId> schedule) {
  const VertexId n = graph.num_vertices();
  UseLists uses;
  uses.off.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const VertexId v : schedule) {
    for (const VertexId p : graph.in(v)) ++uses.off[p];
  }
  // Inclusive prefix sums leave off[v] at the end of v's uses; filling
  // the steps back to front moves it down to their start.
  for (VertexId v = 1; v < n; ++v) uses.off[v] += uses.off[v - 1];
  if (n > 0) uses.off[n] = uses.off[n - 1];
  uses.steps.resize(uses.off[n]);
  for (auto s = static_cast<std::uint32_t>(schedule.size()); s-- > 0;) {
    for (const VertexId p : graph.in(schedule[s])) {
      uses.steps[--uses.off[p]] = s;
    }
  }
  return uses;
}

}  // namespace pathrouting::schedule
