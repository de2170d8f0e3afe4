#include "pathrouting/pebble/cache_sim.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "pathrouting/obs/obs.hpp"
#include "pathrouting/pebble/policies.hpp"
#include "pathrouting/schedule/use_lists.hpp"

namespace pathrouting::pebble {

namespace {

/// `Order` ranks resident values by their policy key: std::greater<>
/// over next-use steps for Belady, std::less<> over the touch clock for
/// LRU (policies.hpp).
template <typename Order>
PebbleResult run(const Graph& graph, std::span<const VertexId> schedule,
                 const PebbleOptions& options,
                 const std::function<bool(VertexId)>& is_output) {
  const std::uint64_t m = options.cache_size;
  const VertexId n = graph.num_vertices();
  const schedule::UseLists uses = schedule::build_use_lists(graph, schedule);
  std::vector<std::uint32_t> use_ptr(uses.off.begin(), uses.off.end() - 1);

  ResidentSet<Order> resident(n, m);
  std::vector<std::uint8_t> dirty(n, 0), written(n, 0);
  // Inputs have a slow-memory copy from the start.
  for (VertexId v = 0; v < n; ++v) written[v] = graph.in_degree(v) == 0;
  std::vector<std::uint32_t> pin_stamp(n, 0);
  std::vector<std::uint32_t> next_use(n, 0);
  const bool lru = options.eviction == Eviction::Lru;
  std::uint64_t touch_clock = 0;
  PebbleResult result;
  result.steps = schedule.size();

  // Segment attribution (optional). `birth_segment[v]` is the segment
  // that computed v; reads are charged to the segment issuing them and
  // writes to the written value's birth segment.
  const auto& ends = options.segment_ends;
  const bool segmented = !ends.empty();
  std::vector<std::uint32_t> birth_segment;
  std::uint32_t current_segment = 0;
  if (segmented) {
    PR_REQUIRE_MSG(std::adjacent_find(ends.begin(), ends.end(),
                                      std::greater_equal<>()) == ends.end(),
                   "segment ends must be strictly increasing");
    PR_REQUIRE(ends.back() == schedule.size());
    result.segment_reads.assign(ends.size(), 0);
    result.segment_writes.assign(ends.size(), 0);
    birth_segment.assign(n, 0);
  }
  if (options.record_step_io) result.step_io.assign(schedule.size(), 0);
  std::uint32_t current_step = 0;
  const auto charge_step = [&] {
    if (options.record_step_io) ++result.step_io[current_step];
  };

  // Stop rule (cache_sim.hpp). Outputs are counted only under a limit,
  // so an unlimited run makes no extra is_output call. A write that the
  // rule counts is always of a value read again later, so testing at
  // reads alone would stop every run that should stop; testing at
  // writes too stops sooner (a sixth fewer simulated steps on the E20
  // search points).
  const bool limited =
      options.io_limit != std::numeric_limits<std::uint64_t>::max();
  std::uint64_t outputs_unwritten = 0;
  if (limited) {
    for (VertexId v = 0; v < n; ++v) {
      outputs_unwritten += !written[v] && is_output(v);
    }
  }
  const auto stop_rule_fires = [&] {
    result.stopped =
        limited && std::max(result.reads, options.reads_floor) +
                           result.writes + outputs_unwritten >=
                       options.io_limit;
    return result.stopped;
  };

  // Next consumption of v strictly after step s (kNeverUsed if none),
  // advancing the monotone per-vertex cursor.
  const auto advance_next_use = [&](VertexId v, std::uint32_t s) {
    std::uint32_t& ptr = use_ptr[v];
    while (ptr < uses.off[v + 1] && uses.steps[ptr] <= s) ++ptr;
    return ptr < uses.off[v + 1] ? std::uint64_t{uses.steps[ptr]} : kNeverUsed;
  };

  const auto note_access = [&](VertexId v, std::uint64_t nu) {
    next_use[v] = nu == kNeverUsed ? UINT32_MAX : static_cast<std::uint32_t>(nu);
    ++touch_clock;
    resident.set(v, lru ? touch_clock : nu);
  };

  // Evicts one unpinned value; true when its write fired the stop rule.
  const auto evict_one = [&](std::uint32_t stamp) {
    const VertexId victim =
        resident.pick([&](VertexId u) { return pin_stamp[u] == stamp; });
    const bool write = dirty[victim] &&
                       (next_use[victim] != UINT32_MAX ||
                        (is_output(victim) && !written[victim]));
    if (write) {
      ++result.writes;
      ++result.evictions_dirty;
      charge_step();
      if (segmented) ++result.segment_writes[birth_segment[victim]];
      // A dirty value has never been written, so this settles an output.
      if (limited && is_output(victim)) --outputs_unwritten;
      written[victim] = 1;
    } else {
      ++result.evictions_clean;
    }
    dirty[victim] = 0;
    resident.erase(victim);
    return write && stop_rule_fires();
  };

  if (stop_rule_fires()) return result;

  for (std::uint32_t s = 0; s < schedule.size(); ++s) {
    current_step = s;
    if (segmented && s >= ends[current_segment]) ++current_segment;
    const VertexId v = schedule[s];
    const auto preds = graph.in(v);
    PR_REQUIRE_MSG(!preds.empty(), "inputs are not scheduled");
    PR_REQUIRE_MSG(preds.size() + 1 <= m, "cache too small for this vertex");
    const std::uint32_t stamp = s + 1;
    for (const VertexId p : preds) pin_stamp[p] = stamp;
    // Stage operands; each read needs a slow-memory copy to exist.
    for (const VertexId p : preds) {
      if (!resident.contains(p)) {
        PR_ASSERT_MSG(written[p],
                      "operand neither cached nor in slow memory: schedule "
                      "is not topological");
        while (resident.size() >= m) {
          if (evict_one(stamp)) return result;
        }
        ++result.reads;
        charge_step();
        if (segmented) ++result.segment_reads[current_segment];
        dirty[p] = 0;
        if (stop_rule_fires()) return result;
      }
      note_access(p, advance_next_use(p, s));
    }
    // Compute v into cache.
    PR_ASSERT_MSG(!resident.contains(v), "vertex computed twice");
    pin_stamp[v] = stamp;
    while (resident.size() >= m) {
      if (evict_one(stamp)) return result;
    }
    dirty[v] = 1;
    if (segmented) birth_segment[v] = current_segment;
    note_access(v, advance_next_use(v, s));
    result.peak_cached = std::max(result.peak_cached, resident.size());
  }

  // Halt: flush outputs that never reached slow memory. Each flush
  // settles an output it was already charged for, so the stop rule
  // cannot fire here.
  for (VertexId v = 0; v < n; ++v) {
    if (is_output(v) && !written[v]) {
      PR_ASSERT_MSG(resident.contains(v) && dirty[v], "lost output value");
      ++result.writes;
      charge_step();
      if (segmented) ++result.segment_writes[birth_segment[v]];
      written[v] = 1;
    }
  }
  return result;
}

}  // namespace

PebbleResult simulate(const Graph& graph, std::span<const VertexId> schedule,
                      const PebbleOptions& options,
                      const std::function<bool(VertexId)>& is_output) {
  PR_REQUIRE(options.cache_size >= 2);
  const obs::TraceSpan span("pebble.simulate");
  static obs::Counter obs_runs("pebble.runs");
  static obs::Counter obs_reads("pebble.reads");
  static obs::Counter obs_writes("pebble.writes");
  static obs::Counter obs_evictions("pebble.evictions");
  static obs::Counter obs_stopped("pebble.stopped");
  PebbleResult result =
      options.eviction == Eviction::Belady
          ? run<std::greater<>>(graph, schedule, options, is_output)
          : run<std::less<>>(graph, schedule, options, is_output);
  obs_runs.add();
  if (result.stopped) {
    obs_stopped.add();
  } else {
    obs_reads.add(result.reads);
    obs_writes.add(result.writes);
    obs_evictions.add(result.evictions_dirty + result.evictions_clean);
  }
  return result;
}

}  // namespace pathrouting::pebble
