// Differential oracle for the pebble game: pebble::simulate against a
// reference simulator that applies the same rules in the plainest way
// (per-vertex use lists, a flat list of resident values, and a linear
// scan of that list for every victim — O(M) per eviction), on seeded
// random DAGs and random topological schedules, for both eviction
// policies and every cache size from max in-degree + 1 to n + 1. The
// stop rule (PebbleOptions::io_limit) is checked on the same DAGs
// against simulate's own unlimited runs.
//
// Environment knobs (the nightly CI job turns both up):
//   PR_PROPERTY_SEED   base seed of the sweep  (default 20260806)
//   PR_PROPERTY_ITERS  DAGs drawn per run      (default 25)
// Failures log the seed, so a counterexample replays with
// PR_PROPERTY_SEED=<seed> PR_PROPERTY_ITERS=1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "pathrouting/bounds/schedule_bound.hpp"
#include "pathrouting/cdag/graph.hpp"
#include "pathrouting/pebble/cache_sim.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/support/prng.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using cdag::Graph;
using cdag::VertexId;
using pebble::Eviction;
using pebble::PebbleOptions;
using pebble::PebbleResult;

std::uint64_t property_seed() {
  const char* env = std::getenv("PR_PROPERTY_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 20260806ull;
}

int property_iters() {
  const char* env = std::getenv("PR_PROPERTY_ITERS");
  const int n = env != nullptr ? std::atoi(env) : 25;
  return n > 0 ? n : 25;
}

/// The reference result, plus how often the best resident value under
/// the policy (pins ignored) was pinned when a victim was chosen — the
/// case in which simulate's victim search must look past the top.
struct Reference {
  PebbleResult result;
  std::uint64_t pinned_tops = 0;
};

Reference reference_simulate(const Graph& graph,
                             const std::vector<VertexId>& schedule,
                             const PebbleOptions& options,
                             const std::function<bool(VertexId)>& is_output) {
  const VertexId n = graph.num_vertices();
  const auto len = static_cast<std::uint32_t>(schedule.size());
  const bool lru = options.eviction == Eviction::Lru;
  std::vector<std::vector<std::uint32_t>> uses(n);
  for (std::uint32_t s = 0; s < len; ++s) {
    for (const VertexId p : graph.in(schedule[s])) uses[p].push_back(s);
  }
  // First use of v strictly after step s; UINT64_MAX if none.
  const auto next_use = [&](VertexId v, std::uint32_t s) {
    const auto it = std::upper_bound(uses[v].begin(), uses[v].end(), s);
    return it == uses[v].end() ? UINT64_MAX : std::uint64_t{*it};
  };
  const auto segment_of = [&](std::uint32_t s) {
    const auto& ends = options.segment_ends;
    return static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), s) - ends.begin());
  };

  Reference ref;
  PebbleResult& res = ref.result;
  res.steps = len;
  const bool segmented = !options.segment_ends.empty();
  if (segmented) {
    res.segment_reads.assign(options.segment_ends.size(), 0);
    res.segment_writes.assign(options.segment_ends.size(), 0);
  }
  if (options.record_step_io) res.step_io.assign(len, 0);

  std::vector<VertexId> resident;
  std::vector<std::uint64_t> key(n, 0), future(n, UINT64_MAX);
  std::vector<std::size_t> birth(n, 0);
  std::vector<bool> dirty(n, false), written(n, false);
  for (VertexId v = 0; v < n; ++v) written[v] = graph.in_degree(v) == 0;
  std::uint64_t clock = 0;
  std::uint32_t step = 0;
  std::vector<VertexId> pinned;

  const auto is_resident = [&](VertexId v) {
    return std::find(resident.begin(), resident.end(), v) != resident.end();
  };
  const auto charge = [&] {
    if (options.record_step_io) ++res.step_io[step];
  };
  // Better victim: furthest next use (Belady) or oldest touch (LRU),
  // the lower id on equal keys.
  const auto better = [&](VertexId a, VertexId b) {
    if (key[a] != key[b]) return lru ? key[a] < key[b] : key[a] > key[b];
    return a < b;
  };
  const auto touch = [&](VertexId v) {
    future[v] = next_use(v, step);
    key[v] = lru ? ++clock : future[v];
  };
  const auto evict = [&] {
    std::size_t best = resident.size();
    std::size_t top = 0;
    for (std::size_t i = 0; i < resident.size(); ++i) {
      if (better(resident[i], resident[top])) top = i;
      if (std::find(pinned.begin(), pinned.end(), resident[i]) !=
          pinned.end()) {
        continue;
      }
      if (best == resident.size() || better(resident[i], resident[best])) {
        best = i;
      }
    }
    ASSERT_LT(best, resident.size()) << "every resident value is pinned";
    if (top != best) ++ref.pinned_tops;
    const VertexId victim = resident[best];
    if (dirty[victim] && (future[victim] != UINT64_MAX ||
                          (is_output(victim) && !written[victim]))) {
      ++res.writes;
      ++res.evictions_dirty;
      charge();
      if (segmented) ++res.segment_writes[birth[victim]];
      written[victim] = true;
    } else {
      ++res.evictions_clean;
    }
    dirty[victim] = false;
    resident.erase(resident.begin() + static_cast<std::ptrdiff_t>(best));
  };

  for (step = 0; step < len; ++step) {
    const VertexId v = schedule[step];
    const auto preds = graph.in(v);
    pinned.assign(preds.begin(), preds.end());
    pinned.push_back(v);
    for (const VertexId p : preds) {
      if (!is_resident(p)) {
        while (resident.size() >= options.cache_size) evict();
        ++res.reads;
        charge();
        if (segmented) ++res.segment_reads[segment_of(step)];
        resident.push_back(p);
      }
      touch(p);
    }
    while (resident.size() >= options.cache_size) evict();
    resident.push_back(v);
    dirty[v] = true;
    birth[v] = segmented ? segment_of(step) : 0;
    touch(v);
    res.peak_cached = std::max<std::uint64_t>(res.peak_cached, resident.size());
  }
  step = len - 1;
  for (VertexId v = 0; v < n; ++v) {
    if (is_output(v) && !written[v]) {
      ++res.writes;
      charge();
      if (segmented) ++res.segment_writes[birth[v]];
      written[v] = true;
    }
  }
  return ref;
}

/// Seeded random DAG: 2-5 sources, then 4-36 vertices each drawing 1-4
/// distinct predecessors from lower ids, biased toward recent ones so
/// values are reused at several distances.
Graph random_dag(support::Xoshiro256& rng) {
  const std::uint64_t inputs = 2 + rng.below(4);
  const std::uint64_t n = inputs + 4 + rng.below(33);
  std::vector<std::uint32_t> off = {0};
  std::vector<VertexId> adj;
  for (std::uint64_t v = 0; v < n; ++v) {
    if (v >= inputs) {
      const std::uint64_t deg = 1 + rng.below(std::min<std::uint64_t>(4, v));
      std::vector<VertexId> preds;
      while (preds.size() < deg) {
        const std::uint64_t window =
            rng.below(2) == 0 ? v : std::min<std::uint64_t>(v, 6);
        const auto p = static_cast<VertexId>(v - 1 - rng.below(window));
        if (std::find(preds.begin(), preds.end(), p) == preds.end()) {
          preds.push_back(p);
        }
      }
      adj.insert(adj.end(), preds.begin(), preds.end());
    }
    off.push_back(static_cast<std::uint32_t>(adj.size()));
  }
  return Graph(std::move(off), std::move(adj));
}

/// Random strictly increasing segment ends over [1, len], ending at len.
std::vector<std::uint32_t> random_segment_ends(support::Xoshiro256& rng,
                                               std::uint32_t len) {
  std::vector<std::uint32_t> ends;
  for (std::uint32_t s = 1; s < len; ++s) {
    if (rng.below(3) == 0) ends.push_back(s);
  }
  ends.push_back(len);
  return ends;
}

void expect_same(const PebbleResult& got, const PebbleResult& want) {
  EXPECT_EQ(got.reads, want.reads);
  EXPECT_EQ(got.writes, want.writes);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.evictions_dirty, want.evictions_dirty);
  EXPECT_EQ(got.evictions_clean, want.evictions_clean);
  EXPECT_EQ(got.peak_cached, want.peak_cached);
  EXPECT_EQ(got.step_io, want.step_io);
  EXPECT_EQ(got.segment_reads, want.segment_reads);
  EXPECT_EQ(got.segment_writes, want.segment_writes);
}

TEST(PebbleOracle, SimulateMatchesReferenceOnRandomDags) {
  const std::uint64_t base_seed = property_seed();
  const int iters = property_iters();
  std::uint64_t pinned_tops[2] = {0, 0};
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    support::Xoshiro256 rng(seed);
    const Graph graph = random_dag(rng);
    const VertexId n = graph.num_vertices();
    std::uint64_t max_in = 0;
    for (VertexId v = 0; v < n; ++v) {
      max_in = std::max<std::uint64_t>(max_in, graph.in_degree(v));
    }
    // Sinks and a random quarter of the other computed vertices are
    // outputs, so flushes and dirty-but-dead evictions both occur.
    std::vector<bool> output(n, false);
    for (VertexId v = 0; v < n; ++v) {
      output[v] = graph.in_degree(v) > 0 &&
                  (graph.out_degree(v) == 0 || rng.below(4) == 0);
    }
    const auto is_output = [&](VertexId v) { return output[v]; };
    for (int k = 0; k < 3; ++k) {
      const std::vector<VertexId> order =
          schedule::random_topological_schedule(graph, rng());
      PebbleOptions options;
      options.record_step_io = true;
      options.segment_ends =
          random_segment_ends(rng, static_cast<std::uint32_t>(order.size()));
      for (const Eviction eviction : {Eviction::Belady, Eviction::Lru}) {
        options.eviction = eviction;
        for (std::uint64_t m = max_in + 1; m <= n + 1; ++m) {
          options.cache_size = m;
          SCOPED_TRACE("PR_PROPERTY_SEED=" + std::to_string(seed) +
                       " schedule " + std::to_string(k) + " M=" +
                       std::to_string(m) +
                       (eviction == Eviction::Lru ? " lru" : " belady"));
          const Reference want =
              reference_simulate(graph, order, options, is_output);
          expect_same(pebble::simulate(graph, order, options, is_output),
                      want.result);
          pinned_tops[eviction == Eviction::Lru] += want.pinned_tops;
        }
      }
    }
  }
  // The sweep must exercise the victim search below a pinned top.
  EXPECT_GT(pinned_tops[0], 0u) << "Belady never saw a pinned top";
  EXPECT_GT(pinned_tops[1], 0u) << "LRU never saw a pinned top";
}

// The stop rule on every feasible M, every io_limit in [0, io + 1] and
// both a zero read floor and the true MIN fetch count (PrefixBound's
// prefix_reads over the whole order): a stopped run's full I/O reaches
// the limit, a run below the limit never stops, and a run that does not
// stop is the unlimited run in every field. The rule is also tight: the
// bound it tests equals the final I/O once the last read or write is
// counted, so every run whose I/O reaches the limit stops.
TEST(PebbleOracle, StopRuleIsSoundAndOtherwiseInvisible) {
  const std::uint64_t base_seed = property_seed();
  const int iters = property_iters();
  std::uint64_t stopped = 0, floor_raised = 0;
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    support::Xoshiro256 rng(seed);
    const Graph graph = random_dag(rng);
    const VertexId n = graph.num_vertices();
    std::uint64_t max_in = 0;
    std::vector<bool> output(n, false);
    for (VertexId v = 0; v < n; ++v) {
      max_in = std::max<std::uint64_t>(max_in, graph.in_degree(v));
      output[v] = graph.in_degree(v) > 0 &&
                  (graph.out_degree(v) == 0 || rng.below(4) == 0);
    }
    const std::function<bool(VertexId)> is_output = [&](VertexId v) {
      return output[v];
    };
    const std::vector<VertexId> order =
        schedule::random_topological_schedule(graph, rng());
    for (const Eviction eviction : {Eviction::Belady, Eviction::Lru}) {
      for (std::uint64_t m = max_in + 1; m <= n + 1; ++m) {
        const PebbleOptions unlimited{.cache_size = m, .eviction = eviction};
        const PebbleResult full =
            pebble::simulate(graph, order, unlimited, is_output);
        bounds::PrefixBound bound(graph, m, is_output);
        for (const VertexId v : order) bound.push(v);
        const std::uint64_t min_reads = bound.total().prefix_reads;
        ASSERT_LE(min_reads, full.reads)
            << "PR_PROPERTY_SEED=" << seed << " M=" << m;
        for (const std::uint64_t floor : {std::uint64_t{0}, min_reads}) {
          for (std::uint64_t limit = 0; limit <= full.io() + 1; ++limit) {
            SCOPED_TRACE("PR_PROPERTY_SEED=" + std::to_string(seed) +
                         " M=" + std::to_string(m) + " floor=" +
                         std::to_string(floor) + " io_limit=" +
                         std::to_string(limit) +
                         (eviction == Eviction::Lru ? " lru" : " belady"));
            PebbleOptions options = unlimited;
            options.io_limit = limit;
            options.reads_floor = floor;
            const PebbleResult got =
                pebble::simulate(graph, order, options, is_output);
            ASSERT_EQ(got.stopped, full.io() >= limit);
            if (got.stopped) {
              ++stopped;
              EXPECT_LE(got.reads, full.reads);
              EXPECT_LE(got.writes, full.writes);
            } else {
              expect_same(got, full);
            }
          }
        }
        floor_raised += min_reads > 0;
      }
    }
  }
  EXPECT_GT(stopped, 0u);
  EXPECT_GT(floor_raised, 0u) << "the MIN floor was never above zero";
}

}  // namespace
