// Workload "certify": the Section 6 block of paper_checklist on
// Strassen G_7 (5.7 M vertices). One pass builds the CDAG, takes the
// DFS schedule and a seeded random topological schedule, certifies
// both with the segment certifier at M = 8, plays the Belady pebble
// game on the DFS schedule, and checks Theorem 1: the certified lower
// bound never exceeds the simulated I/O.
//
// A query is one pass, the block paper_checklist runs. Its two
// schedules are not timed as queries of their own: their times differ
// by a few percent, so the median of a run's schedule times would land
// on whichever of the two happened to be faster.
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "pathrouting/bounds/segment_certifier.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/pebble/cache_sim.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/search/sweep.hpp"
#include "pathrouting/support/digest.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace pr = pathrouting;

constexpr int kRank = 7;
constexpr std::uint64_t kCacheSize = 8;

// Exact counts of the pass, pinned at the commit that introduced the
// benchmark. DFS counts do not depend on the seed.
constexpr std::uint64_t kDfsBeladyIo = 9355124;
constexpr std::uint64_t kDfsCompleteSegments = 833;
// Complete segments of the random schedule: the same for every
// random-schedule seed in 0..31, the seeds a run draws from (seed mod
// 32), so every run certifies a schedule whose count is pinned.
constexpr std::uint64_t kRandomSeeds = 32;
constexpr std::uint64_t kRandomCompleteSegments = 955;

struct Inputs {
  pr::bilinear::BilinearAlgorithm alg;
  std::uint64_t random_seed = 0;
};

/// Everything one pass computes; the artifacts stay alive so a traced
/// run can re-time the parallel phases on them.
struct Pass {
  pr::cdag::Cdag cdag;
  std::vector<pr::cdag::VertexId> dfs;
  std::vector<pr::cdag::VertexId> random;
  pr::bounds::CertifyResult cert_dfs;
  pr::bounds::CertifyResult cert_random;
  pr::pebble::PebbleResult sim;
};

Pass run_pass(const Inputs& in, LayerClock& clock) {
  pr::cdag::Cdag cdag = clock.time("cdag.build", [&] {
    return pr::cdag::Cdag(in.alg, kRank, {.with_coefficients = false});
  });
  const pr::bounds::CertifyParams params{.cache_size = kCacheSize};
  const pr::cdag::Layout& layout = cdag.layout();
  const std::function<bool(pr::cdag::VertexId)> is_output =
      [&layout](pr::cdag::VertexId v) { return layout.is_output(v); };

  auto dfs = clock.time("schedule.dfs",
                        [&] { return pr::schedule::dfs_schedule(cdag); });
  auto cert_dfs = clock.time("bounds.certify_dfs", [&] {
    return pr::bounds::certify_segments(cdag, dfs, params);
  });
  auto sim = clock.time("pebble.simulate", [&] {
    return pr::pebble::simulate(cdag.graph(), dfs,
                                {.cache_size = kCacheSize}, is_output);
  });
  auto random = clock.time("schedule.random", [&] {
    return pr::schedule::random_topological_schedule(cdag.graph(),
                                                     in.random_seed);
  });
  auto cert_random = clock.time("bounds.certify_random", [&] {
    return pr::bounds::certify_segments(cdag, random, params);
  });
  return Pass{std::move(cdag),     std::move(dfs),         std::move(random),
              std::move(cert_dfs), std::move(cert_random), std::move(sim)};
}

/// The paper checks and pinned counts of one pass, one operation each.
void check_pass(const Pass& pass, Report& report) {
  const auto eq2 = [](const pr::bounds::CertifyResult& cert) {
    return cert.complete_segments() > 0 && cert.eq_holds(12) &&
           cert.boundary_ge(24);
  };
  report.check(eq2(pass.cert_dfs), "certify: Equation (2) on the DFS schedule");
  report.check(eq2(pass.cert_random),
               "certify: Equation (2) on the random schedule");
  report.check(pass.cert_dfs.io_lower_bound(kCacheSize) <= pass.sim.io(),
               "certify: Theorem 1 (serial), certified bound <= simulated I/O");
  report.check(pass.sim.io() == kDfsBeladyIo,
               "certify: DFS Belady I/O " + std::to_string(pass.sim.io()) +
                   " != pinned " + std::to_string(kDfsBeladyIo));
  report.check(pass.cert_dfs.complete_segments() == kDfsCompleteSegments,
               "certify: DFS complete segments " +
                   std::to_string(pass.cert_dfs.complete_segments()) +
                   " != pinned " + std::to_string(kDfsCompleteSegments));
  report.check(
      pass.cert_random.complete_segments() == kRandomCompleteSegments,
      "certify: random-schedule complete segments " +
          std::to_string(pass.cert_random.complete_segments()) + " != pinned " +
          std::to_string(kRandomCompleteSegments));
}

/// The exact counts of a pass: what must agree across passes, tracing
/// and thread counts.
struct Counts {
  pr::bounds::CertifyResult cert_dfs;
  pr::bounds::CertifyResult cert_random;
  std::uint64_t reads = 0, writes = 0, steps = 0;
  std::uint64_t dfs_fnv = 0, random_fnv = 0;

  bool operator==(const Counts&) const = default;
};

std::uint64_t schedule_digest(const std::vector<pr::cdag::VertexId>& order) {
  return pr::support::fnv1a_bytes(order.data(),
                                  order.size() * sizeof(pr::cdag::VertexId));
}

Counts counts_of(const Pass& pass) {
  return Counts{pass.cert_dfs,        pass.cert_random,
                pass.sim.reads,       pass.sim.writes,
                pass.sim.steps,       schedule_digest(pass.dfs),
                schedule_digest(pass.random)};
}

void trace_run(const Inputs& in, Report& report) {
  LayerClock off(false);
  Counts untraced;
  double untraced_s = 0;
  {
    const Stopwatch watch;
    const Pass pass = run_pass(in, off);
    untraced_s = watch.seconds();
    check_pass(pass, report);
    untraced = counts_of(pass);
  }

  pr::obs::set_enabled(true);
  LayerClock clock(true);
  const Stopwatch traced_watch;
  const Pass traced = run_pass(in, clock);
  const double traced_s = traced_watch.seconds();
  pr::obs::set_enabled(false);
  check_pass(traced, report);
  report.check(counts_of(traced) == untraced,
               "certify: traced and untraced passes disagree");

  // The parallel phases again, at one thread and at the run's count.
  const pr::cdag::Graph& graph = traced.cdag.graph();
  const std::uint64_t graph_fnv = pr::search::graph_digest(graph);
  std::vector<double> build_s;
  for (const int threads : {1, 0}) {
    std::optional<pr::cdag::Cdag> rebuilt;
    build_s.push_back(seconds_at_threads(threads, [&] {
      rebuilt.emplace(in.alg, kRank,
                      pr::cdag::CdagOptions{.with_coefficients = false});
    }));
    report.check(pr::search::graph_digest(rebuilt->graph()) == graph_fnv,
                 "certify: CDAG differs at " + std::to_string(threads) +
                     " threads");
  }
  const pr::bounds::CertifyParams params{.cache_size = kCacheSize};
  const std::vector<pr::bounds::CertifyJob> jobs = {
      {.schedule = traced.dfs, .params = params},
      {.schedule = traced.random, .params = params}};
  std::vector<double> certify_s;
  for (const int threads : {1, 0}) {
    std::vector<pr::bounds::CertifyResult> results;
    certify_s.push_back(seconds_at_threads(threads, [&] {
      results = pr::bounds::certify_segments_batch(traced.cdag, jobs);
    }));
    report.check(results.size() == 2 && results[0] == traced.cert_dfs &&
                     results[1] == traced.cert_random,
                 "certify: certificates differ at " + std::to_string(threads) +
                     " threads");
  }

  report.set("cdag.build_s", clock.seconds("cdag.build"));
  report.set("cdag.vertices", graph.num_vertices());
  report.set("cdag.edges", static_cast<double>(graph.num_edges()));
  report.set("schedule.dfs_s", clock.seconds("schedule.dfs"));
  report.set("schedule.random_s", clock.seconds("schedule.random"));
  report.set("bounds.certify_dfs_s", clock.seconds("bounds.certify_dfs"));
  report.set("bounds.certify_random_s",
             clock.seconds("bounds.certify_random"));
  report.set("bounds.complete_segments",
             static_cast<double>(traced.cert_dfs.complete_segments() +
                                 traced.cert_random.complete_segments()));
  report.set("pebble.simulate_s", clock.seconds("pebble.simulate"));
  report.set("pebble.steps_per_s", static_cast<double>(traced.sim.steps) /
                                       clock.seconds("pebble.simulate"));
  report.set("pebble.reads", static_cast<double>(traced.sim.reads));
  report.set("pebble.writes", static_cast<double>(traced.sim.writes));
  report.set("parallel.speedup.cdag_build", build_s[0] / build_s[1]);
  report.set("parallel.speedup.certify", certify_s[0] / certify_s[1]);
  report.set("obs.overhead_pct", (traced_s / untraced_s - 1) * 100);
  report.set("obs.layer_coverage", clock.total() / traced_s);
}

/// The end-to-end metrics: passes until --seconds are spent.
void measure(const Args& args, const Inputs& in, Report& report,
             const std::function<void()>& between_passes) {
  LayerClock off(false);
  const std::vector<double> passes = run_passes(
      args.seconds, [&] { return run_pass(in, off); },
      [&](const Pass& pass) {
        check_pass(pass, report);
        between_passes();
      });
  report_pass_queries(passes, report);
}

}  // namespace

void run_certify(const Args& args, Report& report) {
  SetupTimer setup(args.seconds);
  const auto catalog = setup.run(load_catalog);
  report.check(catalog.contains("strassen"), "certify: strassen not verified");
  if (!catalog.contains("strassen")) return;
  const Inputs in{catalog.at("strassen"), args.seed % kRandomSeeds};
  report.note("seed.random_schedule", std::to_string(in.random_seed));

  if (args.trace) {
    trace_run(in, report);
  } else {
    measure(args, in, report, [&] { setup.between_passes(load_catalog); });
  }
  setup.run(load_catalog);
  report.set("setup_s", setup.median_s());
}

}  // namespace perfbench
