// Workload "search": the E20 schedule-search matrix (16 catalog
// points: strassen, classical2 and winograd at r = 1, strassen at
// r = 2) through search::run_search_point at twice the committed node
// budgets. Hundreds of thousands of pebble-game and bound calls on
// 33-279 vertex graphs that fit in L1; branch-and-bound node cost
// dominates.
//
// A query is one sweep of the matrix, what bench_schedule_search runs.
// Budgets are doubled rather than raised tenfold so that a sweep takes
// about two seconds and a run's median is taken over a dozen sweeps; the
// same eight points are certified at one, two and ten times the budget.
// Each point is checked: its certificate audits clean, the pipeline is
// monotone (searched <= local <= DFS I/O, and searched >= the lower
// bound), and its seed-independent counts match the pinned ones.
//
// The traced run re-runs every point through the public calls that
// run_search_point makes, timing each, and checks that the
// decomposition reproduces run_search_point bit for bit.
#include <cstdio>
#include <functional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "pathrouting/audit/audit.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/bounds/formulas.hpp"
#include "pathrouting/bounds/schedule_bound.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/pebble/cache_sim.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/search/local_search.hpp"
#include "pathrouting/search/optimizer.hpp"
#include "pathrouting/search/sweep.hpp"
#include "pathrouting/support/digest.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace pr = pathrouting;
using pr::cdag::VertexId;
using pr::search::SweepPoint;
using pr::search::SweepSpec;

constexpr std::uint64_t kBudgetScale = 2;

/// The local-search seeds the points draw from (see SeedDraw): the
/// seeds in 0..63 under which local search alone closes the same eight
/// points it closes at the committed seed 1. On the other 37, it also
/// closes strassen r=1 M=12, which then skips its branch and bound and
/// shortens the pass by about 15 %, so pass time and the certified
/// count would swing with the seed rather than with the code.
constexpr std::uint64_t kLocalSearchSeeds[] = {
    0,  1,  7,  9,  11, 13, 18, 19, 21, 22, 24, 25, 26, 30,
    32, 34, 39, 42, 45, 47, 49, 50, 51, 52, 53, 58, 61};

/// One matrix point with its committed node budget and the counts that
/// do not depend on the local-search seed, pinned at the commit that
/// introduced the benchmark.
struct MatrixPoint {
  const char* algorithm;
  int r;
  std::uint64_t m;
  std::uint64_t budget;
  std::uint64_t dfs_io;
  std::uint64_t bfs_io;
  std::uint64_t lower_bound;
};

constexpr MatrixPoint kMatrix[] = {
    {"strassen", 1, 6, 40000, 27, 40, 12},
    {"strassen", 1, 8, 40000, 23, 32, 12},
    {"strassen", 1, 12, 40000, 18, 22, 12},
    {"strassen", 1, 16, 40000, 12, 14, 12},
    {"strassen", 1, 24, 40000, 12, 12, 12},
    {"strassen", 1, 40, 40000, 12, 12, 12},
    {"classical2", 1, 4, 40000, 30, 57, 12},
    {"classical2", 1, 6, 40000, 23, 46, 12},
    {"classical2", 1, 8, 40000, 18, 34, 12},
    {"classical2", 1, 12, 40000, 12, 22, 12},
    {"classical2", 1, 36, 40000, 12, 12, 12},
    {"winograd", 1, 8, 40000, 21, 30, 12},
    {"winograd", 1, 40, 40000, 12, 12, 12},
    {"strassen", 2, 16, 4000, 155, 421, 48},
    {"strassen", 2, 64, 4000, 48, 124, 48},
    {"strassen", 2, 300, 4000, 48, 48, 48},
};
constexpr std::size_t kPoints = std::size(kMatrix);

std::string point_name(const SweepSpec& spec) {
  return spec.algorithm + " r=" + std::to_string(spec.r) +
         " M=" + std::to_string(spec.m);
}

/// search.certified-optimal on the point's certificate.
bool audit_clean(const SweepPoint& point) {
  const pr::bilinear::BilinearAlgorithm alg =
      pr::bilinear::by_name(point.spec.algorithm);
  const pr::cdag::Cdag cdag(alg, point.spec.r, {.with_coefficients = false});
  pr::audit::SearchCertificateView cert;
  cert.graph = &cdag.graph();
  cert.schedule = point.witness;
  cert.output_mask = point.output_mask;
  cert.cache_size = point.spec.m;
  cert.claimed_io = point.searched_io;
  cert.claimed_lower_bound = point.lower_bound;
  cert.claims_bound_met_optimal = point.proof == pr::search::Proof::kBoundMet;
  cert.theorem1_a = static_cast<std::uint64_t>(alg.a());
  cert.theorem1_b = static_cast<std::uint64_t>(alg.b());
  cert.theorem1_r = point.spec.r;
  const pr::audit::AuditReport report =
      pr::audit::audit_search_certificate(cert);
  if (!report.ok()) std::fputs(report.to_text().c_str(), stderr);
  return report.ok();
}

void check_point(const SweepPoint& point, const MatrixPoint& pinned,
                 Report& report) {
  const bool monotone = point.searched_io <= point.local_io &&
                        point.local_io <= point.dfs_io &&
                        point.searched_io >= point.lower_bound;
  const bool matches_pins = point.dfs_io == pinned.dfs_io &&
                            point.bfs_io == pinned.bfs_io &&
                            point.lower_bound == pinned.lower_bound;
  report.check(monotone && matches_pins && audit_clean(point),
               "search: " + point_name(point.spec) + " dfs " +
                   std::to_string(point.dfs_io) + " bfs " +
                   std::to_string(point.bfs_io) + " local " +
                   std::to_string(point.local_io) + " searched " +
                   std::to_string(point.searched_io) + " bound " +
                   std::to_string(point.lower_bound));
}

/// Every exact field of a point, witness included.
bool same_point(const SweepPoint& a, const SweepPoint& b) {
  return a.num_vertices == b.num_vertices &&
         a.scheduled_vertices == b.scheduled_vertices &&
         a.dfs_io == b.dfs_io && a.bfs_io == b.bfs_io &&
         a.local_io == b.local_io && a.searched_io == b.searched_io &&
         a.searched_reads == b.searched_reads &&
         a.searched_writes == b.searched_writes &&
         a.lower_bound == b.lower_bound && a.certified == b.certified &&
         a.proof == b.proof && a.nodes_expanded == b.nodes_expanded &&
         a.nodes_pruned == b.nodes_pruned &&
         a.leaves_scored == b.leaves_scored &&
         a.moves_accepted == b.moves_accepted && a.graph_fnv == b.graph_fnv &&
         a.witness_fnv == b.witness_fnv && a.witness == b.witness &&
         a.output_mask == b.output_mask;
}

/// One sweep of the matrix through run_search_point.
std::vector<SweepPoint> sweep(const std::vector<SweepSpec>& specs) {
  std::vector<SweepPoint> points;
  for (const SweepSpec& spec : specs) {
    points.push_back(pr::search::run_search_point(spec));
  }
  return points;
}

pr::search::LocalSearchOptions local_options(const SweepSpec& spec) {
  return {.cache_size = spec.m,
          .seed = spec.seed,
          .max_rounds = spec.ls_rounds,
          .moves_per_round = spec.ls_moves};
}

/// run_search_point, call by call, with each call timed into its layer.
SweepPoint decomposed_point(const SweepSpec& spec, LayerClock& clock) {
  const pr::bilinear::BilinearAlgorithm alg =
      pr::bilinear::by_name(spec.algorithm);
  const pr::cdag::Cdag cdag = clock.time("cdag.build", [&] {
    return pr::cdag::Cdag(alg, spec.r, {.with_coefficients = false});
  });
  const pr::cdag::Graph& graph = cdag.graph();

  SweepPoint point;
  point.spec = spec;
  point.num_vertices = graph.num_vertices();
  point.output_mask.assign(graph.num_vertices(), 0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    point.output_mask[v] = cdag.layout().is_output(v) ? 1 : 0;
  }
  const std::function<bool(VertexId)> is_output = [&point](VertexId v) {
    return point.output_mask[v] != 0;
  };

  const auto dfs = clock.time(
      "schedule.dfs", [&] { return pr::schedule::dfs_schedule(cdag); });
  const auto bfs = clock.time(
      "schedule.bfs", [&] { return pr::schedule::bfs_schedule(cdag); });
  point.scheduled_vertices = dfs.size();
  const pr::pebble::PebbleOptions pebble_opts{.cache_size = spec.m};
  const auto simulate = [&](const std::vector<VertexId>& order) {
    return clock.time("pebble.simulate", [&] {
      return pr::pebble::simulate(graph, order, pebble_opts, is_output);
    });
  };
  point.dfs_io = simulate(dfs).io();
  point.bfs_io = simulate(bfs).io();

  const pr::search::LocalSearchResult local = clock.time("search.local", [&] {
    return pr::search::improve_schedule(graph, dfs, local_options(spec),
                                        is_output);
  });
  point.local_io = local.io;
  point.moves_accepted = local.moves_accepted;

  pr::search::SearchOptions options;
  options.cache_size = spec.m;
  options.node_budget = spec.node_budget;
  options.extra_lower_bound =
      pr::bounds::theorem1_io_lower_bound(alg.a(), alg.b(), spec.r, spec.m);
  options.initial_incumbent = local.schedule;
  const pr::search::SearchResult searched = clock.time("search.bnb", [&] {
    return pr::search::branch_and_bound(graph, options, is_output);
  });
  point.searched_io = searched.best_io;
  point.lower_bound = searched.lower_bound;
  point.certified = searched.certified;
  point.proof = searched.proof;
  point.nodes_expanded = searched.nodes_expanded;
  point.nodes_pruned = searched.nodes_pruned;
  point.leaves_scored = searched.leaves_scored;
  point.witness = searched.best_schedule;

  const pr::pebble::PebbleResult best_sim = simulate(point.witness);
  point.searched_reads = best_sim.reads;
  point.searched_writes = best_sim.writes;

  clock.time("search.digest", [&] {
    point.graph_fnv = pr::search::graph_digest(graph);
    const std::vector<std::uint64_t> words(point.witness.begin(),
                                           point.witness.end());
    point.witness_fnv = pr::support::fnv1a_words(words);
  });
  return point;
}

void trace_run(const std::vector<SweepSpec>& specs, Report& report) {
  const Stopwatch untraced_watch;
  const std::vector<SweepPoint> untraced = sweep(specs);
  const double untraced_s = untraced_watch.seconds();

  pr::obs::set_enabled(true);
  LayerClock clock(true);
  std::vector<SweepPoint> traced;
  const Stopwatch traced_watch;
  for (const SweepSpec& spec : specs) {
    traced.push_back(decomposed_point(spec, clock));
  }
  const double traced_s = traced_watch.seconds();
  pr::obs::set_enabled(false);

  std::uint64_t expanded = 0, pruned = 0, scored = 0, certified = 0, gap = 0,
                vertices = 0, edges = 0, reads = 0, writes = 0;
  for (std::size_t i = 0; i < kPoints; ++i) {
    const SweepPoint& point = traced[i];
    check_point(point, kMatrix[i], report);
    report.check(same_point(point, untraced[i]),
                 "search: " + point_name(point.spec) +
                     " decomposition differs from run_search_point");
    expanded += point.nodes_expanded;
    pruned += point.nodes_pruned;
    scored += point.leaves_scored;
    certified += point.certified && point.proof == pr::search::Proof::kBoundMet;
    gap += point.searched_io - point.lower_bound;
    reads += point.searched_reads;
    writes += point.searched_writes;
  }

  // Per-call costs of the small-graph pebble game and partial bound, on
  // each point's witness, and local search at one thread and at nproc.
  std::uint64_t sim_calls = 0, bound_calls = 0;
  double sim_s = 0, bound_s = 0, local_one = 0, local_all = 0;
  constexpr std::uint64_t kSimRepeats = 200;
  for (const SweepPoint& point : traced) {
    const pr::cdag::Cdag cdag(pr::bilinear::by_name(point.spec.algorithm),
                              point.spec.r, {.with_coefficients = false});
    const pr::cdag::Graph& graph = cdag.graph();
    vertices += graph.num_vertices();
    edges += graph.num_edges();
    const std::function<bool(VertexId)> is_output = [&point](VertexId v) {
      return point.output_mask[v] != 0;
    };
    const std::span<const VertexId> witness = point.witness;
    bool replays_agree = true, bounds_admissible = true;
    sim_s += seconds_at_threads(0, [&] {
      for (std::uint64_t i = 0; i < kSimRepeats; ++i) {
        replays_agree &= pr::pebble::simulate(graph, witness,
                                              {.cache_size = point.spec.m},
                                              is_output)
                             .io() == point.searched_io;
      }
    });
    sim_calls += kSimRepeats;
    bound_s += seconds_at_threads(0, [&] {
      for (std::size_t p = 0; p <= witness.size(); ++p) {
        bounds_admissible &= pr::bounds::partial_schedule_lower_bound(
                                 graph, witness.first(p), point.spec.m,
                                 is_output)
                                 .total() <= point.searched_io;
      }
    });
    bound_calls += witness.size() + 1;
    report.check(replays_agree && bounds_admissible,
                 "search: " + point_name(point.spec) +
                     " witness replays differ or a prefix bound exceeds "
                     "the witness cost");

    const std::vector<VertexId> dfs = pr::schedule::dfs_schedule(cdag);
    std::vector<pr::search::LocalSearchResult> locals;
    for (const int threads : {1, 0}) {
      const double s = seconds_at_threads(threads, [&] {
        locals.push_back(pr::search::improve_schedule(
            graph, dfs, local_options(point.spec), is_output));
      });
      (threads == 1 ? local_one : local_all) += s;
    }
    report.check(locals[0].schedule == locals[1].schedule &&
                     locals[0].io == point.local_io &&
                     locals[1].io == point.local_io,
                 "search: " + point_name(point.spec) +
                     " local search differs between thread counts");
  }

  report.set("search.bnb_s", clock.seconds("search.bnb"));
  report.set("search.local_s", clock.seconds("search.local"));
  report.set("search.nodes_per_s",
             static_cast<double>(expanded) / clock.seconds("search.bnb"));
  report.set("search.nodes_expanded", static_cast<double>(expanded));
  report.set("search.nodes_pruned", static_cast<double>(pruned));
  report.set("search.leaves_scored", static_cast<double>(scored));
  report.set("search.prune_ratio",
             expanded > 0 ? static_cast<double>(pruned) /
                                static_cast<double>(expanded)
                          : 0.0);
  report.set("search.certified", static_cast<double>(certified));
  report.set("search.gap", static_cast<double>(gap));
  report.set("cdag.build_s", clock.seconds("cdag.build"));
  report.set("cdag.vertices", static_cast<double>(vertices));
  report.set("cdag.edges", static_cast<double>(edges));
  report.set("schedule.dfs_s", clock.seconds("schedule.dfs"));
  report.set("schedule.bfs_s", clock.seconds("schedule.bfs"));
  report.set("pebble.simulate_s", clock.seconds("pebble.simulate"));
  report.set("pebble.reads", static_cast<double>(reads));
  report.set("pebble.writes", static_cast<double>(writes));
  report.set("pebble.simulate_small_us",
             sim_s * 1e6 / static_cast<double>(sim_calls));
  report.set("bounds.partial_bound_us",
             bound_s * 1e6 / static_cast<double>(bound_calls));
  report.set("parallel.speedup.local_search", local_one / local_all);
  report.set("obs.overhead_pct", (traced_s / untraced_s - 1) * 100);
  report.set("obs.layer_coverage", clock.total() / traced_s);
}

/// Gives every point of every sweep its own local-search seed, drawn
/// from kLocalSearchSeeds by a generator seeded from the run seed. How
/// many leaves branch and bound scores depends on the incumbent that
/// local search hands it (a factor of three between seeds on the same
/// point), so one seed for a whole run would make the run's sweep time
/// a property of that seed; drawing per point and per sweep averages
/// the seeds out within every run.
class SeedDraw {
 public:
  explicit SeedDraw(std::uint64_t stream_seed) : rng_(stream_seed) {}

  /// `specs` with the next seed of the stream in each point.
  std::vector<SweepSpec> next(std::vector<SweepSpec> specs) {
    for (SweepSpec& spec : specs) {
      spec.seed = kLocalSearchSeeds[rng_() % std::size(kLocalSearchSeeds)];
    }
    return specs;
  }

 private:
  std::mt19937_64 rng_;
};

/// The end-to-end metrics: sweeps until --seconds are spent.
void measure(const Args& args, const std::vector<SweepSpec>& specs,
             SeedDraw& seeds, Report& report,
             const std::function<void()>& between_passes) {
  const std::vector<double> passes = run_passes(
      args.seconds, [&] { return sweep(seeds.next(specs)); },
      [&](const std::vector<SweepPoint>& points) {
        for (std::size_t i = 0; i < kPoints; ++i) {
          check_point(points[i], kMatrix[i], report);
        }
        between_passes();
      });
  report_pass_queries(passes, report);
}

}  // namespace

void run_search(const Args& args, Report& report) {
  const std::uint64_t stream_seed = derive_seed(args.seed, "local_search");
  const auto make_specs = [&] {
    const auto catalog = load_catalog();
    std::vector<SweepSpec> out;
    for (const MatrixPoint& point : kMatrix) {
      if (!catalog.contains(point.algorithm)) continue;
      SweepSpec spec;
      spec.algorithm = point.algorithm;
      spec.r = point.r;
      spec.m = point.m;
      spec.node_budget = point.budget * kBudgetScale;
      out.push_back(spec);
    }
    return out;
  };
  SetupTimer setup(args.seconds);
  const std::vector<SweepSpec> specs = setup.run(make_specs);
  report.check(specs.size() == kPoints,
               "search: a matrix algorithm failed catalog verification");
  if (specs.size() != kPoints) return;
  report.note("seed.local_search", std::to_string(stream_seed));

  SeedDraw seeds(stream_seed);
  if (args.trace) {
    trace_run(seeds.next(specs), report);
  } else {
    measure(args, specs, seeds, report,
            [&] { setup.between_passes(make_specs); });
  }
  setup.run(make_specs);
  report.set("setup_s", setup.median_s());
}

}  // namespace perfbench
