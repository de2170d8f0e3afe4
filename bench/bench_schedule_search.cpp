// Experiment E20 — schedule-space search: gap-to-lower-bound
// trajectories of the branch-and-bound pebbling optimizer on catalog
// G_r at several cache sizes M, with certified-optimal instances as
// the exact gated headline.
//
// For each (algorithm, r, M) point the bench runs the full pipeline
// (DFS / BFS baselines, seeded local search, branch-and-bound) through
// search::run_search_point — the same code path pr_bench_gate re-runs
// against the committed BENCH_schedule_search.json, so every u64
// counter in the baseline is re-derived bit for bit in CI.
//
// The bench self-gates (exit 1) on:
//   * an inverted pipeline: searched > local or local > dfs I/O;
//   * a cost undercutting the root lower bound (unsound bound);
//   * a certificate the search.certified-optimal audit rule rejects;
//   * zero certified-optimal instances over the whole matrix (the
//     roll-up's certified_count, search::certified_count).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pathrouting/audit/audit.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/search/sweep.hpp"
#include "pathrouting/support/cli.hpp"
#include "pathrouting/support/table.hpp"

namespace {

using namespace pathrouting;  // NOLINT

struct Instance {
  const char* algorithm;
  int r;
  std::uint64_t m;
  std::uint64_t budget;
};

/// The committed matrix: M sweeps at fixed (algorithm, r). Budgets are
/// smoke-sized — the gate re-runs every point — and chosen so the
/// generous-M points close by meeting the root bound while the tight-M
/// points report their best-found gap.
constexpr Instance kMatrix[] = {
    {"strassen", 1, 6, 40000},   {"strassen", 1, 8, 40000},
    {"strassen", 1, 12, 40000},  {"strassen", 1, 16, 40000},
    {"strassen", 1, 24, 40000},  {"strassen", 1, 40, 40000},
    {"classical2", 1, 4, 40000}, {"classical2", 1, 6, 40000},
    {"classical2", 1, 8, 40000}, {"classical2", 1, 12, 40000},
    {"classical2", 1, 36, 40000},
    {"winograd", 1, 8, 40000},   {"winograd", 1, 40, 40000},
    {"strassen", 2, 16, 4000},   {"strassen", 2, 64, 4000},
    {"strassen", 2, 300, 4000},
};

/// Audits the point's certificate with search.certified-optimal; the
/// bench refuses to commit a baseline whose claims do not re-derive.
bool certificate_clean(const search::SweepPoint& point) {
  const bilinear::BilinearAlgorithm alg =
      bilinear::by_name(point.spec.algorithm);
  const cdag::Cdag cdag(alg, point.spec.r, {.with_coefficients = false});
  audit::SearchCertificateView cert;
  cert.graph = &cdag.graph();
  cert.schedule = point.witness;
  cert.output_mask = point.output_mask;
  cert.cache_size = point.spec.m;
  cert.claimed_io = point.searched_io;
  cert.claimed_lower_bound = point.lower_bound;
  cert.claims_bound_met_optimal = point.proof == search::Proof::kBoundMet;
  cert.theorem1_a = static_cast<std::uint64_t>(alg.a());
  cert.theorem1_b = static_cast<std::uint64_t>(alg.b());
  cert.theorem1_r = point.spec.r;
  const audit::AuditReport report = audit::audit_search_certificate(cert);
  if (!report.ok()) std::fputs(report.to_text().c_str(), stderr);
  return report.ok();
}

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli(argc, argv);
  cli.finish(
      "E20: branch-and-bound schedule search on catalog G_r — DFS vs "
      "searched I/O gap curves and certified-optimal instances.");

  bench::print_banner(
      "E20: schedule-space search",
      "Branch-and-bound over red-blue pebblings closes the DFS-vs-optimal "
      "gap at small M and certifies optimal I/O where the cost meets the "
      "root lower bound.");

  bench::BenchJson json("schedule_search");
  support::Table table({"algorithm", "r", "M", "bfs", "dfs", "local",
                        "searched", "LB", "gap", "proof"});
  bool failed = false;

  for (const Instance& inst : kMatrix) {
    search::SweepSpec spec;
    spec.algorithm = inst.algorithm;
    spec.r = inst.r;
    spec.m = inst.m;
    spec.node_budget = inst.budget;
    // Timed as pr_bench_gate times it: the fastest of
    // obs::kGateTimingRepeats runs.
    const search::SweepPoint point = obs::fastest_of_repeats(
        [&] { return search::run_search_point(spec); });

    if (point.searched_io > point.local_io ||
        point.local_io > point.dfs_io) {
      std::fprintf(stderr,
                   "FAIL %s r=%d M=%llu: pipeline not monotone "
                   "(dfs %llu, local %llu, searched %llu)\n",
                   inst.algorithm, inst.r,
                   static_cast<unsigned long long>(inst.m),
                   static_cast<unsigned long long>(point.dfs_io),
                   static_cast<unsigned long long>(point.local_io),
                   static_cast<unsigned long long>(point.searched_io));
      failed = true;
    }
    if (point.searched_io < point.lower_bound) {
      std::fprintf(stderr,
                   "FAIL %s r=%d M=%llu: cost %llu undercuts lower bound "
                   "%llu — the bound is unsound\n",
                   inst.algorithm, inst.r,
                   static_cast<unsigned long long>(inst.m),
                   static_cast<unsigned long long>(point.searched_io),
                   static_cast<unsigned long long>(point.lower_bound));
      failed = true;
    }
    if (!certificate_clean(point)) {
      std::fprintf(stderr,
                   "FAIL %s r=%d M=%llu: search.certified-optimal fired\n",
                   inst.algorithm, inst.r,
                   static_cast<unsigned long long>(inst.m));
      failed = true;
    }

    table.add_row({inst.algorithm, std::to_string(inst.r),
                   std::to_string(inst.m), std::to_string(point.bfs_io),
                   std::to_string(point.dfs_io),
                   std::to_string(point.local_io),
                   std::to_string(point.searched_io),
                   std::to_string(point.lower_bound),
                   std::to_string(point.searched_io - point.lower_bound),
                   search::proof_name(point.proof)});

    search::fill_search_record(point, json.add_record());
  }

  table.print(std::cout);

  obs::BenchRecord summary;
  search::fill_search_summary_record(json.records(), summary);
  json.add_record() = summary;
  const std::int64_t certified = summary.int_or("certified_count", 0);
  std::printf("\n%lld of %lld instances certified optimal\n",
              static_cast<long long>(certified),
              static_cast<long long>(summary.int_or("instances", 0)));
  if (certified == 0) {
    std::fprintf(stderr,
                 "FAIL: no certified-optimal instance in the matrix\n");
    failed = true;
  }

  obs::write_env_outputs("schedule_search_metrics", obs::git_commit());
  return failed ? EXIT_FAILURE : EXIT_SUCCESS;
}
