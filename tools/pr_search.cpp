// pr_search: run the schedule-space optimizer on one catalog point and
// print the full pipeline — DFS / BFS baselines, local search, branch-
// and-bound, the root lower bound, and the certification verdict. The
// tool then audits its own certificate with search.certified-optimal
// and exits nonzero if the rule fires, so a scripted sweep cannot
// silently record an unsound claim.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "pathrouting/audit/audit.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/obs/export.hpp"
#include "pathrouting/search/sweep.hpp"
#include "pathrouting/support/cli.hpp"
#include "pathrouting/support/table.hpp"

int main(int argc, char** argv) {
  using namespace pathrouting;

  support::Cli cli(argc, argv);
  search::SweepSpec spec;
  spec.algorithm = cli.flag_str("alg", "strassen", "catalog algorithm name");
  spec.r = static_cast<int>(cli.flag_int("r", 1, "recursion depth"));
  const std::int64_t m = cli.flag_int("m", 8, "cache size M, in values");
  const std::int64_t budget = cli.flag_int(
      "budget", 100000, "branch-and-bound node budget (0 = unbounded)");
  spec.seed =
      static_cast<std::uint64_t>(cli.flag_int("seed", 1, "local-search seed"));
  const std::int64_t ls_rounds =
      cli.flag_int("ls-rounds", 16, "local-search rounds");
  const std::int64_t ls_moves =
      cli.flag_int("ls-moves", 64, "local-search moves per round");
  cli.finish(
      "Branch-and-bound schedule search over red-blue pebblings of a "
      "catalog CDAG G_r (experiment E20).");
  // A negative size or count would wrap to a huge u64.
  for (const auto& [name, value] :
       {std::pair{"m", m}, std::pair{"budget", budget},
        std::pair{"ls-rounds", ls_rounds}, std::pair{"ls-moves", ls_moves}}) {
    if (value < 0) {
      std::string message = "--";
      message += name;
      message += " must be >= 0, got ";
      message += std::to_string(value);
      cli.fail(message);
    }
  }
  spec.m = static_cast<std::uint64_t>(m);
  spec.node_budget = static_cast<std::uint64_t>(budget);
  spec.ls_rounds = static_cast<std::uint64_t>(ls_rounds);
  spec.ls_moves = static_cast<std::uint64_t>(ls_moves);

  // Validate at the CLI surface: bad inputs are exit-2 one-liners, not
  // library-precondition aborts.
  const std::vector<std::string> names = bilinear::catalog_names();
  if (std::find(names.begin(), names.end(), spec.algorithm) == names.end()) {
    std::fprintf(stderr, "pr_search: unknown catalog algorithm '%s'\n",
                 spec.algorithm.c_str());
    return 2;
  }
  if (spec.r < 1) {
    std::fprintf(stderr, "pr_search: --r must be >= 1 (got %d)\n", spec.r);
    return 2;
  }
  const bilinear::BilinearAlgorithm alg = bilinear::by_name(spec.algorithm);
  const cdag::Cdag cdag(alg, spec.r, {.with_coefficients = false});
  std::uint64_t min_m = 2;
  for (cdag::VertexId v = 0; v < cdag.graph().num_vertices(); ++v) {
    min_m = std::max(
        min_m, static_cast<std::uint64_t>(cdag.graph().in_degree(v)) + 1);
  }
  if (spec.m < min_m) {
    std::fprintf(stderr,
                 "pr_search: --m %llu too small for %s r=%d — the pebble "
                 "game needs M >= max in-degree + 1 = %llu\n",
                 static_cast<unsigned long long>(spec.m),
                 spec.algorithm.c_str(), spec.r,
                 static_cast<unsigned long long>(min_m));
    return 2;
  }

  const search::SweepPoint point = search::run_search_point(spec);

  support::Table table({"schedule", "I/O"});
  table.add_row({"bfs", std::to_string(point.bfs_io)});
  table.add_row({"dfs", std::to_string(point.dfs_io)});
  table.add_row({"local search", std::to_string(point.local_io)});
  table.add_row({"branch-and-bound", std::to_string(point.searched_io)});
  table.add_row({"lower bound", std::to_string(point.lower_bound)});
  table.print(std::cout);
  std::cout << "\n"
            << spec.algorithm << " r=" << spec.r << " M=" << spec.m << ": "
            << point.num_vertices << " vertices, "
            << point.scheduled_vertices << " scheduled; best I/O "
            << point.searched_io << " = " << point.searched_reads
            << " reads + " << point.searched_writes << " writes\n"
            << "search: " << point.nodes_expanded << " expanded, "
            << point.nodes_pruned << " pruned, " << point.leaves_scored
            << " leaves scored, " << point.moves_accepted
            << " local moves accepted\n"
            << "verdict: "
            << (point.certified ? "CERTIFIED OPTIMAL" : "not certified")
            << " (proof: " << search::proof_name(point.proof)
            << ", graph fnv " << point.graph_fnv << ", witness fnv "
            << point.witness_fnv << ")\n";

  // Self-audit the certificate this run just produced.
  audit::SearchCertificateView cert;
  cert.graph = &cdag.graph();
  cert.schedule = point.witness;
  cert.output_mask = point.output_mask;
  cert.cache_size = spec.m;
  cert.claimed_io = point.searched_io;
  cert.claimed_lower_bound = point.lower_bound;
  cert.claims_bound_met_optimal = point.proof == search::Proof::kBoundMet;
  cert.theorem1_a = static_cast<std::uint64_t>(alg.a());
  cert.theorem1_b = static_cast<std::uint64_t>(alg.b());
  cert.theorem1_r = spec.r;
  const audit::AuditReport report = audit::audit_search_certificate(cert);
  // PR_TRACE_OUT / PR_METRICS_OUT (with PR_OBS=1) dump this run's spans
  // and counters.
  obs::write_env_outputs("search_metrics", obs::git_commit());
  if (!report.ok()) {
    std::cerr << report.to_text() << "pr_search: certificate audit FAILED\n";
    return EXIT_FAILURE;
  }
  std::cout << "certificate audit: clean (search.certified-optimal)\n";
  return EXIT_SUCCESS;
}
