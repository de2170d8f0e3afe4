// E2-E5 — the routing theorems, verified by two engines.
//
//   E2 (Theorem 2): 6 a^k-routing between In and Out of G_k.
//   E3 (Lemma 3):   2 n0^k-routing of chains for guaranteed deps.
//   E4 (Lemma 4):   every chain reused exactly 3 n0^k times.
//   E5 (Claim 1):   |D_1| * max(a,b)^k-routing in the decoding graph.
//
// Every (algorithm, k, engine) point runs and is recorded through
// routing/routing_point.hpp — the triple pr_bench_gate re-runs
// against the committed BENCH_routing_memo.json. The brute engine
// enumerates every path on a materialized G_k (the oracle); the
// memoized engine (routing/memo_routing.hpp) derives every statistic
// from the closed forms by one digit-state DP, never building G_k, and
// fills the canonical per-vertex hit arrays from the same forms. Where
// both engines run, the stats and the full per-vertex arrays are
// compared bit for bit and the memo record carries
// counts_bit_identical plus the measured speedup. Any divergence or
// bound violation makes the bench exit 1, so CI runs it as a cross-check
// (--engine=both --kmax=3) and as a perf smoke test (--engine=memo
// --kmax=N under timeout).
//
// Flags:
//   --engine=both|memo|brute   which engines (default both)
//   --kmax=N                   cap every case's k (0 = per-case table)
#include <algorithm>
#include <climits>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/obs/export.hpp"
#include "pathrouting/routing/memo_routing.hpp"
#include "pathrouting/routing/routing_point.hpp"
#include "pathrouting/support/cli.hpp"
#include "pathrouting/support/table.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using support::fmt_count;
using support::fmt_fixed;

struct Options {
  bool run_brute = true;
  bool run_memo = true;
  int kmax = 0;  // 0 = per-case table
};

Options parse_options(int argc, char** argv) {
  support::Cli cli(argc, argv);
  const std::string engine = cli.flag_str(
      "engine", "both", "which engines run: both, memo or brute");
  const std::int64_t kmax =
      cli.flag_int("kmax", 0, "cap every case's k (0 = per-case table)");
  cli.finish("E2-E5: the routing theorems, verified by the brute and "
             "memoized engines.");
  if (engine != "both" && engine != "memo" && engine != "brute") {
    cli.fail("unknown engine '" + engine +
             "' (valid engines: both, memo, brute)");
  }
  Options opt;
  opt.run_brute = engine != "memo";
  opt.run_memo = engine != "brute";
  if (kmax < 0) {
    cli.fail("--kmax must be >= 1 (or 0 for the per-case table), got " +
             std::to_string(kmax));
  }
  opt.kmax = static_cast<int>(std::min<std::int64_t>(kmax, INT_MAX));
  return opt;
}

struct Case {
  std::string name;
  int kmax_brute;
  int kmax_memo;
};

/// A case with the CLI caps applied per engine.
struct ActiveCase {
  std::string name;
  int kmax_brute = 0;
  int kmax_memo = 0;
  [[nodiscard]] int kmax() const { return std::max(kmax_brute, kmax_memo); }
};

ActiveCase capped(const Options& opt, const Case& raw) {
  ActiveCase c{raw.name, raw.kmax_brute, raw.kmax_memo};
  if (opt.kmax > 0) {
    c.kmax_brute = std::min(c.kmax_brute, opt.kmax);
    c.kmax_memo = std::min(c.kmax_memo, opt.kmax);
  }
  if (!opt.run_brute) c.kmax_brute = 0;
  if (!opt.run_memo) c.kmax_memo = 0;
  return c;
}

/// A memo point against the brute point of the same (algorithm, k):
/// the stats field for field, and the engine's canonical G_k hit array
/// (the whole graph is the prefix-0 copy, whose Fact-1 renaming is the
/// identity) bit for bit against the brute array.
bool same_chain(const routing::ChainPoint& memo,
                const routing::ChainPoint& brute,
                const routing::MemoRoutingEngine& engine) {
  const auto hits = engine.canonical_chain_hit_array(memo.spec.k);
  return std::ranges::equal(hits, brute.counts.hits) && memo.l3 == brute.l3 &&
         memo.l4 == brute.l4 && memo.t2 == brute.t2;
}

bool same_decode(const routing::DecodePoint& memo,
                 const routing::DecodePoint& brute,
                 const routing::MemoRoutingEngine& engine) {
  const auto hits = engine.canonical_decode_hit_array(memo.spec.k);
  return std::ranges::equal(hits, brute.hits) && memo.stats == brute.stats;
}

/// One k of a case: each engine's point, run when k is within its cap.
template <class Point>
struct EnginePoints {
  std::optional<Point> brute, memo;

  EnginePoints(const ActiveCase& c, int k,
               Point (*run)(const routing::RoutingSpec&)) {
    if (k <= c.kmax_brute) {
      brute = run({c.name, k, routing::EngineKind::kBrute});
    }
    // Memo points are gated, so they are timed as pr_bench_gate times
    // them: the fastest of obs::kGateTimingRepeats runs.
    if (k <= c.kmax_memo) {
      memo = obs::fastest_of_repeats(
          [&] { return run({c.name, k, routing::EngineKind::kMemo}); });
    }
  }
};

/// Records `point` with its cross-check against `reference` (the brute
/// point, for memo): counts_bit_identical plus the speedup.
/// Returns the table's speedup cell; a divergence fails the bench.
template <class Point>
std::string record_point(bench::BenchJson& json, const Point& point,
                         const std::optional<Point>& reference,
                         bool identical, bool& failed) {
  obs::BenchRecord& rec = json.add_record();
  if constexpr (std::is_same_v<Point, routing::ChainPoint>) {
    routing::fill_chain_record(point, rec);
  } else {
    routing::fill_decode_record(point, rec);
  }
  if (!reference.has_value()) return "-";
  const double speedup =
      point.seconds > 0 ? reference->seconds / point.seconds : 0.0;
  rec.set("counts_bit_identical", identical).set("speedup", speedup);
  if (!identical) {
    std::fprintf(stderr, "DIVERGENCE: %s k=%d %s %s differ from %s\n",
                 point.spec.algorithm.c_str(), point.spec.k,
                 routing::engine_name(point.spec.engine),
                 rec.text_or("experiment", "").c_str(),
                 routing::engine_name(reference->spec.engine));
    failed = true;
  }
  return fmt_fixed(speedup, 1) + "x";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  bool failed = false;

  bench::print_banner(
      "E2/E3/E4: Lemma 3, Lemma 4 and the Routing Theorem (Theorem 2)",
      "Claim: chains for all guaranteed dependencies hit every vertex at\n"
      "most 2 n0^k times; the Lemma-4 concatenation uses every chain\n"
      "exactly 3 n0^k times; the composed routing hits every vertex and\n"
      "every meta-vertex at most 6 a^k times. The memoized engine must\n"
      "reproduce the brute-force hit arrays bit for bit.");

  support::Table table({"algorithm", "k", "engine", "chains", "L3 max",
                        "L3 bound", "L4 exact", "T2 max", "T2 meta",
                        "T2 bound", "ok", "sec", "speedup"});
  bench::BenchJson json("routing_memo");

  const std::vector<Case> chain_cases = {{"strassen", 6, 7},
                                         {"winograd", 6, 7},
                                         {"laderman", 3, 4},
                                         {"strassen_squared", 3, 3},
                                         {"strassen_x_classical2", 3, 3}};

  for (const Case& raw : chain_cases) {
    const ActiveCase c = capped(opt, raw);
    const routing::MemoRoutingEngine engine{
        routing::ChainRouter(bilinear::by_name(c.name))};
    for (int k = 1; k <= c.kmax(); ++k) {
      const EnginePoints<routing::ChainPoint> points(c, k,
                                                     routing::run_chain_point);
      const auto emit = [&](const std::optional<routing::ChainPoint>& point,
                            const std::optional<routing::ChainPoint>& ref) {
        if (!point.has_value()) return;
        const routing::ChainPoint& p = *point;
        const std::string speed = record_point(
            json, p, ref, ref.has_value() && same_chain(p, *ref, engine),
            failed);
        if (!p.ok()) failed = true;
        table.add_row({c.name, std::to_string(k),
                       routing::engine_name(p.spec.engine),
                       fmt_count(p.l3.num_paths), fmt_count(p.l3.max_hits),
                       fmt_count(p.l3.bound), p.l4 ? "yes" : "NO",
                       fmt_count(p.t2.max_vertex_hits),
                       fmt_count(p.t2.max_meta_hits), fmt_count(p.t2.bound),
                       p.ok() ? "OK" : "VIOLATED", fmt_fixed(p.seconds, 2),
                       speed});
      };
      emit(points.brute, std::nullopt);
      emit(points.memo, points.brute);
    }
  }
  table.print(std::cout);

  bench::print_banner(
      "E5: Claim 1 — the decoding-graph routing of Section 5",
      "Claim: for bases with a connected decoding graph there is an\n"
      "(|D_1| * max(a,b)^k)-routing between the inputs and outputs of D_k\n"
      "(11 * 7^k for Strassen). The brute engine enumerates every\n"
      "zig-zag; the memoized engine fills the array from the D_1 visit\n"
      "tables.");
  support::Table claim1({"algorithm", "k", "engine", "paths", "max hits",
                         "bound", "slack", "ok", "sec", "speedup"});

  const std::vector<Case> decode_cases = {
      {"strassen", 5, 6}, {"winograd", 5, 6}, {"laderman", 3, 4}};

  for (const Case& raw : decode_cases) {
    const ActiveCase c = capped(opt, raw);
    const auto alg = bilinear::by_name(c.name);
    const routing::MemoRoutingEngine engine{routing::ChainRouter(alg),
                                            routing::DecodeRouter(alg)};
    for (int k = 1; k <= c.kmax(); ++k) {
      const EnginePoints<routing::DecodePoint> points(
          c, k, routing::run_decode_point);
      const auto emit = [&](const std::optional<routing::DecodePoint>& point,
                            const std::optional<routing::DecodePoint>& ref) {
        if (!point.has_value()) return;
        const routing::DecodePoint& p = *point;
        const std::string speed = record_point(
            json, p, ref, ref.has_value() && same_decode(p, *ref, engine),
            failed);
        if (!p.stats.ok()) failed = true;
        claim1.add_row(
            {c.name, std::to_string(k), routing::engine_name(p.spec.engine),
             fmt_count(p.stats.num_paths), fmt_count(p.stats.max_hits),
             fmt_count(p.stats.bound),
             fmt_fixed(static_cast<double>(p.stats.bound) /
                           static_cast<double>(p.stats.max_hits),
                       1),
             p.stats.ok() ? "OK" : "VIOLATED", fmt_fixed(p.seconds, 2),
             speed});
      };
      emit(points.brute, std::nullopt);
      emit(points.memo, points.brute);
    }
  }
  claim1.print(std::cout);

  // With PR_OBS=1 in the environment the run was traced; PR_TRACE_OUT
  // dumps the spans as a chrome://tracing file and PR_METRICS_OUT the
  // obs counters in the BENCH record schema (see README
  // "Observability").
  obs::write_env_outputs("routing_metrics", obs::git_commit());

  if (failed) {
    std::fprintf(stderr,
                 "bench_routing: FAILED (divergence or bound violation)\n");
    return 1;
  }
  return 0;
}
