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
// enumerates every path (the oracle); the memoized engine
// (routing/memo_routing.hpp) fills the same hit arrays from the closed
// forms on a canonical G_k copy. Where both engines run, the full
// per-vertex arrays are compared bit for bit and the memo record
// carries counts_bit_identical plus the measured speedup. Any
// divergence or bound violation makes the bench exit nonzero, so CI
// can run it as a perf smoke test (--engine=memo --kmax=N under
// timeout).
//
// The implicit engine is the third column: the same closed forms
// evaluated through cdag::ImplicitCdag (no CSR arrays, no per-vertex
// hit arrays — digit-state DP only), so its records measure the
// constant-memory verification path and carry max_rss_bytes. Its
// stats must match the memoized engine's bit for bit.
//
// Flags:
//   --engine=both|memo|brute|implicit  which engines (default both=all)
//   --kmax=N                   cap every case's k (0 = per-case table)
//   --kmax-brute=N             cap only the brute engine's k
//   --full-catalog             add every catalog algorithm at k <= 3
#include <algorithm>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.hpp"
#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/layout.hpp"
#include "pathrouting/obs/export.hpp"
#include "pathrouting/routing/routing_point.hpp"
#include "pathrouting/support/table.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using support::fmt_count;
using support::fmt_fixed;

struct Options {
  bool run_brute = true;
  bool run_memo = true;
  bool run_implicit = true;
  int kmax = 0;        // 0 = per-case table
  int kmax_brute = 0;  // 0 = per-case table
  bool full_catalog = false;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.starts_with("--engine=")) {
      const std::string engine = arg.substr(std::strlen("--engine="));
      opt.run_brute = engine == "both" || engine == "brute";
      opt.run_memo = engine == "both" || engine == "memo";
      opt.run_implicit = engine == "both" || engine == "implicit";
      if (!opt.run_brute && !opt.run_memo && !opt.run_implicit) {
        std::fprintf(stderr,
                     "unknown engine \"%s\" (valid engines: both, memo, "
                     "brute, implicit)\n",
                     engine.c_str());
        std::exit(2);
      }
    } else if (arg.starts_with("--kmax=")) {
      opt.kmax = std::atoi(arg.c_str() + std::strlen("--kmax="));
    } else if (arg.starts_with("--kmax-brute=")) {
      opt.kmax_brute = std::atoi(arg.c_str() + std::strlen("--kmax-brute="));
    } else if (arg == "--full-catalog") {
      opt.full_catalog = true;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: bench_routing "
                   "[--engine=both|memo|brute|implicit] [--kmax=N] "
                   "[--kmax-brute=N] [--full-catalog]\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  return opt;
}

struct Case {
  std::string name;
  int kmax_brute;
  int kmax_memo;
};

/// A case with the CLI caps applied per engine. The implicit engine
/// shares the memoized k table (both evaluate closed forms; the
/// implicit engine's far larger feasible k lives in bench_implicit).
struct ActiveCase {
  std::string name;
  int kmax_brute = 0;
  int kmax_memo = 0;
  int kmax_implicit = 0;
  [[nodiscard]] int kmax() const {
    return std::max({kmax_brute, kmax_memo, kmax_implicit});
  }
};

ActiveCase capped(const Options& opt, const Case& raw) {
  ActiveCase c{raw.name, raw.kmax_brute, raw.kmax_memo, raw.kmax_memo};
  if (opt.kmax > 0) {
    c.kmax_brute = std::min(c.kmax_brute, opt.kmax);
    c.kmax_memo = std::min(c.kmax_memo, opt.kmax);
    c.kmax_implicit = std::min(c.kmax_implicit, opt.kmax);
  }
  if (opt.kmax_brute > 0) c.kmax_brute = std::min(c.kmax_brute, opt.kmax_brute);
  if (!opt.run_brute) c.kmax_brute = 0;
  if (!opt.run_memo) c.kmax_memo = 0;
  if (!opt.run_implicit) c.kmax_implicit = 0;
  return c;
}

/// --full-catalog: every catalog algorithm at k <= 3 (capped so the
/// CDAG stays under ~4M vertices), appended after the headline cases.
void add_catalog_cases(std::vector<Case>& cases, int kmax,
                       bool decode_only) {
  for (const std::string& name : bilinear::catalog_names()) {
    if (std::any_of(cases.begin(), cases.end(),
                    [&](const Case& c) { return c.name == name; })) {
      continue;
    }
    const auto alg = bilinear::by_name(name);
    if (decode_only && bilinear::decoding_components(alg) != 1) continue;
    int k = kmax;
    while (k > 1 &&
           cdag::Layout(alg.n0(), alg.b(), k).num_vertices() > 4000000) {
      --k;
    }
    cases.push_back({name, k, k});
  }
}

/// Hit arrays are compared only where both engines materialize them
/// (the implicit engine never does).
bool same_hits(const std::vector<std::uint64_t>& a,
               const std::vector<std::uint64_t>& b) {
  return a.empty() || b.empty() || a == b;
}

bool same_chain(const routing::ChainPoint& a, const routing::ChainPoint& b) {
  return same_hits(a.counts.hits, b.counts.hits) && a.l3 == b.l3 &&
         a.l4 == b.l4 && a.t2 == b.t2;
}

bool same_decode(const routing::DecodePoint& a,
                 const routing::DecodePoint& b) {
  return same_hits(a.hits, b.hits) && a.stats == b.stats;
}

/// One k of a case: each engine's point, run when k is within its cap.
template <class Point>
struct EnginePoints {
  std::optional<Point> brute, memo, implicit;

  EnginePoints(const ActiveCase& c, int k,
               Point (*run)(const routing::RoutingSpec&)) {
    if (k <= c.kmax_brute) {
      brute = run({c.name, k, routing::EngineKind::kBrute});
    }
    if (k <= c.kmax_memo) memo = run({c.name, k, routing::EngineKind::kMemo});
    if (k <= c.kmax_implicit) {
      implicit = run({c.name, k, routing::EngineKind::kImplicit});
    }
  }
};

/// Records `point` with its cross-check against `reference` (brute for
/// memo, memo for implicit): counts_bit_identical plus the speedup.
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

  std::vector<Case> chain_cases = {{"strassen", 6, 7},
                                   {"winograd", 6, 7},
                                   {"laderman", 3, 4},
                                   {"strassen_squared", 3, 3},
                                   {"strassen_x_classical2", 3, 3}};
  if (opt.full_catalog) add_catalog_cases(chain_cases, 3, false);

  for (const Case& raw : chain_cases) {
    const ActiveCase c = capped(opt, raw);
    for (int k = 1; k <= c.kmax(); ++k) {
      const EnginePoints<routing::ChainPoint> points(c, k,
                                                     routing::run_chain_point);
      const auto emit = [&](const std::optional<routing::ChainPoint>& point,
                            const std::optional<routing::ChainPoint>& ref) {
        if (!point.has_value()) return;
        const routing::ChainPoint& p = *point;
        const std::string speed = record_point(
            json, p, ref, ref.has_value() && same_chain(p, *ref), failed);
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
      emit(points.implicit, points.memo);
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

  std::vector<Case> decode_cases = {
      {"strassen", 5, 6}, {"winograd", 5, 6}, {"laderman", 3, 4}};
  if (opt.full_catalog) add_catalog_cases(decode_cases, 3, true);

  for (const Case& raw : decode_cases) {
    const ActiveCase c = capped(opt, raw);
    for (int k = 1; k <= c.kmax(); ++k) {
      const EnginePoints<routing::DecodePoint> points(
          c, k, routing::run_decode_point);
      const auto emit = [&](const std::optional<routing::DecodePoint>& point,
                            const std::optional<routing::DecodePoint>& ref) {
        if (!point.has_value()) return;
        const routing::DecodePoint& p = *point;
        const std::string speed = record_point(
            json, p, ref, ref.has_value() && same_decode(p, *ref), failed);
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
      emit(points.implicit, points.memo);
    }
  }
  claim1.print(std::cout);

  // With PR_OBS=1 in the environment the run was traced; PR_TRACE_OUT
  // dumps the spans as a chrome://tracing file and PR_METRICS_OUT the
  // obs counters in the BENCH record schema (see README
  // "Observability").
  obs::write_env_outputs("routing_metrics", bench::git_commit());

  if (failed) {
    std::fprintf(stderr,
                 "bench_routing: FAILED (divergence or bound violation)\n");
    return 1;
  }
  return 0;
}
