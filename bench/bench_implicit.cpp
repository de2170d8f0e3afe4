// E17 — Implicit-CDAG scaling: constant-memory verification at k = 10.
//
// The explicit G_r for Strassen at k = 10 has ~2.0e9 vertices — the
// CSR arrays alone would need tens of GiB. The implicit engine
// (cdag::ImplicitCdag + MemoRoutingEngine's view overloads) certifies
// the Lemma-3 / Lemma-4 / Theorem-2 chain routing and the Claim-1
// decode routing at that size from O(k * b * #digit-states) state.
//
// Strassen runs k = 1..kmax and the classical2 (x) strassen hybrid at
// matching problem sizes (n0 = 4, so k/2 ranks reach the same n), each
// point through routing/routing_point.hpp's closed-form engine with NO
// explicit graph ever built; then the bench asserts the process peak
// RSS stayed under 2 GiB — the headline bounded-memory claim of the
// implicit representation. The same closed-form verifiers are checked
// against the brute-force oracle by bench_routing --engine=both, the
// routing.implicit-match audit rule and tests/test_implicit_cdag.
//
// Exits 1 on any bound violation or RSS breach, so the
// implicit-perfsmoke ctest entry is a hard gate.
//
// Flags:
//   --kmax=N   Strassen ranks (default 10); the hybrid runs kmax/2
#include <algorithm>
#include <cinttypes>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/layout.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/routing/routing_point.hpp"
#include "pathrouting/support/cli.hpp"
#include "pathrouting/support/table.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using support::fmt_count;
using support::fmt_fixed;

constexpr std::uint64_t kRssLimitBytes = 2ull << 30;  // 2 GiB

// This file's records tag the closed-form engine by the view it runs
// on; routing::routing_spec_from_record reads the tag as kMemo.
constexpr const char* kEngineTag = "implicit";

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli(argc, argv);
  const std::int64_t kmax_flag = cli.flag_int(
      "kmax", 10, "Strassen ranks; the hybrid runs kmax/2 (>= 1)");
  cli.finish("E17: constant-memory routing certificates on the implicit "
             "CDAG.");
  if (kmax_flag < 1) {
    cli.fail("--kmax must be >= 1, got " + std::to_string(kmax_flag));
  }
  const int kmax = static_cast<int>(std::min<std::int64_t>(kmax_flag, INT_MAX));

  bench::print_banner(
      "E17: implicit CDAG — constant-memory certificates at k = 10",
      "Claim: the Fact-1 virtual view certifies the Lemma-3/4, Theorem-2,\n"
      "and Claim-1 routings of G_k without materializing G_k; peak RSS\n"
      "stays under 2 GiB at Strassen k = 10 (~2.0e9 vertices).");

  bench::BenchJson json("implicit_cdag");
  bool failed = false;

  // Workloads: Strassen at full depth, and the disconnected-decoding
  // hybrid at the rank reaching the same n (n0 = 4: kmax/2 ranks give
  // n = 2^kmax). The hybrid has no Claim-1 router, so it exercises the
  // chain-only engine configuration.
  struct Workload {
    const char* name;
    int kmax;
  };
  const std::vector<Workload> workloads = {
      {"strassen", kmax},
      {"classical2_x_strassen", std::max(1, kmax / 2)},
  };

  support::Table table({"algorithm", "k", "n", "|V| (virtual)", "chains",
                        "l3", "l4", "t2", "claim1", "sec", "rss-MiB"});
  for (const Workload& w : workloads) {
    const auto alg = bilinear::by_name(w.name);
    const bool decode = bilinear::decoding_components(alg) == 1;
    for (int k = 1; k <= w.kmax; ++k) {
      const routing::RoutingSpec spec{w.name, k, routing::EngineKind::kMemo};
      const routing::ChainPoint chain = routing::run_chain_point(spec);
      obs::BenchRecord& chain_rec = json.add_record();
      routing::fill_chain_record(chain, chain_rec);
      chain_rec.set("engine", kEngineTag);
      std::optional<routing::DecodePoint> claim1;
      if (decode) {
        claim1 = routing::run_decode_point(spec);
        obs::BenchRecord& decode_rec = json.add_record();
        routing::fill_decode_record(*claim1, decode_rec);
        decode_rec.set("engine", kEngineTag);
      }
      const bool claim1_ok = !claim1 || claim1->stats.ok();
      if (!chain.ok() || !claim1_ok) {
        std::fprintf(stderr, "BOUND VIOLATION: %s k=%d (implicit)\n", w.name,
                     k);
        failed = true;
      }
      const cdag::Layout layout(alg.n0(), alg.b(), k);
      table.add_row(
          {w.name, std::to_string(k), std::to_string(layout.n()),
           fmt_count(layout.num_vertices()), fmt_count(chain.l3.num_paths),
           chain.l3.ok() ? "OK" : "FAIL", chain.l4 ? "OK" : "FAIL",
           chain.t2.ok() ? "OK" : "FAIL",
           claim1 ? (claim1_ok ? "OK" : "FAIL") : "-",
           fmt_fixed(chain.seconds + (claim1 ? claim1->seconds : 0.0), 3),
           std::to_string(obs::max_rss_bytes() >> 20)});
    }
  }
  table.print(std::cout);

  // The bounded-memory claim: everything above ran without ever
  // allocating per-vertex state. ru_maxrss is monotonic, so this also
  // bounds every workload individually.
  const std::uint64_t peak_rss = obs::max_rss_bytes();
  std::printf("\nimplicit phase peak RSS: %" PRIu64 " MiB (limit %" PRIu64
              " MiB)\n",
              peak_rss >> 20, kRssLimitBytes >> 20);
  json.add_record()
      .set("experiment", "implicit_phase")
      .set("engine", kEngineTag)
      .set("kmax", kmax)
      .set("rss_limit_bytes", kRssLimitBytes)
      .set("ok", peak_rss < kRssLimitBytes)
      .set("max_rss_bytes", peak_rss);
  if (peak_rss >= kRssLimitBytes) {
    std::fprintf(stderr, "RSS LIMIT EXCEEDED: %" PRIu64 " >= %" PRIu64 "\n",
                 peak_rss, kRssLimitBytes);
    failed = true;
  }

  return failed ? 1 : 0;
}
