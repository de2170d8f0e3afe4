// E17 — Implicit-CDAG scaling: constant-memory verification at k = 10.
//
// The explicit G_r for Strassen at k = 10 has ~2.0e9 vertices — the
// CSR arrays alone would need tens of GiB. The implicit engine
// (cdag::ImplicitCdag + MemoRoutingEngine's view overloads) certifies
// the Lemma-3 / Lemma-4 / Theorem-2 chain routing and the Claim-1
// decode routing at that size from O(k * b * #digit-states) state.
//
// Phase 1 (implicit only) runs Strassen k = 1..kmax and the
// classical2 (x) strassen hybrid at matching problem sizes (n0 = 4, so
// k/2 ranks reach the same n) with NO explicit graph ever built, then
// asserts the process peak RSS stayed under 2 GiB — the headline
// bounded-memory claim of the implicit representation.
//
// Phase 2 (cross-check; skip with --implicit-only) rebuilds the
// explicit CDAG where it still fits (~4M vertices) and requires the
// implicit stats to be bit-identical to the array-backed memoized
// engine, field by field, including argmax tie-breaks.
//
// Exits nonzero on any bound violation, divergence, or RSS breach, so
// the implicit-perfsmoke ctest entry is a hard gate.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/cdag/implicit.hpp"
#include "pathrouting/cdag/subcomputation.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/routing/memo_routing.hpp"
#include "pathrouting/routing/routing_point.hpp"
#include "pathrouting/support/table.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using support::fmt_count;
using support::fmt_fixed;

constexpr std::uint64_t kRssLimitBytes = 2ull << 30;  // 2 GiB

struct Options {
  int kmax = 10;           // Strassen ranks; the hybrid runs kmax/2
  bool crosscheck = true;  // phase 2 (explicit comparison)
};

struct ImplicitRun {
  routing::HitStats l3;
  bool l4 = false;
  routing::FullRoutingStats t2;
  std::optional<routing::HitStats> decode;
  // The chain phase (L3/L4/T2) and the Claim-1 decode phase are
  // separate records in the JSON, so they are timed separately.
  double chain_secs = 0;
  double decode_secs = 0;
  [[nodiscard]] bool ok() const {
    return l3.ok() && l4 && t2.ok() && (!decode || decode->ok());
  }
};

ImplicitRun run_implicit(const routing::MemoRoutingEngine& engine,
                         const cdag::CdagView& view, int k) {
  ImplicitRun run;
  bench::Stopwatch chain_timer;
  run.l3 = engine.verify_chain_routing(view, k, 0);
  run.l4 = engine.verify_chain_multiplicities(view, k, 0);
  run.t2 = engine.verify_full_routing(view, k, 0);
  run.chain_secs = chain_timer.seconds();
  if (engine.has_decoder()) {
    bench::Stopwatch decode_timer;
    run.decode = engine.verify_decode_routing(view, k, 0);
    run.decode_secs = decode_timer.seconds();
  }
  return run;
}

ImplicitRun run_explicit(const routing::MemoRoutingEngine& engine,
                         const cdag::SubComputation& sub) {
  ImplicitRun run;
  run.l3 = engine.verify_chain_routing(sub);
  run.l4 = engine.verify_chain_multiplicities(sub);
  run.t2 = engine.verify_full_routing(sub);
  if (engine.has_decoder()) {
    run.decode = engine.verify_decode_routing(sub);
  }
  return run;
}

bool bit_identical(const ImplicitRun& a, const ImplicitRun& b) {
  return a.l3 == b.l3 && a.l4 == b.l4 && a.t2 == b.t2 && a.decode == b.decode;
}

void add_records(bench::BenchJson& json, const std::string& name, int k,
                 const ImplicitRun& run) {
  const routing::RoutingSpec spec{name, k, routing::EngineKind::kImplicit};
  routing::fill_chain_record({spec, run.l3, run.l4, run.t2, {}, run.chain_secs},
                             json.add_record());
  if (run.decode) {
    routing::fill_decode_record({spec, *run.decode, {}, run.decode_secs},
                                json.add_record());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--kmax=", 0) == 0) {
      opt.kmax = std::atoi(arg.c_str() + 7);
    } else if (arg == "--implicit-only") {
      opt.crosscheck = false;
    } else {
      std::fprintf(stderr,
                   "usage: bench_implicit [--kmax=N] [--implicit-only]\n");
      return 2;
    }
  }
  if (opt.kmax < 1) opt.kmax = 1;

  bench::print_banner(
      "E17: implicit CDAG — constant-memory certificates at k = 10",
      "Claim: the Fact-1 virtual view certifies the Lemma-3/4, Theorem-2,\n"
      "and Claim-1 routings of G_k without materializing G_k; peak RSS\n"
      "stays under 2 GiB at Strassen k = 10 (~2.0e9 vertices), and the\n"
      "stats are bit-identical to the explicit engine wherever both run.");

  bench::BenchJson json("implicit_cdag");
  bool failed = false;

  // Phase 1 — implicit only. Workloads: Strassen at full depth, and
  // the disconnected-decoding hybrid at the rank reaching the same n
  // (n0 = 4: kmax/2 ranks give n = 2^kmax). The hybrid has no Claim-1
  // router, so it exercises the chain-only engine configuration.
  struct Workload {
    const char* name;
    int kmax;
  };
  const std::vector<Workload> workloads = {
      {"strassen", opt.kmax},
      {"classical2_x_strassen", std::max(1, opt.kmax / 2)},
  };

  support::Table table({"algorithm", "k", "n", "|V| (virtual)", "chains",
                        "l3", "l4", "t2", "claim1", "sec", "rss-MiB"});
  for (const Workload& w : workloads) {
    const auto alg = bilinear::by_name(w.name);
    const routing::ChainRouter router(alg);
    std::optional<routing::DecodeRouter> decoder;
    std::optional<routing::MemoRoutingEngine> engine;
    if (bilinear::decoding_components(alg) == 1) {
      decoder.emplace(alg);
      engine.emplace(router, *decoder);
    } else {
      engine.emplace(router);
    }
    for (int k = 1; k <= w.kmax; ++k) {
      const cdag::ImplicitCdag view(alg, k);
      const ImplicitRun run = run_implicit(*engine, view, k);
      const double secs = run.chain_secs + run.decode_secs;
      if (!run.ok()) {
        std::fprintf(stderr, "BOUND VIOLATION: %s k=%d (implicit)\n", w.name,
                     k);
        failed = true;
      }
      add_records(json, w.name, k, run);
      table.add_row(
          {w.name, std::to_string(k), std::to_string(view.layout().n()),
           fmt_count(view.num_vertices()), fmt_count(run.l3.num_paths),
           run.l3.ok() ? "OK" : "FAIL", run.l4 ? "OK" : "FAIL",
           run.t2.ok() ? "OK" : "FAIL",
           run.decode ? (run.decode->ok() ? "OK" : "FAIL") : "-",
           fmt_fixed(secs, 3),
           std::to_string(obs::max_rss_bytes() >> 20)});
    }
  }
  table.print(std::cout);

  // The bounded-memory claim: everything above ran without ever
  // allocating per-vertex state. ru_maxrss is monotonic, so this also
  // bounds every workload individually.
  const std::uint64_t phase1_rss = obs::max_rss_bytes();
  std::printf("\nimplicit phase peak RSS: %" PRIu64 " MiB (limit %" PRIu64
              " MiB)\n",
              phase1_rss >> 20, kRssLimitBytes >> 20);
  json.add_record()
      .set("experiment", "implicit_phase")
      .set("engine", routing::engine_name(routing::EngineKind::kImplicit))
      .set("kmax", opt.kmax)
      .set("rss_limit_bytes", kRssLimitBytes)
      .set("ok", phase1_rss < kRssLimitBytes)
      .set("max_rss_bytes", phase1_rss);
  if (phase1_rss >= kRssLimitBytes) {
    std::fprintf(stderr, "RSS LIMIT EXCEEDED: %" PRIu64 " >= %" PRIu64 "\n",
                 phase1_rss, kRssLimitBytes);
    failed = true;
  }

  // Phase 2 — cross-check against the explicit engine wherever the
  // CSR graph still fits (~4M vertices). The explicit build dominates
  // the RSS from here on, which is why phase 1 measured first.
  if (opt.crosscheck) {
    std::printf("\ncross-check vs explicit engine (<= ~4M vertices):\n");
    for (const Workload& w : workloads) {
      const auto alg = bilinear::by_name(w.name);
      int kx = w.kmax;
      while (kx > 1 && cdag::ImplicitCdag(alg, kx).num_vertices() > 4000000) {
        --kx;
      }
      const routing::ChainRouter router(alg);
      std::optional<routing::DecodeRouter> decoder;
      std::optional<routing::MemoRoutingEngine> engine;
      if (bilinear::decoding_components(alg) == 1) {
        decoder.emplace(alg);
        engine.emplace(router, *decoder);
      } else {
        engine.emplace(router);
      }
      for (int k = 1; k <= kx; ++k) {
        const cdag::Cdag graph(alg, k,
                               cdag::CdagOptions{.with_coefficients = false});
        const cdag::SubComputation sub(graph, k, 0);
        const cdag::ImplicitCdag view(alg, k);
        const ImplicitRun expl = run_explicit(*engine, sub);
        const ImplicitRun impl = run_implicit(*engine, view, k);
        const bool identical = bit_identical(expl, impl);
        if (!identical) {
          std::fprintf(stderr, "DIVERGENCE: %s k=%d implicit != explicit\n",
                       w.name, k);
          failed = true;
        }
        json.add_record()
            .set("experiment", "crosscheck")
            .set("algorithm", w.name)
            .set("k", k)
            .set("counts_bit_identical", identical)
            .set("max_rss_bytes", obs::max_rss_bytes());
        std::printf("  %-22s k=%d  %s\n", w.name, k,
                    identical ? "bit-identical" : "DIVERGED");
      }
    }
  }

  return failed ? 1 : 0;
}
