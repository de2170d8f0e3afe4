// routing_explorer: inspect the path-routing machinery interactively.
//
//   ./routing_explorer --alg=strassen --k=3
//   ./routing_explorer --alg=laderman --k=2 --show-chain
//   ./routing_explorer --alg=strassen --k=2 --engine=brute
//   ./routing_explorer --alg=strassen --k=10
//   ./routing_explorer --alg=strassen --k=2 --dot=paths.dot
//
// Prints the Theorem-3 base matching, the Lemma-3 / Theorem-2 hit
// statistics for G_k (via the closed-form engine by default, which
// evaluates them on the virtual cdag::ImplicitCdag, never materializes
// G_k and so reaches k = 10+; --engine=brute for the enumerating
// oracle), and optionally walks one concrete chain and one
// concatenated In->Out path, naming every vertex it passes. --dot
// writes those two sample paths as a DOT edge overlay for graphviz.
// --show-chain and --dot build the explicit CDAG under either engine
// (the sample paths live in a materialized graph), so keep k small
// when combining them.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/cdag/implicit.hpp"
#include "pathrouting/routing/concat_routing.hpp"
#include "pathrouting/routing/memo_routing.hpp"
#include "pathrouting/routing/path_store.hpp"
#include "pathrouting/support/cli.hpp"

using namespace pathrouting;  // NOLINT: example brevity

namespace {

std::string describe(const cdag::Layout& layout, cdag::VertexId v) {
  const cdag::VertexRef ref = layout.ref(v);
  const char* layer = ref.layer == cdag::LayerKind::EncA   ? "encA"
                      : ref.layer == cdag::LayerKind::EncB ? "encB"
                                                           : "dec";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s[rank %d, q=%llu, p=%llu]", layer,
                ref.rank, static_cast<unsigned long long>(ref.q),
                static_cast<unsigned long long>(ref.p));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli(argc, argv);
  const std::string name = cli.flag_str("alg", "strassen", "catalog algorithm");
  const int k = static_cast<int>(cli.flag_int("k", 3, "recursion depth of G_k"));
  const bool show_chain =
      cli.flag_bool("show-chain", false, "print a sample chain and path");
  const std::string engine =
      cli.flag_str("engine", "memo",
                   "verification engine: memo (closed forms, constant "
                   "memory, no materialized CDAG) or brute (path "
                   "enumeration)");
  const std::string dot_file =
      cli.flag_str("dot", "", "write the sample chain and Lemma-4 path "
                              "as a DOT overlay to this file");
  cli.finish("Explore the Theorem-2 routing of a Strassen-like CDAG.");
  if (engine != "memo" && engine != "brute") {
    cli.fail("unknown engine '" + engine + "' (valid engines: memo, brute)");
  }

  const auto alg = bilinear::by_name(name);
  std::printf("%s: n0=%d, a=%d, b=%d, omega0=%.4f\n", alg.name().c_str(),
              alg.n0(), alg.a(), alg.b(), alg.omega0());

  // Theorem 3 matching per side.
  const routing::ChainRouter router(alg);
  for (const bilinear::Side side : {bilinear::Side::A, bilinear::Side::B}) {
    std::printf("\nTheorem-3 matching, side %c (guaranteed digit pair -> "
                "product, capacity n0=%d per product):\n",
                side == bilinear::Side::A ? 'A' : 'B', alg.n0());
    const auto& mu = router.matching(side);
    for (int d_in = 0; d_in < alg.a(); ++d_in) {
      for (int d_out = 0; d_out < alg.a(); ++d_out) {
        if (mu.defined(d_in, d_out)) {
          std::printf("  (%c%d%d -> c%d%d) => M%d\n",
                      side == bilinear::Side::A ? 'a' : 'b',
                      d_in / alg.n0() + 1, d_in % alg.n0() + 1,
                      d_out / alg.n0() + 1, d_out % alg.n0() + 1,
                      mu.product(d_in, d_out) + 1);
        }
      }
    }
  }

  // The closed-form engine needs no materialized graph; only the brute
  // engine and the sample paths (--show-chain / --dot) do.
  const bool need_paths = show_chain || !dot_file.empty();
  std::optional<cdag::Cdag> graph;
  std::optional<cdag::SubComputation> sub;
  if (engine == "brute" || need_paths) {
    graph.emplace(alg, k, cdag::CdagOptions{.with_coefficients = false});
    sub.emplace(*graph, k, 0);
  }
  routing::HitStats l3;
  routing::FullRoutingStats t2;
  if (engine == "memo") {
    const routing::MemoRoutingEngine memo(router);
    const cdag::ImplicitCdag view(alg, k);
    l3 = memo.verify_chain_routing(view, k, 0);
    t2 = memo.verify_full_routing(view, k, 0);
  } else {
    l3 = routing::verify_chain_routing(router, *sub);
    t2 = routing::verify_full_routing_aggregated(router, *sub);
  }
  std::printf("\nLemma 3 on G_%d (%s engine): %llu chains, busiest vertex "
              "hit %llu times (bound 2*n0^k = %llu) -> %s\n",
              k, engine.c_str(), static_cast<unsigned long long>(l3.num_paths),
              static_cast<unsigned long long>(l3.max_hits),
              static_cast<unsigned long long>(l3.bound),
              l3.ok() ? "holds" : "VIOLATED");
  std::printf("Theorem 2 on G_%d: %llu In x Out paths, busiest vertex %llu, "
              "busiest meta-vertex %llu (bound 6*a^k = %llu) -> %s\n",
              k, static_cast<unsigned long long>(t2.num_paths),
              static_cast<unsigned long long>(t2.max_vertex_hits),
              static_cast<unsigned long long>(t2.max_meta_hits),
              static_cast<unsigned long long>(t2.bound),
              t2.ok() ? "holds" : "VIOLATED");

  if (need_paths) {
    const auto& layout = graph->layout();
    routing::PathStore store;
    store.add_path([&](std::vector<cdag::VertexId>& out) {
      router.append_chain(*sub, bilinear::Side::A, 0,
                          routing::guaranteed_output(layout, k,
                                                     bilinear::Side::A, 0, 1),
                          out);
    });
    store.add_path([&](std::vector<cdag::VertexId>& out) {
      routing::append_full_path(router, *sub, bilinear::Side::A, 0,
                                sub->inputs_per_side() - 1, out);
    });
    if (show_chain) {
      std::printf("\nChain for the guaranteed dependence (first A-input -> "
                  "its 2nd guaranteed output):\n");
      for (const cdag::VertexId v : store.path(0)) {
        std::printf("  %s\n", describe(layout, v).c_str());
      }
      std::printf("\nLemma-4 path (first A-input -> last output, three "
                  "chains concatenated, %zu vertices):\n",
                  store.path(1).size());
      for (const cdag::VertexId v : store.path(1)) {
        std::printf("  %s\n", describe(layout, v).c_str());
      }
    }
    if (!dot_file.empty()) {
      const std::string dot =
          routing::paths_to_dot(layout, store, alg.name() + "_routing");
      std::FILE* f = std::fopen(dot_file.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", dot_file.c_str());
        return 1;
      }
      std::fwrite(dot.data(), 1, dot.size(), f);
      std::fclose(f);
      std::printf("\nwrote %s (chain + Lemma-4 path overlay)\n",
                  dot_file.c_str());
    }
  }
  return 0;
}
