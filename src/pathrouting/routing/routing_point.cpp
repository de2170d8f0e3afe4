#include "pathrouting/routing/routing_point.hpp"

#include <chrono>
#include <climits>

#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/cdag/implicit.hpp"
#include "pathrouting/obs/obs.hpp"

namespace pathrouting::routing {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

ChainPoint run_chain_point(const RoutingSpec& spec) {
  const BilinearAlgorithm alg = bilinear::by_name(spec.algorithm);
  const ChainRouter router(alg);
  ChainPoint point;
  point.spec = spec;
  const int k = spec.k;
  if (spec.engine == EngineKind::kBrute) {
    const cdag::Cdag graph(alg, k, {.with_coefficients = false});
    const cdag::SubComputation sub(graph, k, 0);
    const Clock::time_point t0 = Clock::now();
    point.counts = count_chain_hits(router, sub);
    point.l3 = chain_stats_from_counts(point.counts, sub);
    point.l4 = verify_chain_multiplicities(router, sub);
    point.t2 = full_routing_from_chain_counts(sub, point.counts);
    point.seconds = seconds_since(t0);
    return point;
  }
  const MemoRoutingEngine memo(router);
  const Clock::time_point t0 = Clock::now();
  const cdag::ImplicitCdag view(alg, k);
  point.l3 = memo.verify_chain_routing(view, k, 0);
  point.l4 = memo.verify_chain_multiplicities(view, k, 0);
  point.t2 = memo.verify_full_routing(view, k, 0);
  point.seconds = seconds_since(t0);
  return point;
}

DecodePoint run_decode_point(const RoutingSpec& spec) {
  const BilinearAlgorithm alg = bilinear::by_name(spec.algorithm);
  const ChainRouter router(alg);
  const DecodeRouter decoder(alg);
  DecodePoint point;
  point.spec = spec;
  const int k = spec.k;
  if (spec.engine == EngineKind::kBrute) {
    const cdag::Cdag graph(alg, k, {.with_coefficients = false});
    const cdag::SubComputation sub(graph, k, 0);
    const Clock::time_point t0 = Clock::now();
    point.hits = count_decode_hits(decoder, sub);
    point.stats = decode_stats_from_hits(decoder, sub, point.hits);
    point.seconds = seconds_since(t0);
    return point;
  }
  const MemoRoutingEngine memo(router, decoder);
  const Clock::time_point t0 = Clock::now();
  const cdag::ImplicitCdag view(alg, k);
  point.stats = memo.verify_decode_routing(view, k, 0);
  point.seconds = seconds_since(t0);
  return point;
}

void fill_chain_record(const ChainPoint& point, obs::BenchRecord& rec) {
  rec.set("experiment", "chain_routing")
      .set("algorithm", point.spec.algorithm)
      .set("k", point.spec.k)
      .set("engine", engine_name(point.spec.engine))
      .set("chains", point.l3.num_paths)
      .set("l3_max_hits", point.l3.max_hits)
      .set("l3_bound", point.l3.bound)
      .set("l4_exact", point.l4)
      .set("t2_max_vertex_hits", point.t2.max_vertex_hits)
      .set("t2_max_meta_hits", point.t2.max_meta_hits)
      .set("t2_bound", point.t2.bound)
      .set("ok", point.ok())
      .set("seconds", point.seconds)
      .set("max_rss_bytes", obs::max_rss_bytes());
}

void fill_decode_record(const DecodePoint& point, obs::BenchRecord& rec) {
  rec.set("experiment", "decode_routing")
      .set("algorithm", point.spec.algorithm)
      .set("k", point.spec.k)
      .set("engine", engine_name(point.spec.engine))
      .set("paths", point.stats.num_paths)
      .set("max_hits", point.stats.max_hits)
      .set("bound", point.stats.bound)
      .set("ok", point.stats.ok())
      .set("seconds", point.seconds)
      .set("max_rss_bytes", obs::max_rss_bytes());
}

RoutingSpec routing_spec_from_record(obs::RecordReader& in) {
  RoutingSpec spec;
  const std::string experiment =
      in.one_of("experiment", {"chain_routing", "decode_routing"});
  spec.algorithm = in.one_of("algorithm", bilinear::catalog_names());
  spec.k = static_cast<int>(in.integer("k", 1, INT_MAX));
  const std::string engine =
      in.one_of("engine", {"brute", "memo", "implicit"});
  spec.engine = engine == engine_name(EngineKind::kBrute) ? EngineKind::kBrute
                                                          : EngineKind::kMemo;
  if (in.ok() && experiment == "decode_routing" &&
      bilinear::decoding_components(bilinear::by_name(spec.algorithm)) != 1) {
    in.reject("algorithm",
              "decoding graph is disconnected (Claim 1 does not apply)");
  }
  return spec;
}

}  // namespace pathrouting::routing
