// One (algorithm, k, engine) check of the routing theorems on the
// whole G_k, shared by bench_routing and pr_bench_gate: the same code
// path writes BENCH_routing_memo.json and re-derives it in CI, so a
// count diff is a behavioural change, never a harness skew.
//
//   chain_routing:  Lemma 3 (chains hit a vertex at most 2 n0^k
//                   times), Lemma 4 (every chain used exactly 3 n0^k
//                   times) and Theorem 2 (at most 6 a^k hits).
//   decode_routing: Claim 1 (zig-zags hit a vertex of D_k at most
//                   |D_1| max(a,b)^k times).
//
// The brute engine enumerates every path on a materialized G_k (the
// oracle) and keeps its per-vertex hit arrays in the point. The memo
// engine evaluates the closed forms by one digit-state DP on
// cdag::ImplicitCdag and never builds G_k; its records are tagged
// "memo" (BENCH_implicit_cdag.json tags the same engine "implicit",
// and both names read back as EngineKind::kMemo). `seconds` times the
// engine alone: the CDAG build and the engine's construction are
// outside the clock, the implicit view's construction inside it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pathrouting/obs/bench_record.hpp"
#include "pathrouting/routing/concat_routing.hpp"
#include "pathrouting/routing/memo_routing.hpp"

namespace pathrouting::routing {

struct RoutingSpec {
  std::string algorithm;  // catalog name (bilinear::by_name)
  int k = 1;
  EngineKind engine = EngineKind::kMemo;
};

struct ChainPoint {
  RoutingSpec spec;
  HitStats l3;
  bool l4 = false;
  FullRoutingStats t2;
  ChainHitCounts counts;  // brute engine only
  double seconds = 0;
  [[nodiscard]] bool ok() const { return l3.ok() && l4 && t2.ok(); }
};

struct DecodePoint {
  RoutingSpec spec;
  HitStats stats;
  std::vector<std::uint64_t> hits;  // brute engine only
  double seconds = 0;
};

ChainPoint run_chain_point(const RoutingSpec& spec);

/// Requires a base whose decoding graph is connected
/// (bilinear::decoding_components == 1).
DecodePoint run_decode_point(const RoutingSpec& spec);

/// Experiments "chain_routing" and "decode_routing".
void fill_chain_record(const ChainPoint& point, obs::BenchRecord& rec);
void fill_decode_record(const DecodePoint& point, obs::BenchRecord& rec);

/// Rebuilds the spec from a record written by either fill function; a
/// missing field, an unknown algorithm or engine, or a decode_routing
/// base with a disconnected decoding graph is reported through `in`.
RoutingSpec routing_spec_from_record(obs::RecordReader& in);

}  // namespace pathrouting::routing
