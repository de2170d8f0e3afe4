// Strong-scaling sweep runner shared by bench_distributed_scaling and
// pr_bench_gate: one (schedule, regime, P) point of the
// Ballard-Demmel-Holtz-Schwartz-Lipshitz strong-scaling experiment
// (PAPERS.md, arXiv:1202.3177), executed on the sparse superstep
// machine through the class-aggregate path so P = 10^6 simulated
// processors cost microseconds, not gigabytes.
//
// Every point carries exact u64 machine counters (the determinism
// contract the bench gate re-derives) next to derived double fields
// (lower bounds, model curves, ratios) that the gate ignores — libm
// may differ across builders, word counts may not.
#pragma once

#include <cstdint>
#include <string>

#include "pathrouting/obs/bench_record.hpp"
#include "pathrouting/parallel/machine.hpp"

namespace pathrouting::parallel {

/// Inputs of one sweep point. schedule selects the simulator:
///  * "summa": classical 2D SUMMA on a grid x grid machine
///    (P = grid^2), problem size n, panel width `panel`;
///  * "caps": CAPS BFS/DFS on P = b^bfs_levels processors for the
///    catalog algorithm `algorithm`, problem size n0^r.
struct ScalingSpec {
  std::string schedule;   // "summa" | "caps"
  std::string algorithm;  // catalog name for caps; "classical" for summa
  std::string regime;     // "minimal" | "knee" | "unbounded"
  std::uint64_t n = 0;    // summa matrix dimension (caps derives n0^r)
  std::uint64_t grid = 0;     // summa
  std::uint64_t panel = 0;    // summa
  int r = 0;                  // caps
  int bfs_levels = 0;         // caps
};

struct ScalingPoint {
  ScalingSpec spec;
  std::uint64_t n = 0;  // realized dimension (spec.n or n0^r)
  std::uint64_t procs = 0;
  std::uint64_t local_memory = 0;  // the regime's M in words
  // Exact machine counters (compared bit-for-bit by pr_bench_gate).
  std::uint64_t bandwidth_cost = 0;
  std::uint64_t total_words = 0;
  std::uint64_t supersteps = 0;
  std::uint64_t peak_memory = 0;  // summa only (caps memory is modeled)
  int bfs_steps = 0;              // caps only
  int dfs_steps = 0;              // caps only
  // Derived doubles (never gated): BDHLS bounds and model curves.
  double omega0 = 0;
  double lb_mem_dependent = 0;    // (n/sqrt(M))^{w0} M / P
  double lb_mem_independent = 0;  // n^2 / P^{2/w0}
  double lb_combined = 0;         // max of the two
  double model_pmax = 0;          // perfect-scaling limit n^{w0}/M^{w0/2}
  double model_bandwidth = 0;     // double cost model for cross-checking
  double ratio_vs_lb = 0;         // bandwidth_cost / lb_combined
  double seconds = 0;             // wall time of run_scaling_point
};

/// Local memory (words per processor) of a named regime at (n, P, w0):
///  * "minimal":   3n^2/P — just the distributed operands + product;
///  * "knee":      n^2/P^{2/w0} — exactly the M whose perfect-scaling
///                 limit P_max equals P (the falloff knee);
///  * "unbounded": 2^62, all-BFS territory.
std::uint64_t regime_memory(const std::string& regime, std::uint64_t n,
                            std::uint64_t procs, double w0);

/// Runs one sweep point (builds its own Machine).
ScalingPoint run_scaling_point(const ScalingSpec& spec);

/// Serializes a point onto the unified bench-record schema (experiment
/// "distributed_scaling"); spec fields are stored so the gate can
/// re-derive the point from the committed baseline alone.
void fill_scaling_record(const ScalingPoint& point, obs::BenchRecord& rec);

/// Rebuilds the spec from a baseline record written by
/// fill_scaling_record; a missing field, an unknown schedule, regime or
/// algorithm, or a SUMMA grid or panel that does not fit n is reported
/// through `in`.
ScalingSpec scaling_spec_from_record(obs::RecordReader& in);

}  // namespace pathrouting::parallel
