// Deterministic Zipf-ish request traces, a replay driver, and the
// gated service workloads (spec <-> run <-> record triples for
// service_cold_miss and service_trace / service_warm), shared by
// bench/bench_service.cpp and tools/pr_bench_gate.cpp so the committed
// BENCH_service.json counts can be re-derived exactly.
//
// The request space is a fixed catalog slice (per-algorithm kind/k
// ranges sized so a full cold sweep stays cheap); a seeded Xoshiro256
// permutation assigns Zipf ranks and requests are drawn with integer
// harmonic weights (weight of rank i proportional to 1/(i+1)) —
// integer arithmetic only, so the trace is bit-identical across
// platforms and libms.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pathrouting/obs/bench_record.hpp"
#include "pathrouting/service/service.hpp"

namespace pathrouting::service {

struct TraceSpec {
  std::uint64_t seed = 20260807;
  std::uint64_t num_requests = 2048;

  bool operator==(const TraceSpec&) const = default;
};

/// The enumerated request space the trace draws from (deterministic
/// order, before the seeded rank permutation).
[[nodiscard]] std::vector<Request> request_space();

/// The trace: num_requests draws, Zipf-ish over request_space().
[[nodiscard]] std::vector<Request> zipf_trace(const TraceSpec& spec);

struct ReplayResult {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t cache_hits = 0;  // responses with from_cache
  std::uint64_t computed = 0;    // responses computed on the spot
  std::uint64_t unique_keys = 0;  // distinct requests in the trace
  double seconds = 0;             // wall clock for the whole replay
  /// Client-observed per-request latencies in microseconds, split by
  /// hit/miss. Ordered by (client thread, request order) — sort before
  /// taking percentiles.
  std::vector<double> hit_us;
  std::vector<double> miss_us;
};

/// Replays `trace` against `svc` from `client_threads` concurrent
/// clients (contiguous shards, each served in order). With one client
/// every count in the result is deterministic: the first occurrence of
/// each key in the trace is a miss, every later one a hit.
[[nodiscard]] ReplayResult replay_trace(CertificateService& svc,
                                        std::span<const Request> trace,
                                        int client_threads);

/// p in [0,100] percentile of `values` (nearest-rank; 0 when empty).
[[nodiscard]] double percentile_us(std::vector<double> values, double p);

/// service_cold_miss: one chain certificate requested from a fresh
/// service over an empty throwaway store, so the whole request (arena
/// build, implicit-engine certification, store write) is on the clock.
struct ColdMissSpec {
  std::string algorithm;
  int k = 0;
};

struct ColdMissPoint {
  ColdMissSpec spec;
  Response response;
  double seconds = 0;
};

[[nodiscard]] ColdMissPoint run_cold_miss_point(const ColdMissSpec& spec);

/// Experiment "service_cold_miss"; the certificate words are recorded
/// only when the request succeeded.
void fill_cold_miss_record(const ColdMissPoint& point, obs::BenchRecord& rec);

/// Rebuilds the spec from a record written by fill_cold_miss_record; a
/// missing field, an unknown algorithm or a kind other than chain is
/// reported through `in`.
[[nodiscard]] ColdMissSpec cold_miss_spec_from_record(obs::RecordReader& in);

/// A trace replay. run_replay_point runs the two gated experiments:
/// "service_trace" replays the trace on a fresh service over an empty
/// throwaway store (first touch of each key misses, repeats hit), and
/// "service_warm" then replays it again on a second service that
/// reopens the populated store, so every answer is a store file hit.
/// bench_service also records "service_throughput" replays of its own
/// warm service; they are timing-only and never re-run.
struct ReplaySpec {
  std::string experiment;
  TraceSpec trace;
  int client_threads = 1;
};

struct ReplayPoint {
  ReplaySpec spec;
  ReplayResult result;  // of the last replay
};

/// Requires spec.experiment to be service_trace or service_warm.
[[nodiscard]] ReplayPoint run_replay_point(const ReplaySpec& spec);

void fill_replay_record(const ReplayPoint& point, obs::BenchRecord& rec);

/// Rebuilds a single-client service_trace / service_warm spec from a
/// record written by fill_replay_record.
[[nodiscard]] ReplaySpec replay_spec_from_record(obs::RecordReader& in);

}  // namespace pathrouting::service
