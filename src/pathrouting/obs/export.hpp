// Exporters for the data obs.hpp collects.
//
// Two output shapes, one per consumer:
//
//   * write_chrome_trace — the Trace Event Format ("X" complete
//     events) chrome://tracing and Perfetto load directly; spans keep
//     their logical tid and nesting depth.
//   * counters_as_bench_file — every counter as one record
//     {"metric": <name>, "value": <count>} in the BENCH_*.json schema
//     (bench_record.hpp), so metrics files and bench baselines go
//     through the same parser and the same gate.
//
// write_env_outputs() drives both from the environment (PR_TRACE_OUT,
// PR_METRICS_OUT); bench binaries call it at exit so
//
//   PR_OBS=1 PR_TRACE_OUT=trace.json ./bench_routing --engine=memo
//
// needs no flags. Writing anything with the layer disabled yields
// structurally valid, empty files — silence is never ambiguous.
#pragma once

#include <ostream>
#include <string>

#include "pathrouting/obs/bench_record.hpp"

namespace pathrouting::obs {

/// Chrome Trace Event Format dump of spans_snapshot(): one complete
/// ("X") event per span, timestamps in microseconds, pid 0, the span's
/// logical tid, and the nesting depth under "args".
void write_chrome_trace(std::ostream& os);

/// write_chrome_trace to `path`; false (with a stderr warning) when
/// the file cannot be created.
bool write_chrome_trace_file(const std::string& path);

/// counters_snapshot() in the BENCH_*.json schema: one record per
/// counter, name order. `commit` annotates every record (pass
/// obs::git_commit() or "unknown").
[[nodiscard]] BenchFile counters_as_bench_file(const std::string& bench_name,
                                               const std::string& commit);

/// Writes `file.to_json()` to `path`; false on I/O failure.
bool write_bench_file(const BenchFile& file, const std::string& path);

/// Honors PR_TRACE_OUT (chrome trace) and PR_METRICS_OUT (counters as
/// BENCH records named `metrics_name`). Returns false iff a requested
/// write failed.
bool write_env_outputs(const std::string& metrics_name,
                       const std::string& commit);

}  // namespace pathrouting::obs
