// pr_bench_gate — regression gate over committed BENCH_*.json files.
//
// Loads a baseline, re-runs every record that a row of the table below
// matches (one row per gated (experiment, engine)) through the
// observability layer, and fails when the fresh run regresses:
//
//   * every field a row does not declare soft must match the baseline
//     EXACTLY — counts, bounds, digests and verdicts are functions of
//     the spec alone (the determinism contract), so any drift is a
//     correctness bug, not noise;
//   * soft fields are never compared: each row's own (latencies,
//     speedups, derived doubles that go through libm) plus the
//     standard per-record "threads" and "commit";
//   * "seconds" may grow up to --tolerance x the baseline (floored at
//     --min-seconds, under which timing is pure jitter).
//
// A row names the experiment's spec <-> run <-> record triple, which
// lives beside the code it measures and is the one the bench wrote the
// baseline with: spec_from_record rebuilds the spec from the committed
// record, run_*_point re-runs it, fill_*_record writes the fresh
// record. Adding a gated experiment takes its triple plus one row.
// Records no row matches (brute engines, the throughput sweep) are not
// re-run; routing records above --kmax are skipped. Duplicate records
// (a baseline may concatenate a threads=1 and a threads=8 run) must
// agree on every compared field and collapse into one workload, timed
// against the fastest. The schedule-search roll-up is a row like the
// others; its fresh record is rebuilt from the fresh sweep points.
//
// BENCH files are outside input: a record with a missing spec field or
// an unknown algorithm is rejected (exit 2) naming the record and the
// field, before anything runs.
//
// The text diff goes to stdout; --report writes the same verdicts as a
// BENCH-schema JSON file, and --trace / --metrics dump the chrome trace
// and obs counters of the fresh run (PR_TRACE_OUT / PR_METRICS_OUT work
// too), annotated with the build's commit and the resolved thread
// count, so a CI artifact is self-describing.
//
// --self-test-pessimize corrupts every fresh record after measurement
// (seconds x100, the row's pessimize field +1); the gate must then fail
// with a readable diff — a gate that cannot fail gates nothing.
//
// Exit codes: 0 pass, 1 count/verdict mismatch (hard: the determinism
// contract is broken, CI must fail), 2 usage/parse errors or a
// malformed baseline record, 3 timing-only regression (soft: CI
// reports but does not fail — shared runners make wall clocks noisy,
// counts are not). A run with both kinds of failure exits 1.
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "pathrouting/obs/bench_record.hpp"
#include "pathrouting/obs/export.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/parallel/scaling.hpp"
#include "pathrouting/routing/routing_point.hpp"
#include "pathrouting/search/sweep.hpp"
#include "pathrouting/service/replay.hpp"
#include "pathrouting/support/cli.hpp"
#include "pathrouting/support/parallel.hpp"

namespace {

using namespace pathrouting;  // NOLINT

const char* git_commit() {
#ifdef PR_GIT_COMMIT
  return PR_GIT_COMMIT;
#else
  return "unknown";
#endif
}

/// Re-runs one baseline record and returns the fresh record. `earlier`
/// holds the fresh records of every workload run before it, which is
/// all a roll-up row reads.
using Rerun =
    std::function<obs::BenchRecord(std::span<const obs::BenchRecord> earlier)>;

/// Rebuilds a baseline record's spec; an empty Rerun rejects the record
/// with `error` naming the field.
using Prepare = Rerun (*)(const obs::BenchRecord& base, std::string& error);

template <auto spec_from_record, auto run_point, auto fill_record>
Rerun triple(const obs::BenchRecord& base, std::string& error) {
  obs::RecordReader in(base);
  const auto spec = spec_from_record(in);
  if (!in.ok()) {
    error = in.error();
    return {};
  }
  return [spec](std::span<const obs::BenchRecord> /*earlier*/) {
    obs::BenchRecord rec;
    fill_record(run_point(spec), rec);
    return rec;
  };
}

Rerun search_rollup(const obs::BenchRecord& /*base*/, std::string& /*error*/) {
  return [](std::span<const obs::BenchRecord> earlier) {
    obs::BenchRecord rec;
    search::fill_search_summary_record(earlier, rec);
    return rec;
  };
}

struct Row {
  const char* experiment;
  const char* engine;
  Prepare prepare;
  std::vector<std::string> soft;  // never compared (see header)
  const char* pessimize;          // --self-test-pessimize bumps it
  bool kmax_applies = false;      // skip records with k > --kmax
};

const std::vector<std::string> kRoutingSoft = {
    "speedup", "counts_bit_identical", "max_rss_bytes"};
const std::vector<std::string> kReplaySoft = {
    "hit_p50_us", "hit_p99_us", "miss_p50_us",
    "miss_p99_us", "rps",        "max_rss_bytes"};

const Row kTable[] = {
    {"chain_routing", "memo",
     triple<routing::routing_spec_from_record, routing::run_chain_point,
            routing::fill_chain_record>,
     kRoutingSoft, "l3_max_hits", true},
    {"decode_routing", "memo",
     triple<routing::routing_spec_from_record, routing::run_decode_point,
            routing::fill_decode_record>,
     kRoutingSoft, "max_hits", true},
    {"service_cold_miss", "service",
     triple<service::cold_miss_spec_from_record, service::run_cold_miss_point,
            service::fill_cold_miss_record>,
     {"cold_us", "max_rss_bytes"}, "chains"},
    {"service_trace", "service",
     triple<service::replay_spec_from_record, service::run_replay_point,
            service::fill_replay_record>,
     kReplaySoft, "cache_hits"},
    {"service_warm", "service",
     triple<service::replay_spec_from_record, service::run_replay_point,
            service::fill_replay_record>,
     kReplaySoft, "cache_hits"},
    {"distributed_scaling", "machine",
     triple<parallel::scaling_spec_from_record, parallel::run_scaling_point,
            parallel::fill_scaling_record>,
     {"omega0", "lb_mem_dependent", "lb_mem_independent", "lb_combined",
      "model_pmax", "model_bandwidth", "ratio_vs_lb"},
     "bandwidth_cost"},
    {"schedule_search", "search",
     triple<search::search_spec_from_record, search::run_search_point,
            search::fill_search_record>,
     {"ratio_vs_lb"}, "searched_io"},
    {"schedule_search_summary", "search", search_rollup, {},
     "certified_count"},
};

bool soft(const Row& row, const std::string& key) {
  return key == "seconds" || key == "threads" || key == "commit" ||
         std::find(row.soft.begin(), row.soft.end(), key) != row.soft.end();
}

struct Options {
  std::string baseline;
  int kmax = 5;
  double tolerance = 2.0;
  double min_seconds = 0.05;
  std::string report_path;
  std::string trace_path;
  std::string metrics_path;
  bool pessimize = false;
};

Options parse_options(int argc, char** argv) {
  support::Cli cli(argc, argv);
  Options opt;
  opt.baseline = cli.flag_str("baseline", "", "committed BENCH_*.json");
  const std::int64_t kmax =
      cli.flag_int("kmax", opt.kmax, "skip routing records above this k");
  opt.tolerance = cli.flag_double("tolerance", opt.tolerance,
                                  "allowed fresh/baseline seconds ratio");
  opt.min_seconds = cli.flag_double("min-seconds", opt.min_seconds,
                                    "below this, timing never fails");
  opt.report_path = cli.flag_str("report", "", "write verdicts as JSON");
  opt.trace_path = cli.flag_str("trace", "", "write the chrome trace");
  opt.metrics_path = cli.flag_str("metrics", "", "write the obs counters");
  opt.pessimize = cli.flag_bool("self-test-pessimize", false,
                                "corrupt every fresh record: must fail");
  cli.finish(
      "pr_bench_gate: re-runs a committed BENCH_*.json baseline; exit 1 "
      "on count drift, 3 on timing-only regression.");
  if (opt.baseline.empty()) cli.fail("--baseline is required");
  if (kmax < 1) cli.fail("--kmax must be >= 1");
  if (opt.tolerance < 1.0) cli.fail("--tolerance must be >= 1.0");
  opt.kmax = static_cast<int>(std::min<std::int64_t>(kmax, INT_MAX));
  return opt;
}

/// One gated workload of the baseline: its first record (the count
/// reference) and the fastest duplicate's seconds.
struct Workload {
  std::size_t row = 0;  // index into kTable
  const obs::BenchRecord* reference = nullptr;
  double base_seconds = 0;
  Rerun rerun;
};

double seconds_of(const obs::BenchRecord& rec) {
  const obs::BenchValue* v = rec.find("seconds");
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  obs::BenchParseResult parsed = obs::load_bench_file(opt.baseline);
  if (!parsed.file.has_value()) {
    std::fprintf(stderr, "pr_bench_gate: %s\n", parsed.error.c_str());
    return 2;
  }
  const obs::BenchFile& baseline = *parsed.file;

  // Collect the gated workloads, rebuilding each spec up front so a
  // malformed record is rejected before anything runs.
  std::vector<Workload> workloads;
  std::map<std::string, std::size_t> index;
  int skipped_k = 0;
  for (std::size_t i = 0; i < baseline.records.size(); ++i) {
    const obs::BenchRecord& rec = baseline.records[i];
    const std::string experiment = rec.text_or("experiment", "");
    const std::string engine = rec.text_or("engine", "");
    const auto* row = std::find_if(
        std::begin(kTable), std::end(kTable), [&](const Row& r) {
          return experiment == r.experiment && engine == r.engine;
        });
    if (row == std::end(kTable)) continue;
    if (row->kmax_applies && rec.int_or("k", 0) > opt.kmax) {
      ++skipped_k;
      continue;
    }
    const std::string key = experiment + '/' + rec.text_or("algorithm", "") +
                            '/' + std::to_string(rec.int_or("k", 0)) + "/m" +
                            std::to_string(rec.int_or("m", 0));
    const auto [it, inserted] = index.emplace(key, workloads.size());
    if (inserted) {
      std::string error;
      Rerun rerun = row->prepare(rec, error);
      if (!rerun) {
        std::fprintf(stderr, "pr_bench_gate: %s records[%zu] (%s): %s\n",
                     opt.baseline.c_str(), i, experiment.c_str(),
                     error.c_str());
        return 2;
      }
      workloads.push_back({static_cast<std::size_t>(row - std::begin(kTable)),
                           &rec, seconds_of(rec), std::move(rerun)});
      continue;
    }
    Workload& wl = workloads[it->second];
    wl.base_seconds = std::min(wl.base_seconds, seconds_of(rec));
    for (const auto& [fkey, fval] : wl.reference->fields()) {
      if (soft(*row, fkey)) continue;
      const obs::BenchValue* other = rec.find(fkey);
      if (other == nullptr || other->json() != fval.json()) {
        std::fprintf(stderr,
                     "pr_bench_gate: baseline is self-inconsistent: %s "
                     "field %s\n",
                     key.c_str(), fkey.c_str());
        return 2;
      }
    }
  }
  if (workloads.empty()) {
    std::fprintf(stderr,
                 "pr_bench_gate: baseline %s has no gated records (routing "
                 "records need k <= %d)\n",
                 opt.baseline.c_str(), opt.kmax);
    return 2;
  }
  // Table order runs every roll-up after the points it sums.
  std::stable_sort(workloads.begin(), workloads.end(),
                   [](const Workload& a, const Workload& b) {
                     return a.row < b.row;
                   });

  // Trace and count the fresh runs regardless of env: the artifact CI
  // uploads should never be silently empty.
  obs::set_enabled(true);
  obs::reset_counters();
  obs::clear_spans();

  const std::string baseline_commit =
      baseline.records.front().text_or("commit", "unknown");
  std::printf(
      "pr_bench_gate: baseline %s (commit %s) vs build %s (threads %d), "
      "%zu workloads, tolerance %.2fx, floor %.3fs\n",
      opt.baseline.c_str(), baseline_commit.c_str(), git_commit(),
      support::parallel::num_threads(), workloads.size(), opt.tolerance,
      opt.min_seconds);
  if (skipped_k > 0) {
    std::printf("  (%d baseline records above --kmax=%d skipped)\n",
                skipped_k, opt.kmax);
  }
  if (opt.pessimize) {
    std::printf(
        "  self-test: pessimizing every fresh record — the gate MUST "
        "fail\n");
  }

  obs::BenchFile report;
  report.bench = "gate_report";
  report.threads = support::parallel::num_threads();
  report.extra.emplace_back("baseline", opt.baseline);
  report.extra.emplace_back("baseline_commit", baseline_commit);

  int count_failures = 0;
  int slow_failures = 0;
  std::vector<obs::BenchRecord> fresh_records;
  fresh_records.reserve(workloads.size());
  for (const Workload& wl : workloads) {
    const Row& row = kTable[wl.row];
    const obs::BenchRecord& base = *wl.reference;
    const std::string algorithm = base.text_or("algorithm", "");
    const auto k = static_cast<int>(base.int_or("k", 0));
    fresh_records.push_back(wl.rerun(fresh_records));
    obs::BenchRecord& fresh = fresh_records.back();
    // --self-test-pessimize corrupts the record, never the engines.
    const double seconds = (opt.pessimize ? 100.0 : 1.0) * seconds_of(fresh);

    std::vector<std::string> mismatched;
    const auto mismatch = [&](const std::string& field,
                              const std::string& what) {
      if (std::find(mismatched.begin(), mismatched.end(), field) ==
          mismatched.end()) {
        mismatched.push_back(field);
      }
      std::printf("FAIL %s %s k=%d: %s %s\n", row.experiment,
                  algorithm.c_str(), k, field.c_str(), what.c_str());
    };
    if (opt.pessimize) {
      fresh.set("seconds", seconds);
      const obs::BenchValue* v = fresh.find(row.pessimize);
      if (v == nullptr || v->kind != obs::BenchValue::Kind::kInt) {
        mismatch(row.pessimize,
                 "(pessimize field) missing or not an integer in the fresh "
                 "record");
      } else {
        fresh.set(row.pessimize, static_cast<std::uint64_t>(v->int_value) + 1);
      }
    }

    // Exact comparison of every field the row does not declare soft.
    for (const auto& [fkey, fval] : base.fields()) {
      if (soft(row, fkey)) continue;
      const obs::BenchValue* fresh_v = fresh.find(fkey);
      if (fresh_v == nullptr || fresh_v->json() != fval.json()) {
        const std::string got =
            fresh_v == nullptr ? "<missing>" : fresh_v->json();
        mismatch(fkey, "baseline=" + fval.json() + " fresh=" + got);
      }
    }

    const double allowed =
        std::max(wl.base_seconds * opt.tolerance, opt.min_seconds);
    const bool slow = seconds > allowed;
    const double ratio = wl.base_seconds > 0 ? seconds / wl.base_seconds : 0.0;
    if (slow) {
      std::printf(
          "FAIL %s %s k=%d: seconds %.6f vs baseline %.6f "
          "(%.1fx, allowed %.6f)\n",
          row.experiment, algorithm.c_str(), k, seconds, wl.base_seconds,
          ratio, allowed);
      ++slow_failures;
    }
    if (!mismatched.empty()) ++count_failures;
    if (mismatched.empty() && !slow) {
      std::printf("ok   %s %s k=%d (%.6fs, baseline %.6fs)\n", row.experiment,
                  algorithm.c_str(), k, seconds, wl.base_seconds);
    }

    report.records.emplace_back();
    auto& rrec = report.records.back()
                     .set("experiment", row.experiment)
                     .set("algorithm", algorithm)
                     .set("k", k)
                     .set("status", !mismatched.empty() ? "count-mismatch"
                                    : slow              ? "slow"
                                                        : "ok")
                     .set("baseline_seconds", wl.base_seconds)
                     .set("seconds", seconds)
                     .set("ratio", ratio);
    if (!mismatched.empty()) {
      std::string fields;
      for (const std::string& f : mismatched) {
        fields += (fields.empty() ? "" : ",") + f;
      }
      rrec.set("fields_mismatched", fields);
    }
  }

  obs::finalize_records(report, git_commit());
  if (!opt.report_path.empty() &&
      !obs::write_bench_file(report, opt.report_path)) {
    return 2;
  }
  if (!opt.trace_path.empty() &&
      !obs::write_chrome_trace_file(opt.trace_path)) {
    return 2;
  }
  if (!opt.metrics_path.empty() &&
      !obs::write_bench_file(
          obs::counters_as_bench_file("gate_metrics", git_commit()),
          opt.metrics_path)) {
    return 2;
  }
  obs::write_env_outputs("gate_metrics", git_commit());

  const char* verdict = count_failures > 0  ? "FAILED"
                        : slow_failures > 0 ? "SLOW"
                                            : "PASSED";
  std::printf(
      "pr_bench_gate: %s (%d count mismatches, %d timing regressions "
      "over %zu workloads)\n",
      verdict, count_failures, slow_failures, workloads.size());
  // Counts are the determinism contract — exit 1 hard-fails CI.
  // Timing alone exits 3 so the workflow can downgrade it to a
  // warning without masking count drift.
  if (count_failures > 0) return 1;
  if (slow_failures > 0) return 3;
  return 0;
}
