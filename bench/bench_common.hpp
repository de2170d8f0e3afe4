// Shared helpers for the experiment benches: consistent headers,
// wall-clock timing, and machine-readable result files.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "pathrouting/obs/bench_record.hpp"
#include "pathrouting/obs/export.hpp"
#include "pathrouting/support/parallel.hpp"

namespace pathrouting::bench {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void print_banner(const std::string& experiment,
                         const std::string& claim) {
  std::printf("\n=== %s ===\n%s\n\n", experiment.c_str(), claim.c_str());
}

/// Machine-readable bench results on the unified record schema
/// (obs/bench_record.hpp). Collects flat key/value records and writes
/// them to `BENCH_<name>.json` in the working directory (or
/// `$PR_BENCH_JSON_DIR` if set) when `write()` is called or the object
/// is destroyed. Schema:
///   {"bench": <name>, "threads": <PR_THREADS resolution>,
///    "records": [{<config/counts/seconds fields>}, ...]}
/// The standard per-record fields "threads" and "commit" are injected
/// automatically at write time — bench main()s only set what is
/// specific to the measurement, and pr_bench_gate can parse any
/// baseline. Counts recorded here are the determinism contract
/// surface: they must be bit-identical across thread counts (see
/// README "Threading").
class BenchJson {
 public:
  explicit BenchJson(std::string name) { file_.bench = std::move(name); }
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;
  ~BenchJson() { write(); }

  obs::BenchRecord& add_record() {
    file_.records.emplace_back();
    return file_.records.back();
  }

  [[nodiscard]] const std::vector<obs::BenchRecord>& records() const {
    return file_.records;
  }

  void write() {
    if (written_) return;
    written_ = true;
    file_.threads = support::parallel::num_threads();
    obs::finalize_records(file_, obs::git_commit());
    std::string dir;
    if (const char* env = std::getenv("PR_BENCH_JSON_DIR")) {
      dir = std::string(env) + "/";
    }
    const std::string path = dir + "BENCH_" + file_.bench + ".json";
    if (obs::write_bench_file(file_, path)) {
      std::printf("wrote %s\n", path.c_str());
    }
  }

 private:
  obs::BenchFile file_;
  bool written_ = false;
};

}  // namespace pathrouting::bench
